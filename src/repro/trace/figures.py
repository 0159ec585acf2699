"""ASCII rendering of file access patterns — regenerates the paper's Figure 1.

Figure 1 of the paper shows, for each sequential organization, which of a
file's blocks each of three processes accesses. :func:`render_block_map`
reproduces that as a labelled strip of blocks, e.g. for IS with three
processes::

    +----+----+----+----+----+----+
    | P1 | P2 | P3 | P1 | P2 | P3 |
    +----+----+----+----+----+----+

and :func:`render_figure1_panel` renders each of the panels (a)-(d) from
actual traces of the implementation, so the figure is *measured*, not drawn.
"""

from __future__ import annotations

__all__ = ["render_block_map", "render_figure1_panel"]


def render_block_map(owners: list[int | None], width: int = 4) -> str:
    """A strip of blocks labelled by owning process (1-based, as the paper).

    ``owners[b]`` is the process that accessed block ``b`` (or None for an
    unaccessed block).
    """
    cells = [
        (f"P{o + 1}" if o is not None else "--").center(width) for o in owners
    ]
    sep = "+" + "+".join("-" * width for _ in cells) + "+"
    row = "|" + "|".join(cells) + "|"
    return f"{sep}\n{row}\n{sep}"


def render_figure1_panel(
    label: str,
    description: str,
    blocks_by_process: dict[int, list[int]],
    n_blocks: int,
    width: int = 4,
) -> str:
    """One panel of Figure 1 from a measured trace."""
    owners: list[int | None] = [None] * n_blocks
    for p, blist in blocks_by_process.items():
        for b in blist:
            owners[b] = p
    body = render_block_map(owners, width)
    return f"({label}) {description}\n{body}"
