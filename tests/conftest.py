"""Suite-wide pytest plumbing: the engine sanitizer harness.

Run the whole suite under the engine invariant sanitizer with::

    PYTHONPATH=src python -m pytest -q --sanitize

(or set ``REPRO_SANITIZE=1``). Every :class:`~repro.sim.Environment`
constructed during the run gets an attached collecting
:class:`~repro.sanitize.EngineSanitizer`; a test fails if any engine
invariant (lock slots and wakeups, store wakeups, event lifecycle) was
violated while it ran.

Environments that already carry a sanitizer (``Environment(strict=True)``
or an explicit ``sanitize.attach``) are left to the owning test — they
may be seeding violations on purpose.
"""

import os

import pytest

_SANITIZERS: list = []
_ORIG_INIT = None


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="attach the engine invariant sanitizer to every Environment "
        "and fail tests on violations",
    )


def _enabled(config) -> bool:
    return bool(
        config.getoption("--sanitize", default=False)
        or os.environ.get("REPRO_SANITIZE") == "1"
    )


def pytest_sessionstart(session):
    if not _enabled(session.config):
        return
    global _ORIG_INIT
    from repro.sanitize import attach
    from repro.sim.engine import Environment

    _ORIG_INIT = Environment.__init__

    def patched_init(self, *args, **kwargs):
        _ORIG_INIT(self, *args, **kwargs)
        if self._sanitizer is None:
            _SANITIZERS.append(attach(self))

    Environment.__init__ = patched_init


def pytest_sessionfinish(session):
    global _ORIG_INIT
    if _ORIG_INIT is not None:
        from repro.sim.engine import Environment

        Environment.__init__ = _ORIG_INIT
        _ORIG_INIT = None


def pytest_runtest_teardown(item):
    if _ORIG_INIT is None:
        return
    violations = [v for s in _SANITIZERS for v in s.violations]
    _SANITIZERS.clear()
    if violations:
        rows = "\n".join(v.row() for v in violations)
        pytest.fail(
            f"{len(violations)} engine sanitizer violation(s):\n{rows}",
            pytrace=False,
        )
