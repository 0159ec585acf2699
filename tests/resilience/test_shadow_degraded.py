"""Degraded-mode semantics of a mirror, a parity group of width 1.

Every scenario runs twice: with the data drive as the victim, and with its
mirror (the group's check drive). A read whose drive dies mid-request is
re-served inside the request, a write completes when one drive dies
between its two legs, and a rebuild catches up with writes that race it.
"""

import numpy as np
import pytest

from repro.devices import WREN_1989, DeviceController, DeviceFailedError, DiskGeometry, DiskModel
from repro.sim import Environment
from repro.storage import StaleParityError
from tests.resilience.groups import GEO, GroupStack

VICTIMS = ("data", "check")


def make_pair(env, spares=0):
    stack = GroupStack(env, spares=spares)
    return stack, stack.data[0], stack.check(0)


def victim(stack, which):
    return stack.data[0] if which == "data" else stack.check(0)


def test_read_fails_over_mid_request_when_its_member_dies():
    for which in VICTIMS:
        env = Environment()
        pair, p, s = make_pair(env)
        p.poke(0, b"\xab" * 512)
        s.poke(0, b"\xab" * 512)
        got = []

        def reader():
            data = yield pair.read(0, 0, 512)  # served by the data drive
            got.append(bytes(data))

        def killer():
            yield env.timeout(0.0005)  # while the read is in flight
            victim(pair, which).fail()

        env.process(reader())
        env.process(killer())
        env.run()
        assert got == [b"\xab" * 512], which  # the client saw a completed read
        # a dead data drive is seen by the read; a dead mirror reports itself
        assert list(pair.rv.failed_at) == [0 if which == "data" else 1]
        assert pair.rv.stats.degraded_reads == (which == "data")


def test_write_completes_when_a_member_dies_between_the_two_writes():
    for which in VICTIMS:
        env = Environment()
        pair, p, s = make_pair(env)
        done = []

        def writer():
            n = yield pair.write(0, 0, b"\xcd" * 512)
            done.append(n)

        def killer():
            yield env.timeout(0.0005)  # between issue and completion
            victim(pair, which).fail()

        env.process(writer())
        env.process(killer())
        env.run()
        assert done == [512], which  # the client's write completed
        survivor = s if which == "data" else p
        assert bytes(survivor.peek(0, 512)) == b"\xcd" * 512
        if which == "data":
            assert pair.rv.journal.pending(0) == 1  # kept for the rebuild
            assert pair.rv.stats.degraded_writes == 1
        else:
            assert pair.group.stale_units == 1  # unprotected, and known to be
        assert len(pair.rv.failed_at) == 1


def test_degraded_at_issue_write_is_logged_and_fires_hook_once():
    for which in VICTIMS:
        env = Environment()
        pair, p, s = make_pair(env)
        victim(pair, which).fail()

        def writer():
            yield pair.write(0, 100, b"\x11" * 64)
            yield pair.write(0, 300, b"\x22" * 32)

        env.run(env.process(writer()))
        if which == "data":
            # the mirror took both writes, the journal keeps them for the rebuild
            entries = pair.rv.journal.entries_for(0)
            assert [(e.offset, len(e.data)) for e in entries] == [(100, 64), (300, 32)]
            assert bytes(s.peek(100, 64)) == b"\x11" * 64
            assert pair.rv.stats.degraded_writes == 2
        else:
            assert bytes(p.peek(300, 32)) == b"\x22" * 32
            assert pair.group.stale_ranges(0) == [(0, 4096)]
        assert list(pair.rv.failed_at) == [0 if which == "data" else 1]


def test_write_with_both_members_dead_fails():
    for which in VICTIMS:
        env = Environment()
        pair, p, s = make_pair(env)
        first = victim(pair, which)
        second = s if first is p else p
        outcome = []

        def writer():
            first.fail()
            yield pair.write(0, 0, b"x")  # degraded, but it stands
            second.fail()
            try:
                yield pair.write(0, 0, b"y")
            except DeviceFailedError:
                outcome.append("write failed")
            try:
                yield pair.read(0, 0, 1)
            except (DeviceFailedError, StaleParityError):  # no copy left to read
                outcome.append("read failed")

        env.run(env.process(writer()))
        assert outcome == ["write failed", "read failed"], which


def test_quiesce_event_waits_out_in_flight_writes():
    """A rebuild racing writes: the survivor keeps taking them, and the
    rebuild copies what its bulk pass missed (the journal for a data drive,
    the stale units for a mirror) before it swaps the spare in."""
    for which in VICTIMS:
        env = Environment()
        pair, p, s = make_pair(env, spares=1)
        gold = pair.fill()[0]
        victim(pair, which).fail()
        pair.rv.rebuilder.start(0 if which == "data" else 1)

        def writer(off):
            yield env.timeout(0.002 * off / 4096)  # some before, some after the copy
            yield pair.write(0, off, b"z" * 512)

        for off in range(0, pair.cap, pair.cap // 8):
            env.process(writer(off))
        env.run()
        expected = gold.copy()
        for off in range(0, pair.cap, pair.cap // 8):
            expected[off:off + 512] = ord("z")
        assert pair.rv.stats.rebuilds_completed == 1, which
        assert pair.rv.stats.rebuild_bytes > pair.cap  # the catch-up copied more
        assert np.array_equal(pair.data[0].peek(0, pair.cap), expected)
        assert pair.redundant()
        assert pair.rv.journal.pending(0) == 0


def test_replace_failed_validations():
    env = Environment()
    pair, p, s = make_pair(env)
    spare = DeviceController(env, DiskModel(GEO, WREN_1989), name="spare")
    small = DeviceController(
        env,
        DiskModel(DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=8), WREN_1989),
        name="small",
    )
    with pytest.raises(ValueError):
        pair.group.replace(0, small)
    dead_spare = DeviceController(env, DiskModel(GEO, WREN_1989), name="ds")
    dead_spare.fail()
    with pytest.raises(ValueError):
        pair.group.replace(1, dead_spare)
    pair.group.replace(1, spare)
    assert pair.group.drive(1) is spare and pair.check(0) is spare
    assert pair.group.drive(0) is p
