"""A cross-shard grant survives a router crash whole or not at all.

The router writes a split's trunk record before any part commits and
gives the parts back before the record on release, so whichever
``LedgerWal.append`` the crash stops — the trunk's or a shard's, in the
commit or in the release — a reopened router holds the composite with
every node and its record, or holds nothing of it.  In the style of
``test_wal.py``'s crash-at-any-point property: hypothesis picks the
append that dies.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import ApplicationSpec
from repro.service import LedgerWal, ShardRouter
from repro.topology import two_campus
from repro.units import Mbps

GRAPH = two_campus(fast_hosts=8, slow_hosts=8)
SPEC = ApplicationSpec(num_nodes=4)


class _Crash(BaseException):
    """The router process stops inside a log append: nothing after it
    runs, so no ``except Exception`` rollback can tidy up."""


def _open(state_dir):
    return ShardRouter(GRAPH, shards=4, state_dir=state_dir, lease_s=1e9)


def _books(r, app_id):
    """``(nodes the shards hold for app_id, nodes its record names)``."""
    held = set()
    for shard in range(r.k):
        sub = r._exec.call(shard, "reservation_map").get(f"{app_id}@{shard}")
        if sub is not None:
            held.update(sub[0])
    record = r.trunk.reservations.get(app_id)
    return held, set(record.nodes) if record is not None else None


@settings(max_examples=60, deadline=None)
@given(bw_bps=st.sampled_from([0.0, 1 * Mbps]), spread=st.sampled_from([2, 3]),
       step=st.sampled_from(["commit", "release"]), at=st.integers(1, 6))
def test_a_composite_is_whole_or_absent_after_a_crash_at_any_append(
    tmp_path_factory, bw_bps, spread, step, at
):
    state_dir = str(tmp_path_factory.mktemp("composite-crash"))
    r = _open(state_dir)
    # A local grant beside the composite: recovery must keep it.
    assert r.request("local", ApplicationSpec(num_nodes=2),
                     cpu_fraction=0.2).admitted
    claim = {"cpu_fraction": 0.1, "bw_bps": bw_bps, "spread": spread}
    if step == "release":
        grant = r.request("x", SPEC, **claim)
        assert grant.admitted and len(grant.parts) >= spread
    appends, real_append = [], LedgerWal.append

    def append(wal, *event):
        appends.append(event)
        if len(appends) >= at:
            raise _Crash
        return real_append(wal, *event)

    crashed = False
    with mock.patch.object(LedgerWal, "append", append):
        try:
            if step == "commit":
                grant = r.request("x", SPEC, **claim)
                assert grant.admitted and len(grant.parts) >= spread
            else:
                r.release("x")
        except _Crash:
            crashed = True
    # The router is abandoned, not closed: its logs hold what they hold.
    nodes = set(grant.selection.nodes) if step == "release" else None
    r2 = _open(state_dir)
    try:
        assert "local" in r2.active_apps()
        held, record = _books(r2, "x")
        if "x" in r2.active_apps():
            assert held == record and len(held) == SPEC.num_nodes
            assert set(r2.status("x").selection.nodes) == held
            assert nodes is None or held == nodes
        else:
            assert held == set() and record is None
        if not crashed:
            assert ("x" in r2.active_apps()) == (step == "commit")
        r2.check_invariants()
    finally:
        r2.close()
