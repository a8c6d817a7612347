"""Durability tests: the WAL, snapshots, and crash recovery.

The centerpiece is a hypothesis property test that churns a ledger
through random grants/releases/renews/expiries, "crashes" it by
truncating the WAL at a random byte offset, recovers, and asserts the
recovered claim state is **exactly** (``==``, bit-for-bit floats) the
state the original ledger had at the last surviving record — the
guarantee the residual graph's bit-identity rests on.
"""

import json
import os
import shutil
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec
from repro.service import (
    LedgerError,
    LedgerWal,
    RecoveryReport,
    ReservationLedger,
    SelectionService,
    WalCorruptError,
    WalError,
)
from repro.service.cache import _SELECTION_MEMO_LIMIT
from repro.service.cli import main
from repro.service.ledger import ledger_order, route_edges
from repro.service.wal import SNAPSHOT_NAME, WAL_NAME, open_ledger
from repro.topology import TopologyGraph, dumbbell, star, to_json
from repro.units import Mbps

from ..oracles import ReferenceWal, reference_wal_service


def make_ledger_with_wal(state_dir, **wal_kwargs):
    ledger = ReservationLedger()
    wal = LedgerWal(str(state_dir), **wal_kwargs)
    wal.attach(ledger)
    return ledger, wal


def grant(ledger, graph, app, nodes, *, cpu=0.2, bw=5e6, now=0.0, lease=60.0):
    return ledger.reserve(
        app, nodes, cpu_fraction=cpu, bw_bps=bw, graph=graph,
        now=now, lease_s=lease,
    )


def lease_caps(ledger):
    """Each live lease's caps: the one store of a claimed channel's cap."""
    return {app: r.caps for app, r in ledger.reservations.items()}


def assert_same_ledger(recovered, ledger):
    assert recovered.reservations == ledger.reservations
    assert lease_caps(recovered) == lease_caps(ledger)
    assert recovered.node_claims() == ledger.node_claims()
    assert recovered.edge_claims() == ledger.edge_claims()


class TestWalBasics:
    def test_every_mutation_appends_one_record(self, tmp_path):
        graph = dumbbell(2, 2)
        ledger, wal = make_ledger_with_wal(tmp_path)
        grant(ledger, graph, "a", ("l0", "l1"))
        ledger.renew("a", 10.0, 60.0)
        ledger.release("a")
        kinds = [
            json.loads(line)["kind"]
            for line in (tmp_path / WAL_NAME).read_text().splitlines()
        ]
        assert kinds == ["grant", "renew", "release"]

    def test_removal_kinds_are_recorded_verbatim(self, tmp_path):
        graph = dumbbell(2, 2)
        ledger, wal = make_ledger_with_wal(tmp_path)
        for app, kind in [("a", "expire"), ("b", "evict"), ("c", "preempt")]:
            grant(ledger, graph, app, ("l0",), bw=0.0)
            ledger.release(app, kind=kind)
        kinds = [
            json.loads(line)["kind"]
            for line in (tmp_path / WAL_NAME).read_text().splitlines()
        ]
        assert kinds[1::2] == ["expire", "evict", "preempt"]

    def test_clamp_expiry_logs_the_moved_deadline(self, tmp_path):
        """A renew that moves the deadline earlier is logged as one."""
        graph = dumbbell(2, 2)
        ledger, wal = make_ledger_with_wal(tmp_path)
        grant(ledger, graph, "a", ("l0",), now=0.0, lease=60.0)
        ledger.renew("a", 1.0, 4.0)
        last = json.loads(
            (tmp_path / WAL_NAME).read_text().splitlines()[-1]
        )
        assert last["kind"] == "renew"
        assert last["expires_at"] == 5.0

    def test_snapshot_compacts_the_log(self, tmp_path):
        graph = dumbbell(2, 2)
        ledger, wal = make_ledger_with_wal(tmp_path, snapshot_every=4)
        for i in range(6):
            grant(ledger, graph, f"a{i}", ("l0",), cpu=0.1, bw=0.0)
        assert wal.snapshots == 1
        lines = (tmp_path / WAL_NAME).read_text().splitlines()
        assert len(lines) == 2  # records 5 and 6, post-compaction
        assert (tmp_path / SNAPSHOT_NAME).exists()

    def test_seq_continues_across_reopen(self, tmp_path):
        graph = dumbbell(2, 2)
        ledger, wal = make_ledger_with_wal(tmp_path)
        grant(ledger, graph, "a", ("l0",), bw=0.0)
        wal.close()
        ledger2 = ReservationLedger.recover(str(tmp_path))
        wal2 = LedgerWal(str(tmp_path))
        wal2.attach(ledger2)
        ledger2.release("a")
        report = ReservationLedger.recover(str(tmp_path)).recovery
        assert report.leases == 0
        assert report.last_seq == 2

    def test_closed_wal_refuses_appends(self, tmp_path):
        ledger, wal = make_ledger_with_wal(tmp_path)
        lease = grant(ledger, dumbbell(2, 2), "a", ("l0",), bw=0.0)
        wal.close()
        with pytest.raises(Exception, match="closed"):
            wal.append("release", lease)

    def test_a_subscribed_but_unattached_wal_refuses_a_grant(self, tmp_path):
        """Subscribed without ``attach()``, the log has no ledger to read
        a grant's channel capacities from: it raises before writing a
        record that recovery could not replay."""
        ledger = ReservationLedger()
        wal = LedgerWal(str(tmp_path))
        ledger.subscribe(wal.on_event)
        with pytest.raises(WalError, match="attach"):
            grant(ledger, star(4), "a", ("h0", "h1"))
        assert (tmp_path / WAL_NAME).read_bytes() == b""
        assert wal.appended == 0
        assert ReservationLedger.recover(str(tmp_path)).active == 0


class _Syscalls:
    """Records, in order, what reaches the disk's metadata: each
    ``os.replace`` (its target's name), each ``os.fsync`` (of a file or
    a directory), each ``os.open`` and each truncation of the log
    handle."""

    def __init__(self, monkeypatch):
        self.calls = []
        real_replace, real_fsync, real_open = os.replace, os.fsync, os.open

        def replace(src, dst):
            self.calls.append(("replace", os.path.basename(dst)))
            return real_replace(src, dst)

        def fsync(fd):
            mode = os.fstat(fd).st_mode
            self.calls.append(("fsync", "dir" if stat.S_ISDIR(mode) else "file"))
            return real_fsync(fd)

        def open_(path, *args, **kwargs):
            self.calls.append(("open", os.path.basename(path)))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "open", open_)

    def watch(self, wal):
        """Record the truncations of ``wal``'s log handle too."""
        calls, fh = self.calls, wal._fh

        class Handle:
            def truncate(self, size):
                calls.append(("truncate", size))
                return fh.truncate(size)

            def __getattr__(self, name):
                return getattr(fh, name)

        wal._fh = Handle()


class TestDurableCompaction:
    """With ``fsync=True`` a compaction's rename reaches the disk before
    the log's truncation can: otherwise a power loss may keep the empty
    log and the old snapshot, and lose every lease logged since it."""

    def test_the_directory_is_synced_between_rename_and_truncate(
        self, tmp_path, monkeypatch
    ):
        ledger, wal = make_ledger_with_wal(tmp_path, fsync=True)
        grant(ledger, dumbbell(2, 2), "a", ("l0", "r0"))
        calls = _Syscalls(monkeypatch)
        calls.watch(wal)
        wal.snapshot()
        moves = [c for c in calls.calls if c[0] != "open"]
        assert moves == [
            ("fsync", "file"),  # the snapshot's temp file
            ("replace", SNAPSHOT_NAME),
            ("fsync", "dir"),
            ("truncate", 0),
        ]
        assert ReservationLedger.recover(str(tmp_path)).active == 1

    def test_the_directory_is_synced_once_the_log_is_created(
        self, tmp_path, monkeypatch
    ):
        calls = _Syscalls(monkeypatch)
        wal = LedgerWal(str(tmp_path / "state"), fsync=True)
        assert (tmp_path / "state" / WAL_NAME).exists()
        assert ("fsync", "dir") in calls.calls
        wal.close()

    def test_without_fsync_no_call_is_added(self, tmp_path, monkeypatch):
        """``fsync=False`` (the benchmark's path): opening, appending
        and compacting make no ``os.open`` and no ``os.fsync``."""
        calls = _Syscalls(monkeypatch)
        ledger, wal = make_ledger_with_wal(tmp_path, snapshot_every=2)
        calls.watch(wal)
        grant(ledger, dumbbell(2, 2), "a", ("l0", "r0"))
        ledger.release("a")
        assert wal.snapshots == 1
        assert calls.calls == [("replace", SNAPSHOT_NAME), ("truncate", 0)]


class TestRecovery:
    def test_fresh_directory_recovers_empty(self, tmp_path):
        ledger = ReservationLedger.recover(str(tmp_path / "state"))
        assert ledger.active == 0
        assert ledger.recovery == RecoveryReport(
            leases=0, records=0, snapshot_seq=0, last_seq=0,
            truncated_tail=False,
        )

    def test_claims_and_deadlines_recover_bit_identical(self, tmp_path):
        graph = dumbbell(3, 3)
        ledger, wal = make_ledger_with_wal(tmp_path)
        grant(ledger, graph, "a", ("l0", "r0"), cpu=0.3, bw=7e6)
        grant(ledger, graph, "b", ("l1", "l2"), cpu=0.25, bw=3e6, now=1.0)
        ledger.renew("a", 10.0, 45.0)
        recovered = ReservationLedger.recover(str(tmp_path))
        assert recovered.node_claims() == ledger.node_claims()
        assert recovered.edge_claims() == ledger.edge_claims()
        assert lease_caps(recovered) == lease_caps(ledger)
        assert recovered.reservations == ledger.reservations
        assert recovered.claims_fingerprint() == ledger.claims_fingerprint()

    def test_torn_tail_is_dropped_and_reported(self, tmp_path):
        graph = dumbbell(2, 2)
        ledger, wal = make_ledger_with_wal(tmp_path)
        grant(ledger, graph, "a", ("l0",), bw=0.0)
        grant(ledger, graph, "b", ("l1",), bw=0.0)
        path = tmp_path / WAL_NAME
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])  # tear the final record mid-append
        recovered = ReservationLedger.recover(str(tmp_path))
        assert recovered.recovery.truncated_tail
        assert recovered.active == 1
        assert list(recovered.reservations) == ["a"]

    def test_reopening_after_tear_truncates_before_appending(self, tmp_path):
        graph = dumbbell(2, 2)
        ledger, wal = make_ledger_with_wal(tmp_path)
        grant(ledger, graph, "a", ("l0",), bw=0.0)
        path = tmp_path / WAL_NAME
        path.write_bytes(path.read_bytes()[:-4])
        ledger2 = ReservationLedger.recover(str(tmp_path))
        wal2 = LedgerWal(str(tmp_path))
        wal2.attach(ledger2)
        grant(ledger2, graph, "c", ("l1",), bw=0.0)
        # Every line parses again: the torn bytes are physically gone.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_open_ledger(self, tmp_path):
        """The one durable opener drops a torn tail and recovers what the
        two-step open (recover, then a ``LedgerWal`` attached by hand)
        recovers; later mutations log the same bytes."""
        graph = dumbbell(3, 3)
        one, two = tmp_path / "one", tmp_path / "two"
        ledger, _wal = make_ledger_with_wal(one)
        grant(ledger, graph, "a", ("l0", "r0"), cpu=0.3, bw=7e6)
        grant(ledger, graph, "b", ("l1", "l2"), cpu=0.25, bw=3e6, now=1.0)
        ledger.renew("a", 10.0, 45.0)
        path = one / WAL_NAME
        path.write_bytes(path.read_bytes()[:-6])  # tear the renew
        shutil.copytree(one, two)
        opened, opened_wal = open_ledger(
            str(one), snapshot_every=256, fsync=False
        )
        by_hand = ReservationLedger.recover(str(two))
        LedgerWal(str(two)).attach(by_hand)
        assert opened.recovery == by_hand.recovery
        assert opened.recovery.truncated_tail
        assert opened.reservations == by_hand.reservations
        assert opened.reservations["a"].expires_at == 60.0
        assert opened.claims_fingerprint() == by_hand.claims_fingerprint()
        for led in (opened, by_hand):
            grant(led, graph, "c", ("r1",), cpu=0.1, bw=1e6, now=2.0)
        assert path.read_bytes() == (two / WAL_NAME).read_bytes()
        assert opened_wal.appended == 1

    def test_corruption_before_the_tail_refuses_to_replay(self, tmp_path):
        graph = dumbbell(2, 2)
        ledger, wal = make_ledger_with_wal(tmp_path)
        grant(ledger, graph, "a", ("l0",), bw=0.0)
        grant(ledger, graph, "b", ("l1",), bw=0.0)
        path = tmp_path / WAL_NAME
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["garbage{"] + lines[1:]) + "\n")
        with pytest.raises(WalCorruptError):
            ReservationLedger.recover(str(tmp_path))

    def test_unknown_record_kind_is_corruption(self, tmp_path):
        path = tmp_path / WAL_NAME
        path.write_text('{"seq":1,"kind":"mystery","app":"a"}\n')
        with pytest.raises(WalCorruptError, match="mystery"):
            ReservationLedger.recover(str(tmp_path))

    def test_release_of_unknown_app_is_corruption(self, tmp_path):
        path = tmp_path / WAL_NAME
        path.write_text('{"seq":1,"kind":"release","app":"ghost"}\n')
        with pytest.raises(WalCorruptError):
            ReservationLedger.recover(str(tmp_path))

    def test_crash_between_snapshot_and_truncation_is_safe(self, tmp_path):
        graph = dumbbell(2, 2)
        ledger, wal = make_ledger_with_wal(tmp_path)
        grant(ledger, graph, "a", ("l0",), bw=0.0)
        grant(ledger, graph, "b", ("l1",), bw=0.0)
        pre_snapshot_log = (tmp_path / WAL_NAME).read_bytes()
        wal.snapshot()
        # Simulate the crash window: snapshot landed but the old log
        # (covering the same records) was never truncated.
        (tmp_path / WAL_NAME).write_bytes(pre_snapshot_log)
        recovered = ReservationLedger.recover(str(tmp_path))
        assert recovered.recovery.records == 0  # all seq-covered, skipped
        assert recovered.reservations == ledger.reservations
        assert recovered.claims_fingerprint() == ledger.claims_fingerprint()

    def test_legacy_preempt_clamp_record_replays(self, tmp_path, capsys):
        """A state dir written while preemption could defer its release
        holds ``preempt_clamp`` records: each replays as the deadline
        move it logged, for the ledger and for ``repro-serve``."""
        edges = ('[[["l0","sw-left"],"l0"],[["l0","sw-left"],"sw-left"],'
                 '[["r0","sw-right"],"r0"],[["r0","sw-right"],"sw-right"],'
                 '[["sw-left","sw-right"],"sw-left"],'
                 '[["sw-left","sw-right"],"sw-right"]]')
        (tmp_path / WAL_NAME).write_text(
            '{"seq":1,"kind":"grant","app":"a","nodes":["l0","r0"],'
            '"cpu":0.3,"bw":5000000.0,"edges":' + edges + ','
            '"caps":[1e8,1e8,1e8,1e8,1e8,1e8],"priority":"bronze",'
            '"granted_at":0.0,"expires_at":60.0}\n'
            '{"seq":2,"kind":"preempt_clamp","app":"a","expires_at":10.0}\n'
            '{"seq":3,"kind":"grant","app":"b","nodes":["l1"],"cpu":0.5,'
            '"bw":0.0,"edges":[],"caps":[],"priority":"gold",'
            '"granted_at":1.0,"expires_at":61.0}\n'
        )
        live = ReservationLedger()
        graph = dumbbell(2, 2)
        grant(live, graph, "a", ("l0", "r0"), cpu=0.3, bw=5e6)
        live.renew("a", 5.0, 5.0)  # the same move, made the one way left
        grant(live, graph, "b", ("l1",), cpu=0.5, bw=0.0, now=1.0)
        recovered = ReservationLedger.recover(str(tmp_path))
        assert recovered.recovery.records == 3
        assert recovered.reservations["a"].expires_at == 10.0
        assert recovered.claims_fingerprint() == live.claims_fingerprint()
        topo = tmp_path / "topo.json"
        topo.write_text(to_json(graph))
        assert main([str(topo), "--demo", "0",
                     "--state-dir", str(tmp_path)]) == 0
        assert "recovered 2 leases from WAL" in capsys.readouterr().err


class TestServiceRecovery:
    def test_service_restart_restores_outcomes_and_overlay(self, tmp_path):
        state = str(tmp_path / "state")
        svc = SelectionService(dumbbell(4, 4), state_dir=state)
        spec = ApplicationSpec(num_nodes=2)
        for i in range(3):
            assert svc.request(
                f"app{i}", spec, cpu_fraction=0.3, bw_bps=1e6
            ).admitted
        svc.release("app1")
        fingerprint = svc.ledger.claims_fingerprint()
        # Crash: no close(), no final snapshot.
        svc2 = SelectionService(dumbbell(4, 4), state_dir=state)
        assert svc2.recovery.leases == 2
        assert svc2.active_apps() == ["app0", "app2"]
        assert svc2.ledger.claims_fingerprint() == fingerprint
        assert svc2.status("app0").admitted
        assert svc2.status("app0").reason == "recovered from WAL"
        # New admissions run against the recovered residual state, and
        # the rebuilt overlay matches a from-scratch rebuild.
        assert svc2.request("new", spec, cpu_fraction=0.3).admitted
        svc2.check_invariants()
        svc2.close()

    def test_recovered_clock_does_not_expire_live_leases(self, tmp_path):
        state = str(tmp_path / "state")
        svc = SelectionService(dumbbell(2, 2), state_dir=state, lease_s=60.0)
        svc.advance(100.0)
        assert svc.request(
            "a", ApplicationSpec(num_nodes=1), cpu_fraction=0.5
        ).admitted
        svc2 = SelectionService(dumbbell(2, 2), state_dir=state, lease_s=60.0)
        # The manual clock fast-forwarded to the grant time: the first
        # tick must not reap a lease that was live at the crash.
        svc2.tick()
        assert svc2.active_apps() == ["a"]
        svc2.close()

    def test_close_is_idempotent_and_flushes(self, tmp_path):
        state = str(tmp_path / "state")
        svc = SelectionService(dumbbell(2, 2), state_dir=state)
        svc.request("a", ApplicationSpec(num_nodes=1), cpu_fraction=0.2)
        svc.flush_state()
        svc.close()
        svc.close()
        assert ReservationLedger.recover(state).active == 1


class TestRestartEqualsLive:
    """A channel's cap may move between two grants over it (a reloaded
    topology): each lease keeps the cap it was granted under, and a
    restart from the snapshot or from the log alone equals the live
    ledger."""

    def two_caps(self, tmp_path):
        ledger, wal = make_ledger_with_wal(tmp_path, snapshot_every=1000)
        for i, trunk in enumerate((100 * Mbps, 40 * Mbps)):
            grant(ledger, _two_hop(["sa", "sb", "h0", "h1"], trunk),
                  f"x{i}", ("h0", "h1"), bw=5 * Mbps, now=float(i))
        first, second = (ledger.reservations[a].caps for a in ("x0", "x1"))
        # Both leases cross the trunk both ways, between two host links.
        assert first == (1e8,) * 6 and sorted(second) == [4e7] * 2 + [1e8] * 4
        return ledger, wal

    def test_a_snapshot_keeps_each_lease_caps(self, tmp_path):
        ledger, wal = self.two_caps(tmp_path)
        wal.snapshot()
        assert (tmp_path / WAL_NAME).read_text() == ""
        assert_same_ledger(ReservationLedger.recover(str(tmp_path)), ledger)

    def test_a_log_replay_keeps_each_lease_caps(self, tmp_path):
        ledger, _wal = self.two_caps(tmp_path)
        assert not (tmp_path / SNAPSHOT_NAME).exists()
        assert_same_ledger(ReservationLedger.recover(str(tmp_path)), ledger)

    def test_the_utilization_reads_the_last_grant(self, tmp_path):
        ledger, wal = self.two_caps(tmp_path)
        wal.snapshot()
        util = ledger.utilization()
        assert util["max_edge_claim_fraction"] == 1e7 / 4e7
        assert ReservationLedger.recover(str(tmp_path)).utilization() == util

    def test_a_snapshot_with_edge_caps_rows_still_recovers(self, tmp_path):
        """The format that stored a cap per channel beside the leases:
        ``json.dumps``'s default separators and ``edge_caps`` rows, which
        recovery does not read."""
        ledger, wal = self.two_caps(tmp_path)
        wal.snapshot()
        path = tmp_path / SNAPSHOT_NAME
        snap = json.loads(path.read_text())
        snap["edge_caps"] = [[e, 4e7] for e, _ in snap["edge_claims"]]
        path.write_text(json.dumps(snap))
        assert_same_ledger(ReservationLedger.recover(str(tmp_path)), ledger)


def _state_snapshot(ledger):
    """Everything bit-identity covers, as plain comparable values."""
    return {
        "nodes": dict(ledger._node_claims),
        "edges": dict(ledger._edge_claims),
        "caps": lease_caps(ledger),
        "leases": dict(ledger.reservations),
    }


_OPS = st.lists(
    st.tuples(st.sampled_from("ggrna"), st.integers(0, 7), st.booleans()),
    min_size=1, max_size=40,
)


class TestCrashRecoveryProperty:
    @settings(max_examples=50, deadline=None)
    @given(ops=_OPS, cut=st.integers(0, 10**9),
           snapshot_every=st.sampled_from([3, 1000]))
    def test_recovery_is_bit_identical_at_every_cut(
        self, tmp_path_factory, ops, cut, snapshot_every
    ):
        state_dir = tmp_path_factory.mktemp("wal-prop")
        # A grant reads the trunk at 100 or 40 Mbps: its cap moves
        # between grants, as on a reloaded topology.
        graphs = (dumbbell(3, 3), dumbbell(3, 3, cross_bandwidth=40 * Mbps))
        names = sorted(n.name for n in graphs[0].nodes())
        ledger, wal = make_ledger_with_wal(
            state_dir, snapshot_every=snapshot_every
        )
        # Record the exact ledger state after every WAL record; the WAL
        # listener runs first (attach() subscribed before us), so
        # wal._seq is the seq of the record just appended.
        history = {0: _state_snapshot(ledger)}
        ledger.subscribe(
            lambda _k, _r: history.__setitem__(
                wal._seq, _state_snapshot(ledger)
            )
        )
        now = 0.0
        for op, k, thin in ops:
            app = f"t{k}"
            held = app in ledger.reservations
            if op == "g" and not held:
                grant(
                    ledger, graphs[thin], app,
                    tuple(names[k % len(names):][: 1 + k % 3]),
                    cpu=0.05 + 0.03 * (k % 5),
                    bw=(k % 2) * 4.5e6,
                    now=now, lease=20.0 + k,
                )
            elif op == "r" and held:
                ledger.release(app)
            elif op == "n" and held:
                ledger.renew(app, now, 30.0 + k)
            elif op == "a":
                now += 11.0
                ledger.expire(now)
        # Crash: abandon the open WAL handle and tear the log at an
        # arbitrary byte offset.
        wal_path = os.path.join(str(state_dir), WAL_NAME)
        size = os.path.getsize(wal_path) if os.path.exists(wal_path) else 0
        with open(wal_path, "ab") as fh:
            fh.truncate(cut % (size + 1))
        recovered = ReservationLedger.recover(str(state_dir))
        report = recovered.recovery
        expected = history[report.last_seq]
        assert _state_snapshot(recovered) == expected  # bit-identical
        recovered.check_invariants()
        # And the recovered deadline heap actually drives expiry: every
        # live lease reaps at its recorded deadline.
        horizon = max(
            [r.expires_at for r in recovered.reservations.values()],
            default=0.0,
        )
        recovered.expire(horizon + 1.0)
        assert recovered.active == 0


# -- grant lines against the whole-record encoder ---------------------------

#: Names the encoder must escape: quotes, backslashes, control and
#: non-ASCII characters.
_NAMES = st.text(alphabet='ab"\\/\n\u00e9\u2603', min_size=1, max_size=4)

#: Claims that take ``_text``'s fallback or its ``int`` path beside
#: plain floats: a whole node as the ``int`` 1, ``numpy.float64`` claims
#: (encoded by ``json`` as floats) and an ``int`` bandwidth.
_CPUS = (0.0, 0.1, 1, np.float64(0.2))
_BWS = (0.0, 1e6, np.float64(2e6), 3_000_000)

#: The release kinds an ``"x"`` op ends a lease with.
_ENDS = ("expire", "evict", "preempt")

_LOG_OPS = st.lists(
    st.tuples(
        st.sampled_from("ggrncx"),
        st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
        st.sampled_from(_CPUS),
        st.sampled_from(_BWS),
        st.integers(0, 2),
    ),
    min_size=1, max_size=30,
)

#: Trunk capacities a grant may be checked against: a channel's cap
#: moves between grants, and an ``int`` one encodes without ``.0``.
_TRUNKS = (100 * Mbps, 40 * Mbps, 100_000_000)


def _two_hop(names, trunk_bps):
    """Hosts ``names[2:]`` split over switches ``names[0]`` and
    ``names[1]``, so a grant across the trunk crosses it both ways."""
    g = TopologyGraph()
    left, right, hosts = names[0], names[1], names[2:]
    g.add_network(left)
    g.add_network(right)
    g.add_link(left, right, trunk_bps)
    for i, host in enumerate(hosts):
        g.add_compute(host)
        g.add_link(host, (left, right)[i % 2], 100 * Mbps)
    return g


def _same_files(one, two):
    for name in (WAL_NAME, SNAPSHOT_NAME):
        mine, theirs = one / name, two / name
        assert mine.exists() == theirs.exists(), name
        if mine.exists():
            assert mine.read_bytes() == theirs.read_bytes(), name


class TestGrantLineDifferential:
    """Every record's line is formatted directly and a grant's channels
    are spliced from kept text; each line must be the bytes
    ``json.dumps`` of the whole record gives
    (``tests/oracles.py::ReferenceWal``), and so must the snapshots."""

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(_NAMES, min_size=5, max_size=8, unique=True),
           ops=_LOG_OPS, snapshot_every=st.sampled_from([3, 1000]))
    def test_every_grant_line_equals_the_reference(
        self, tmp_path_factory, names, ops, snapshot_every
    ):
        graphs = [_two_hop(names, bps) for bps in _TRUNKS]
        hosts = names[2:]
        mine = tmp_path_factory.mktemp("memo")
        theirs = tmp_path_factory.mktemp("reference")
        ledger, _wal = make_ledger_with_wal(
            mine, snapshot_every=snapshot_every
        )
        ReferenceWal(str(theirs), snapshot_every=snapshot_every).attach(
            ledger
        )
        now = 0.0
        for i, (op, picks, cpu, bw, trunk) in enumerate(ops):
            now += 1.5
            live = sorted(ledger.reservations)
            if op == "g":
                nodes = tuple(hosts[k % len(hosts)] for k in picks)
                try:
                    grant(ledger, graphs[trunk],
                          f'{names[i % len(names)]}-{i}',
                          tuple(dict.fromkeys(nodes)), cpu=cpu, bw=bw,
                          now=now)
                except LedgerError:
                    pass  # over a cap: nothing logged
            elif live and op == "r":
                ledger.release(live[picks[0] % len(live)])
            elif live and op == "n":
                ledger.renew(live[picks[0] % len(live)], now, 30.0)
            elif live and op == "c":  # a renew that lands earlier
                ledger.renew(live[picks[0] % len(live)], now, 0.5)
            elif live and op == "x":
                ledger.release(live[picks[0] % len(live)],
                               kind=_ENDS[picks[-1] % len(_ENDS)])
        _same_files(mine, theirs)
        # Caps moved between grants: a restart still equals the ledger.
        assert_same_ledger(ReservationLedger.recover(str(mine)), ledger)

    def test_a_logged_set_on_other_caps_is_spliced_again(self, tmp_path):
        """The channel memo answers only for the cap object a channel
        was logged with: the same channels granted again over a trunk of
        another capacity, or of an equal int one, log that trunk's cap."""
        graphs = [_two_hop(["sa", "sb", "h0", "h1"], bps) for bps in _TRUNKS]
        mine, theirs = tmp_path / "memo", tmp_path / "reference"
        ledger, wal = make_ledger_with_wal(mine, snapshot_every=1000)
        ReferenceWal(str(theirs), snapshot_every=1000).attach(ledger)
        # A float trunk, then an int of equal value, then another one.
        for i, graph in enumerate(graphs[k] for k in (0, 2, 1, 0, 2)):
            grant(ledger, graph, f"a{i}", ("h0", "h1"), bw=1e6, now=i)
            ledger.release(f"a{i}")
        _same_files(mine, theirs)

    def test_a_kept_route_on_other_caps_is_spliced_again(self, tmp_path):
        """A route's kept text answers only while every cap is the object
        it was made with: the *same* ``edges`` tuple granted again after
        its trunk's cap became an equal-valued ``int`` (``1e8 ==
        100000000``, yet one encodes ``1e8`` and the other
        ``100000000``), then another float, logs the caps of that grant."""
        graphs = [_two_hop(["sa", "sb", "h0", "h1"], bps) for bps in _TRUNKS]
        edges = tuple(sorted(route_edges(graphs[0], ("h0", "h1")),
                             key=ledger_order))
        mine, theirs = tmp_path / "memo", tmp_path / "reference"
        ledger, wal = make_ledger_with_wal(mine, snapshot_every=1000)
        ReferenceWal(str(theirs), snapshot_every=1000).attach(ledger)
        kept = None
        # A float trunk twice (the second a hit), then an equal int one,
        # then another float, then the first again.
        for i, k in enumerate((0, 0, 2, 1, 0)):
            ledger.reserve(f"a{i}", ("h0", "h1"), cpu_fraction=0.2,
                           bw_bps=1e6, graph=graphs[k], now=i,
                           lease_s=60.0, edges=edges)
            ledger.release(f"a{i}")
            if i == 0:
                kept = wal._route_text[id(edges)]
            elif i == 1:
                assert wal._route_text[id(edges)] is kept
        assert len(wal._route_text) == 1
        _same_files(mine, theirs)
        caps = [json.loads(line)["caps"]
                for line in (mine / WAL_NAME).read_text().splitlines()
                if '"grant"' in line]
        trunk = [i for i, (key, _) in enumerate(edges)
                 if key == frozenset(("sa", "sb"))]
        assert len(trunk) == 2  # crossed both ways
        logged = [{(type(c[i]), c[i]) for i in trunk} for c in caps]
        assert logged == [{(float, 1e8)}, {(float, 1e8)},
                          {(int, 100_000_000)}, {(float, 4e7)},
                          {(float, 1e8)}]

    def test_the_route_memo_stays_within_its_bound(self, tmp_path):
        """More distinct route tuples than the memo's bound never grow it
        past the bound, and every line stays the reference's."""
        graph = _two_hop(["sa", "sb", "h0", "h1"], 100 * Mbps)
        edges = tuple(sorted(route_edges(graph, ("h0", "h1")),
                             key=ledger_order))
        mine, theirs = tmp_path / "memo", tmp_path / "reference"
        ledger, wal = make_ledger_with_wal(mine, snapshot_every=100)
        ReferenceWal(str(theirs), snapshot_every=100).attach(ledger)
        sizes = []
        for i in range(_SELECTION_MEMO_LIMIT + 40):
            route = tuple(list(edges))  # equal, but another object
            ledger.reserve(f"a{i}", ("h0", "h1"), cpu_fraction=0.1,
                           bw_bps=1e6, graph=graph, now=i, lease_s=60.0,
                           edges=route)
            ledger.release(f"a{i}")
            sizes.append(len(wal._route_text))
        assert max(sizes) == _SELECTION_MEMO_LIMIT
        assert sizes[-1] < _SELECTION_MEMO_LIMIT
        _same_files(mine, theirs)

    def test_a_durable_service_writes_the_reference_bytes(self, tmp_path):
        """A mixed grant / release / renew stream through a durable
        service — shared channels, zero bandwidth, zero CPU — leaves the
        same log and snapshot as the reference's."""
        outcomes = []
        for state in (tmp_path / "memo", tmp_path / "reference"):
            make = (SelectionService if state.name == "memo"
                    else reference_wal_service)
            svc = make(dumbbell(4, 4), snapshot_ttl=1e9, lease_s=60.0,
                       state_dir=str(state), wal_snapshot_every=5)
            got = []
            for i in range(12):
                svc.advance(0.75)
                claim = {"cpu_fraction": (0.0, 0.1, 0.2)[i % 3],
                         "bw_bps": (0.0, 2 * Mbps, 5 * Mbps)[i % 3]}
                got.append(svc.request(
                    f"t\u00e9\"{i}", ApplicationSpec(num_nodes=2 + i % 3),
                    **claim,
                ).status)
                held = sorted(svc.ledger.reservations)
                if i % 4 == 1 and held:
                    svc.renew(held[0])
                if i % 3 == 2 and held:
                    svc.release(held[-1])
            outcomes.append(got)
            assert svc.wal.snapshots >= 2
        assert outcomes[0] == outcomes[1]
        assert outcomes[0].count("admitted") >= 8
        _same_files(tmp_path / "memo", tmp_path / "reference")
