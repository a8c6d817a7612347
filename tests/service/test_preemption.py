"""Priority preemption: gold displaces bronze, then silver, never gold.

Preemption must be *provably useful* (nothing is evicted unless the
reclamation makes the gold request feasible) and *ordered* (bronze
victims before silver, cheapest first), with the victims' outcomes,
metrics, trace spans, and WAL records all reflecting what happened.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec
from repro.obs import Tracer
from repro.service import (
    Decision,
    LedgerError,
    Priority,
    ReservationLedger,
    SelectionService,
)
from repro.service.wal import WAL_NAME
from repro.topology import dumbbell, star
from repro.units import Mbps


def spec(n=1):
    return ApplicationSpec(num_nodes=n)


def fill(service, claims):
    """Admit one single-node tenant per (app, priority, cpu) triple."""
    for app, priority, cpu in claims:
        grant = service.request(app, spec(1), cpu_fraction=cpu,
                                priority=priority)
        assert grant.admitted, (app, grant.reason)


class TestImmediatePreemption:
    def test_gold_preempts_when_infeasible(self):
        service = SelectionService(dumbbell(2, 2), preempt=True)
        fill(service, [(f"w{i}", Priority.BRONZE, 0.9) for i in range(4)])
        grant = service.request("gold", spec(4), cpu_fraction=0.9,
                                priority=Priority.GOLD)
        assert grant.admitted
        assert service.metrics.preempted == 4
        for i in range(4):
            assert service.status(f"w{i}").status == Decision.PREEMPTED

    def test_no_preemption_when_feasible(self):
        service = SelectionService(dumbbell(2, 2), preempt=True)
        fill(service, [("w0", Priority.BRONZE, 0.9)])
        grant = service.request("gold", spec(2), cpu_fraction=0.9,
                                priority=Priority.GOLD)
        assert grant.admitted
        assert service.metrics.preempted == 0
        assert service.status("w0").admitted

    def test_bronze_evicted_before_silver(self):
        # 4 nodes at 0.9 each; gold needs 2 nodes' worth back.  Both
        # bronze leases must fall before any silver one is touched.
        service = SelectionService(dumbbell(2, 2), preempt=True)
        fill(service, [
            ("silver0", Priority.SILVER, 0.9),
            ("silver1", Priority.SILVER, 0.9),
            ("bronze0", Priority.BRONZE, 0.9),
            ("bronze1", Priority.BRONZE, 0.9),
        ])
        grant = service.request("gold", spec(2), cpu_fraction=0.9,
                                priority=Priority.GOLD)
        assert grant.admitted
        assert service.status("bronze0").status == Decision.PREEMPTED
        assert service.status("bronze1").status == Decision.PREEMPTED
        assert service.status("silver0").admitted
        assert service.status("silver1").admitted
        assert service.metrics.preempted_by_class == {"bronze": 2}

    def test_cheapest_victims_within_a_class(self):
        # Reclaiming one node suffices; the smallest bronze claim (one
        # node) must fall, not the three-node one.
        service = SelectionService(dumbbell(2, 2), preempt=True)
        big = service.request("big", spec(3), cpu_fraction=0.9,
                              priority=Priority.BRONZE)
        small = service.request("small", spec(1), cpu_fraction=0.9,
                                priority=Priority.BRONZE)
        assert big.admitted and small.admitted
        grant = service.request("gold", spec(1), cpu_fraction=0.9,
                                priority=Priority.GOLD)
        assert grant.admitted
        assert service.status("small").status == Decision.PREEMPTED
        assert service.status("big").admitted

    def test_gold_never_preempts_gold(self):
        service = SelectionService(dumbbell(2, 2), preempt=True)
        fill(service, [(f"g{i}", Priority.GOLD, 0.9) for i in range(4)])
        grant = service.request("late-gold", spec(1), cpu_fraction=0.9,
                                priority=Priority.GOLD)
        assert grant.status == Decision.QUEUED
        assert service.metrics.preempted == 0
        for i in range(4):
            assert service.status(f"g{i}").admitted

    def test_non_gold_requests_never_preempt(self):
        service = SelectionService(dumbbell(2, 2), preempt=True)
        fill(service, [(f"w{i}", Priority.BRONZE, 0.9) for i in range(4)])
        grant = service.request("silver", spec(1), cpu_fraction=0.9,
                                priority=Priority.SILVER)
        assert grant.status == Decision.QUEUED
        assert service.metrics.preempted == 0

    def test_disabled_by_default(self):
        service = SelectionService(dumbbell(2, 2))
        fill(service, [(f"w{i}", Priority.BRONZE, 0.9) for i in range(4)])
        grant = service.request("gold", spec(1), cpu_fraction=0.9,
                                priority=Priority.GOLD)
        assert grant.status == Decision.QUEUED
        assert service.metrics.preempted == 0

    def test_nothing_evicted_when_preemption_cannot_help(self):
        # The gold request wants more nodes than the network has: even
        # evicting every lease leaves it infeasible, so none may fall.
        service = SelectionService(dumbbell(2, 2), preempt=True)
        fill(service, [(f"w{i}", Priority.BRONZE, 0.9) for i in range(4)])
        grant = service.request("gold", spec(12), cpu_fraction=0.9,
                                priority=Priority.GOLD)
        assert grant.status == Decision.QUEUED
        assert service.metrics.preempted == 0
        for i in range(4):
            assert service.status(f"w{i}").admitted
        service.check_invariants()


    def test_bandwidth_only_lease_is_a_valid_victim(self):
        # A zero-CPU lease records no node claim; crediting it back must
        # not look one up (KeyError before the single credit helper).
        service = SelectionService(star(3), preempt=True)
        assert service.request("bw-only", spec(2), bw_bps=90 * Mbps,
                               priority=Priority.BRONZE).admitted
        grant = service.request("gold", spec(2), bw_bps=90 * Mbps,
                                priority=Priority.GOLD)
        assert grant.admitted
        assert service.status("bw-only").status == Decision.PREEMPTED
        service.check_invariants()


_HOSTS = [f"l{i}" for i in range(3)] + [f"r{i}" for i in range(3)]


class TestTrialCredit:
    """Preemption and migration plan on ``claims_without()`` tallies;
    they must be the tallies an actual release leaves behind."""

    @given(
        leases=st.lists(
            st.tuples(
                st.lists(st.sampled_from(_HOSTS), min_size=1, max_size=4,
                         unique=True),
                st.sampled_from([0.0, 0.1, 0.15, 0.3]),
                st.sampled_from([0.0, 1 * Mbps, 2.5 * Mbps, 7 * Mbps]),
            ),
            min_size=1, max_size=10,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_trial_tallies_equal_released_tallies(self, leases, data):
        g = dumbbell(3, 3)
        ledger = ReservationLedger()
        for i, (nodes, cpu, bw) in enumerate(leases):
            try:
                ledger.reserve(f"app{i}", nodes, cpu_fraction=cpu, bw_bps=bw,
                               graph=g, now=0.0, lease_s=1.0)
            except LedgerError:
                pass  # over a cap: not part of the state under test
        order = data.draw(st.permutations(list(ledger.reservations.values())))
        victims = order[:data.draw(st.integers(0, len(order)))]
        trial_nodes, trial_edges = ledger.claims_without(victims)
        for victim in victims:
            ledger.release(victim.app_id)
        assert trial_nodes == ledger.node_claims()
        assert trial_edges == ledger.edge_claims()
        ledger.check_invariants()


class TestObservability:
    def test_preempt_span_and_wal_records(self, tmp_path):
        state = str(tmp_path / "state")
        tracer = Tracer()
        service = SelectionService(
            dumbbell(2, 2), preempt=True, tracer=tracer, state_dir=state,
        )
        fill(service, [(f"w{i}", Priority.BRONZE, 0.9) for i in range(4)])
        service.request("gold", spec(4), cpu_fraction=0.9,
                        priority=Priority.GOLD)
        spans = [
            s for s in tracer.spans if s["name"] == "service.preempt"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["app"] == "gold"
        assert spans[0]["attrs"]["n_victims"] == 4
        kinds = [
            json.loads(line)["kind"]
            for line in (tmp_path / "state" / WAL_NAME)
            .read_text().splitlines()
        ]
        assert kinds.count("preempt") == 4
        service.close()

    def test_preemptions_counter_in_registry(self):
        service = SelectionService(dumbbell(2, 2), preempt=True)
        fill(service, [
            ("b0", Priority.BRONZE, 0.9), ("b1", Priority.BRONZE, 0.9),
            ("s0", Priority.SILVER, 0.9), ("s1", Priority.SILVER, 0.9),
        ])
        service.request("gold", spec(4), cpu_fraction=0.9,
                        priority=Priority.GOLD)
        text = service.registry.expose_text()
        assert (
            'repro_service_preemptions_total{class="bronze"} 2' in text
        )
        assert (
            'repro_service_preemptions_total{class="silver"} 2' in text
        )

    def test_operator_preempt_counts_the_victim_class(self):
        """``release(kind="preempt")`` is a preemption too: the per-class
        series sum to ``preempted_total`` whichever path preempted."""
        service = SelectionService(dumbbell(2, 2))
        fill(service, [("b0", Priority.BRONZE, 0.5)])
        assert service.release("b0", kind="preempt").status == \
            Decision.PREEMPTED
        series = {}
        for line in service.registry.expose_text().splitlines():
            name, _, value = line.rpartition(" ")
            if name.startswith(("repro_service_preempted_total",
                                "repro_service_preemptions_total")):
                series[name] = float(value)
        assert series.pop("repro_service_preempted_total") == 1
        assert series['repro_service_preemptions_total{class="bronze"}'] == 1
        assert sum(series.values()) == 1

    def test_snapshot_schema_carries_preempted(self):
        service = SelectionService(dumbbell(2, 2), preempt=True)
        fill(service, [(f"w{i}", Priority.BRONZE, 0.9) for i in range(4)])
        service.request("gold", spec(4), cpu_fraction=0.9,
                        priority=Priority.GOLD)
        assert service.metrics_snapshot()["preempted"] == 4
