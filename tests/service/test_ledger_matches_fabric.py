"""A lease claims the channels its traffic takes.

The simulated fabric sends every transfer along ``TopologyGraph.path``;
the ledger debits a lease along the same routes.  On a cyclic fabric
(a torus, a fat-tree pod's core ring) the two used to follow different
shortest-path rules, so a grant could claim channels its traffic never
crossed and leave the ones it did cross unclaimed.  Here the channels a
lease claims are compared with the channels whose octet counters move
when its nodes actually exchange traffic on a separately built fabric.
A half-duplex link has one channel both directions share, and a lease
crossing it claims that one channel, as the fabric moves its bytes.
"""

import itertools

import pytest

from repro.core.spec import ApplicationSpec
from repro.des import Simulator
from repro.network import Fabric
from repro.service import SelectionService, ShardRouter
from repro.topology import SHARED, dumbbell, fat_tree_pod, torus
from repro.units import MB, Mbps

from ..core.cyclic_graphs import asymmetric_ring


def half_duplex(graph, *links):
    """``graph`` with the named links (every link when none is named)
    half duplex."""
    for link in [graph.link(*ends) for ends in links] or graph.links():
        link.attrs["duplex"] = "half"
    return graph


SHAPES = {
    "torus4x4": lambda: torus(4, 4),
    "fat_tree4": lambda: fat_tree_pod(4),
    "half_duplex_ring": lambda: half_duplex(asymmetric_ring()),
    "half_duplex_trunk": lambda: half_duplex(
        dumbbell(3, 3), ("sw-left", "sw-right")
    ),
}


def fabric_channels(build, nodes) -> set:
    """Directed channels crossed when every ordered pair of ``nodes``
    sends a transfer on a fresh fabric of the shape ``build`` makes."""
    sim = Simulator()
    fabric = Fabric(sim, build())
    for a, b in itertools.permutations(nodes, 2):
        fabric.transfer(a, b, 1 * MB)
    sim.run()
    counters = fabric.octet_counters()
    return {
        cid for cid in fabric.channels()
        if counters[fabric.channel_index(cid)] > 0
    }


def requests(graph, extra=0):
    """Six bandwidth-claiming requests of two to four nodes (``extra``
    more), as many as ``graph`` has hosts at most."""
    hosts = len(graph.compute_nodes())
    for i in range(6):
        size = min(2 + i % 3 + extra, hosts)
        yield f"app{i}", ApplicationSpec(num_nodes=size)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_grant_claims_the_channels_its_traffic_crosses(shape):
    build = SHAPES[shape]
    svc = SelectionService(build(), lease_s=1e6)
    for app, spec in requests(build()):
        grant = svc.request(app, spec, cpu_fraction=0.1, bw_bps=1 * Mbps)
        assert grant.admitted, grant.reason
        claimed = svc.ledger.reservations[app].edges
        assert set(claimed) == fabric_channels(build, grant.selection.nodes)
        assert len(claimed) == len(set(claimed))
    svc.check_invariants()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_composite_claims_the_channels_its_traffic_crosses(shape):
    """Each ledger of a cross-shard grant claims what its pairs' traffic
    crosses: a part, the routes among its own nodes (on its shard's
    graph); the trunk record, the boundary channels of the routes
    between parts.  The hops such a route takes inside a shard are
    claimed by neither (see ROADMAP), so only the union's inclusion in
    the grant's traffic is checked."""
    build = SHAPES[shape]
    router = ShardRouter(build(), shards=2, lease_s=1e6)
    for app, spec in requests(build(), extra=1):
        grant = router.request(app, spec, cpu_fraction=0.1,
                               bw_bps=1 * Mbps, spread=2)
        assert grant.admitted, grant.reason
        assert grant.trunk is not None and len(grant.shards) == 2
        parts = [
            [n for n in grant.selection.nodes if router.plan.shard_of[n] == s]
            for s in grant.shards
        ]
        claimed = set()
        for shard, part in zip(grant.shards, parts):
            ledger = router.services[shard].ledger
            edges = ledger.reservations[f"{app}@{shard}"].edges
            assert set(edges) == fabric_channels(build, part)
            claimed.update(edges)
        crossed = set()
        for a, b in itertools.permutations(parts, 2):
            for pair in itertools.product(a, b):
                crossed |= fabric_channels(build, pair)
        trunk = router.trunk.reservations[app].edges
        assert set(trunk) == {c for c in crossed
                              if c[0] in router.plan.trunk_keys}
        claimed.update(trunk)
        assert claimed <= fabric_channels(build, grant.selection.nodes)
    router.check_invariants()


def test_a_half_duplex_lease_debits_both_directions_of_its_channels():
    """A two-node lease on the half-duplex ring claims one shared channel
    per link its two routes cross, and the overlay reads what is left of
    each in both directions."""
    svc = SelectionService(half_duplex(asymmetric_ring()), lease_s=1e6)
    grant = svc.request("app", ApplicationSpec(num_nodes=2),
                        cpu_fraction=0.1, bw_bps=5 * Mbps)
    assert grant.admitted, grant.reason
    edges = svc.ledger.reservations["app"].edges
    assert len(edges) == 6 and all(tag == SHARED for _key, tag in edges)
    link = svc.view.graph.link("a", "p")
    assert link.available_towards("p") == link.available_towards("a") \
        == 95 * Mbps
    svc.check_invariants()


def test_a_restarted_service_recovers_shared_channel_claims(tmp_path):
    """The shared tag round-trips through the log: a durable service
    restarted over a half-duplex grant holds the same claims and the
    same overlay."""
    state = str(tmp_path / "state")
    build = SHAPES["half_duplex_trunk"]
    svc = SelectionService(build(), state_dir=state, lease_s=1e6)
    spec = ApplicationSpec(num_nodes=6)
    assert svc.request("app", spec, cpu_fraction=0.1,
                       bw_bps=5 * Mbps).admitted
    trunk = frozenset(("sw-left", "sw-right"))
    assert svc.ledger.edge_claim((trunk, SHARED)) == 5 * Mbps
    claims = svc.ledger.claims_fingerprint()
    restarted = SelectionService(build(), state_dir=state, lease_s=1e6)
    assert restarted.ledger.claims_fingerprint() == claims
    assert restarted.ledger.reservations == svc.ledger.reservations
    assert restarted.request("next", ApplicationSpec(num_nodes=2),
                             cpu_fraction=0.1, bw_bps=1 * Mbps).admitted
    restarted.check_invariants()
    svc.close()
    restarted.close()
