"""Max-min fair bandwidth allocation (progressive filling).

The flow-level network model assigns each active flow a rate such that the
allocation is *max-min fair*: no flow can be given more without taking from
a flow with an equal or smaller rate.  This is the classic idealization of
TCP-like sharing on a network of links, and is how our simulated fabric
decides the instantaneous throughput of concurrent transfers.

The algorithm is progressive filling: grow all unfrozen flows' rates at the
same speed; when a link's capacity is exhausted, freeze every flow crossing
it; repeat until all flows are frozen.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from ..topology.graph import TopologyGraph

__all__ = ["max_min_fair", "routed_fair_rates"]


def max_min_fair(
    flows: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
) -> dict[Hashable, float]:
    """Compute max-min fair rates.

    Parameters
    ----------
    flows:
        flow id → sequence of channel ids the flow crosses.  A flow with an
        empty route (e.g. loopback) is unconstrained and gets ``inf``.
    capacities:
        channel id → capacity (bps).  Every channel referenced by a flow
        must be present.

    Returns
    -------
    dict
        flow id → allocated rate (bps).

    Raises
    ------
    KeyError
        If a flow references an unknown channel.
    ValueError
        If any referenced capacity is negative.

    Examples
    --------
    Three flows through one 90 Mbps link share it equally:

    >>> max_min_fair({1: ["l"], 2: ["l"], 3: ["l"]}, {"l": 90e6})
    {1: 30000000.0, 2: 30000000.0, 3: 30000000.0}
    """
    # Validate and collect the channels actually in use.
    used: dict[Hashable, list[Hashable]] = {}
    for fid, route in flows.items():
        for ch in route:
            if ch not in capacities:
                raise KeyError(f"flow {fid!r} crosses unknown channel {ch!r}")
            if capacities[ch] < 0:
                raise ValueError(f"negative capacity on channel {ch!r}")
            used.setdefault(ch, []).append(fid)

    rates: dict[Hashable, float] = {}
    active = {fid for fid, route in flows.items() if route}
    for fid in flows:
        if fid not in active:
            rates[fid] = float("inf")

    remaining = {ch: float(capacities[ch]) for ch in used}
    live_count = {ch: len(fids) for ch, fids in used.items()}

    while active:
        # The next channel to saturate bounds the common increment.
        increment = min(
            remaining[ch] / live_count[ch]
            for ch in used
            if live_count[ch] > 0
        )
        # Apply the increment to every active flow and drain channels.
        saturated: list[Hashable] = []
        for ch in used:
            if live_count[ch] > 0:
                remaining[ch] -= increment * live_count[ch]
                if remaining[ch] <= 1e-9:
                    remaining[ch] = 0.0
                    saturated.append(ch)
        newly_frozen: set[Hashable] = set()
        for ch in saturated:
            for fid in used[ch]:
                if fid in active:
                    newly_frozen.add(fid)
        for fid in active:
            rates[fid] = rates.get(fid, 0.0) + increment
        if not saturated:  # pragma: no cover - numerical safety valve
            break
        for fid in newly_frozen:
            active.discard(fid)
            for ch in flows[fid]:
                live_count[ch] -= 1
    return rates


def routed_fair_rates(
    routes: TopologyGraph,
    available: TopologyGraph,
    pairs: Sequence[tuple[str, str]],
) -> list[float]:
    """Max-min fair rates of ``pairs`` at once, each routed on ``routes``
    over :meth:`Link.channel`'s channels at what ``available`` (same
    structure) reads on them; ``inf`` to itself (no hop), 0 disconnected."""
    flows: dict[int, list] = {}
    capacities: dict = {}
    quotes: dict = {}
    for i, (src, dst) in enumerate(pairs):
        path = routes.path(src, dst)
        if path is None:
            quotes[i] = 0.0
            continue
        links = available.path_links(path)
        flows[i] = [link.channel(b) for link, b in zip(links, path[1:])]
        for link, (key, tag) in zip(links, flows[i]):
            capacities[key, tag] = link.available_towards(tag)
    quotes.update(max_min_fair(flows, capacities))
    return [quotes[i] for i in range(len(pairs))]
