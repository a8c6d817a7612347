"""Command-line interface: node selection on a serialized topology.

``repro-select`` lets operators run the paper's algorithms outside Python:

.. code-block:: console

   $ repro-select topology.json -m 4                      # balanced (default)
   $ repro-select topology.json -m 4 --objective bandwidth
   $ repro-select topology.json -m 4 --min-bandwidth-mbps 50
   $ repro-select topology.json -m 4 --compute-priority 2 --format json
   $ repro-select snapshot.json -m 4 --degraded-policy conservative
   $ repro-select snapshot.json -m 4 --include-unhealthy
   $ repro-select topology.json -m 4 --objective bandwidth --explain

The topology file is the JSON produced by
:func:`repro.topology.to_json` (schema v1) — including snapshots exported
from a live monitor via :meth:`repro.remos.RemosAPI.export_snapshot`,
whose ``unmonitorable``/``stale`` marks the health flags below interpret.
Output is a human-readable summary or machine-readable JSON
(``--format json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .core import ApplicationSpec, NoFeasibleSelection, NodeSelector, Objective
from .core.types import ExtrasKey
from .remos import DegradedPolicy, apply_degraded_policy
from .topology import to_dot
from .topology.serialize import read_topology
from .units import Mbps

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-select",
        description="Automatic node selection (PPOPP'99) on a topology JSON file.",
    )
    parser.add_argument("topology", help="path to a topology JSON file ('-' for stdin)")
    parser.add_argument("-m", "--nodes", type=int, required=True,
                        help="number of compute nodes to select")
    parser.add_argument("--objective", choices=Objective.ALL,
                        default=Objective.BALANCED,
                        help="selection criterion (default: balanced)")
    parser.add_argument("--compute-priority", type=float, default=1.0,
                        help="weighting factor favouring computation (§3.3)")
    parser.add_argument("--comm-priority", type=float, default=1.0,
                        help="weighting factor favouring communication (§3.3)")
    parser.add_argument("--min-bandwidth-mbps", type=float, default=None,
                        help="hard pairwise bandwidth floor in Mbps (§3.3)")
    parser.add_argument("--min-cpu", type=float, default=None,
                        help="hard per-node CPU-fraction floor in [0,1] (§3.3)")
    health = parser.add_mutually_exclusive_group()
    health.add_argument("--exclude-unhealthy", dest="exclude_unhealthy",
                        action="store_true", default=True,
                        help="skip nodes marked down/unmonitorable (default)")
    health.add_argument("--include-unhealthy", dest="exclude_unhealthy",
                        action="store_false",
                        help="consider every node, even ones the snapshot "
                             "marks down or unmonitorable")
    parser.add_argument("--degraded-policy",
                        choices=DegradedPolicy.ALL + ("last-good",),
                        default=None, metavar="{optimistic,last-good,conservative}",
                        help="reinterpret the snapshot's stale-measurement "
                             "marks before selecting (default: take the "
                             "snapshot as-is)")
    parser.add_argument("--explain", action="store_true",
                        help="attach selection provenance: the peel sequence, "
                             "the bottleneck edge fixing the final min "
                             "bandwidth, per-node CPU, and input staleness")
    parser.add_argument("--format", choices=("text", "json", "dot"),
                        default="text", help="output format")
    return parser


def _print_explain_text(record) -> None:
    """Render an ExplainRecord under the text summary."""
    print("--- explain ---")
    print(f"procedure : {record.procedure}")
    if record.rejection:
        print(f"rejected  : {record.rejection}")
    if record.peel_sequence:
        print(f"peel      : {len(record.peel_sequence)} deletions"
              + (" (truncated)" if record.peel_truncated else ""))
        for step in record.peel_sequence:
            print(f"  - {step.u}--{step.v}  "
                  f"available {step.available_bps / Mbps:.1f} Mbps")
    if record.bottleneck is not None:
        b = record.bottleneck
        print(f"bottleneck: {b.u}--{b.v} (towards {b.towards})  "
              f"{b.available_bps / Mbps:.1f} Mbps  "
              f"for pair {b.pair[0]}<->{b.pair[1]}")
    if record.node_cpu:
        cpus = ", ".join(
            f"{name}={cpu:.2f}" for name, cpu in sorted(record.node_cpu.items())
        )
        print(f"node cpu  : {cpus}")
    if record.snapshot_epoch is not None:
        print(f"epoch     : {record.snapshot_epoch}")
    if record.staleness:
        parts = []
        ages = [
            age
            for table in ("node_age_s", "link_age_s")
            for age in record.staleness.get(table, {}).values()
            if age is not None
        ]
        if record.staleness.get("snapshot_age_s") is not None:
            ages.append(record.staleness["snapshot_age_s"])
        if ages:
            parts.append(f"max input age {max(ages):.1f}s")
        for key in ("stale_links", "unmonitorable_nodes"):
            val = record.staleness.get(key)
            if val:
                parts.append(f"{key.replace('_', ' ')}: {', '.join(val)}")
        if parts:
            print(f"staleness : {'; '.join(parts)}")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    graph = read_topology(args.topology)
    if graph is None:
        return 2

    try:
        spec = ApplicationSpec(
            num_nodes=args.nodes,
            objective=args.objective,
            compute_priority=args.compute_priority,
            comm_priority=args.comm_priority,
            min_bandwidth_bps=(
                args.min_bandwidth_mbps * Mbps
                if args.min_bandwidth_mbps is not None else None
            ),
            min_cpu_fraction=args.min_cpu,
        )
    except ValueError as exc:
        print(f"error: invalid specification: {exc}", file=sys.stderr)
        return 2

    if args.degraded_policy is not None:
        policy = args.degraded_policy
        if policy == "last-good":
            policy = DegradedPolicy.LAST_GOOD
        graph = apply_degraded_policy(graph, policy)

    try:
        selector = NodeSelector(graph, exclude_unhealthy=args.exclude_unhealthy)
        selection = selector.select(spec, explain=args.explain)
    except NoFeasibleSelection as exc:
        print(f"error: no feasible selection: {exc}", file=sys.stderr)
        if args.explain:
            from .obs.explain import explain_rejection
            record = explain_rejection(str(exc), graph=graph)
            if args.format == "json":
                print(json.dumps({"explain": record.to_dict()}, indent=2))
            else:
                _print_explain_text(record)
        return 1
    explain_record = selection.extras.get(ExtrasKey.EXPLAIN)

    if args.format == "json":
        out = {
            "nodes": selection.nodes,
            "algorithm": selection.algorithm,
            "objective": selection.objective,
            "min_cpu_fraction": selection.min_cpu_fraction,
            "min_bandwidth_bps": selection.min_bw_bps,
            "iterations": selection.iterations,
        }
        if explain_record is not None:
            out["explain"] = explain_record.to_dict()
        print(json.dumps(out, indent=2))
    elif args.format == "dot":
        # Highlight the selection in a DOT rendering (Figure 4 style).
        for name in selection.nodes:
            graph.node(name).attrs["selected"] = True
        dot = to_dot(graph, title="selection")
        dot = dot.replace(
            "graph \"selection\" {",
            "graph \"selection\" {\n  // selected: " + ", ".join(selection.nodes),
        )
        for name in selection.nodes:
            dot = dot.replace(
                f'"{name}" [shape=box',
                f'"{name}" [shape=box, style=bold',
            )
        print(dot)
    else:
        print(f"selected  : {', '.join(selection.nodes)}")
        print(f"algorithm : {selection.algorithm}")
        print(f"min cpu   : {selection.min_cpu_fraction:.3f}")
        if selection.min_bw_bps == float("inf"):
            print("min bw    : unconstrained (single node)")
        else:
            print(f"min bw    : {selection.min_bw_bps / Mbps:.1f} Mbps")
        if explain_record is not None:
            _print_explain_text(explain_record)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
