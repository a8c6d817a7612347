"""Serialization of topology graphs: JSON round-trip and DOT export.

The DOT export renders graphs in the style of the paper's Figure 1 (compute
nodes as boxes, network nodes as ellipses, links labelled with
available/peak bandwidth in Mbps).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Optional

from ..units import Mbps
from .graph import Link, Node, TopologyGraph

__all__ = ["to_dict", "from_dict", "to_json", "from_json", "to_dot"]

_SCHEMA_VERSION = 1


def _with_age(attrs: dict[str, Any], age) -> dict[str, Any]:
    """``attrs`` with the sample age a measured snapshot keeps beside
    the graph (:attr:`TopologyGraph.measurement`) written back in."""
    if age is None or attrs.get("age_s") == age:
        return attrs
    return {**attrs, "age_s": age}


def to_dict(graph: TopologyGraph) -> dict[str, Any]:
    """A plain-dict snapshot of the graph (JSON-safe)."""
    return {
        "version": _SCHEMA_VERSION,
        "nodes": [
            {
                "name": n.name,
                "kind": n.kind,
                "load_average": n.load_average,
                "compute_capacity": n.compute_capacity,
                "attrs": _with_age(n.attrs, graph.node_age(n.name)),
            }
            for n in graph.nodes()
        ],
        "links": [
            {
                "u": l.u,
                "v": l.v,
                "maxbw": l.maxbw,
                "latency": l.latency,
                "available_fwd": l.available_fwd,
                "available_rev": l.available_rev,
                "attrs": _with_age(l.attrs, graph.link_age(l.u, l.v)),
            }
            for l in graph.links()
        ],
    }


def from_dict(data: dict[str, Any]) -> TopologyGraph:
    """Rebuild a graph from :func:`to_dict` output."""
    if not isinstance(data, dict):
        raise ValueError(f"a topology is an object, not {type(data).__name__}")
    version = data.get("version")
    if version != _SCHEMA_VERSION:
        raise ValueError(f"unsupported topology schema version {version!r}")
    g = TopologyGraph()
    for nd in data["nodes"]:
        g.add_node(
            Node(
                name=nd["name"],
                kind=nd["kind"],
                load_average=nd.get("load_average", 0.0),
                compute_capacity=nd.get("compute_capacity", 1.0),
                attrs=dict(nd.get("attrs", {})),
            )
        )
    for ld in data["links"]:
        link = Link(
            u=ld["u"],
            v=ld["v"],
            maxbw=ld["maxbw"],
            latency=ld.get("latency", 0.0),
            available_fwd=ld.get("available_fwd"),
            available_rev=ld.get("available_rev"),
            attrs=dict(ld.get("attrs", {})),
        )
        if not (g.has_node(link.u) and g.has_node(link.v)):
            raise ValueError(f"link references unknown node: {link!r}")
        if g.has_link(link.u, link.v):
            raise ValueError(f"duplicate link in input: {link!r}")
        g._attach_link(link)
    g.validate()
    return g


def to_json(graph: TopologyGraph, indent: int = 2) -> str:
    """Serialize the graph to a JSON string."""
    return json.dumps(to_dict(graph), indent=indent)


def from_json(text: str) -> TopologyGraph:
    """Parse a graph from :func:`to_json` output."""
    return from_dict(json.loads(text))


def read_topology(source: str) -> Optional[TopologyGraph]:
    """The topology a command line names: a :func:`to_json` file, or
    ``-`` for standard input.  One that cannot be read or parsed is
    reported on stderr (``error: cannot load topology: ...``) and answers
    ``None``; the command-line tools then exit 2."""
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        return from_json(text)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load topology: {exc}", file=sys.stderr)
        return None


def _dot_escape(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def to_dot(graph: TopologyGraph, title: str = "topology") -> str:
    """Render the graph in Graphviz DOT, Figure-1 style.

    Compute nodes are boxes annotated with their load average; network nodes
    are ellipses; each edge is labelled ``available/peak Mbps``.
    """
    lines = [f"graph {_dot_escape(title)} {{", "  node [fontsize=10];"]
    for n in graph.nodes():
        if n.is_compute:
            label = f"{n.name}\\nload={n.load_average:.2f}"
            lines.append(
                f"  {_dot_escape(n.name)} [shape=box, label=\"{label}\"];"
            )
        else:
            lines.append(f"  {_dot_escape(n.name)} [shape=ellipse];")
    for l in graph.links():
        label = f"{l.available / Mbps:.0f}/{l.maxbw / Mbps:.0f} Mbps"
        lines.append(
            f"  {_dot_escape(l.u)} -- {_dot_escape(l.v)} [label=\"{label}\"];"
        )
    lines.append("}")
    return "\n".join(lines)
