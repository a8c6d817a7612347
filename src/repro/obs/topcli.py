"""``repro-top``: live health summary from a Prometheus exposition.

Reads the merged router exposition — a ``repro-serve --metrics-port``
URL, a ``--dump-metrics`` file, or stdin — and renders the operator
view: per-shard health (requests, live leases, occupancy), trunk
headroom, worker restarts, and active SLO burn::

    shard  hosts  active  occup  requests  admitted  rejected
        0      6       3   0.50        11         9         2
        1      6       2   0.33         8         8         0
    trunk: 2 live reservations, 3/8 channels claimed, min headroom 41%
    workers: 2 (restarts: 1)
    slo: admit_latency ok | availability ok | worker_restarts burning
         admit_latency burn 0.2x/300s 0.1x/3600s

``--watch N`` re-fetches and redraws every N seconds (URL sources).
Sample lines are read by the validator's own
:func:`repro.obs.promtext.parse_sample_line`, so what CI gates is what
the viewer sees.
"""

from __future__ import annotations

import argparse
import sys
import time
import urllib.request
from typing import Iterable, Optional

from .promtext import parse_sample_line

__all__ = ["build_parser", "main", "parse_exposition", "render_status"]

_STATUS_NAMES = {0.0: "ok", 1.0: "burning", 2.0: "paging"}


def parse_exposition(
    text: str,
) -> list[tuple[str, dict, float]]:
    """Parse exposition text into ``(name, labels, value)`` samples.

    Comment, blank and malformed lines — whatever
    :func:`~repro.obs.promtext.parse_sample_line` does not read as a
    sample — are dropped rather than fatal (``repro-top`` is a viewer,
    not a validator — that's :mod:`repro.obs.promtext`'s job).
    """
    parsed = map(parse_sample_line, text.splitlines())
    return [sample[:3] for sample in parsed if sample is not None]


class _View:
    """Indexed access over parsed samples."""

    def __init__(self, samples: Iterable[tuple[str, dict, float]]) -> None:
        self.samples = list(samples)

    def scalar(self, name: str, default: Optional[float] = None,
               **labels: str) -> Optional[float]:
        for n, ls, v in self.samples:
            if n == name and all(ls.get(k) == w for k, w in labels.items()):
                return v
        return default

    def by_label(self, name: str, label: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for n, ls, v in self.samples:
            if n == name and label in ls:
                out[ls[label]] = v
        return out


def render_status(samples: list[tuple[str, dict, float]]) -> list[str]:
    """The operator view as text lines."""
    view = _View(samples)
    out: list[str] = []

    hosts = view.by_label("repro_shard_hosts", "shard")
    if hosts:
        out.append(
            f"{'shard':>5}  {'hosts':>5}  {'active':>6}  {'occup':>5}  "
            f"{'requests':>8}  {'admitted':>8}  {'rejected':>8}"
        )
        for shard in sorted(hosts, key=lambda s: int(s)):
            active = view.scalar(
                "repro_shard_active_leases", 0.0, shard=shard)
            requests = view.scalar(
                "repro_shard_requests_total", 0.0, shard=shard)
            # Federated from the worker/shard registries (absent on a
            # single-service exposition).
            admitted = view.scalar(
                "repro_service_admitted_total", None, shard=shard)
            rejected = view.scalar(
                "repro_service_rejected_total", None, shard=shard)
            occupancy = active / hosts[shard] if hosts[shard] else 0.0
            out.append(
                f"{shard:>5}  {int(hosts[shard]):>5}  {int(active):>6}  "
                f"{occupancy:>5.2f}  {int(requests):>8}  "
                f"{'-' if admitted is None else int(admitted):>8}  "
                f"{'-' if rejected is None else int(rejected):>8}"
            )

    trunk_active = view.scalar("repro_shard_trunk_active_reservations")
    if trunk_active is not None:
        claimed = view.scalar("repro_shard_trunk_channels_claimed", 0.0)
        links = view.scalar("repro_shard_trunk_links", 0.0)
        headroom = view.scalar(
            "repro_shard_trunk_min_headroom_fraction", 1.0)
        out.append(
            f"trunk: {int(trunk_active)} live reservations, "
            f"{int(claimed)}/{int(links)} channels claimed, "
            f"min headroom {headroom:.0%}"
        )

    workers = view.scalar("repro_shard_workers")
    if workers is not None:
        restarts = view.scalar("repro_shard_worker_restarts_total", 0.0)
        out.append(f"workers: {int(workers)} (restarts: {int(restarts)})")

    statuses = {
        ls["objective"]: v
        for n, ls, v in view.samples
        if n == "repro_slo_status" and "objective" in ls
    }
    if statuses:
        out.append("slo: " + " | ".join(
            f"{objective} {_STATUS_NAMES.get(code, f'?{code}')}"
            for objective, code in sorted(statuses.items())
        ))
        for objective in sorted(statuses):
            burns = [
                (ls["window"], v)
                for n, ls, v in view.samples
                if n == "repro_slo_burn_rate"
                and ls.get("objective") == objective
            ]
            if any(v > 0.0 for _w, v in burns):
                out.append(
                    f"     {objective} burn " + " ".join(
                        f"{v:.1f}x/{w}" for w, v in sorted(burns)
                    )
                )

    if not out:
        out.append("no repro_* shard/SLO series found in the exposition")
    return out


def _fetch(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if source.startswith(("http://", "https://")):
        with urllib.request.urlopen(source, timeout=10.0) as resp:
            return resp.read().decode("utf-8", "replace")
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="Live per-shard health, trunk headroom, and SLO burn "
        "from a repro-serve metrics exposition.",
    )
    parser.add_argument(
        "source",
        help="metrics URL (http://127.0.0.1:PORT/), exposition file, "
        "or - for stdin",
    )
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-fetch and redraw every SECONDS (URL/file sources)",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.watch is not None and args.source == "-":
        print("repro-top: --watch needs a re-fetchable source, not stdin",
              file=sys.stderr)
        return 2
    while True:
        try:
            text = _fetch(args.source)
        except OSError as exc:
            print(f"repro-top: cannot read {args.source}: {exc}",
                  file=sys.stderr)
            return 2
        lines = render_status(parse_exposition(text))
        if args.watch is not None:
            print("\x1b[2J\x1b[H", end="")  # clear + home
            print(time.strftime("%H:%M:%S"), args.source)
        for line in lines:
            print(line)
        if args.watch is None:
            return 0
        try:
            time.sleep(max(0.2, args.watch))
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
