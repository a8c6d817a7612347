"""Experiment scenario configuration (paper §4).

A :class:`Scenario` describes one experimental cell: which application,
which selection policy, and which background generators are active.  The
defaults reproduce the paper's setup — load on *every* node, traffic
between random node pairs, parameters set for a data/compute-intensive
departmental cluster rather than an interactive one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..apps.base import Application
from ..faults.injector import Fault
from ..remos.api import DegradedPolicy
from ..units import MB
from ..workloads.distributions import HarcholBalterLifetime, LogNormal
from ..workloads.load import LoadGeneratorConfig
from ..workloads.traffic import TrafficGeneratorConfig

__all__ = ["Policy", "Scenario", "default_load_config", "default_traffic_config"]


class Policy:
    """Node-selection policies compared in the evaluation."""

    RANDOM = "random"       # the paper's control arm
    STATIC = "static"       # peak-capacity ranking (≈ random here, §4.3)
    AUTO = "auto"           # the paper's framework: Remos + balanced
    COMPUTE = "compute"     # ablation: CPU-only selection
    BANDWIDTH = "bandwidth"  # ablation: bandwidth-only selection
    ORACLE = "oracle"       # ablation: balanced on ground truth (no staleness)

    ALL = (RANDOM, STATIC, AUTO, COMPUTE, BANDWIDTH, ORACLE)


def default_load_config() -> LoadGeneratorConfig:
    """§4.2 load model, tuned for a compute-intensive cluster.

    Poisson arrivals at 0.10 jobs/s/node; lifetimes a 60/40 exponential
    (mean 0.4 s) + Pareto(α=1.0, xm=2 s, cap 200 s) mix — offered load
    ≈ 0.38 competing jobs per node, with the heavy tail parking the
    occasional long job that badly overloads one machine.  Calibrated so
    the random-selection slowdowns of Table 1 land near the paper's
    (+136% FFT under load vs the paper's +135%).
    """
    return LoadGeneratorConfig(
        arrival_rate=0.10,
        lifetime=HarcholBalterLifetime(
            exp_mean=0.4,
            p_heavy=0.4,
            pareto_alpha=1.0,
            pareto_xm=2.0,
            pareto_cap=200.0,
        ),
    )


def default_traffic_config() -> TrafficGeneratorConfig:
    """§4.2 traffic model: Poisson arrivals of LogNormal bulk messages.

    1.5 messages/s across the testbed with mean 24 MiB (cv 1.5) — large
    high-speed data transfers that keep a changing subset of links (and
    especially the inter-router trunks, which ~half of random pairs cross)
    busy.  Calibrated so random-selection traffic slowdowns match Table 1
    (+72% FFT vs the paper's +67%; +86% Airshed vs +88%).
    """
    return TrafficGeneratorConfig(
        message_rate=1.5,
        message_size=LogNormal.from_mean_cv(mean=24 * MB, cv=1.5),
    )


@dataclass
class Scenario:
    """One experimental cell.

    Attributes
    ----------
    app_factory:
        Builds a fresh :class:`Application` per trial.
    policy:
        Selection policy (:class:`Policy`).
    load_on / traffic_on:
        Whether the background generators run.
    warmup:
        Seconds of background activity before selection + launch, letting
        generators and the Remos collector reach steady state.
    remos_period:
        Collector poll period (s).
    load_config / traffic_config:
        Generator parameters (paper defaults if None).
    fault_plan:
        Optional factory ``(cluster, rng) -> list[Fault]`` producing the
        faults injected into each trial (None: fault-free, the default).
    degraded:
        Remos degraded-mode policy used when answering from stale
        measurements (:class:`repro.remos.DegradedPolicy`).
    label:
        Optional display name for tables.
    """

    app_factory: Callable[[], Application]
    policy: str = Policy.AUTO
    load_on: bool = False
    traffic_on: bool = False
    warmup: float = 180.0
    remos_period: float = 5.0
    load_config: Optional[LoadGeneratorConfig] = None
    traffic_config: Optional[TrafficGeneratorConfig] = None
    fault_plan: Optional[Callable[..., Sequence[Fault]]] = None
    degraded: str = DegradedPolicy.LAST_GOOD
    label: str = ""

    def __post_init__(self) -> None:
        if self.policy not in Policy.ALL:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.warmup < 0:
            raise ValueError("warmup cannot be negative")
        DegradedPolicy.rule(self.degraded)  # refuses an unknown policy
        if self.load_config is None:
            self.load_config = default_load_config()
        if self.traffic_config is None:
            self.traffic_config = default_traffic_config()
        if not self.label:
            gens = {
                (False, False): "unloaded",
                (True, False): "load",
                (False, True): "traffic",
                (True, True): "load+traffic",
            }[(self.load_on, self.traffic_on)]
            if self.fault_plan is not None:
                gens += "+faults"
            self.label = f"{self.policy}/{gens}"
