"""The Remos collector: periodic SNMP polling and measurement history.

A DES process walks every agent each ``period`` seconds.  Link utilization
is derived from octet-counter deltas between consecutive polls (exactly how
SNMP-based monitors compute it), and a bounded history of utilization and
load samples is retained so queries can be answered over "a fixed window of
history, current network conditions, or an estimate of the future
availability" (§2.2).

Collection is hardened against the failure modes of a shared network:

- an agent that does not answer (:class:`~repro.remos.snmp.AgentTimeout`)
  is retried within the poll round with exponential backoff; a resource
  whose agents miss ``stale_after`` consecutive rounds is marked *stale*;
- octet-counter deltas detect 32-bit wraps (delta recovered modulo the
  counter) and counter resets (sample dropped), and are clamped to the
  interface speed — derived utilization can never be negative or absurd.

Staleness is also *pushed*: :meth:`Collector.subscribe` registers a
callback that fires at the end of any poll round in which a resource
crosses the staleness threshold in either direction —
``host-stale`` / ``host-fresh`` for compute nodes, ``channel-stale`` /
``channel-fresh`` for link channels.  The selection service's reactive
pipeline (``SelectionService.enable_push``) rides this instead of
discovering degradation at snapshot-fetch time.

And *changes* are logged — a sample differing in value from the one
before it, a first sample, a staleness crossing — in a bounded log each
consumer reads from its own cursor (:meth:`Collector.changes_since`),
beside the one time a round sampled at (:attr:`Collector.round_at`) and
the few resources it does not hold for (:meth:`Collector.late_resources`),
so that :meth:`RemosAPI.topology` re-derives only what a round moved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from ..network.cluster import Cluster
from ..network.fabric import ChannelId
from ..obs.trace import NULL_TRACER
from ..units import BITS_PER_BYTE
from .snmp import AgentTimeout, InterfaceRecord, build_agents

__all__ = ["Collector", "ResourceStatus"]

Sample = tuple[float, float]

#: The change log holds at most this many entries per monitored resource;
#: a consumer that fell further behind is told so and re-reads everything.
_CHANGE_LOG_DEPTH = 4

#: Tolerance on the implied rate when validating a wrapped counter delta:
#: anything above this multiple of the interface speed is a reset, not a
#: wrap (real monitors use the same plausibility test).
_WRAP_RATE_SLACK = 1.25


@dataclass(frozen=True)
class ResourceStatus:
    """Health of one monitored resource, as seen by the collector."""

    age_s: float        # seconds since the last successful sample (inf: never)
    missed_polls: int   # consecutive poll rounds without a sample
    stale: bool         # missed_polls >= the collector's stale_after


class Collector:
    """Polls SNMP agents and maintains per-resource measurement history.

    Parameters
    ----------
    cluster:
        The simulated cluster to monitor.
    period:
        Poll period in seconds (the paper's Remos entailed "very low
        overhead"; the period controls the staleness/overhead trade-off).
    history:
        Number of samples retained per resource.
    start:
        If True (default), the polling process starts immediately at
        construction and runs for the life of the simulation.
    max_retries:
        How many times an unresponsive agent is re-polled within one round
        before the round gives up on it.
    backoff:
        Base delay (seconds) before the first retry; doubles per attempt.
    stale_after:
        Consecutive missed rounds after which a resource is flagged stale.
    counter_bits:
        Passed to the interface agents: bound exported octet counters at
        ``2**counter_bits`` (None: unbounded).
    tracer:
        A :class:`repro.obs.Tracer`; each completed poll round becomes a
        ``collector.poll`` span (wall-clock duration).  Default: off.
    registry:
        A :class:`repro.obs.MetricsRegistry` to export
        ``repro_collector_*`` instruments into (poll counts, sweep
        latency, stale resources, counter-wrap disambiguations).
        Default: no export.
    """

    def __init__(
        self,
        cluster: Cluster,
        period: float = 5.0,
        history: int = 120,
        start: bool = True,
        max_retries: int = 2,
        backoff: float = 0.5,
        stale_after: int = 3,
        counter_bits: Optional[int] = None,
        tracer=None,
        registry=None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if history < 2:
            raise ValueError(f"history must hold >= 2 samples, got {history}")
        if max_retries < 0:
            raise ValueError(f"max_retries cannot be negative: {max_retries}")
        if backoff <= 0:
            raise ValueError(f"backoff must be positive, got {backoff}")
        if stale_after < 1:
            raise ValueError(f"stale_after must be >= 1, got {stale_after}")
        if counter_bits is not None and counter_bits < 8:
            raise ValueError(f"counter_bits must be >= 8, got {counter_bits}")
        self.cluster = cluster
        self.period = float(period)
        self.history = history
        self.max_retries = max_retries
        self.backoff = float(backoff)
        self.stale_after = stale_after
        self.iface_agents, self.host_agents = build_agents(
            cluster, counter_bits=counter_bits
        )
        #: channel -> deque of (t, utilization_bps) derived samples
        self._util: dict[ChannelId, deque[Sample]] = {}
        #: channel -> last raw (t, octets) reading, for delta computation
        self._raw: dict[ChannelId, tuple[float, float]] = {}
        #: host -> deque of (t, load_average)
        self._load: dict[str, deque[Sample]] = {
            name: deque(maxlen=history) for name in self.host_agents
        }
        #: channel -> devices whose interface agent reports it
        self._reporters: dict[ChannelId, set[str]] = {}
        for name, agent in self.iface_agents.items():
            for cid in agent.interfaces:
                self._reporters.setdefault(cid, set()).add(name)
        self._channel_misses: dict[ChannelId, int] = {
            cid: 0 for cid in self._reporters
        }
        self._host_misses: dict[str, int] = {name: 0 for name in self.host_agents}
        #: Sim time of the newest round's first pass over the agents: when
        #: every resource was last sampled, :meth:`late_resources` aside.
        self.round_at = float("-inf")
        #: Hosts and channels whose newest sample may not be from
        #: ``round_at``: their agent missed the round, or answered a retry.
        self._late: set = set()
        #: The change log: host names and link keys (graph terms) in
        #: ingest order, ``_changes[0]`` being entry ``_changes_base``.
        self._changes: list = []
        self._changes_base = 0
        self._changes_limit = _CHANGE_LOG_DEPTH * (
            len(self._reporters) + len(self.host_agents)
        )
        #: Staleness transitions detected during the current poll round,
        #: delivered to subscribers when the round closes.
        self._pending_events: list[tuple[str, object]] = []
        #: Push subscribers (see :meth:`subscribe`), in subscription order.
        self._subscribers: list[Callable[[float, str, object], None]] = []
        #: Staleness-transition events delivered to subscribers.
        self.events_emitted = 0
        self.polls_completed = 0
        #: counter-delta samples dropped as resets/implausible wraps
        self.dropped_samples = 0
        #: agent polls that timed out (before and including retries)
        self.failed_polls = 0
        #: negative counter deltas recovered as 2^N wraps (vs dropped)
        self.wrap_disambiguations = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._poll_hist = None
        if registry is not None:
            self._bind_registry(registry)
        if start:
            cluster.sim.process(self._run(), name="remos-collector")

    def _bind_registry(self, reg) -> None:
        """Export collector instruments (callback-backed, free to poll)."""
        reg.counter("repro_collector_polls_total",
                    "Completed poll rounds.",
                    fn=lambda: float(self.polls_completed))
        reg.counter("repro_collector_dropped_samples_total",
                    "Counter-delta samples dropped as resets.",
                    fn=lambda: float(self.dropped_samples))
        reg.counter("repro_collector_failed_polls_total",
                    "Agent polls that timed out (including retries).",
                    fn=lambda: float(self.failed_polls))
        reg.counter("repro_collector_wrap_disambiguations_total",
                    "Negative counter deltas recovered as 2^N wraps.",
                    fn=lambda: float(self.wrap_disambiguations))
        reg.gauge("repro_collector_stale_resources",
                  "Resources past the stale_after missed-poll threshold.",
                  fn=lambda: float(self.stale_resources()))
        self._poll_hist = reg.histogram(
            "repro_collector_poll_duration_seconds",
            "Wall-clock duration of one complete poll round.",
        )

    # -- push subscriptions ------------------------------------------------------
    def subscribe(
        self, callback: Callable[[float, str, object], None]
    ) -> Callable[[], None]:
        """Register ``callback(t, kind, target)`` for staleness transitions.

        ``kind`` is one of ``host-stale`` / ``host-fresh`` (``target`` is
        the host name) or ``channel-stale`` / ``channel-fresh``
        (``target`` is the :class:`~repro.network.fabric.ChannelId`).
        Events fire once per threshold *crossing* — when a resource's
        consecutive misses first reach ``stale_after``, and when a stale
        resource next answers a poll — and are delivered at the end of
        the poll round that observed them, in subscription order.

        Returns an unsubscribe callable.  Unsubscribing (any callback)
        during delivery is safe: the revoked callback is skipped for the
        remainder of the round.  Callbacks run synchronously inside the
        collector's round; they must not raise.
        """
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:  # already unsubscribed — idempotent
                pass

        return unsubscribe

    def _flush_events(self) -> None:
        """Deliver this round's transition events in subscription order."""
        events, self._pending_events = self._pending_events, []
        if not self._subscribers:
            return
        now = self.cluster.sim.now
        for kind, target in events:
            self.events_emitted += 1
            for callback in list(self._subscribers):
                if callback not in self._subscribers:
                    continue  # unsubscribed during this delivery
                callback(now, kind, target)

    def _finish_round(self, wall_start: float, failed: int) -> None:
        """Close a round: deliver events, trim the change log, then the
        sweep-latency histogram and a poll span."""
        self._flush_events()
        if len(self._changes) > self._changes_limit:
            drop = len(self._changes) // 2
            del self._changes[:drop]
            self._changes_base += drop
        wall_end = perf_counter()
        if self._poll_hist is not None:
            self._poll_hist.observe(wall_end - wall_start)
        if self.tracer.enabled:
            self.tracer.record(
                "collector.poll", wall_start, wall_end,
                round=self.polls_completed, failed=failed,
                t=self.cluster.sim.now,
            )

    # -- polling --------------------------------------------------------------
    def _ingest_record(self, rec: InterfaceRecord) -> None:
        """Fold one counter reading into the utilization history.

        Handles wrap (delta recovered modulo ``counter_max`` when the
        implied rate stays plausible) and reset (negative delta with no
        plausible wrap: drop the interval — there is no way to know how
        many octets the reboot swallowed).
        """
        channel, speed_bps, out_octets, timestamp, counter_max = rec
        prev = self._raw.get(channel)
        self._raw[channel] = (timestamp, out_octets)
        if prev is None:
            return
        t0, octets0 = prev
        dt = timestamp - t0
        if dt <= 0:
            return
        delta = out_octets - octets0
        if delta < 0:
            wrapped = None
            if counter_max is not None and octets0 <= counter_max:
                wrapped = delta + counter_max
                if wrapped * BITS_PER_BYTE / dt > speed_bps * _WRAP_RATE_SLACK:
                    wrapped = None  # too fast to be a wrap: a reset
            if wrapped is None:
                self.dropped_samples += 1
                return
            delta = wrapped
            self.wrap_disambiguations += 1
        util = min(delta * BITS_PER_BYTE / dt, speed_bps)
        history = self._util.get(channel)
        if history is None:
            history = self._util[channel] = deque(maxlen=self.history)
            self._changes.append(channel[0])
        elif history[-1][1] != util:
            self._changes.append(channel[0])
        history.append((timestamp, util))

    def _poll_subset(
        self, iface_names, host_names
    ) -> tuple[list[str], list[str]]:
        """Poll the named agents once; returns (failed_iface, failed_host).

        Successful reads record samples and clear the resource's miss
        counters; failures are only reported — the caller decides whether
        the round is over (and misses should be counted) or a retry is due.
        """
        # Anything this pass samples carries ``sim.now``; whatever the
        # round's first pass does not reach keeps an older time.
        on_round = self.cluster.sim.now == self.round_at
        late = self._late
        changes = self._changes
        pending = self._pending_events
        stale_after = self.stale_after
        misses = self._channel_misses
        ingest = self._ingest_record
        seen: set[ChannelId] = set()
        failed_iface: list[str] = []
        failed_host: list[str] = []
        for name in iface_names:
            agent = self.iface_agents[name]
            try:
                records = agent.read()
            except AgentTimeout:
                self.failed_polls += 1
                failed_iface.append(name)
                if on_round:
                    late.update(agent.interfaces)
                continue
            for rec in records:
                channel = rec[0]
                if misses[channel] >= stale_after:
                    pending.append(("channel-fresh", channel))
                    changes.append(channel[0])
                misses[channel] = 0
                if channel in seen:
                    continue  # half-duplex channels reported by both ends
                seen.add(channel)
                ingest(rec)
                if not on_round:
                    late.add(channel)
                elif late:
                    late.discard(channel)
        misses = self._host_misses
        for name in host_names:
            agent = self.host_agents[name]
            try:
                sample = agent.read()
            except AgentTimeout:
                self.failed_polls += 1
                failed_host.append(name)
                if on_round:
                    late.add(name)
                continue
            history = self._load[name]
            if not history or history[-1][1] != sample[1]:
                changes.append(name)
            history.append(sample)
            if misses[name] >= stale_after:
                pending.append(("host-fresh", name))
                changes.append(name)
            misses[name] = 0
            if not on_round:
                late.add(name)
            elif late:
                late.discard(name)
        return failed_iface, failed_host

    def _count_misses(self, failed_iface: list[str], failed_host: list[str]) -> None:
        """Close a poll round: charge a miss to every un-sampled resource."""
        if failed_iface:
            dead = set(failed_iface)
            for cid, reporters in self._reporters.items():
                if reporters <= dead:
                    self._channel_misses[cid] += 1
                    if self._channel_misses[cid] == self.stale_after:
                        self._pending_events.append(("channel-stale", cid))
                        self._changes.append(cid[0])
        for name in failed_host:
            self._host_misses[name] += 1
            if self._host_misses[name] == self.stale_after:
                self._pending_events.append(("host-stale", name))
                self._changes.append(name)

    def poll_once(self) -> list[str]:
        """One synchronous poll round of every agent (also used by tests).

        Returns the names of devices whose agent(s) did not answer; their
        resources are charged a missed round.  The background process
        (:meth:`_run`) retries those before charging misses instead.
        """
        wall_start = perf_counter()
        self.round_at = self.cluster.sim.now
        failed_iface, failed_host = self._poll_subset(
            self.iface_agents, self.host_agents
        )
        self._count_misses(failed_iface, failed_host)
        self.polls_completed += 1
        failed = sorted(set(failed_iface) | set(failed_host))
        self._finish_round(wall_start, len(failed))
        return failed

    def _run(self):
        sim = self.cluster.sim
        while True:
            self.round_at = round_start = sim.now
            wall_start = perf_counter()
            failed_iface, failed_host = self._poll_subset(
                self.iface_agents, self.host_agents
            )
            delay = self.backoff
            for _attempt in range(self.max_retries):
                if not (failed_iface or failed_host):
                    break
                yield sim.timeout(delay)
                delay *= 2.0
                failed_iface, failed_host = self._poll_subset(
                    failed_iface, failed_host
                )
            self._count_misses(failed_iface, failed_host)
            self.polls_completed += 1
            self._finish_round(
                wall_start, len(set(failed_iface) | set(failed_host))
            )
            # Keep the round cadence: next round starts one period after
            # this one began (retries eat into the idle gap, never drift
            # the schedule — unless they overran the whole period).
            spent = sim.now - round_start
            yield sim.timeout(max(self.period - spent, self.period * 0.1))

    # -- query surface ----------------------------------------------------------
    def utilization_history(self, channel: ChannelId) -> list[Sample]:
        """(t, bps) utilization samples for a channel, oldest first."""
        return list(self._util.get(channel, ()))

    def load_history(self, host: str) -> list[Sample]:
        """(t, load_average) samples for a compute node, oldest first."""
        try:
            return list(self._load[host])
        except KeyError:
            raise KeyError(f"no monitored host {host!r}") from None

    def channels(self) -> list[ChannelId]:
        """All channels with at least one derived utilization sample."""
        return list(self._util)

    def age(self) -> float:
        """Seconds since the newest completed poll (staleness indicator)."""
        newest = max(
            (t for t, _o in self._raw.values()),
            default=float("-inf"),
        )
        return self.cluster.sim.now - newest

    # -- change surface ---------------------------------------------------------
    def changes_since(self, cursor: int) -> tuple[int, Optional[list]]:
        """What moved since a consumer last looked: ``(cursor, moved)``.

        ``moved`` lists the compute nodes (names) and links (keys) that,
        after the call that returned ``cursor``, got a sample differing
        in value from the one before it, got their first sample, or
        crossed the staleness threshold either way (ingest order,
        duplicates possible).  Start from ``-1``.  ``moved`` is ``None``
        when the bounded log no longer reaches back to ``cursor``:
        assume everything moved.
        """
        start = cursor - self._changes_base
        end = self._changes_base + len(self._changes)
        return end, (self._changes[start:] if start >= 0 else None)

    def late_resources(self) -> frozenset:
        """Hosts (names) and channels (ids) whose newest sample may be
        from another time than :attr:`round_at` — ask
        :meth:`host_status` / :meth:`channel_status` for those."""
        return frozenset(self._late)

    # -- health surface ---------------------------------------------------------
    def host_status(self, host: str) -> ResourceStatus:
        """Sample age and staleness of one compute node's load series."""
        try:
            missed = self._host_misses[host]
        except KeyError:
            raise KeyError(f"no monitored host {host!r}") from None
        history = self._load[host]
        age = (
            self.cluster.sim.now - history[-1][0] if history else float("inf")
        )
        return ResourceStatus(
            age_s=age, missed_polls=missed, stale=missed >= self.stale_after
        )

    def channel_status(self, channel: ChannelId) -> ResourceStatus:
        """Sample age and staleness of one channel's counter series."""
        try:
            missed = self._channel_misses[channel]
        except KeyError:
            raise KeyError(f"no monitored channel {channel!r}") from None
        last = self._raw.get(channel)
        age = self.cluster.sim.now - last[0] if last else float("inf")
        return ResourceStatus(
            age_s=age, missed_polls=missed, stale=missed >= self.stale_after
        )

    def host_stale(self, host: str) -> bool:
        """True once a node has missed ``stale_after`` consecutive rounds."""
        return self.host_status(host).stale

    def stale_hosts(self) -> list[str]:
        """All currently unmonitorable compute nodes, sorted."""
        return sorted(
            name
            for name, missed in self._host_misses.items()
            if missed >= self.stale_after
        )

    def stale_resources(self) -> int:
        """Total stale resources (hosts + channels), for the gauge."""
        return sum(
            1 for m in self._host_misses.values() if m >= self.stale_after
        ) + sum(
            1 for m in self._channel_misses.values()
            if m >= self.stale_after
        )
