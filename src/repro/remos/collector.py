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

**A round is array passes, not a loop over readings.**  The agents are
walked as columns (:meth:`~repro.remos.snmp.InterfaceTable.walk`,
:meth:`~repro.remos.snmp.HostTable.walk`) and everything the collector
keeps per resource is a column too: the last raw reading, the
consecutive misses, and ``history`` rows of ``(time, value)`` ring
matrices, one column per channel and one per host.  A pass dedupes
half-duplex reports, resets misses, takes ``delta`` and ``dt`` against
the raw columns, clamps ``delta * 8 / dt`` to ``ifSpeed`` (read only
where ``delta != 0``), compares with the newest kept value and writes
one ring row.  What stays scalar is what is rare or ordered: a negative
delta goes through the wrap-or-reset rule one row at a time, and events
and change-log entries are appended row by row, in the order the agents
were walked, for the rows that have one.  The history accessors answer
with a read-only view of a ring column.

**A quiet round costs what can differ.**  The tables ask only the agents
that may be silent or down and the hosts that may be loaded; a clean
round (every row answered, no half-duplex link) comes back as the table
itself, so every column is read and written whole, by a slice.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from ..network.cluster import Cluster
from ..network.fabric import ChannelId
from ..obs.trace import NULL_TRACER
from ..units import BITS_PER_BYTE
from .snmp import HostTable, InterfaceTable

__all__ = ["Collector", "ResourceStatus"]

Sample = tuple[float, float]

_NEVER = float("-inf")

#: The change log holds at most this many entries per monitored resource;
#: a consumer that fell further behind is told so and re-reads everything.
_CHANGE_LOG_DEPTH = 4

#: Tolerance on the implied rate when validating a wrapped counter delta:
#: anything above this multiple of the interface speed is a reset, not a
#: wrap (real monitors use the same plausibility test).
_WRAP_RATE_SLACK = 1.25


class _Ring:
    """``depth`` newest ``(time, value)`` samples of each of ``width``
    series: two ``(depth x width)`` matrices written round-robin per
    column, ``count[col]`` samples ever written, and each column's
    newest value once more as a contiguous column (``newest``,
    meaningless where ``count == 0``)."""

    def __init__(self, depth: int, width: int) -> None:
        self.depth = depth
        self.times = np.zeros((depth, width))
        self.values = np.zeros((depth, width))
        self.count = np.zeros(width, dtype=np.int64)
        self.newest = np.zeros(width)

    def newest_time(self, col: int) -> float:
        """When ``col`` was last written (-inf: never)."""
        count = self.count.item(col)
        if not count:
            return _NEVER
        return self.times.item((count - 1) % self.depth, col)

    def append(self, cols, now: float, values: np.ndarray):
        """One new sample, taken at ``now``, on each of ``cols``
        (distinct indices, or a slice); returns which of them it changed
        the newest value of (a first sample counts)."""
        count = self.count[cols]
        changed = (count == 0) | (self.newest[cols] != values)
        self.newest[cols] = values
        # Before ``count`` is written: under a slice it is a view of it.
        slot = count % self.depth
        self.count[cols] = count + 1
        if len(slot) and (slot == slot[0]).all():
            # Series sampled every round fill in step: one matrix row.
            self.times[slot[0]][cols] = now
            self.values[slot[0]][cols] = values
        else:
            # Index pairs (slot, column): a slice here would broadcast.
            cols = np.arange(len(self.count))[cols]
            self.times[slot, cols] = now
            self.values[slot, cols] = values
        return changed

    def samples(self, col: int) -> list[Sample]:
        """Column ``col`` unrolled: its kept samples, oldest first."""
        count = self.count.item(col)
        out = []
        for matrix in (self.times, self.values):
            if count <= self.depth:
                out.append(matrix[:count, col].tolist())
            else:
                oldest = count % self.depth
                out.append(
                    matrix[oldest:, col].tolist()
                    + matrix[:oldest, col].tolist()
                )
        return list(zip(*out))


class _History(Sequence):
    """One ring column as the ``[(t, value), ...]`` list it stands for,
    oldest first: length, index, slice, iteration and ``==`` against a
    list.  ``history[-1]`` is two element reads, nothing is copied until
    something iterates.  Read-only, and a view: it follows the ring, so
    ``list()`` it to keep it across a poll round."""

    __slots__ = ("_ring", "_col")

    def __init__(self, ring: _Ring, col: int) -> None:
        self._ring = ring
        self._col = col

    def __len__(self) -> int:
        return min(self._ring.count.item(self._col), self._ring.depth)

    def __getitem__(self, i):
        ring, col = self._ring, self._col
        if isinstance(i, slice):
            return ring.samples(col)[i]
        count = ring.count.item(col)
        n = min(count, ring.depth)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("history index out of range")
        slot = (count - n + i) % ring.depth
        return ring.times.item(slot, col), ring.values.item(slot, col)

    def __iter__(self):
        return iter(self._ring.samples(self._col))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._ring.samples(self._col) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self._ring.samples(self._col))


def _columns(ring: _Ring, misses: np.ndarray, cols: list) -> tuple:
    """Fill count, newest value and missed polls of ``ring``'s columns
    ``cols``, as three lists."""
    cols = np.array(cols, dtype=np.intp)
    return (ring.count[cols].tolist(), ring.newest[cols].tolist(),
            misses[cols].tolist())


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
        table = InterfaceTable(cluster, counter_bits=counter_bits)
        #: Every device's interface agent, as rows of one table; every
        #: compute node's host agent, as rows of another.
        self._table = table
        self.iface_agents = table.agents
        self._load_table = HostTable(cluster)
        self.host_agents = self._load_table.agents
        channels = len(table.channel_ids)
        #: (history x channels) derived (t, utilization_bps) samples
        self._util = _Ring(history, channels)
        #: per channel, the last raw (t, octets) reading, for the deltas
        self._raw_t = np.full(channels, _NEVER)
        self._raw_octets = np.zeros(channels)
        self._channel_misses = np.zeros(channels, dtype=np.int64)
        #: Whether some channel has two reporters (a half-duplex link).
        self._shared = len(table.row_channels) > channels
        #: (history x hosts) (t, load) samples, a column per agent row
        self._load_names = tuple(self.host_agents)
        self._load = _Ring(history, len(self._load_names))
        self._load_misses = np.zeros(len(self._load_names), dtype=np.int64)
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
            channels + len(self.host_agents)
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
        now = self.cluster.sim.now
        on_round = now == self.round_at
        failed_iface = self._poll_interfaces(iface_names, now, on_round)
        failed_host = self._poll_hosts(host_names, now, on_round)
        self.failed_polls += len(failed_iface) + len(failed_host)
        return failed_iface, failed_host

    def _poll_interfaces(self, names, now: float, on_round: bool) -> list[str]:
        """Walk the named interface agents and fold the counters that
        came back into the utilization history.

        Handles wrap (delta recovered modulo ``counter_max`` when the
        implied rate stays plausible) and reset (negative delta with no
        plausible wrap: drop the interval — there is no way to know how
        many octets the reboot swallowed).
        """
        table = self._table
        failed, rows, octets = table.walk(names, now)
        late = self._late
        if failed or late or not on_round:
            dead = set(failed)
            for name in names:
                interfaces = table.agents[name].interfaces
                if name not in dead:
                    if not on_round:
                        late.update(interfaces)
                    elif late:
                        late.difference_update(interfaces)
                elif on_round:
                    late.update(interfaces)
        if not len(rows):
            return failed
        if rows is table.all_rows and not self._shared:
            # Every row answered and no link is half duplex, so row r
            # reports channel r: the columns are read whole, by a slice.
            chan, number = slice(None), rows
        else:
            number = table.channel[rows]
            if self._shared:
                # Half-duplex channels are reported by both ends: keep
                # the first report of each channel in this pass.
                keep = np.sort(np.unique(number, return_index=True)[1])
                rows, number, octets = rows[keep], number[keep], octets[keep]
            chan = number
        misses = self._channel_misses
        fresh = misses[chan] >= self.stale_after
        misses[chan] = 0
        dt = now - self._raw_t[chan]
        before = self._raw_octets[chan]
        delta = octets - before
        # A first reading has nothing to difference against (dt is inf).
        sampled = (dt > 0) & (dt < np.inf)
        negative = np.flatnonzero(sampled & (delta < 0))
        if len(negative):
            self._wrap_or_reset(rows, before, dt, delta, sampled, negative)
        # Only now: under a slice ``before`` is a view of the raw column.
        self._raw_t[chan] = now
        self._raw_octets[chan] = octets
        whole = sampled.all()
        at = slice(None) if whole else np.flatnonzero(sampled)
        cols = chan if whole else number[at]
        delta, dt = delta[at], dt[at]
        util = np.zeros(len(delta))
        moved = np.flatnonzero(delta)
        if len(moved):
            util[moved] = np.minimum(
                delta[moved] * BITS_PER_BYTE / dt[moved],
                table.speeds(rows[at][moved]),
            )
        changed = np.zeros(len(rows), dtype=bool)
        changed[at] = self._util.append(cols, now, util)
        noted = np.flatnonzero(fresh | changed)
        if len(noted):
            ids = table.channel_ids
            for c, is_fresh, is_changed in zip(
                number[noted].tolist(),
                fresh[noted].tolist(),
                changed[noted].tolist(),
            ):
                channel = ids[c]
                if is_fresh:
                    self._pending_events.append(("channel-fresh", channel))
                    self._changes.append(channel[0])
                if is_changed:
                    self._changes.append(channel[0])
        return failed

    def _wrap_or_reset(self, rows, before, dt, delta, sampled, negative):
        """The rare rows whose counter went backwards (from ``before``),
        one at a time: ``delta`` recovered in place for a wrap,
        ``sampled`` cleared for a reset."""
        counter_max = self._table.counter_max
        speeds = self._table.speeds(rows[negative]).tolist()
        for j, speed_bps in zip(negative.tolist(), speeds):
            wrapped = None
            if counter_max is not None and before.item(j) <= counter_max:
                wrapped = delta.item(j) + counter_max
                rate = wrapped * BITS_PER_BYTE / dt.item(j)
                if rate > speed_bps * _WRAP_RATE_SLACK:
                    wrapped = None  # too fast to be a wrap: a reset
            if wrapped is None:
                self.dropped_samples += 1
                sampled[j] = False
            else:
                delta[j] = wrapped
                self.wrap_disambiguations += 1

    def _poll_hosts(self, names, now: float, on_round: bool) -> list[str]:
        """Poll the named host agents and fold the load averages that
        came back into the load history."""
        failed, rows, loads = self._load_table.walk(names, now)
        host_names = self._load_names
        if rows is self._load_table.all_rows:
            answered = host_names
        else:
            answered = [host_names[r] for r in rows.tolist()]
        late = self._late
        if not on_round:
            late.update(answered)
        else:
            if late:
                late.difference_update(answered)
            late.update(failed)
        if not len(rows):
            return failed
        cols = slice(None) if rows is self._load_table.all_rows else rows
        changed = self._load.append(cols, now, loads)
        misses = self._load_misses
        fresh = misses[cols] >= self.stale_after
        misses[cols] = 0
        for j in np.flatnonzero(changed | fresh).tolist():
            name = answered[j]
            if changed[j]:
                self._changes.append(name)
            if fresh[j]:
                self._pending_events.append(("host-fresh", name))
                self._changes.append(name)
        return failed

    def _count_misses(self, failed_iface: list[str], failed_host: list[str]) -> None:
        """Close a poll round: charge a miss to every un-sampled resource."""
        if failed_iface:
            # A channel went un-sampled iff every agent reporting it is
            # among the failed: count its rows in their slices.
            table = self._table
            agents = table.agents
            chans, counts = np.unique(
                np.concatenate(
                    [table.channel[agents[name].rows] for name in failed_iface]
                ),
                return_counts=True,
            )
            dead = chans[counts == table.reporters[chans]]
            misses = self._channel_misses
            misses[dead] += 1
            for c in dead[misses[dead] == self.stale_after].tolist():
                channel = table.channel_ids[c]
                self._pending_events.append(("channel-stale", channel))
                self._changes.append(channel[0])
        for name in failed_host:
            i = self.host_agents[name].index
            self._load_misses[i] += 1
            if self._load_misses[i] == self.stale_after:
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
    def utilization_history(self, channel: ChannelId) -> Sequence[Sample]:
        """(t, bps) utilization samples for a channel, oldest first: a
        read-only view of the collector's own store (``list()`` it to
        keep it across a poll round)."""
        col = self._table.channel_number.get(channel)
        return [] if col is None else _History(self._util, col)

    def load_history(self, host: str) -> Sequence[Sample]:
        """(t, load) samples for a compute node, oldest first
        (a read-only view, as :meth:`utilization_history`)."""
        try:
            return _History(self._load, self.host_agents[host].index)
        except KeyError:
            raise KeyError(f"no monitored host {host!r}") from None

    def host_columns(self, hosts) -> tuple[list, list, list]:
        """Three columns, a row per name in ``hosts``: samples ever
        taken, the newest load average (``load_history(h)[-1][1]``;
        meaningless where none was taken), consecutive missed polls."""
        agents = self.host_agents
        try:
            cols = [agents[h].index for h in hosts]
        except KeyError as exc:
            raise KeyError(f"no monitored host {exc.args[0]!r}") from None
        return _columns(self._load, self._load_misses, cols)

    def channel_columns(self, channels) -> tuple[list, list, list]:
        """:meth:`host_columns` for channels (every one monitored):
        utilization samples ever derived, the newest
        (``utilization_history(c)[-1][1]``), consecutive missed polls."""
        number = self._table.channel_number
        cols = [number[c] for c in channels]
        return _columns(self._util, self._channel_misses, cols)

    def channels(self) -> list[ChannelId]:
        """All channels with at least one derived utilization sample."""
        ids = self._table.channel_ids
        return [ids[c] for c in np.flatnonzero(self._util.count).tolist()]

    def age(self) -> float:
        """Seconds since the newest completed poll (staleness indicator)."""
        return self.cluster.sim.now - float(self._raw_t.max(initial=_NEVER))

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
            col = self.host_agents[host].index
        except KeyError:
            raise KeyError(f"no monitored host {host!r}") from None
        missed = self._load_misses.item(col)
        return ResourceStatus(
            age_s=self.cluster.sim.now - self._load.newest_time(col),
            missed_polls=missed,
            stale=missed >= self.stale_after,
        )

    def channel_status(self, channel: ChannelId) -> ResourceStatus:
        """Sample age and staleness of one channel's counter series."""
        try:
            col = self._table.channel_number[channel]
        except KeyError:
            raise KeyError(f"no monitored channel {channel!r}") from None
        missed = self._channel_misses.item(col)
        return ResourceStatus(
            age_s=self.cluster.sim.now - self._raw_t.item(col),
            missed_polls=missed,
            stale=missed >= self.stale_after,
        )

    def stale_hosts(self) -> list[str]:
        """All currently unmonitorable compute nodes, sorted."""
        stale = np.flatnonzero(self._load_misses >= self.stale_after)
        return sorted(self._load_names[i] for i in stale.tolist())

    def stale_resources(self) -> int:
        """Total stale resources (hosts + channels), for the gauge."""
        return int(
            np.count_nonzero(self._load_misses >= self.stale_after)
            + np.count_nonzero(self._channel_misses >= self.stale_after)
        )
