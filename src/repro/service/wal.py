"""Durability for the reservation ledger: write-ahead log + snapshots.

The ledger is the service's account book, but until now it lived only in
memory: a ``repro-serve`` crash silently dropped every admitted lease,
and restarts began from an empty network even while tenants kept
running.  This module makes the control plane restartable:

- :class:`LedgerWal` subscribes to the ledger's listener path
  (:meth:`ReservationLedger.subscribe`) and appends one JSONL record per
  mutation — ``grant``, ``renew``, ``release``, ``expire``, ``evict``
  and ``preempt``.
  Each kind's line is formatted as text directly, with ``json``'s own
  primitives, into exactly the bytes ``json.dumps`` of the record gives.
  Records are flushed to the OS per append; ``fsync=True`` additionally
  forces them (and the directory entries a compaction moves) to stable
  storage (power-loss durability at a latency cost).  A grant's channel
  list is kept per route and each channel's text per channel, so what a
  grant encodes afresh is its own fields, not its channels.
- Every ``snapshot_every`` records the WAL **compacts**: the full ledger
  state is written atomically to ``snapshot.json`` (temp file +
  ``os.replace``) and the log is truncated.  A snapshot encodes a lease
  as its grant line does (the same formatter, the lease's own caps) and
  a channel's tally beside the channel text the grant lines keep.
  Monotonic sequence numbers make the pair crash-safe — a crash between
  snapshot and truncation just leaves records the replay skips
  (``seq <= snapshot["seq"]``).
- :meth:`ReservationLedger.recover` (implemented here as
  :func:`recover_ledger`) loads the snapshot, replays the surviving log,
  and reconstructs leases, deadlines, and the exact claim tallies.
  Replay repeats the *same float operations in the same order* as the
  original process, so the recovered ledger's ``residual_graph()`` is
  **bit-identical** to the pre-crash one — enforced by
  ``check_invariants(view=...)`` after the service rebuilds its overlay.
- :func:`open_ledger` is how a durable ledger is opened — a service's
  and a shard router's trunk alike: recover, open the log, attach.

Tail handling mirrors classic WAL semantics: a torn final record (the
process died mid-append) is tolerated — it is dropped, reported via
:attr:`RecoveryReport.truncated_tail`, and physically truncated before
new records are appended.  Corruption anywhere *before* the tail is not
recoverable by dropping a suffix and raises :class:`WalCorruptError`.

All floats round-trip exactly: ``json`` serializes Python floats with
``repr`` (shortest round-trip form), so ``float(json(x)) == x`` bit for
bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import is_
from typing import Optional

from ..topology.graph import ChannelId
from .cache import _SELECTION_MEMO_LIMIT
from .ledger import (
    CAPACITY_RETURNING_KINDS,
    DEADLINE_KINDS,
    Reservation,
    ReservationLedger,
)

__all__ = [
    "LedgerWal",
    "RecoveryReport",
    "WalCorruptError",
    "WalError",
    "open_ledger",
    "recover_ledger",
]

#: WAL file names inside a state directory.
WAL_NAME = "wal.jsonl"
SNAPSHOT_NAME = "snapshot.json"


class WalError(Exception):
    """A write-ahead-log failure (I/O or state-directory layout)."""


class WalCorruptError(WalError):
    """The WAL or snapshot cannot be replayed.

    Raised for damage that dropping a torn tail record cannot repair: a
    malformed record *before* the last line, an unknown record kind, a
    record referencing a lease the replayed state does not hold, or an
    unreadable snapshot.
    """


def decode_edge(raw) -> ChannelId:
    """A channel from its logged form, ``[[u, v], tag]`` (ends sorted)."""
    ends, dst = raw
    return (frozenset(ends), dst)


#: ``json.dumps(obj, separators=(",", ":"))``: a logged value's encoder
#: where :func:`_text` has no shortcut.
_encode = json.JSONEncoder(separators=(",", ":")).encode

_INF = float("inf")


def _text(value) -> str:
    """``value``'s JSON text, the bytes ``_encode`` gives: an exact
    ``str``, ``int`` or finite ``float`` through the primitive ``json``
    itself calls (``encode_basestring_ascii``; ``repr``, which is
    ``int.__repr__`` / ``float.__repr__`` for exactly those types),
    anything else (``bool``, NaN, inf, a subclass) through ``_encode``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        if -_INF < value < _INF:
            return repr(value)
    elif kind is int:
        return repr(value)
    return _encode(value)


def _fields(mapping: dict) -> str:
    """The text between a JSON object's braces: ``"key":value,...``."""
    return ",".join(f"{_text(k)}:{_text(v)}" for k, v in mapping.items())


def _decode_reservation(payload: dict) -> Reservation:
    return Reservation(
        app_id=payload["app"],
        nodes=tuple(payload["nodes"]),
        cpu_fraction=float(payload["cpu"]),
        bw_bps=float(payload["bw"]),
        edges=tuple(decode_edge(e) for e in payload["edges"]),
        priority=payload["priority"],
        granted_at=float(payload["granted_at"]),
        expires_at=float(payload["expires_at"]),
        caps=tuple(float(c) for c in payload["caps"]),
    )


@dataclass(frozen=True)
class RecoveryReport:
    """What a :func:`recover_ledger` replay found and restored."""

    #: Live leases after replay.
    leases: int
    #: WAL records replayed (snapshot-covered records are skipped).
    records: int
    #: Sequence number the snapshot covers through (0: no snapshot).
    snapshot_seq: int
    #: Highest sequence number seen across snapshot and log.
    last_seq: int
    #: A torn final record was dropped (crash mid-append).
    truncated_tail: bool


def _read_wal(path: str) -> tuple[list[dict], bool, int]:
    """Parse a WAL file; returns ``(records, truncated_tail, valid_bytes)``.

    The final line may be torn (no newline, or unparseable) — it is
    dropped and ``valid_bytes`` marks where the intact prefix ends so the
    writer can truncate before appending.  A malformed line anywhere else
    raises :class:`WalCorruptError`.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        return [], False, 0

    def _parse(line: bytes) -> dict:
        record = json.loads(line.decode("utf-8"))
        if not isinstance(record, dict) or "kind" not in record:
            raise ValueError("not a WAL record")
        return record

    records: list[dict] = []
    offset = 0
    lines = blob.split(b"\n")
    complete, remainder = lines[:-1], lines[-1]
    for i, line in enumerate(complete):
        try:
            records.append(_parse(line))
        except (ValueError, UnicodeDecodeError) as exc:
            rest = b"\n".join(complete[i + 1:] + [remainder])
            if not rest.strip():
                return records, True, offset
            raise WalCorruptError(
                f"{path}: malformed record at byte {offset} "
                f"(not the final line — cannot truncate it away): {exc}"
            ) from None
        offset += len(line) + 1
    if remainder:
        # A final line missing its newline is intact iff it parses —
        # the JSON object closed, only the terminator was lost.
        try:
            records.append(_parse(remainder))
        except (ValueError, UnicodeDecodeError):
            return records, True, offset
        offset += len(remainder)
    return records, False, offset


def _read_snapshot(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            snap = json.load(fh)
    except FileNotFoundError:
        return None
    except (ValueError, OSError) as exc:
        # Snapshots are written atomically (temp + rename), so a torn
        # snapshot never exists on disk; unparseable means corruption.
        raise WalCorruptError(f"{path}: unreadable snapshot: {exc}") from None
    if not isinstance(snap, dict) or "seq" not in snap:
        raise WalCorruptError(f"{path}: snapshot missing 'seq'")
    return snap


def _fsync_dir(path: str) -> None:
    """Force ``path``'s directory entries (a create, a rename) to
    stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class LedgerWal:
    """Append-only durability for one :class:`ReservationLedger`.

    Parameters
    ----------
    state_dir:
        Directory holding ``wal.jsonl`` and ``snapshot.json`` (created
        if missing).  One ledger per directory.
    snapshot_every:
        Compact after this many appended records: write a full snapshot
        and truncate the log.  Bounds both replay time and log size.
    fsync:
        Force every append, snapshot and directory change (the log's
        creation, a snapshot's rename) to stable storage.  Off by
        default: the flush-to-OS path survives process crashes, which is
        the failure mode the service actually models; power-loss
        durability costs an fsync per mutation.

    Call :meth:`attach` to subscribe to a ledger; every subsequent
    mutation is logged before the service's own listeners see it.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        snapshot_every: int = 256,
        fsync: bool = False,
    ) -> None:
        if snapshot_every <= 0:
            raise ValueError(
                f"snapshot_every must be positive: {snapshot_every}"
            )
        self.state_dir = state_dir
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        os.makedirs(state_dir, exist_ok=True)
        self.wal_path = os.path.join(state_dir, WAL_NAME)
        self.snapshot_path = os.path.join(state_dir, SNAPSHOT_NAME)
        snap = _read_snapshot(self.snapshot_path)
        records, truncated, valid_bytes = _read_wal(self.wal_path)
        if truncated:
            # Physically drop the torn tail before appending after it.
            with open(self.wal_path, "rb+") as fh:
                fh.truncate(valid_bytes)
        self._seq = max(
            [snap["seq"] if snap else 0]
            + [int(r.get("seq", 0)) for r in records]
        )
        self._since_snapshot = len(records)
        created = fsync and not os.path.exists(self.wal_path)
        self._fh = open(self.wal_path, "a", encoding="utf-8")
        if created:
            _fsync_dir(state_dir)
        self._ledger = None
        #: Channel -> ``(text, cap, cap text, order)``: its JSON in a
        #: grant line (and a snapshot's tally row), its cap's, kept
        #: while grants carry the same cap object for it, and its
        #: :func:`ledger_order` as a flat ``(u, v, tag)`` tuple, which
        #: sorts the snapshot's rows.  One entry per channel logged, so
        #: bounded by the topology's channels.
        self._channel_text: dict[
            ChannelId, tuple[str, float, str, tuple[str, str, str]]
        ] = {}
        #: ``id(edges)`` -> ``(edges, caps, text)``: a grant's
        #: ``"edges":[…],"caps":[…]`` text, kept for the route tuple the
        #: route cache hands out for its node set and reused while every
        #: cap is the same object.  Holding ``edges`` keeps its id from
        #: being reused; cleared when full, as the route cache is.
        self._route_text: dict[int, tuple[tuple, tuple, str]] = {}
        #: Appended records over this WAL's lifetime (metrics).
        self.appended = 0
        #: Snapshots written over this WAL's lifetime (metrics).
        self.snapshots = 0

    # -- the ledger side ------------------------------------------------------
    def attach(self, ledger) -> None:
        """Subscribe to ``ledger``; all further mutations are logged."""
        self._ledger = ledger
        ledger.subscribe(self.on_event)

    def on_event(self, kind: str, reservation: Reservation) -> None:
        """Ledger listener: log the mutation through :meth:`append`,
        looked up per call, so a wrapper set on the instance sees every
        record."""
        self.append(kind, reservation)

    def append(self, kind: str, reservation: Reservation) -> int:
        """Log one ledger mutation — ``reserve`` (a ``grant`` record),
        a deadline move or a release kind — and return the sequence
        number it was given.

        The one writer: assigns ``seq``, has the kind's formatter build
        the line, writes it and flushes it to the OS (what lets it
        survive a process crash), fsyncs when configured, and compacts
        into a snapshot once ``snapshot_every`` records have accumulated
        since the last one.
        """
        if self._fh is None:
            raise WalError("WAL is closed")
        seq = self._seq + 1
        if kind == "reserve":
            line = self._grant_line(seq, reservation)
        elif kind in DEADLINE_KINDS:
            line = self._renew_line(seq, kind, reservation)
        else:  # CAPACITY_RETURNING_KINDS
            line = self._release_line(seq, kind, reservation)
        self._seq = seq
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.appended += 1
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_every:
            self.snapshot()
        return seq

    def _grant_line(self, seq: int, r: Reservation) -> str:
        """``r``'s grant record: ``{"seq":…,"kind":"grant",`` then its
        lease text (:meth:`_lease_text`)."""
        if self._ledger is None:
            raise WalError(
                "a grant is logged into its ledger's snapshots: "
                "attach() the WAL instead of subscribing it"
            )
        return f'{{"seq":{seq},"kind":"grant",{self._lease_text(r)}}}'

    def _lease_text(self, r: Reservation) -> str:
        """``r``'s fields as JSON object members — ``app``, ``nodes``,
        ``cpu``, ``bw``, ``edges``, ``caps`` (its own, aligned with
        ``edges``, so recovery never needs the topology graph),
        ``priority``, ``granted_at``, ``expires_at`` — the one lease
        encoding, of a grant line and of a snapshot row."""
        text = _text
        return (
            f'"app":{text(r.app_id)},'
            f'"nodes":[{",".join(map(text, r.nodes))}],'
            f'"cpu":{text(r.cpu_fraction)},"bw":{text(r.bw_bps)},'
            f'{self._channels_text(r)},"priority":{text(r.priority)},'
            f'"granted_at":{text(r.granted_at)},'
            f'"expires_at":{text(r.expires_at)}'
        )

    def _channels_text(self, r: Reservation) -> str:
        """``r``'s ``"edges":[…],"caps":[…]`` text: the route's kept
        text while every cap is the object it was made with (an equal
        ``int`` encodes differently), else spliced from each channel's
        kept text and kept for the route."""
        edges, caps = r.edges, r.caps
        kept = self._route_text.get(id(edges))
        if (kept is not None and kept[0] is edges
                and all(map(is_, caps, kept[1]))):
            return kept[2]
        memo = self._channel_text
        edge_texts, cap_texts = [], []
        for edge, cap in zip(edges, caps):
            entry = memo.get(edge)
            if entry is None or entry[1] is not cap:
                key, dst = edge
                u, v = sorted(key)
                entry = memo[edge] = (
                    f'[[{_text(u)},{_text(v)}],{_text(dst)}]',
                    cap, _text(cap), (u, v, dst),
                )
            edge_texts.append(entry[0])
            cap_texts.append(entry[2])
        out = (
            f'"edges":[{",".join(edge_texts)}],'
            f'"caps":[{",".join(cap_texts)}]'
        )
        routes = self._route_text
        if len(routes) >= _SELECTION_MEMO_LIMIT:
            routes.clear()
        routes[id(edges)] = (edges, caps, out)
        return out

    def _renew_line(self, seq: int, kind: str, r: Reservation) -> str:
        """A deadline move: ``{"seq", "kind", "app", "expires_at"}``."""
        return (
            f'{{"seq":{seq},"kind":{_text(kind)},"app":{_text(r.app_id)},'
            f'"expires_at":{_text(r.expires_at)}}}'
        )

    def _release_line(self, seq: int, kind: str, r: Reservation) -> str:
        """A capacity-returning end: ``{"seq", "kind", "app"}``."""
        return (
            f'{{"seq":{seq},"kind":{_text(kind)},"app":{_text(r.app_id)}}}'
        )

    # -- snapshot / compaction ------------------------------------------------
    def snapshot(self) -> None:
        """Write the attached ledger's full state; truncate the log.

        Atomic: the snapshot lands via temp-file + ``os.replace`` before
        the log is truncated (with ``fsync``, the directory is synced in
        between), and sequence numbers keep a crash between the two
        steps harmless (replay skips covered records).
        """
        ledger = self._ledger
        if ledger is None:
            raise WalError("no ledger attached; cannot snapshot")
        if self._fh is None:
            raise WalError("WAL is closed")
        tmp = self.snapshot_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(self._snapshot_text(ledger))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        if self.fsync:
            # The rename must be on disk before the truncation can be:
            # else a power loss may keep an empty log and the old
            # snapshot, losing every record since it.
            _fsync_dir(self.state_dir)
        # Emptied through the open append-mode handle: closing and
        # re-opening with "w" costs ~0.5 ms on ext4 (truncate-on-open
        # forces the log's delayed blocks out), ``ftruncate`` ~40 us.
        # Compaction is a stall inside one request, so it is kept short.
        self._fh.truncate(0)
        self._since_snapshot = 0
        self.snapshots += 1

    def _snapshot_text(self, ledger: ReservationLedger) -> str:
        """``ledger``'s state as one JSON object: a header, a row per
        live lease (by app id) that is its grant line's
        :meth:`_lease_text`, the node tallies, and ``[channel, tally]``
        rows (in :func:`ledger_order`) whose channel is the text the
        grant lines keep for it."""
        header = {"version": 1, "seq": self._seq, "cpu_cap": 1.0}
        leases = ",".join(
            f"{{{self._lease_text(r)}}}"
            for _, r in sorted(ledger.reservations.items())
        )
        # The lease rows just kept the text (and order) of every
        # channel a live lease claims, and only those carry a tally.
        memo, claims = self._channel_text, ledger._edge_claims
        channels = ",".join(
            f"[{memo[e][0]},{_text(claims[e])}]"
            for e in sorted(claims, key=lambda e: memo[e][3])
        )
        return (
            f'{{{_fields(header)},"reservations":[{leases}],'
            f'"node_claims":{{{_fields(ledger._node_claims)}}},'
            f'"edge_claims":[{channels}]}}'
        )

    def close(self) -> None:
        """Final compaction (when a ledger is attached) and file close."""
        if self._ledger is not None and self._fh is not None:
            self.snapshot()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LedgerWal {self.state_dir!r} seq={self._seq} "
            f"appended={self.appended} snapshots={self.snapshots}>"
        )


def recover_ledger(state_dir: str):
    """Rebuild a ledger from ``state_dir``'s snapshot + WAL.

    The implementation behind :meth:`ReservationLedger.recover`.  Returns
    the recovered ledger with a :class:`RecoveryReport` on its
    ``recovery`` attribute; a replayed state that breaks the ledger
    invariants fails the closing ``check_invariants()`` loudly.
    """
    snap = _read_snapshot(os.path.join(state_dir, SNAPSHOT_NAME))
    records, truncated, _ = _read_wal(os.path.join(state_dir, WAL_NAME))
    ledger = ReservationLedger()
    snapshot_seq = 0
    if snap is not None:
        snapshot_seq = int(snap["seq"])
        try:
            for payload in snap["reservations"]:
                reservation = _decode_reservation(payload)
                ledger.reservations[reservation.app_id] = reservation
            ledger._node_claims = {
                name: float(v) for name, v in snap["node_claims"].items()
            }
            ledger._edge_claims = {
                decode_edge(e): float(v) for e, v in snap["edge_claims"]
            }
            # Snapshots from before a channel's cap lived only on its
            # leases also carry "edge_caps" rows: they are not read.
        except (KeyError, TypeError, ValueError) as exc:
            raise WalCorruptError(
                f"{state_dir}: malformed snapshot payload: {exc}"
            ) from None
        ledger._rebuild_deadlines()
    replayed = 0
    for record in records:
        if int(record.get("seq", 0)) <= snapshot_seq:
            continue  # crash landed between snapshot and log truncation
        try:
            kind = record["kind"]
            if kind == "grant":
                ledger._restore_grant(_decode_reservation(record))
            elif kind in DEADLINE_KINDS or kind == "preempt_clamp":
                # ``preempt_clamp``: a deadline move in state dirs
                # written while preemption could defer its release.
                ledger._write_deadline(
                    record["app"], float(record["expires_at"])
                )
            elif kind in CAPACITY_RETURNING_KINDS:
                ledger.release(record["app"], kind=kind)
            else:
                raise WalCorruptError(
                    f"{state_dir}: unknown WAL record kind {kind!r} "
                    f"(seq {record.get('seq')})"
                )
        except WalCorruptError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise WalCorruptError(
                f"{state_dir}: record seq {record.get('seq')} does not "
                f"apply to the replayed state: {exc}"
            ) from None
        replayed += 1
    ledger.check_invariants()
    last_seq = max(
        [snapshot_seq] + [int(r.get("seq", 0)) for r in records]
    )
    ledger.recovery = RecoveryReport(
        leases=ledger.active,
        records=replayed,
        snapshot_seq=snapshot_seq,
        last_seq=last_seq,
        truncated_tail=truncated,
    )
    return ledger


def open_ledger(state_dir: str, *, snapshot_every: int, fsync: bool):
    """Open a durable ledger: recover ``state_dir``, then log to it.

    The one durable-open sequence: :func:`recover_ledger` replays the
    snapshot and log (reading a torn tail before anything truncates
    it), then a :class:`LedgerWal` opens the same directory and attaches
    to the ledger before any other listener can subscribe, so the log
    sees every later mutation first.  Returns ``(ledger, wal)``; the
    ledger carries its :class:`RecoveryReport` on ``recovery``.
    """
    ledger = recover_ledger(state_dir)
    wal = LedgerWal(state_dir, snapshot_every=snapshot_every, fsync=fsync)
    wal.attach(ledger)
    return ledger, wal
