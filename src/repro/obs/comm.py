"""The communication ledger: who sent what to whom, round by round.

The rest of the obs stack observes *time* (spans, phase profiles,
Perfetto tracks); this module observes *volume* — the quantity the
paper's central claims are actually about.  A :class:`CommLedger`
attached to the telemetry session (``obs.session(comm=CommLedger())``)
is fed by the ledger-recording ``MessagePlane`` entry points:

- the Gluon substrate records one entry per aggregated host-pair message
  per round (reduce and broadcast, plus fault retransmissions), carrying
  the exact byte sizes the engine already charges to ``RoundStats``;
- the CONGEST plane records each round's channels in one call, carrying
  every message's value and machine-word counts, and checks each channel
  against the model's bandwidth budget ``B = c·⌈log₂ n⌉`` words per
  round (:func:`congest_bound_words`).

Each :class:`RoundComm` stores what it was given as appended row batches
``(src, dst, values, words, payload_bytes)``; its per-channel cells
(:attr:`RoundComm.pairs`) are a projection of those rows, built on first
read.  Recording thus keeps no per-channel object alive for the garbage
collector to walk: a row is five ints in five sequences.

Recording is purely additive: the ledger never perturbs accounting, so
``EngineRun.deterministic_signature`` is byte-identical with and without
a ledger attached (``repro bench --compare`` gates this).  All queries
order their output deterministically (insertion order for rounds and
phases, sorted keys elsewhere).

Bound violations are returned to the recording plane, which emits a
``comm`` obs event and — when the ledger was built with
``hard_fail=True`` — raises
:class:`~repro.runtime.errors.ChannelBandwidthError`.

See ``docs/OBSERVABILITY.md`` ("Communication accounting") for the
schema and ``repro comm`` for the command-line view.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

#: Bumped on any incompatible change to :meth:`CommLedger.summary`.
COMM_SCHEMA_VERSION = 1

#: Plane labels: host-level Gluon traffic vs per-edge CONGEST channels.
PLANE_GLUON = "gluon"
PLANE_CONGEST = "congest"

#: Bytes per machine word (the O(log n)-bit CONGEST word, rounded to a
#: 64-bit hardware word — the same unit :func:`payload_words` charges).
WORD_BYTES = 8

#: Default constant ``c`` of the per-channel budget ``B = c·⌈log₂ n⌉``
#: words per round.  The CONGEST model allows any fixed constant; 4 words
#: of headroom covers the paper's combined messages (at most
#: ``MAX_COMBINED_VALUES`` values of ≤ 3 words each on the suite graphs)
#: while still failing loudly on genuinely unbounded payloads.
DEFAULT_BOUND_FACTOR = 4


def congest_bound_words(n: int, factor: int = DEFAULT_BOUND_FACTOR) -> int:
    """The per-channel-per-round budget ``B = factor·⌈log₂ n⌉`` in words.

    ``n`` is the vertex count of the communication graph; values below 2
    are clamped so the bound is always positive.
    """
    if factor < 1:
        raise ValueError("bound factor must be >= 1")
    return factor * max(1, math.ceil(math.log2(max(2, n))))


@dataclass(slots=True)
class CommTotals:
    """Additive message/value/word/byte counters (one aggregation cell)."""

    messages: int = 0
    values: int = 0
    words: int = 0
    payload_bytes: int = 0

    def add(
        self, *, values: int, words: int, payload_bytes: int, messages: int = 1
    ) -> None:
        self.messages += messages
        self.values += values
        self.words += words
        self.payload_bytes += payload_bytes

    def merge(self, other: "CommTotals") -> None:
        self.add(
            messages=other.messages,
            values=other.values,
            words=other.words,
            payload_bytes=other.payload_bytes,
        )

    def to_dict(self) -> dict[str, int]:
        return {
            "messages": self.messages,
            "values": self.values,
            "words": self.words,
            "payload_bytes": self.payload_bytes,
        }


@dataclass(frozen=True)
class BoundViolation:
    """One channel exceeding the CONGEST bandwidth budget in one round."""

    round_index: int
    src: int
    dst: int
    words: int
    bound_words: int

    def to_dict(self) -> dict[str, int]:
        return {
            "round": self.round_index,
            "src": self.src,
            "dst": self.dst,
            "words": self.words,
            "bound_words": self.bound_words,
        }


class RoundComm:
    """All traffic of one plane in one round of one run (epoch).

    ``epoch`` distinguishes successive runs on the same plane whose round
    counters restart (one CONGEST network run per source batch and phase);
    planes bump it via :meth:`CommLedger.begin_epoch`.  ``totals`` is kept
    current as rows arrive; the per-channel view is :attr:`pairs`.
    """

    __slots__ = ("plane", "epoch", "phase", "round_index", "totals", "_rows", "_pairs")

    def __init__(self, plane: str, epoch: int, phase: str, round_index: int) -> None:
        self.plane = plane
        self.epoch = epoch
        self.phase = phase
        self.round_index = round_index
        self.totals = CommTotals()
        #: Appended row batches: aligned src / dst / values / words /
        #: payload_bytes sequences, one row per message.
        self._rows: list[tuple[Sequence[int], ...]] = []
        self._pairs: dict[tuple[int, int], CommTotals] | None = None

    def append_rows(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        values: Sequence[int],
        words: Sequence[int],
        payload_bytes: Sequence[int],
    ) -> None:
        """Append one batch of message rows (the only write path).  The
        sequences are kept, not copied."""
        self._rows.append((src, dst, values, words, payload_bytes))
        self._pairs = None

    @property
    def pairs(self) -> dict[tuple[int, int], CommTotals]:
        """(src, dst) -> totals, keys in first-occurrence order, repeated
        pairs summed.  Hosts for Gluon, vertex ids for CONGEST.

        A read-only projection of the rows, built on first read and
        cached until the next append; do not mutate it.
        """
        if self._pairs is None:
            out: dict[tuple[int, int], CommTotals] = {}
            for src, dst, values, words, nbytes in self._rows:
                for pk, v, w, b in zip(zip(src, dst), values, words, nbytes):
                    t = out.get(pk)
                    if t is None:
                        out[pk] = CommTotals(1, v, w, b)
                    else:
                        t.messages += 1
                        t.values += v
                        t.words += w
                        t.payload_bytes += b
            self._pairs = out
        return self._pairs


class CommLedger:
    """Per round × phase × (src, dst) communication record.

    Parameters
    ----------
    bound_words:
        Per-channel-per-round word budget for the CONGEST plane
        (:func:`congest_bound_words`), or ``None`` to disable checking.
    hard_fail:
        When True, the recording plane raises
        :class:`~repro.runtime.errors.ChannelBandwidthError` on a
        violation instead of merely recording it.
    """

    def __init__(
        self, *, bound_words: int | None = None, hard_fail: bool = False
    ) -> None:
        if bound_words is not None and bound_words < 1:
            raise ValueError("bound_words must be >= 1")
        self.bound_words = bound_words
        self.hard_fail = hard_fail
        #: Insertion-ordered (plane, epoch, phase, round) -> RoundComm.
        self._rounds: dict[tuple[str, int, str, int], RoundComm] = {}
        #: (plane, op) -> totals; op is "reduce"/"broadcast"/"retransmit"
        #: for Gluon and "send" for CONGEST.
        self._op_totals: dict[tuple[str, str], CommTotals] = {}
        self._epoch: dict[str, int] = {}
        self.violations: list[BoundViolation] = []

    # -- recording (called by the MessagePlane entry points) -------------------

    def begin_epoch(self, plane: str) -> None:
        """Mark the start of a new run whose round counter restarts."""
        self._epoch[plane] = self._epoch.get(plane, 0) + 1

    def _append(
        self,
        plane: str,
        phase: str,
        round_index: int,
        op: str,
        src: Sequence[int],
        dst: Sequence[int],
        values: Sequence[int],
        words: Sequence[int],
        payload_bytes: Sequence[int],
    ) -> None:
        """Append message rows to their round and add them to the round's
        and the op's totals.  Every recording entry point goes through
        here."""
        key = (plane, self._epoch.get(plane, 0), phase, round_index)
        rc = self._rounds.get(key)
        if rc is None:
            rc = self._rounds[key] = RoundComm(plane, key[1], phase, round_index)
        ot = self._op_totals.get((plane, op))
        if ot is None:
            ot = self._op_totals[(plane, op)] = CommTotals()
        rc.append_rows(src, dst, values, words, payload_bytes)
        n, v, w, b = len(src), sum(values), sum(words), sum(payload_bytes)
        for t in (rc.totals, ot):
            t.messages += n
            t.values += v
            t.words += w
            t.payload_bytes += b

    def record_round(
        self,
        plane: str,
        phase: str,
        round_index: int,
        src: Sequence[int],
        dst: Sequence[int],
        *,
        values: Sequence[int],
        words: Sequence[int],
        payload_bytes: Sequence[int],
        op: str = "send",
    ) -> list[BoundViolation]:
        """Record every message of one round in one call.

        Row ``i`` is the message on channel ``(src[i], dst[i])``.
        Equivalent to :meth:`record` once per row, in order; returns the
        rows that exceed the CONGEST bandwidth budget, as violations in
        row order (empty when none do, or when there are no rows, which
        record nothing).  The ledger keeps the sequences it is given.
        """
        if not src:
            return []
        self._append(plane, phase, round_index, op, src, dst, values, words, payload_bytes)
        bound = self.bound_words
        if plane != PLANE_CONGEST or bound is None or max(words) <= bound:
            return []
        found = [
            BoundViolation(
                round_index=round_index, src=s, dst=d, words=w, bound_words=bound
            )
            for s, d, w in zip(src, dst, words)
            if w > bound
        ]
        self.violations.extend(found)
        return found

    def record(
        self,
        plane: str,
        phase: str,
        round_index: int,
        src: int,
        dst: int,
        *,
        values: int,
        words: int,
        payload_bytes: int,
        op: str = "send",
    ) -> BoundViolation | None:
        """Record one aggregated message; return a violation when the
        CONGEST bandwidth budget is exceeded on this channel this round.

        The CONGEST plane records a whole round at once
        (:meth:`record_round`), so when a ``hard_fail`` ledger makes it
        raise, the ledger already holds that round's every channel and
        every violation, not just those up to the first one.
        """
        found = self.record_round(
            plane,
            phase,
            round_index,
            (src,),
            (dst,),
            values=(values,),
            words=(words,),
            payload_bytes=(payload_bytes,),
            op=op,
        )
        return found[0] if found else None

    def record_pair_message(
        self, rs: Any, src: int, dst: int, values: int, payload_bytes: int, op: str
    ) -> None:
        """Gluon entry point: one aggregated host-pair message.

        ``rs`` is the open :class:`~repro.engine.stats.RoundStats` (typed
        loosely so this module keeps no engine import); the byte size is
        the exact figure the substrate charged to it, so ledger totals
        reconcile with ``RoundStats.bytes_out``/``bytes_in`` by
        construction.  Replayed rounds land under ``"recovery"``, matching
        the manifest's phase attribution.
        """
        self._append(
            PLANE_GLUON,
            rs.effective_phase,
            rs.round_index,
            op,
            (src,),
            (dst,),
            (values,),
            (-(-payload_bytes // WORD_BYTES),),
            (payload_bytes,),
        )

    def record_pairs(
        self,
        rs: Any,
        src: list[int],
        dst: list[int],
        values: list[int],
        payload_bytes: list[int],
        op: str,
    ) -> None:
        """Every pair message of one Gluon exchange in one call.

        Equivalent to :meth:`record_pair_message` once per ``(src[i],
        dst[i], values[i], payload_bytes[i])`` in order; an exchange with
        no pairs records nothing (not even an empty round).
        """
        if not src:
            return
        self._append(
            PLANE_GLUON,
            rs.effective_phase,
            rs.round_index,
            op,
            src,
            dst,
            values,
            [-(-b // WORD_BYTES) for b in payload_bytes],
            payload_bytes,
        )

    # -- queries ---------------------------------------------------------------

    def rounds(self, plane: str | None = None) -> list[RoundComm]:
        """Recorded rounds in execution order, optionally one plane's."""
        return [
            rc
            for rc in self._rounds.values()
            if plane is None or rc.plane == plane
        ]

    def totals(self, plane: str | None = None) -> CommTotals:
        """Whole-ledger (or one plane's) aggregate counters."""
        out = CommTotals()
        for rc in self.rounds(plane):
            out.merge(rc.totals)
        return out

    def op_totals(self, plane: str) -> dict[str, CommTotals]:
        """Aggregates per operation ("reduce"/"broadcast"/...), sorted."""
        return {
            op: t
            for (p, op), t in sorted(self._op_totals.items())
            if p == plane
        }

    def phase_totals(self, plane: str) -> dict[str, CommTotals]:
        """Aggregates per phase, in first-execution order."""
        out: dict[str, CommTotals] = {}
        for rc in self.rounds(plane):
            out.setdefault(rc.phase, CommTotals()).merge(rc.totals)
        return out

    def pair_totals(self, plane: str) -> dict[tuple[int, int], CommTotals]:
        """Aggregates per (src, dst) channel across all rounds, sorted."""
        out: dict[tuple[int, int], CommTotals] = {}
        for rc in self.rounds(plane):
            for pair, t in rc.pairs.items():
                out.setdefault(pair, CommTotals()).merge(t)
        return dict(sorted(out.items()))

    def top_channels(
        self, plane: str, k: int = 10
    ) -> list[tuple[tuple[int, int], CommTotals]]:
        """The ``k`` hottest channels by payload bytes (ties by pair id)."""
        return sorted(
            self.pair_totals(plane).items(),
            key=lambda it: (-it[1].payload_bytes, it[0]),
        )[:k]

    def per_host_bytes(self, num_hosts: int) -> tuple[list[int], list[int]]:
        """Gluon bytes leaving / arriving at each host, summed over rounds."""
        out = [0] * num_hosts
        inn = [0] * num_hosts
        for (src, dst), t in self.pair_totals(PLANE_GLUON).items():
            out[src] += t.payload_bytes
            inn[dst] += t.payload_bytes
        return out, inn

    def host_matrix(self, num_hosts: int) -> list[list[int]]:
        """Gluon host×host payload bytes: ``matrix[src][dst]``."""
        m = [[0] * num_hosts for _ in range(num_hosts)]
        for (src, dst), t in self.pair_totals(PLANE_GLUON).items():
            m[src][dst] += t.payload_bytes
        return m

    def max_channel_words(self) -> tuple[int, BoundViolation | None]:
        """Largest per-channel word count in any CONGEST round.

        Returns ``(words, where)`` with ``where`` describing the maximal
        channel (reusing the violation record shape; it need not be an
        actual violation), or ``(0, None)`` when nothing was recorded.
        """
        best = 0
        where: BoundViolation | None = None
        for rc in self.rounds(PLANE_CONGEST):
            for (src, dst), t in sorted(rc.pairs.items()):
                if t.words > best:
                    best = t.words
                    where = BoundViolation(
                        round_index=rc.round_index,
                        src=src,
                        dst=dst,
                        words=t.words,
                        bound_words=self.bound_words or 0,
                    )
        return best, where

    def max_round_messages(self, plane: str) -> int:
        """Largest per-round message count on one plane."""
        return max((rc.totals.messages for rc in self.rounds(plane)), default=0)

    # -- export ----------------------------------------------------------------

    def per_round(self, plane: str | None = None) -> list[dict[str, Any]]:
        """Per-round rows (execution order) for the CLI's round breakdown."""
        return [
            {
                "plane": rc.plane,
                "run": rc.epoch,
                "phase": rc.phase,
                "round": rc.round_index,
                "channels": len(rc.pairs),
                **rc.totals.to_dict(),
            }
            for rc in self.rounds(plane)
        ]

    def summary(self, top: int = 5) -> dict[str, Any]:
        """The deterministic JSON-able digest persisted into manifests and
        ``BENCH_<sha>.json`` snapshots (sorted/ordered throughout)."""
        planes: dict[str, Any] = {}
        for plane in (PLANE_GLUON, PLANE_CONGEST):
            rounds = self.rounds(plane)
            if not rounds:
                continue
            doc: dict[str, Any] = {
                "rounds": len(rounds),
                **self.totals(plane).to_dict(),
                "by_phase": {
                    ph: t.to_dict() for ph, t in self.phase_totals(plane).items()
                },
                "by_op": {
                    op: t.to_dict() for op, t in self.op_totals(plane).items()
                },
                "top_channels": [
                    {"src": src, "dst": dst, **t.to_dict()}
                    for (src, dst), t in self.top_channels(plane, top)
                ],
            }
            if plane == PLANE_CONGEST:
                words, where = self.max_channel_words()
                doc["max_channel_words"] = words
                doc["max_channel"] = None if where is None else where.to_dict()
                doc["bound_words"] = self.bound_words
                doc["violations"] = [v.to_dict() for v in self.violations]
            planes[plane] = doc
        return {"schema": COMM_SCHEMA_VERSION, "planes": planes}

    def bench_counts(self) -> dict[str, int]:
        """The flat deterministic counts ``repro bench --compare`` gates on."""
        ops = self.op_totals(PLANE_GLUON)
        totals = self.totals(PLANE_GLUON)
        return {
            "messages": totals.messages,
            "values": totals.values,
            "payload_bytes": totals.payload_bytes,
            "reduce_bytes": ops.get("reduce", CommTotals()).payload_bytes,
            "broadcast_bytes": ops.get("broadcast", CommTotals()).payload_bytes,
        }
