"""Message planes: the communication substrates the runtime drives.

A *plane* is what one superstep exchanges messages through.  Two
implementations cover every engine in the repository:

- :class:`GluonPlane` — host-level reduce/broadcast over a partitioned
  graph (wrapping :class:`~repro.engine.gluon.GluonSubstrate`), used by
  the BSP drivers (MRBC, SBBC, bfs/wcc/pagerank/kcore, ``run_bsp``);
- :class:`CongestPlane` — per-channel delivery with capacity and
  combining caps (wrapping :class:`~repro.congest.network
  .CongestNetwork`'s channel structures), used by the CONGEST programs.

:func:`resolve_partition` is the shared partition policy every Gluon
driver previously copied (default-build or validate a prebuilt one).

Import discipline: see :mod:`repro.runtime.superstep` — engine modules
are imported lazily so this package stays below them in the import
graph.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.runtime.arrays import ExchangeBatch, expand_csr
from repro.runtime.errors import (
    ChannelBandwidthError,
    ChannelCapacityError,
    NotAChannelError,
    PartitionMismatchError,
    UnknownBroadcastTargetError,
)


def resolve_partition(g, partition=None, num_hosts: int = 8, policy: str = "cvc"):
    """Return the partition a Gluon driver should run on.

    Builds one with ``policy`` when none is given; a prebuilt partition
    must have been built for the same graph object.
    """
    from repro.engine.partition import partition_graph

    if partition is None:
        return partition_graph(g, num_hosts, policy)
    if partition.graph is not g:
        raise PartitionMismatchError("partition was built for a different graph")
    return partition


class MessagePlane:
    """Protocol for a communication substrate driven by the runtime.

    ``num_hosts`` is the plane's host count for manifest creation, or
    None for planes without a host concept (CONGEST: processors *are*
    vertices).  Concrete planes add their own exchange primitives — the
    step functions call them directly, so the protocol stays minimal.
    """

    num_hosts: int | None = None


class GluonPlane(MessagePlane):
    """Host-level reduce/broadcast over a partitioned graph.

    Delegates to a :class:`~repro.engine.gluon.GluonSubstrate` (pass a
    prebuilt ``substrate`` to share or customize one, e.g. exact wire
    sizes); the delayed-synchronization optimization passes through
    unchanged because callers decide *which* items each round reduces.
    """

    def __init__(self, pg, *, resilience=None, substrate=None) -> None:
        if substrate is None:
            from repro.engine.gluon import GluonSubstrate

            substrate = GluonSubstrate(pg, resilience=resilience)
        self.pg = pg
        self.substrate = substrate
        self.num_hosts = pg.num_hosts

    def reduce_to_masters(self, per_host_items, payload_bytes, batch_width, rs):
        """Send each host's updated items to the owning masters."""
        return self.substrate.reduce_to_masters(
            per_host_items, payload_bytes, batch_width, rs
        )

    def broadcast_from_masters(
        self, per_host_items, targets, payload_bytes, batch_width, rs
    ):
        """Send master-side items to the hosts holding relevant proxies."""
        return self.substrate.broadcast_from_masters(
            per_host_items, targets, payload_bytes, batch_width, rs
        )


class GluonArrayPlane(MessagePlane):
    """Columnar host-level reduce/broadcast: one flat batch per exchange.

    The plane MRBC and SBBC run on.  An exchange is one
    :class:`~repro.runtime.arrays.ExchangeBatch` — every host's rows in
    one host-sorted struct of arrays — instead of per-host tuple lists;
    routing, inbox assembly and the per-pair statistics that feed
    Gluon's byte model are array reductions over the whole batch, and
    the substrate accounts every pair of the exchange in one call.  Byte
    counts, ledger entries and telemetry come from the same
    :class:`~repro.engine.gluon.GluonSubstrate` model as
    :class:`GluonPlane`'s, so both report identical communication
    numbers for the same items.

    Two substrate modes need the per-item tuple path, and every exchange
    then round-trips through the substrate's tuple primitives
    (:meth:`ExchangeBatch.to_tuples` / ``from_tuples``):

    - ``exact_sizes`` (pass a substrate built with it) encodes each item
      individually;
    - under a :class:`~repro.resilience.context.ResilienceContext`, fault
      injection, channel verification and repair act on tuples.

    Inbox ordering: rows are sorted by destination host, senders
    ascending within a destination, items within a sender in staging
    order (reduce inboxes carry the sender as the first payload column,
    as the tuple path's ``(gid, sender, *payload)`` does).
    """

    def __init__(self, pg, *, resilience=None, substrate=None) -> None:
        if substrate is None:
            from repro.engine.gluon import GluonSubstrate

            substrate = GluonSubstrate(pg, resilience=resilience)
        self.pg = pg
        self.substrate = substrate
        self.num_hosts = pg.num_hosts
        self._n = int(pg.master_of.size)
        self._tuple_path = substrate.resilience is not None or substrate.exact_sizes

    def _pair_stats(self, snd, dest, gids, batch_width):
        """Per host pair with traffic, ordered by pair key: aligned
        ``(sender, receiver, n_items, n_vertices, source_meta_bytes)``.

        One sort by (pair, vertex) finds each pair message's distinct
        vertices; per-pair sums are then bincounts over the pair key.
        """
        from repro.engine.gluon import source_meta_bytes

        H = self.num_hosts
        n = self._n
        if gids.size == 0:
            return (gids,) * 5
        pk = snd * H + dest
        ks = np.sort(pk * n + gids)
        first = np.empty(ks.size, dtype=bool)  # first item of a (pair, vertex)
        first[0] = True
        np.not_equal(ks[1:], ks[:-1], out=first[1:])
        vpair = ks[first] // n
        n_items = np.bincount(pk, minlength=H * H)
        pairs = n_items.nonzero()[0]
        n_vertices = np.bincount(vpair, minlength=H * H)[pairs]
        if batch_width > 1:
            vstart = first.nonzero()[0]
            per_vertex = np.empty_like(vstart)  # items per (pair, vertex)
            per_vertex[:-1] = vstart[1:] - vstart[:-1]
            per_vertex[-1] = ks.size - vstart[-1]
            source_meta = np.bincount(
                vpair, source_meta_bytes(per_vertex, batch_width), H * H
            )[pairs].astype(np.int64)
        else:
            source_meta = np.zeros(pairs.size, dtype=np.int64)
        return pairs // H, pairs % H, n_items[pairs], n_vertices, source_meta

    # -- primitives --------------------------------------------------------

    def reduce_to_masters(self, batch, payload_bytes, batch_width, rs):
        """Send each host's updated rows to the owning masters.

        ``batch`` is an :class:`ExchangeBatch` grouped by sending host.
        Returns the master inbox grouped by master host, whose first
        payload column is the sender.
        """
        if self._tuple_path:
            inbox = self.substrate.reduce_to_masters(
                batch.to_tuples(), payload_bytes, batch_width, rs
            )
            return ExchangeBatch.from_tuples(
                inbox, (np.dtype(np.int64), *batch.dtypes)
            )
        snd, gids = batch.host, batch.gids
        dest = self.pg.master_of[gids]
        self.substrate.account_column_pairs(
            self._pair_stats(snd, dest, gids, batch_width),
            payload_bytes,
            rs,
            op="reduce",
        )
        return ExchangeBatch.grouped(
            dest, gids, (snd, *batch.cols), self.num_hosts
        )

    def broadcast_from_masters(
        self, batch, targets, payload_bytes, batch_width, rs
    ):
        """Send master-side rows to the hosts holding relevant proxies."""
        try:
            offsets, hosts = self.pg.vertex_host_csr(targets)
        except ValueError:
            raise UnknownBroadcastTargetError(
                f"unknown broadcast target {targets!r}"
            ) from None
        if self._tuple_path:
            inbox = self.substrate.broadcast_from_masters(
                batch.to_tuples(), targets, payload_bytes, batch_width, rs
            )
            return ExchangeBatch.from_tuples(inbox, batch.dtypes)
        # One expansion over every sender's rows, in sender order —
        # identical item sequence to the tuple path's per-host loop.
        item_of, dst = expand_csr(offsets, hosts, batch.gids)
        gids = batch.gids[item_of]
        dest = dst.astype(np.int64, copy=False)
        self.substrate.account_column_pairs(
            self._pair_stats(batch.host[item_of], dest, gids, batch_width),
            payload_bytes,
            rs,
            op="broadcast",
        )
        return ExchangeBatch.grouped(
            dest, gids, tuple(c[item_of] for c in batch.cols), self.num_hosts
        )


class CongestPlane(MessagePlane):
    """One CONGEST round: validated sends, accounting, delivery.

    Owns the send/validate/record/deliver sequence that used to live in
    ``CongestNetwork._run_rounds`` — channel membership and the
    per-channel combining cap are enforced here, message statistics and
    per-round telemetry are recorded here, and the resilience channel
    guard runs between accounting and delivery.  The network object
    keeps the graph-shaped state (channels, programs).

    Each round is accounted once: one pass over its outbox feeds
    :class:`~repro.congest.messages.MessageStats`, the attached
    ``RoundStats``, the round ledger and a single
    :meth:`~repro.obs.comm.CommLedger.record_round` call.
    """

    num_hosts = None

    def __init__(self, network) -> None:
        from repro.congest.messages import MAX_COMBINED_VALUES, payload_words
        from repro.congest.program import BROADCAST
        from repro.obs.comm import PLANE_CONGEST, WORD_BYTES

        self.network = network
        self._broadcast = BROADCAST
        self._max_combined = MAX_COMBINED_VALUES
        self._payload_words = payload_words
        self._plane_label = PLANE_CONGEST
        self._word_bytes = WORD_BYTES

    def exchange_round(self, rnd, result, tele, rs, detect_quiescence) -> bool:
        """Execute CONGEST round ``rnd``; return whether work may remain.

        The return value feeds Lemma 8's global termination detector:
        with ``detect_quiescence`` it is true while this round sent
        anything or any program reports pending work; otherwise always
        true (the caller's round budget terminates the run).
        """
        net = self.network
        programs = net.programs
        # Host-scope faults (stall/crash) materialize at the round
        # barrier, before any channel traffic — a stall charges recovery
        # rounds (or times out per the policy deadline), a crash raises
        # for the driver-level restart loop.
        if net.resilience is not None:
            net.resilience.congest_host_events(rnd)
        # -- send phase: collect and validate this round's messages.
        # outbox maps (sender, target) -> list of payloads (combined).
        outbox: dict[tuple[int, int], list[tuple[Any, ...]]] = {}
        any_send = False
        for v, prog in enumerate(programs):
            if prog.is_stopped():
                continue
            sends = prog.compute_sends(rnd)
            if not sends:
                continue
            for target, payload in sends:
                if target == self._broadcast:
                    targets = net.channel_neighbors[v]
                else:
                    if target not in net._channel_sets[v]:
                        raise NotAChannelError(
                            f"vertex {v} has no channel to {target}"
                        )
                    targets = (target,)
                for t in targets:
                    key = (v, int(t))
                    bucket = outbox.setdefault(key, [])
                    if len(bucket) >= self._max_combined:
                        raise ChannelCapacityError(
                            f"vertex {v} exceeded channel capacity to {t} "
                            f"in round {rnd}"
                        )
                    bucket.append(payload)
                    any_send = True

        result.sends_per_round.append(len(outbox))
        # -- accounting: one pass over the outbox yields every figure the
        # round is charged with; stats, ledgers and RoundStats share them.
        srcs: list[int] = []
        dsts: list[int] = []
        counts: list[int] = []
        words: list[int] = []
        tags: dict[str, int] = {}
        payload_words = self._payload_words
        for (sender, target), payloads in outbox.items():
            srcs.append(sender)
            dsts.append(target)
            counts.append(len(payloads))
            w = 0
            for p in payloads:
                w += payload_words(p)
                tags[p[0]] = tags.get(p[0], 0) + 1
            words.append(w)
        total_values = sum(counts)
        if any_send:
            result.last_send_round = rnd
            result.stats.record_channels(len(outbox), total_values, sum(words), tags)
        ledger = tele.comm
        if ledger is not None:
            violations = ledger.record_round(
                self._plane_label,
                "congest",
                rnd,
                srcs,
                dsts,
                values=counts,
                words=words,
                payload_bytes=[w * self._word_bytes for w in words],
            )
            for violation in violations:
                if tele.enabled:
                    tele.emit(
                        "comm",
                        "congest.bound_violation",
                        round=rnd,
                        src=violation.src,
                        dst=violation.dst,
                        words=violation.words,
                        bound_words=violation.bound_words,
                    )
                if ledger.hard_fail:
                    raise ChannelBandwidthError(
                        f"channel {violation.src}->{violation.dst} carried "
                        f"{violation.words} words in round {rnd}, exceeding the "
                        f"CONGEST budget of {violation.bound_words} words/round"
                    )
        if tele.enabled:
            tele.emit(
                "round",
                "round:congest",
                round=rnd,
                phase="congest",
                channels=len(outbox),
                values=total_values,
            )
        if rs is not None:
            # An EngineRun is attached (persistable CONGEST runs): a
            # channel is the congest analogue of a pair message.
            rs.pair_messages += len(outbox)
            rs.items_synced += total_values
        rledger = tele.rounds
        if rledger is not None:
            # The round-ledger seam: sending vertices are the CONGEST
            # frontier; non-stopped programs are the still-active workers
            # whose quiescence Lemma 8's detector waits for.
            rledger.note(
                frontier=len(set(srcs)),
                channels=len(outbox),
                values=total_values,
                active_sources=sum(
                    1 for p in programs if not p.is_stopped()
                ),
            )

        # -- delivery phase: receivers process during this round.
        for (sender, target), payloads in outbox.items():
            if net.resilience is not None:
                payloads = net.resilience.guard_congest(
                    rnd, sender, target, payloads
                )
            handler = programs[target].handle_message
            for payload in payloads:
                handler(rnd, sender, payload)

        for prog in programs:
            prog.end_of_round(rnd)

        result.rounds_executed = rnd

        if not detect_quiescence:
            return True
        return any_send or any(p.has_pending_work(rnd) for p in programs)
