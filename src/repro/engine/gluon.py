"""Gluon-style communication substrate (paper §4.1, Dathathri et al. 2018).

Gluon reconciles the labels of a vertex's proxies with a reduce phase
(mirrors send their updates to the master) and a broadcast phase (the
master sends the reconciled value to mirrors).  Its key communication
optimizations, all modelled here:

- **Update tracking** — only labels the algorithm marks as updated are
  sent (callers pass exactly the items to synchronize, which is how the
  paper's *delayed synchronization* optimization plugs in: MRBC passes a
  label only in the round the algorithm proves it final).
- **Message aggregation** — all values exchanged between one host pair in
  one round travel in a single message (one header per pair per round).
- **Metadata compression** — the proxies being synchronized are identified
  by whichever is smaller: an explicit index list (4 bytes per vertex) or
  a bitmap over the pair's shared proxies.  Synchronizing more proxies per
  round therefore costs fewer metadata bytes per proxy — exactly the
  effect §5.3 credits for MRBC's 2.8× communication-time reduction.
- **Batched-source metadata** — when an algorithm synchronizes per-source
  values for a batch of ``k`` sources (MRBC), the sources present for one
  vertex are identified by min(index list, k-bit bitvector) per vertex.

Byte accounting is exact and deterministic; simulated wire time comes from
:mod:`repro.cluster.model`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro import obs
from repro.engine.partition import PartitionedGraph
from repro.engine.stats import RoundStats
from repro.runtime.errors import UnknownBroadcastTargetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext

#: Fixed per-message overhead: MPI envelope, per-field descriptors (each
#: Gluon sync moves multiple labeled fields), length words, and buffer
#: padding.  This fixed cost is paid once per host pair per round, so an
#: algorithm that synchronizes the same labels in fewer rounds (MRBC)
#: amortizes it — the §5.3 mechanism behind MRBC's lower communication
#: volume despite its larger per-value messages.
MESSAGE_HEADER_BYTES = 384
#: Bytes to name one vertex in an explicit index list.
VERTEX_ID_BYTES = 4
#: Bytes to name one source slot in an explicit per-vertex source list.
SOURCE_ID_BYTES = 4


def pair_message_bytes(shared, n_vertices, n_items, source_meta, payload_bytes):
    """The aggregated pair message size — for scalars or aligned arrays.

    ``shared`` is the pair's shared-proxy count, ``n_vertices`` the
    distinct vertices in the message, ``n_items`` its per-source items
    and ``source_meta`` the summed :func:`source_meta_bytes` of its
    vertices.  Vertex metadata is the smaller of an index list and a
    bitmap over the shared proxies (no bitmap when nothing is shared).
    """
    index_list = VERTEX_ID_BYTES * n_vertices
    bitmap = np.where(shared > 0, (shared + 7) // 8, index_list)
    return (
        MESSAGE_HEADER_BYTES
        + np.minimum(index_list, bitmap)
        + source_meta
        + payload_bytes * n_items
    )


def source_meta_bytes(items_per_vertex, batch_width: int):
    """Per-vertex source-slot metadata: min(index list, k-bit bitvector).

    A single-source sync (``batch_width == 1``) names no source slots.
    """
    if batch_width <= 1:
        return np.zeros_like(items_per_vertex)
    return np.minimum(
        SOURCE_ID_BYTES * items_per_vertex, (batch_width + 7) // 8
    )


#: Broadcast target selectors.
TARGET_OUT_EDGES = "out_edges"
TARGET_IN_EDGES = "in_edges"
TARGET_ALL_PROXIES = "proxies"


class GluonSubstrate:
    """Reduce/broadcast primitives over a :class:`PartitionedGraph`.

    With ``exact_sizes=True``, message sizes come from actually encoding
    each aggregated message with the wire format in
    :mod:`repro.engine.serialize` instead of the closed-form model — the
    two agree within a few percent (asserted in the tests), but exact mode
    pays the encoding cost on every sync.

    With a :class:`~repro.resilience.context.ResilienceContext` attached,
    every aggregated pair message passes through the context's channel
    guard between accounting and delivery: the guard injects the active
    fault plan's perturbations and — depending on its mode — verifies and
    repairs the channel before the items reach the destination inboxes.
    """

    def __init__(
        self,
        pgraph: PartitionedGraph,
        exact_sizes: bool = False,
        resilience: "ResilienceContext | None" = None,
    ) -> None:
        self.pg = pgraph
        self.H = pgraph.num_hosts
        self.exact_sizes = exact_sizes
        self.resilience = resilience

    # -- metadata model --------------------------------------------------------

    def _message_bytes(
        self,
        sender: int,
        receiver: int,
        items_by_vertex: dict[int, int],
        payload_bytes: int,
        batch_width: int,
    ) -> int:
        """Size of one aggregated pair message.

        ``items_by_vertex`` maps each distinct vertex in the message to its
        number of per-source items.
        """
        counts = np.fromiter(
            items_by_vertex.values(), dtype=np.int64, count=len(items_by_vertex)
        )
        return int(
            pair_message_bytes(
                self.pg.shared_proxies[sender, receiver],
                counts.size,
                counts.sum(),
                source_meta_bytes(counts, batch_width).sum(),
                payload_bytes,
            )
        )

    def account_column_pairs(
        self,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        payload_bytes: int,
        rs: RoundStats,
        op: str = "sync",
    ) -> None:
        """Columnar twin of :meth:`_account`, one call per exchange.

        ``pairs`` holds aligned int64 arrays ``(sender, receiver, n_items,
        n_vertices, source_meta_bytes)`` — one entry per host pair with
        traffic this round, the last three pre-aggregated by the caller.
        Every byte, counter, ledger entry and telemetry sample is
        produced exactly as the tuple path would, with array reductions
        in place of the per-pair loop.  Requires the closed-form size
        model (``exact_sizes`` encodes each item and has no columnar
        equivalent).
        """
        if self.exact_sizes:
            raise ValueError(
                "columnar accounting requires the closed-form size model; "
                "exact_sizes stays on the dict plane"
            )
        sender, receiver, n_items, n_vertices, source_meta = pairs
        # 1 per pair message; local delivery is free.  int64, not bool:
        # the scatter-adds below take a slower casting path for bools.
        live = (sender != receiver).astype(np.int64)
        nbytes = live * pair_message_bytes(
            self.pg.shared_proxies[sender, receiver],
            n_vertices,
            n_items,
            source_meta,
            payload_bytes,
        )
        np.add.at(rs.bytes_out, sender, nbytes)
        np.add.at(rs.bytes_in, receiver, nbytes)
        np.add.at(rs.msgs_out, sender, live)
        np.add.at(rs.msgs_in, receiver, live)
        values = n_items.tolist()
        items = sum(values)
        proxies = sum(n_vertices.tolist())
        rs.items_synced += items
        rs.proxies_synced += proxies
        wire = live.tolist()
        messages = sum(wire)
        rs.pair_messages += messages
        tele = obs.current()
        if messages and (tele.comm is not None or tele.enabled):
            sizes = list(compress(nbytes.tolist(), wire))
            if tele.comm is not None:
                tele.comm.record_pairs(
                    rs,
                    list(compress(sender.tolist(), wire)),
                    list(compress(receiver.tolist(), wire)),
                    list(compress(values, wire)),
                    sizes,
                    op,
                )
            if tele.enabled:
                hist = tele.metrics.histogram("gluon.message_bytes", op=op)
                for nb in sizes:
                    hist.observe(nb)
        if tele.enabled:
            m = tele.metrics
            m.counter("gluon.bytes", op=op).inc(int(nbytes.sum()))
            m.counter("gluon.pair_messages", op=op).inc(messages)
            m.counter("gluon.items_synced", op=op).inc(items)
            m.counter("gluon.proxies_synced", op=op).inc(proxies)

    def _encoded_bytes(
        self,
        items: list[tuple[Any, ...]],
        payload_bytes: int,
        batch_width: int,
    ) -> int:
        """Exact size: actually encode the aggregated message."""
        from repro.engine.serialize import encoded_size

        # Payload layout: dist i32 + sigma f64 (12 B) or a single f64 per
        # value (8 B) — pick the struct format matching payload_bytes.
        fmt = "<id" if payload_bytes >= 12 else "<d"
        wire_items = []
        for it in items:
            gid = int(it[0])
            si = int(it[1]) if batch_width > 1 and len(it) > 2 else 0
            if fmt == "<id":
                wire_items.append((gid, si, (0, 0.0)))
            else:
                wire_items.append((gid, si, (0.0,)))
        return encoded_size(wire_items, batch_width, payload_format=fmt)

    def _account(
        self,
        per_pair: dict[tuple[int, int], list[tuple[Any, ...]]],
        payload_bytes: int,
        batch_width: int,
        rs: RoundStats,
        op: str = "sync",
    ) -> None:
        tele = obs.current()
        ledger = tele.comm
        if tele.enabled:
            before = (
                int(rs.bytes_out.sum()),
                rs.pair_messages,
                rs.items_synced,
                rs.proxies_synced,
            )
        for (sender, receiver), items in per_pair.items():
            vertices: dict[int, int] = defaultdict(int)
            for it in items:
                vertices[it[0]] += 1
            rs.items_synced += len(items)
            rs.proxies_synced += len(vertices)
            if sender == receiver:
                continue  # local delivery is free
            if self.exact_sizes:
                nbytes = self._encoded_bytes(items, payload_bytes, batch_width)
            else:
                nbytes = self._message_bytes(
                    sender, receiver, vertices, payload_bytes, batch_width
                )
            rs.pair_messages += 1
            rs.bytes_out[sender] += nbytes
            rs.bytes_in[receiver] += nbytes
            rs.msgs_out[sender] += 1
            rs.msgs_in[receiver] += 1
            if ledger is not None:
                ledger.record_pair_message(
                    rs, sender, receiver, len(items), nbytes, op
                )
            if tele.enabled:
                tele.metrics.histogram("gluon.message_bytes", op=op).observe(
                    nbytes
                )
        if tele.enabled:
            m = tele.metrics
            m.counter("gluon.bytes", op=op).inc(
                int(rs.bytes_out.sum()) - before[0]
            )
            m.counter("gluon.pair_messages", op=op).inc(
                rs.pair_messages - before[1]
            )
            m.counter("gluon.items_synced", op=op).inc(
                rs.items_synced - before[2]
            )
            m.counter("gluon.proxies_synced", op=op).inc(
                rs.proxies_synced - before[3]
            )

    # -- primitives -------------------------------------------------------------

    def reduce_to_masters(
        self,
        per_host_items: Sequence[list[tuple[Any, ...]]],
        payload_bytes: int,
        batch_width: int,
        rs: RoundStats,
    ) -> list[list[tuple[Any, ...]]]:
        """Send each host's updated items to the owning masters.

        ``per_host_items[h]`` is a list of ``(gid, *payload)`` tuples
        produced on host ``h``.  Returns per-host master inboxes of
        ``(gid, sender_host, *payload)`` tuples; the reduction operator
        itself is applied by the caller (it is algorithm-specific).
        """
        master_of = self.pg.master_of
        per_pair: dict[tuple[int, int], list[tuple[Any, ...]]] = defaultdict(list)
        for h, items in enumerate(per_host_items):
            for it in items:
                per_pair[(h, int(master_of[it[0]]))].append(it)
        self._account(per_pair, payload_bytes, batch_width, rs, op="reduce")
        # The sender-side bytes above are authoritative; the channel guard
        # perturbs (and possibly repairs) what actually arrives.
        if self.resilience is not None:
            per_pair = self.resilience.guard_sync(
                self, per_pair, payload_bytes, batch_width, rs
            )
        inbox: list[list[tuple[Any, ...]]] = [[] for _ in range(self.H)]
        for (h, dest), delivered in per_pair.items():
            for it in delivered:
                inbox[dest].append((it[0], h, *it[1:]))
        return inbox

    def broadcast_from_masters(
        self,
        per_host_items: Sequence[list[tuple[Any, ...]]],
        targets: str,
        payload_bytes: int,
        batch_width: int,
        rs: RoundStats,
    ) -> list[list[tuple[Any, ...]]]:
        """Send master-side items to the hosts holding relevant proxies.

        ``targets`` selects the destination set per vertex:
        :data:`TARGET_OUT_EDGES` (hosts owning out-edges — forward phase),
        :data:`TARGET_IN_EDGES` (accumulation phase), or
        :data:`TARGET_ALL_PROXIES`.  The sending host receives its own copy
        locally for free.  Returns per-host inboxes of ``(gid, *payload)``.
        """
        if targets == TARGET_OUT_EDGES:
            hosts_of = self.pg.hosts_with_out_edges
        elif targets == TARGET_IN_EDGES:
            hosts_of = self.pg.hosts_with_in_edges
        elif targets == TARGET_ALL_PROXIES:
            hosts_of = self.pg.hosts_with_proxy
        else:
            raise UnknownBroadcastTargetError(
                f"unknown broadcast target {targets!r}"
            )

        per_pair: dict[tuple[int, int], list[tuple[Any, ...]]] = defaultdict(list)
        for h, items in enumerate(per_host_items):
            for it in items:
                for dest in hosts_of(it[0]):
                    per_pair[(h, int(dest))].append(it)
        self._account(per_pair, payload_bytes, batch_width, rs, op="broadcast")
        if self.resilience is not None:
            per_pair = self.resilience.guard_sync(
                self, per_pair, payload_bytes, batch_width, rs
            )
        inbox: list[list[tuple[Any, ...]]] = [[] for _ in range(self.H)]
        for (_h, dest), delivered in per_pair.items():
            inbox[dest].extend(delivered)
        return inbox
