"""Min-Rounds BC on the D-Galois-style engine (paper §4).

This is the implementation the paper's evaluation measures: MRBC executed
as a vertex program over a partitioned graph, computing betweenness scores
for a batch of ``k`` sources simultaneously, with the §4.3 optimizations:

- **Batched sources with dense per-source arrays** — every proxy holds
  ``(dist, σ, δ)`` for all ``k`` sources of the batch in flat arrays
  (O(1) access, spatial locality).
- **Flat-map scheduling** — each master orders its ``(d, s)`` pairs
  lexicographically and derives the send round of a pair from its distance
  and list position (``r = d + position``), instead of storing explicit
  per-source round numbers.
- **Delayed synchronization** — a vertex's ``(d_sv, σ_sv)`` label is
  broadcast to its mirrors exactly once, in the round the pipelining
  schedule proves it final (the proxy synchronization rule of §4.3).

Realization of the §4.3 proxy rule
----------------------------------
The paper evaluates the send condition per proxy; we realize the identical
schedule with a *master-authoritative* variant: mirrors reduce their local
``(d, σ)`` candidates to the master whenever they improve, the master
maintains the authoritative list ``L_v`` and evaluates the CONGEST send
rule ``r = d_sv + ℓ(d_sv, s)`` on it, and fires exactly one broadcast per
``(v, s)`` pair.  Because Gluon's reduce and broadcast happen in the same
communication step, a candidate created by a round-``r`` fire is on the
master at the start of round ``r+1`` — exactly when the CONGEST message
would be in ``L_v`` — so the engine executes the same round schedule as
Algorithm 3 and Lemma 8's ``k + H`` forward-round bound carries over
(validated in the tests against :mod:`repro.core.mrbc_congest`).

The accumulation phase reverses the timestamps exactly as Algorithm 5:
vertex ``v`` fires its dependency broadcast for source ``s`` in round
``A_sv = R − τ_sv + 1``, targeted at the hosts owning in-edges of ``v``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.batching import iter_batches
from repro.core.sampling import sample_sources
from repro.engine.gluon import TARGET_ALL_PROXIES, TARGET_IN_EDGES
from repro.engine.partition import PartitionedGraph
from repro.engine.stats import EngineRun, RoundStats
from repro.graph.digraph import DiGraph
from repro.resilience.checkpoint import (
    mrbc_forward_snapshot,
    restore_mrbc_forward,
)
from repro.runtime.arrays import (
    BIG,
    ExchangeBatch,
    HostArena,
    MasterColumns,
    RowStateView,
    expand_csr,
)
from repro.runtime.plane import GluonArrayPlane, GluonPlane, resolve_partition
from repro.runtime.superstep import SuperstepRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext
    from repro.resilience.supervisor import PartialResult, RecoveryPolicy

#: "Infinite" distance sentinel in the dense candidate arrays.
INF = np.iinfo(np.int32).max

#: Forward payload: dist (4B) + sigma (8B); the source slot is charged as
#: metadata by Gluon's batched-source model.
FWD_PAYLOAD_BYTES = 12
#: Backward payload: dependency coefficient (8B) + dist (4B).
BWD_PAYLOAD_BYTES = 12


class MasterVertexState:
    """Authoritative ``L_v`` at a master, with per-host contributions.

    Each contributing host ``h`` reports its best local candidate
    ``(d_h, σ_h)`` where ``σ_h`` sums shortest paths arriving over
    ``h``-local in-edges.  The authoritative value is
    ``d* = min_h d_h`` and ``σ* = Σ_{h: d_h = d*} σ_h`` — every in-edge of
    the vertex lives on exactly one host, so this counts each predecessor
    contribution once.
    """

    __slots__ = ("entries", "best", "contrib", "tau", "sent_prefix")

    def __init__(self) -> None:
        self.entries: list[tuple[int, int]] = []  # sorted (d, source_idx)
        self.best: dict[int, tuple[int, float]] = {}
        self.contrib: dict[int, dict[int, tuple[int, float]]] = {}
        self.tau: dict[int, int] = {}
        self.sent_prefix = 0

    def initialize_source(self, si: int) -> None:
        """Seed the list with ``(0, si)`` — this master is a batch source."""
        self.entries.append((0, si))
        self.best[si] = (0, 1.0)
        # Recorded as a virtual contribution (host −1) so that later real
        # contributions can never displace the source's own zero distance.
        self.contrib[si] = {-1: (0, 1.0)}

    def apply_contribution(self, si: int, host: int, d: int, sigma: float) -> None:
        """Merge one reduced candidate into the authoritative state."""
        per_host = self.contrib.setdefault(si, {})
        old = per_host.get(host)
        if old is not None and old[0] < d:
            return  # stale (the host already reported something better)
        per_host[host] = (d, sigma)
        d_star = min(dh for dh, _ in per_host.values())
        sigma_star = sum(sg for dh, sg in per_host.values() if dh == d_star)
        cur = self.best.get(si)
        if cur is None:
            pos = bisect_left(self.entries, (d_star, si))
            assert pos >= self.sent_prefix, "insertion below sent prefix"
            self.entries.insert(pos, (d_star, si))
        elif d_star < cur[0]:
            old_pos = bisect_left(self.entries, (cur[0], si))
            assert old_pos >= self.sent_prefix, "replacing a fired entry"
            del self.entries[old_pos]
            pos = bisect_left(self.entries, (d_star, si))
            assert pos >= self.sent_prefix, "replacement below sent prefix"
            self.entries.insert(pos, (d_star, si))
        elif d_star == cur[0] and sigma_star != cur[1]:
            pos = bisect_left(self.entries, (d_star, si))
            assert pos >= self.sent_prefix, "sigma update after fire"
        self.best[si] = (d_star, sigma_star)

    def next_fire(self, rnd: int) -> tuple[int, int, float] | None:
        """Entry due to fire in ``rnd``: ``(d, si, σ)``, or None.

        Same prefix logic as the CONGEST implementation: send rounds are
        strictly increasing along the list, so fired entries form a stable
        prefix.
        """
        if self.sent_prefix >= len(self.entries):
            return None
        d, si = self.entries[self.sent_prefix]
        due = d + self.sent_prefix + 1
        if due == rnd:
            self.sent_prefix += 1
            self.tau[si] = rnd
            return d, si, self.best[si][1]
        assert due > rnd, f"missed fire: entry {(d, si)} was due in round {due}"
        return None

    def all_fired(self) -> bool:
        """True when every current entry has fired."""
        return self.sent_prefix == len(self.entries)


@dataclass
class HostState:
    """Per-host dense arrays for one batch (the §4.3 label layout)."""

    #: Local candidate distances / path counts (mirror-side accumulation).
    cand_dist: np.ndarray
    cand_sigma: np.ndarray
    #: Finalized values received via broadcast (needed for relaxation and
    #: for the backward phase's predecessor test).
    fin_dist: np.ndarray
    fin_sigma: np.ndarray
    #: Dirty flags for candidates to reduce at the next sync.
    dirty: np.ndarray
    #: Backward-phase partial dependency accumulator (flushed every round).
    partial_delta: np.ndarray
    delta_dirty: np.ndarray
    #: Delayed-sync bookkeeping: per local vertex, the lexicographically
    #: sorted list of candidate ``(d, si)`` pairs (the proxy's local
    #: ``L_v``), and per (lid, si) the distance at which the candidate was
    #: last reduced to the master (−1 = never).
    local_lists: dict[int, list[tuple[int, int]]] = None  # type: ignore[assignment]
    sent_d: np.ndarray = None  # type: ignore[assignment]
    #: Local vertices that still have unsent candidate pairs.
    unsent: set[int] = None  # type: ignore[assignment]


@dataclass
class MRBCEngineResult:
    """Output of :func:`mrbc_engine`."""

    bc: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    sources: np.ndarray
    batch_size: int
    run: EngineRun
    forward_rounds: int
    backward_rounds: int
    partition: PartitionedGraph
    #: Graceful-degradation record when a recovery policy dropped one or
    #: more source batches; None on a fully completed run.  When set,
    #: ``bc``/``dist``/``sigma`` cover only the completed batches (failed
    #: sources keep ``dist == -1``).
    partial: "PartialResult | None" = None

    @property
    def total_rounds(self) -> int:
        """All BSP rounds across batches and phases."""
        return self.forward_rounds + self.backward_rounds

    def rounds_per_source(self) -> float:
        """The paper's Table 1 metric."""
        return self.total_rounds / self.sources.size


class _BatchExecutor:
    """Runs one k-source batch (forward + backward) on the engine."""

    def __init__(
        self,
        pg: PartitionedGraph,
        gluon: GluonPlane,
        run: EngineRun,
        batch: np.ndarray,
        delayed_sync: bool,
        resilience: "ResilienceContext | None" = None,
    ) -> None:
        self.pg = pg
        self.gluon = gluon
        self.run = run
        self.batch = batch
        self.k = batch.size
        self.delayed_sync = delayed_sync
        self.H = pg.num_hosts
        #: Second line of defense behind the channel guard: per-round
        #: verification of the master state the correctness lemmas rely on.
        self.checker = (
            resilience.new_invariant_checker() if resilience is not None else None
        )

        self.hosts: list[HostState] = []
        for part in pg.parts:
            L = part.num_local
            shape = (L, self.k)
            self.hosts.append(
                HostState(
                    cand_dist=np.full(shape, INF, dtype=np.int64),
                    cand_sigma=np.zeros(shape, dtype=np.float64),
                    fin_dist=np.full(shape, INF, dtype=np.int64),
                    fin_sigma=np.zeros(shape, dtype=np.float64),
                    dirty=np.zeros(shape, dtype=bool),
                    partial_delta=np.zeros(shape, dtype=np.float64),
                    delta_dirty=np.zeros(shape, dtype=bool),
                    local_lists={},
                    sent_d=np.full(shape, -1, dtype=np.int64),
                    unsent=set(),
                )
            )

        # Master states, keyed by gid, living on master_of[gid].
        self.masters: dict[int, MasterVertexState] = {}
        for si, s in enumerate(batch):
            ms = self.masters.setdefault(int(s), MasterVertexState())
            ms.initialize_source(si)
        self.delta: dict[int, np.ndarray] = {}

    def _master(self, gid: int) -> MasterVertexState:
        ms = self.masters.get(gid)
        if ms is None:
            ms = MasterVertexState()
            self.masters[gid] = ms
        return ms

    # -- forward phase ---------------------------------------------------------

    def _update_local_list(
        self, st: HostState, lid: int, si: int, old_d: int, new_d: int
    ) -> None:
        """Maintain the proxy's sorted local pair list on a candidate update."""
        lst = st.local_lists.get(lid)
        if lst is None:
            lst = st.local_lists[lid] = []
        if old_d != INF and old_d != new_d:
            i = bisect_left(lst, (old_d, si))
            if i < len(lst) and lst[i] == (old_d, si):
                del lst[i]
        if old_d != new_d:
            lst.insert(bisect_left(lst, (new_d, si)), (new_d, si))
        st.unsent.add(lid)

    def _stage_delayed(
        self, rnd: int, pending_reduce: list[list[tuple]], rs: RoundStats
    ) -> bool:
        """Delayed synchronization (§4.3): reduce a proxy's ``(d, σ)`` label
        to the master only once its local pipelining condition
        ``r >= d + position`` holds — one reduce per (vertex, source) per
        host unless the value changes after it was sent.
        Returns whether anything is staged or still unsent."""
        any_work = False
        for h, st in enumerate(self.hosts):
            part = self.pg.parts[h]
            items = pending_reduce[h]
            oc = rs.compute[h]
            done: list[int] = []
            for lid in sorted(st.unsent):
                lst = st.local_lists[lid]
                gid = int(part.gids[lid])
                all_sent = True
                # Flat-map lookup: the per-round schedule evaluation is
                # the data-structure overhead §4.3/Figure 2 attribute to
                # MRBC (one map probe per pending vertex per round).
                oc.struct_ops += 1
                for pos, (d, si) in enumerate(lst):
                    if d + pos + 1 > rnd + 1:
                        # Due rounds are increasing along the list; the
                        # rest is not due yet.
                        if any(
                            st.sent_d[lid, si2] != d2 for d2, si2 in lst[pos:]
                        ):
                            all_sent = False
                        break
                    if st.sent_d[lid, si] != d:
                        items.append((gid, si, d, float(st.cand_sigma[lid, si])))
                        st.sent_d[lid, si] = d
                if all_sent:
                    done.append(lid)
            for lid in done:
                st.unsent.discard(lid)
            if items or st.unsent:
                any_work = True
        return any_work

    def _stage_eager(self, pending_reduce: list[list[tuple]]) -> bool:
        """Ablation path: reduce every updated candidate every round."""
        any_dirty = False
        for h, st in enumerate(self.hosts):
            part = self.pg.parts[h]
            rows, cols = np.nonzero(st.dirty)
            if rows.size:
                any_dirty = True
                gids = part.gids[rows]
                items = pending_reduce[h]
                cd = st.cand_dist[rows, cols]
                cs = st.cand_sigma[rows, cols]
                for g, si, d, sg in zip(
                    gids.tolist(), cols.tolist(), cd.tolist(), cs.tolist()
                ):
                    items.append((g, si, d, sg))
                st.dirty[:] = False
        return any_dirty

    def run_forward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        rledger = obs.current().rounds
        pending_reduce: list[list[tuple]] = [[] for _ in range(self.H)]

        def step(rnd: int, rs: RoundStats) -> bool:
            nonlocal pending_reduce

            # -- sync: reduce candidates, then evaluate fires at masters.
            inbox = gluon.reduce_to_masters(
                pending_reduce, FWD_PAYLOAD_BYTES, self.k, rs
            )
            pending_reduce = [[] for _ in range(self.H)]
            for h, items in enumerate(inbox):
                oc = rs.compute[h]
                for gid, sender, si, d, sigma in items:
                    self._master(gid).apply_contribution(si, sender, d, sigma)
                    oc.struct_ops += 2  # flat-map lookup + update

            fires: list[list[tuple]] = [[] for _ in range(self.H)]
            any_pending = False
            for gid, ms in self.masters.items():
                h = int(pg.master_of[gid])
                due = ms.next_fire(rnd)
                if due is not None:
                    d, si, sigma = due
                    fires[h].append((gid, si, d, sigma))
                    rs.compute[h].struct_ops += 1
                if not ms.all_fired():
                    any_pending = True

            if self.checker is not None:
                self.checker.check_master_round(rnd, self.masters)

            if rledger is not None:
                # Round-complexity state: a forward fire settles one
                # (v, s) pair; unfired schedule entries are the stage
                # occupancy behind Alg. 3's stable-prefix argument, and
                # ``unsent`` is the delayed-sync staging depth (§4.3).
                fired = sum(len(f) for f in fires)
                entries = 0
                sent = 0
                active_si: set[int] = set()
                for ms in self.masters.values():
                    entries += len(ms.entries)
                    sent += ms.sent_prefix
                    for _d, si in ms.entries[ms.sent_prefix:]:
                        active_si.add(si)
                rledger.note(
                    frontier=fired,
                    settled=fired,
                    active_sources=len(active_si),
                    stage_entries=entries,
                    stage_fired=sent,
                    stage_depth=sum(len(st.unsent) for st in self.hosts),
                )

            # Finalized labels broadcast to every proxy, as Gluon does —
            # out-edge hosts relax, candidate-holding hosts learn the
            # final value (suppressing stale longer-path reductions).
            deliveries = gluon.broadcast_from_masters(
                fires, TARGET_ALL_PROXIES, FWD_PAYLOAD_BYTES, self.k, rs
            )

            # -- compute: relax local out-edges of fired vertices.
            for h, items in enumerate(deliveries):
                part = pg.parts[h]
                st = self.hosts[h]
                oc = rs.compute[h]
                for gid, si, d, sigma in items:
                    lid = int(np.searchsorted(part.gids, gid))
                    st.fin_dist[lid, si] = d
                    st.fin_sigma[lid, si] = sigma
                    if self.delayed_sync:
                        # The broadcast value supersedes this host's own
                        # candidate: record it as already synchronized.  A
                        # worse local candidate can never become a valid
                        # min-distance contribution (every predecessor at
                        # d-1 fired before v), so its σ is dropped.
                        old = int(st.cand_dist[lid, si])
                        if old != INF:
                            self._update_local_list(st, lid, si, old, d)
                            if old > d:
                                st.cand_dist[lid, si] = d
                                st.cand_sigma[lid, si] = 0.0
                        st.sent_d[lid, si] = d
                        oc.struct_ops += 1  # local-list reconciliation
                    nbrs = part.out_neighbors_local(lid)
                    oc.vertex_ops += 1
                    oc.edge_ops += nbrs.size
                    if nbrs.size == 0:
                        continue
                    nd = d + 1
                    cd = st.cand_dist[nbrs, si]
                    # Suppress relaxations the finalized value already beats.
                    open_mask = st.fin_dist[nbrs, si] >= nd
                    better = (nd < cd) & open_mask
                    equal = (nd == cd) & open_mask
                    if np.any(better):
                        tgt = nbrs[better]
                        old_ds = st.cand_dist[tgt, si].tolist()
                        st.cand_dist[tgt, si] = nd
                        st.cand_sigma[tgt, si] = sigma
                        st.dirty[tgt, si] = True
                        oc.struct_ops += int(better.sum())
                        if self.delayed_sync:
                            oc.struct_ops += int(better.sum())  # list upkeep
                            for w, od in zip(tgt.tolist(), old_ds):
                                self._update_local_list(st, w, si, od, nd)
                    if np.any(equal):
                        tgt = nbrs[equal]
                        st.cand_sigma[tgt, si] += sigma
                        st.dirty[tgt, si] = True
                        oc.struct_ops += int(equal.sum())
                        if self.delayed_sync:
                            for w in tgt.tolist():
                                # σ grew at the same distance: if the label
                                # was already reduced, it must be re-sent
                                # (rare; see module docstring).
                                if st.sent_d[w, si] == nd:
                                    st.sent_d[w, si] = -1
                                st.unsent.add(w)

            # -- stage reductions for the next round's sync.
            if self.delayed_sync:
                for st in self.hosts:
                    st.dirty[:] = False
                any_work = self._stage_delayed(rnd, pending_reduce, rs)
            else:
                any_work = self._stage_eager(pending_reduce)

            return any_work or any_pending

        return runtime.run_loop("forward", step)

    # -- backward phase ----------------------------------------------------------

    def run_backward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        R = max((max(ms.tau.values()) for ms in self.masters.values() if ms.tau), default=1)
        # Fire schedule per master: round -> list of source idx.
        schedule: dict[int, dict[int, int]] = {}
        for gid, ms in self.masters.items():
            for si, tau in ms.tau.items():
                if int(self.batch[si]) == gid:
                    continue  # the source itself has no predecessors
                schedule.setdefault(gid, {})[R - tau + 1] = si
            self.delta[gid] = np.zeros(self.k, dtype=np.float64)
        # Sources with no schedule entry still need delta rows for output.
        for gid in self.masters:
            self.delta.setdefault(gid, np.zeros(self.k, dtype=np.float64))

        pending_reduce: list[list[tuple]] = [[] for _ in range(self.H)]
        rledger = obs.current().rounds

        def step(rnd: int, rs: RoundStats) -> bool:
            nonlocal pending_reduce

            # -- sync: reduce partial dependencies, then fire broadcasts.
            inbox = gluon.reduce_to_masters(
                pending_reduce, BWD_PAYLOAD_BYTES, self.k, rs
            )
            pending_reduce = [[] for _ in range(self.H)]
            for h, items in enumerate(inbox):
                oc = rs.compute[h]
                for gid, _sender, si, pd in items:
                    self.delta[gid][si] += pd
                    oc.struct_ops += 1

            fires: list[list[tuple]] = [[] for _ in range(self.H)]
            for gid, by_round in schedule.items():
                si = by_round.get(rnd)
                if si is None:
                    continue
                ms = self.masters[gid]
                d, sigma = ms.best[si]
                m = (1.0 + self.delta[gid][si]) / sigma
                h = int(pg.master_of[gid])
                fires[h].append((gid, si, m, d))
                rs.compute[h].struct_ops += 1

            if rledger is not None:
                # A backward fire finalizes one (v, s) dependency; the
                # reverse schedule A_sv = R - tau_sv + 1 fires each
                # exactly once, so the settled series sums to the
                # schedule size.
                fired = sum(len(f) for f in fires)
                rledger.note(frontier=fired, settled=fired)

            deliveries = gluon.broadcast_from_masters(
                fires, TARGET_IN_EDGES, BWD_PAYLOAD_BYTES, self.k, rs
            )

            # -- compute: credit local predecessors.
            for h, items in enumerate(deliveries):
                part = pg.parts[h]
                st = self.hosts[h]
                oc = rs.compute[h]
                for gid, si, m, d in items:
                    lid = int(np.searchsorted(part.gids, gid))
                    preds = part.in_neighbors_local(lid)
                    oc.vertex_ops += 1
                    oc.edge_ops += preds.size
                    if preds.size == 0:
                        continue
                    is_pred = st.fin_dist[preds, si] == d - 1
                    if np.any(is_pred):
                        tgt = preds[is_pred]
                        st.partial_delta[tgt, si] += st.fin_sigma[tgt, si] * m
                        st.delta_dirty[tgt, si] = True
                        oc.struct_ops += int(is_pred.sum())

            # -- stage dirty partials (flushed, delta-style).
            any_dirty = False
            for h, st in enumerate(self.hosts):
                part = pg.parts[h]
                rows, cols = np.nonzero(st.delta_dirty)
                if rows.size:
                    any_dirty = True
                    gids = part.gids[rows]
                    pd = st.partial_delta[rows, cols]
                    items = pending_reduce[h]
                    for g, si, v in zip(gids.tolist(), cols.tolist(), pd.tolist()):
                        items.append((g, si, v))
                    st.partial_delta[rows, cols] = 0.0
                    st.delta_dirty[:] = False

            return any_dirty

        return runtime.run_loop("backward", step, min_rounds=R)

    # -- uniform executor interface (shared with the array twin) -----------

    def flatmap_entry_counts(self) -> list[int]:
        """Per master, |L_v| — the flat-map occupancy histogram input."""
        return [len(ms.entries) for ms in self.masters.values()]


class _ArrayBatchExecutor:
    """Columnar twin of :class:`_BatchExecutor` (``plane="array"``).

    Replaces the per-vertex dicts with the dense state in
    :mod:`repro.runtime.arrays` and each per-item Python loop with a
    whole-column sweep, while producing *byte-identical* engine counts,
    ledger entries and floating-point results.  The contract rests on
    three structural facts about the dict plane:

    - **Derived local lists** — a proxy's sorted ``(d, si)`` list always
      equals the sorted view of its candidate-distance row (a candidate
      is never displaced to a worse distance), so delayed-sync staging
      recomputes the due prefix from ``cand_dist`` each round instead of
      maintaining lists incrementally.
    - **Per-cell sequencing** — within one relax sweep, items interact
      only through per-``(vertex, source)`` cells.  Cells touched by a
      single event this round (the vast majority) are handled with array
      ops; multi-event cells replay the dict plane's exact per-item
      order via an event sort (``lexsort`` on (cell, item, kind)).
    - **Order-pinned masters** — everywhere the dict plane depends on
      dict insertion order (fire emission, backward schedule, banking),
      ``MasterColumns.master_seq`` reproduces it explicitly.

    σ path counts are integers in float64, so reassociated sums are
    exact; δ accumulations use ``np.add.at`` with events in the dict
    plane's order, making them bit-identical too.
    """

    def __init__(
        self,
        pg: PartitionedGraph,
        gluon: GluonArrayPlane,
        run: EngineRun,
        batch: np.ndarray,
        delayed_sync: bool,
        resilience: "ResilienceContext | None" = None,
    ) -> None:
        self.pg = pg
        self.gluon = gluon
        self.run = run
        self.batch = batch
        self.k = batch.size
        self.delayed_sync = delayed_sync
        self.H = pg.num_hosts
        self.n = int(pg.master_of.size)
        self.checker = (
            resilience.new_invariant_checker() if resilience is not None else None
        )
        self.arena = HostArena(pg.parts, self.k, self.n)
        #: The empty forward exchange (staged and fired rows are (si, d, σ)).
        self._no_fwd = ExchangeBatch.empty(
            self.H, (np.int64, np.int64, np.float64)
        )
        self.masters = MasterColumns(self.k, self.n, self.H)
        for si, s in enumerate(batch):
            self.masters.initialize_source(si, int(s))
        self.delta: np.ndarray | None = None

    # -- forward phase -----------------------------------------------------

    def _apply_contribution_scalar(
        self, host: int, si: int, gid: int, d: int, sigma: float
    ) -> None:
        """Sequential merge for duplicate-keyed inbox items (fault plans)."""
        M = self.masters
        if int(M.contrib_d[host, si, gid]) < d:
            return  # stale (the host already reported something better)
        M.contrib_d[host, si, gid] = d
        M.contrib_sigma[host, si, gid] = sigma

    def _apply_forward_inbox(self, inbox, rs: RoundStats) -> None:
        """Merge reduced candidates into the master columns.

        Vectorized form of ``apply_contribution`` over all inbox items:
        the per-host stale filter touches only each sender's own past
        contribution, and (sender, si, gid) keys are unique within a
        fault-free round, so a scatter write is exact; the authoritative
        ``(d*, σ*)`` is then recomputed once per touched cell (the dict
        plane recomputes per item, but the final state is a pure
        function of the contribution table).
        """
        M = self.masters
        if not len(inbox):
            return
        rs.charge("struct_ops", 2 * inbox.counts())  # flat-map lookup + update
        gids = inbox.gids
        snd, si, d, sg = inbox.cols
        M.register_new(gids)
        key = np.sort((snd * self.k + si) * self.n + gids)
        if key.size > 1 and (key[1:] == key[:-1]).any():
            for j in range(gids.size):
                self._apply_contribution_scalar(
                    int(snd[j]), int(si[j]), int(gids[j]), int(d[j]), float(sg[j])
                )
        else:
            old = M.contrib_d[snd, si, gids]
            keep = old >= d
            sw, iw, gw, dw, gg = snd[keep], si[keep], gids[keep], d[keep], sg[keep]
            M.contrib_d[sw, iw, gw] = dw
            M.contrib_sigma[sw, iw, gw] = gg
        # Recompute (d*, σ*) for every delivered cell — idempotent for
        # the stale-filtered ones, so the full set is safe.
        cells = np.unique(si * self.n + gids)
        si_u = cells // self.n
        g_u = cells % self.n
        sub_d = M.contrib_d[:, si_u, g_u]
        d_star = sub_d.min(axis=0)
        sig_star = np.where(
            sub_d == d_star, M.contrib_sigma[:, si_u, g_u], 0.0
        ).sum(axis=0)
        fired_worse = M.fired[si_u, g_u] & (d_star < M.ent_d[si_u, g_u])
        assert not fired_worse.any(), "replacing a fired entry"
        M.ent_d[si_u, g_u] = d_star
        M.best_sigma[si_u, g_u] = sig_star

    def _emit_fires(self, rnd: int, rs: RoundStats):
        """Evaluate the CONGEST send rule over all masters at once.

        The head of each master's unfired schedule is the min of
        ``d*(k+1)+si`` over unfired present cells; it fires when
        ``d + sent_prefix + 1 == rnd``, exactly ``next_fire``.
        Returns (fire batch, fired count, any_pending).
        """
        M = self.masters
        kmin = M.schedule_key().min(axis=0)
        has = kmin < BIG
        due = np.where(has, kmin // (self.k + 1), 0) + M.sent_prefix + 1
        fire = has & (due == rnd)
        missed = has & (due < rnd)
        assert not missed.any(), "missed fire: an entry was due earlier"
        g = np.nonzero(fire)[0]
        fires = self._no_fwd
        if g.size:
            g = g[M.order_by_seq(g)]
            si_f = (kmin[g] % (self.k + 1)).astype(np.int64, copy=False)
            d_f = (kmin[g] // (self.k + 1)).astype(np.int64, copy=False)
            M.fired[si_f, g] = True
            M.tau[si_f, g] = rnd
            M.sent_prefix[g] += 1
            fires = ExchangeBatch.grouped(
                self.pg.master_of[g], g, (si_f, d_f, M.best_sigma[si_f, g]), self.H
            )
            rs.charge("struct_ops", fires.counts())
        any_pending = bool(((M.ent_d != INF) & ~M.fired).any())
        return fires, int(g.size), any_pending

    def _relax_forward(self, deliveries, rs: RoundStats) -> None:
        """Relax local out-edges of this round's fired vertices — one
        arena-wide sweep over every host's deliveries.

        The dict plane processes delivery items one by one per host;
        every intra-round read-after-write runs through either the
        finalized row (unique writes — reconstructed exactly from the
        post-state plus the per-cell fire position ``fpos``) or a
        candidate cell.  Hosts never share cells (arena rows are
        per-host), so sweeping the host-sorted batch preserves each
        host's item order and changes nothing else.  Cells with one
        event this round take the vectorized path; multi-event cells
        replay events in item order.
        """
        m = len(deliveries)
        if not m:
            return
        A = self.arena
        delayed = self.delayed_sync
        k = self.k
        hs = deliveries.host
        si, d, sg = deliveries.cols
        lid = A.lut[hs, deliveries.gids]
        A.fin_dist[lid, si] = d
        A.fin_sigma[lid, si] = sg
        A.fpos[lid, si] = np.arange(m, dtype=np.int64)
        per_host = deliveries.counts()
        rs.charge("vertex_ops", per_host)
        if delayed:
            rs.charge("struct_ops", per_host)  # local-list reconciliation probes
        deg = A.out_offsets[lid + 1] - A.out_offsets[lid]
        rs.charge("edge_ops", np.bincount(hs, deg, self.H))
        item_of, w = expand_csr(A.out_offsets, A.out_targets, lid)
        if w.size:
            sie = si[item_of]
            nd = d[item_of] + 1
            # Open ⟺ the finalized value does not already beat the
            # relaxation *at the time the item runs*: final after this
            # round, or finalized by a later item than this one.
            # Called from the step loop right after broadcast delivery,
            # so the finalized columns are post-synchronization here.
            open_ = (A.fin_dist[w, sie] >= nd) | (A.fpos[w, sie] > item_of)  # repro-lint: disable=RL301
            r_sel = np.nonzero(open_)[0]
        else:
            sie = nd = np.empty(0, dtype=np.int64)
            r_sel = np.empty(0, dtype=np.int64)
        if delayed:
            cells = np.concatenate([lid * k + si, w[r_sel] * k + sie[r_sel]])
            js = np.concatenate([np.arange(m, dtype=np.int64), item_of[r_sel]])
            kinds = np.concatenate(
                [np.zeros(m, dtype=np.int8), np.ones(r_sel.size, dtype=np.int8)]
            )
        else:
            cells = w[r_sel] * k + sie[r_sel] if r_sel.size else r_sel
            js = item_of[r_sel] if r_sel.size else r_sel
            kinds = np.ones(r_sel.size, dtype=np.int8)
        n_better = np.zeros(self.H, dtype=np.int64)
        n_equal = np.zeros(self.H, dtype=np.int64)
        if cells.size:
            # Stable sort on one composite key ≡ lexsort((kinds, js,
            # cells)): js < m and kinds < 2, so the packing is injective.
            order = np.argsort(
                (cells * m + js) * 2 + kinds, kind="stable"
            )
            cs = cells[order]
            first = np.ones(cs.size, dtype=bool)
            first[1:] = cs[1:] != cs[:-1]
            run_len = np.bincount(np.cumsum(first) - 1)
            single = np.repeat(run_len == 1, run_len)
            ev = order[single]
            if delayed:
                fe = ev[ev < m]
                re_ = ev[ev >= m] - m
            else:
                fe = np.empty(0, dtype=np.int64)
                re_ = ev
            if fe.size:
                # F events: the broadcast value supersedes this host's
                # own candidate (see the dict plane for the rationale).
                fl, fs, fd = lid[fe], si[fe], d[fe]
                old = A.cand_dist[fl, fs]
                has_old = old != INF
                upd = has_old & (old > fd)
                A.cand_dist[fl[upd], fs[upd]] = fd[upd]
                A.cand_sigma[fl[upd], fs[upd]] = 0.0
                A.unsent.set_many(fl[has_old])
                A.sent_d[fl, fs] = fd
            if re_.size:
                idx = r_sel[re_]
                wt, ws, wnd = w[idx], sie[idx], nd[idx]
                wsg = sg[item_of[idx]]
                ev_h = hs[item_of[idx]]
                cd = A.cand_dist[wt, ws]
                bet = wnd < cd
                eq = wnd == cd
                if bet.any():
                    bw, bs = wt[bet], ws[bet]
                    A.cand_dist[bw, bs] = wnd[bet]
                    A.cand_sigma[bw, bs] = wsg[bet]
                    if delayed:
                        A.unsent.set_many(bw)
                    else:
                        A.dirty[bw, bs] = True
                    n_better += np.bincount(ev_h[bet], minlength=self.H)
                if eq.any():
                    ew, es = wt[eq], ws[eq]
                    A.cand_sigma[ew, es] += wsg[eq]
                    if delayed:
                        reset = A.sent_d[ew, es] == wnd[eq]
                        A.sent_d[ew[reset], es[reset]] = -1
                        A.unsent.set_many(ew)
                    else:
                        A.dirty[ew, es] = True
                    n_equal += np.bincount(ev_h[eq], minlength=self.H)
            multi = order[~single]
            if multi.size:
                self._replay_multi(
                    multi, m, lid, si, d, r_sel, w, sie, nd, sg, item_of,
                    hs, n_better, n_equal,
                )
        sfac = 2 if delayed else 1
        rs.charge("struct_ops", sfac * n_better + n_equal)
        A.fpos[lid, si] = -1

    def _replay_multi(
        self, multi, m, lid, si, d, r_sel, w, sie, nd, sg, item_of,
        hs, n_better, n_equal,
    ) -> None:
        """Replay multi-event cells in the dict plane's per-item order.

        Cell state is gathered into Python dicts once, replayed with
        pure-Python arithmetic (float64 in, float64 out — bit-identical
        to the in-array sequence), and scattered back; per-event NumPy
        scalar indexing is the thing this avoids.
        """
        A = self.arena
        delayed = self.delayed_sync
        k = self.k
        if delayed:
            isf = multi < m
            idx_f = np.where(isf, multi, 0)
            idx_r = r_sel[np.where(isf, 0, multi - m)]
            rows = np.where(isf, lid[idx_f], w[idx_r])
            srcs = np.where(isf, si[idx_f], sie[idx_r])
            vals = np.where(isf, d[idx_f], nd[idx_r])
            sgv = np.where(isf, 0.0, sg[item_of[idx_r]])
            hostv = hs[np.where(isf, idx_f, item_of[idx_r])]
            kinds_l = isf.tolist()
        else:
            idx_r = r_sel[multi]
            rows = w[idx_r]
            srcs = sie[idx_r]
            vals = nd[idx_r]
            sgv = sg[item_of[idx_r]]
            hostv = hs[item_of[idx_r]]
            kinds_l = [False] * int(multi.size)
        cells = rows * k + srcs
        ucells, pos = np.unique(cells, return_inverse=True)
        ua, us = ucells // k, ucells % k
        cd_l = A.cand_dist[ua, us].tolist()
        sg_l = A.cand_sigma[ua, us].tolist()
        sd_l = A.sent_d[ua, us].tolist()
        nb = [0] * self.H
        ne = [0] * self.H
        unsent_rows: list[int] = []
        dirty_pos: list[int] = []
        for isf_, p, a_, v_, s_, h_ in zip(
            kinds_l, pos.tolist(), rows.tolist(), vals.tolist(),
            sgv.tolist(), hostv.tolist(),
        ):
            cd_ = cd_l[p]
            if isf_:
                if cd_ != INF:
                    if cd_ > v_:
                        cd_l[p] = v_
                        sg_l[p] = 0.0
                    unsent_rows.append(a_)
                sd_l[p] = v_
            elif v_ < cd_:
                cd_l[p] = v_
                sg_l[p] = s_
                if delayed:
                    unsent_rows.append(a_)
                else:
                    dirty_pos.append(p)
                nb[h_] += 1
            elif v_ == cd_:
                sg_l[p] = sg_l[p] + s_
                if delayed:
                    if sd_l[p] == v_:
                        sd_l[p] = -1
                    unsent_rows.append(a_)
                else:
                    dirty_pos.append(p)
                ne[h_] += 1
        A.cand_dist[ua, us] = cd_l
        A.cand_sigma[ua, us] = sg_l
        n_better += np.array(nb, dtype=np.int64)
        n_equal += np.array(ne, dtype=np.int64)
        if delayed:
            A.sent_d[ua, us] = sd_l
            if unsent_rows:
                A.unsent.set_many(np.array(unsent_rows, dtype=np.int64))
        elif dirty_pos:
            dp = np.array(dirty_pos, dtype=np.int64)
            A.dirty[ua[dp], us[dp]] = True

    def _stage_delayed(self, rnd: int, rs: RoundStats):
        """Vectorized §4.3 staging: derive each pending vertex's sorted
        pair list from its candidate row, send the due prefix.

        One arena-wide sweep: the unsent bitset's sorted index vector is
        exactly the dict plane's (host asc, lid asc) iteration order, so
        the row-major result is a host-sorted batch in the dict plane's
        staging order.
        """
        A = self.arena
        lids = A.unsent.indices()
        if lids.size == 0:
            return self._no_fwd, False
        rs.charge(
            "struct_ops", np.bincount(A.host_of[lids], minlength=self.H)
        )  # flat-map probes
        pos = np.arange(self.k, dtype=np.int64)[None, :]
        sub_d = A.cand_dist[lids]
        present = sub_d != INF
        key = np.where(present, sub_d * (self.k + 1) + pos, BIG)
        order = np.argsort(key, axis=1)
        rix = np.arange(lids.size, dtype=np.int64)[:, None]
        d_sorted = sub_d[rix, order]
        p_sorted = present[rix, order]
        sent_sorted = A.sent_d[lids][rix, order]
        # Due rounds are strictly increasing along each sorted list,
        # so the due test per position yields the dict plane's
        # break-at-first-not-due prefix automatically.
        due = p_sorted & (d_sorted + pos <= rnd)
        need = due & (sent_sorted != d_sorted)
        rows, cols = np.nonzero(need)
        batch = self._no_fwd
        if rows.size:
            l_sel = lids[rows]  # non-decreasing: row-major over sorted lids
            si_sel = order[rows, cols]
            d_sel = d_sorted[rows, cols]
            A.sent_d[l_sel, si_sel] = d_sel
            batch = ExchangeBatch(
                A.host_of[l_sel],
                A.gids[l_sel],
                (si_sel, d_sel, A.cand_sigma[l_sel, si_sel]),
                self.H,
            )
        remain = p_sorted & ~due & (sent_sorted != d_sorted)
        A.unsent.clear_many(lids[~remain.any(axis=1)])
        any_work = rows.size > 0 or A.unsent.any()
        return batch, any_work

    def _stage_eager(self):
        """Ablation path: reduce every updated candidate every round."""
        A = self.arena
        rows, cols = np.nonzero(A.dirty)
        if rows.size == 0:
            return self._no_fwd, False
        cols = cols.astype(np.int64, copy=False)
        batch = ExchangeBatch(
            A.host_of[rows],
            A.gids[rows],
            (cols, A.cand_dist[rows, cols], A.cand_sigma[rows, cols]),
            self.H,
        )
        A.dirty[:] = False
        return batch, True

    def run_forward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        gluon = self.gluon
        rledger = obs.current().rounds
        pending = self._no_fwd

        def step(rnd: int, rs: RoundStats) -> bool:
            nonlocal pending

            inbox = gluon.reduce_to_masters(pending, FWD_PAYLOAD_BYTES, self.k, rs)
            self._apply_forward_inbox(inbox, rs)
            fires, fired_total, any_pending = self._emit_fires(rnd, rs)

            if self.checker is not None:
                self.checker.check_master_round(rnd, self.masters.to_rows())

            if rledger is not None:
                M = self.masters
                present = M.ent_d != INF
                rledger.note(
                    frontier=fired_total,
                    settled=fired_total,
                    active_sources=int(
                        np.count_nonzero((present & ~M.fired).any(axis=1))
                    ),
                    stage_entries=int(present.sum()),
                    stage_fired=int(M.sent_prefix.sum()),
                    stage_depth=self.arena.unsent.count(),
                )

            deliveries = gluon.broadcast_from_masters(
                fires, TARGET_ALL_PROXIES, FWD_PAYLOAD_BYTES, self.k, rs
            )
            self._relax_forward(deliveries, rs)

            if self.delayed_sync:
                pending, any_work = self._stage_delayed(rnd, rs)
            else:
                pending, any_work = self._stage_eager()
            return any_work or any_pending

        return runtime.run_loop("forward", step)

    # -- backward phase ----------------------------------------------------

    def run_backward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        gluon = self.gluon
        M = self.masters
        R = int(M.tau[M.fired].max()) if M.fired.any() else 1
        src_self = np.zeros((self.k, self.n), dtype=bool)
        src_self[np.arange(self.k), self.batch] = True
        sched = M.fired & ~src_self
        self.delta = np.zeros((self.k, self.n), dtype=np.float64)
        no_pending = ExchangeBatch.empty(self.H, (np.int64, np.float64))
        no_fires = ExchangeBatch.empty(self.H, (np.int64, np.float64, np.int64))
        pending = no_pending
        rledger = obs.current().rounds

        def step(rnd: int, rs: RoundStats) -> bool:
            nonlocal pending

            inbox = gluon.reduce_to_masters(pending, BWD_PAYLOAD_BYTES, self.k, rs)
            if len(inbox):
                rs.charge("struct_ops", inbox.counts())
                _snd, si, pd = inbox.cols
                # Sequential accumulation in inbox order (host asc, item
                # order within) — bit-identical to the dict plane's
                # per-item `+=`.
                np.add.at(self.delta, (si, inbox.gids), pd)

            fr = sched & (M.tau == R - rnd + 1)
            si_f, g_f = np.nonzero(fr)
            fires = no_fires
            if g_f.size:
                ordp = M.order_by_seq(g_f)
                g_f, si_f = g_f[ordp], si_f[ordp]
                sg = M.best_sigma[si_f, g_f]
                coeff = (1.0 + self.delta[si_f, g_f]) / sg
                fires = ExchangeBatch.grouped(
                    self.pg.master_of[g_f],
                    g_f,
                    (si_f, coeff, M.ent_d[si_f, g_f]),
                    self.H,
                )
                rs.charge("struct_ops", fires.counts())

            if rledger is not None:
                rledger.note(frontier=int(g_f.size), settled=int(g_f.size))

            deliveries = gluon.broadcast_from_masters(
                fires, TARGET_IN_EDGES, BWD_PAYLOAD_BYTES, self.k, rs
            )
            self._credit_backward(deliveries, rs)

            A = self.arena
            rows, cols = np.nonzero(A.delta_dirty)
            if rows.size == 0:
                pending = no_pending
                return False
            cols = cols.astype(np.int64, copy=False)
            pending = ExchangeBatch(
                A.host_of[rows], A.gids[rows], (cols, A.partial_delta[rows, cols]), self.H
            )
            A.partial_delta[rows, cols] = 0.0
            A.delta_dirty[:] = False
            return True

        return runtime.run_loop("backward", step, min_rounds=R)

    def _credit_backward(self, deliveries, rs: RoundStats) -> None:
        if not len(deliveries):
            return
        A = self.arena
        hs = deliveries.host
        si, coeff, d = deliveries.cols
        lid = A.lut[hs, deliveries.gids]
        rs.charge("vertex_ops", deliveries.counts())
        deg = A.in_offsets[lid + 1] - A.in_offsets[lid]
        rs.charge("edge_ops", np.bincount(hs, deg, self.H))
        item_of, wp = expand_csr(A.in_offsets, A.in_sources, lid)
        if wp.size == 0:
            return
        sie = si[item_of]
        # Called from the step loop right after broadcast delivery, so
        # the finalized columns are post-synchronization here.
        is_pred = A.fin_dist[wp, sie] == d[item_of] - 1  # repro-lint: disable=RL301
        sel = np.nonzero(is_pred)[0]
        if sel.size == 0:
            return
        wt, ws = wp[sel], sie[sel]
        vals = A.fin_sigma[wt, ws] * coeff[item_of[sel]]  # repro-lint: disable=RL301
        # np.add.at accumulates in event order = (host, item,
        # predecessor) order — the dict plane's exact float sequence
        # per cell (cells never span hosts).
        np.add.at(A.partial_delta, (wt, ws), vals)
        A.delta_dirty[wt, ws] = True
        rs.charge("struct_ops", np.bincount(hs[item_of[sel]], minlength=self.H))

    # -- uniform executor interface ----------------------------------------

    def flatmap_entry_counts(self) -> list[int]:
        """Per master, |L_v| — the flat-map occupancy histogram input."""
        counts = (self.masters.ent_d != INF).sum(axis=0)
        return [int(counts[g]) for g in self.masters.master_order]

    def to_rows(self) -> RowStateView:
        """Dict-plane-shaped view for checkpoints/invariant checks."""
        return RowStateView(
            masters=self.masters.to_rows(),
            hosts=[self.arena.host_view(h) for h in range(self.H)],
            batch=self.batch,
        )

    def from_rows(self, masters, arrays) -> None:
        """Load a dict-plane forward snapshot (checkpoint restore)."""
        self.masters = MasterColumns(self.k, self.n, self.H)
        self.masters.from_rows(masters)
        self.delta = None
        for h in range(self.H):
            view = self.arena.host_view(h)
            view.fin_dist[:] = arrays[f"fin_dist_{h}"]
            view.fin_sigma[:] = arrays[f"fin_sigma_{h}"]


def mrbc_engine(
    g: DiGraph,
    sources: np.ndarray | list[int] | None = None,
    num_sources: int | None = None,
    batch_size: int = 32,
    num_hosts: int = 8,
    policy: str = "cvc",
    partition: PartitionedGraph | None = None,
    delayed_sync: bool = True,
    forward_only: bool = False,
    seed: int | None = None,
    resilience: "ResilienceContext | None" = None,
    recovery_policy: "RecoveryPolicy | str | None" = None,
    plane: str = "dict",
) -> MRBCEngineResult:
    """Run Min-Rounds BC on the simulated D-Galois engine.

    Parameters
    ----------
    sources:
        Explicit source vertices; if ``None``, ``num_sources`` are sampled
        (contiguous chunk, the paper's §5.1 protocol; default: all
        vertices).
    batch_size:
        Sources per simultaneous batch (the paper's ``k``; Figure 1).
    num_hosts, policy, partition:
        Partitioning configuration; pass a prebuilt ``partition`` to share
        it across algorithms (as the benchmarks do).
    forward_only:
        Run only the k-SSP forward phase (distances and σ; BC stays zero)
        — used by :func:`repro.core.kssp.kssp`.
    delayed_sync:
        Disable only for the ablation benchmark — eagerly broadcasts
        provisional values, inflating communication exactly as §4.3 says
        the optimization avoids.
    resilience:
        Optional :class:`~repro.resilience.context.ResilienceContext`.
        Attaches the fault-plan channel guard to the Gluon substrate,
        enables per-round master-state invariant checks, snapshots each
        batch's post-forward state, and (in ``repair`` mode) recovers
        from injected host crashes: a forward-phase crash restarts the
        batch's forward pass, a backward-phase crash restores the
        forward checkpoint and replays only the backward rounds.
        Replayed rounds are marked as recovery overhead.
    recovery_policy:
        A :class:`~repro.resilience.supervisor.RecoveryPolicy` (or preset
        name) governing retry/backoff/deadline/restart budgets and
        checkpoint retention.  (Named ``recovery_policy`` because
        ``policy`` is this driver's partition policy.)  A degrading
        policy makes each source batch a failure domain: an
        unrecoverable batch is dropped and the result carries a
        :class:`~repro.resilience.supervisor.PartialResult` salvaging
        the completed batches.  With no faults, attaching a policy is
        neutral — the deterministic signature is byte-identical.
    plane:
        ``"dict"`` (default) runs the per-vertex reference executor on
        the tuple-exchanging :class:`~repro.runtime.plane.GluonPlane`;
        ``"array"`` runs the columnar executor on the
        :class:`~repro.runtime.plane.GluonArrayPlane`.  Both produce
        byte-identical results, engine counts and ledger entries; the
        array plane is the fast path (see docs/PERFORMANCE.md).

    Returns per-vertex BC (summed over the sampled sources), per-source
    distances and path counts, and the full engine statistics.
    """
    from repro.resilience.supervisor import attach_policy

    pg = resolve_partition(g, partition, num_hosts, policy)
    if sources is None:
        if num_sources is None:
            src = np.arange(g.num_vertices, dtype=np.int64)
        else:
            src = sample_sources(g, num_sources, seed=seed)
    else:
        src = np.asarray(sources, dtype=np.int64).ravel()
    if src.size == 0:
        raise ValueError("need at least one source")

    resilience, supervisor = attach_policy(resilience, recovery_policy)
    if plane == "dict":
        exec_cls = _BatchExecutor
        plane_obj = GluonPlane(pg, resilience=resilience)
    elif plane == "array":
        exec_cls = _ArrayBatchExecutor
        plane_obj = GluonArrayPlane(pg, resilience=resilience)
    else:
        raise ValueError(f"unknown plane {plane!r} (expected 'dict' or 'array')")
    runtime = SuperstepRuntime(plane=plane_obj, resilience=resilience)
    gluon = runtime.plane
    run = runtime.run
    n = g.num_vertices
    bc = np.zeros(n, dtype=np.float64)
    dist = np.full((src.size, n), -1, dtype=np.int64)
    sigma = np.zeros((src.size, n), dtype=np.float64)
    fwd_rounds = 0
    bwd_rounds = 0

    tele = obs.current()

    def execute_batch(b0: int, batch: np.ndarray) -> tuple[_BatchExecutor, int, int]:
        # -- forward, restarting the batch from scratch on a host crash
        # (redone rounds are charged to the recovery phase by the runtime).
        def fwd_prepare(attempt: int) -> _BatchExecutor:
            return exec_cls(pg, gluon, run, batch, delayed_sync, resilience)

        def fwd_body(ex: _BatchExecutor) -> int:
            with runtime.phase("forward", batch=b0, k=int(batch.size)):
                return ex.run_forward(runtime)

        ex, f = runtime.run_with_restart(fwd_prepare, fwd_body)
        if resilience is not None:
            meta, arrays = mrbc_forward_snapshot(ex)
            resilience.checkpoints.save(f"batch{b0:04d}-forward", meta, arrays)
        if tele.enabled:
            # Flat-map occupancy: |L_v| across this batch's masters (the
            # data structure whose maintenance cost Figure 2 charges to
            # MRBC's computation time).
            hist = tele.metrics.histogram("mrbc.flatmap_entries")
            for cnt in ex.flatmap_entry_counts():
                hist.observe(cnt)
        b = 0
        if not forward_only:
            # -- backward, resuming from the forward checkpoint on a crash.
            def bwd_prepare(attempt: int, first: _BatchExecutor = ex) -> _BatchExecutor:
                if attempt == 1:
                    return first
                fresh = exec_cls(
                    pg, gluon, run, batch, delayed_sync, resilience
                )
                meta, arrays = resilience.checkpoints.load(
                    f"batch{b0:04d}-forward"
                )
                restore_mrbc_forward(fresh, meta, arrays)
                return fresh

            def bwd_body(ex: _BatchExecutor) -> int:
                with runtime.phase("backward", batch=b0, k=int(batch.size)):
                    return ex.run_backward(runtime)

            ex, b = runtime.run_with_restart(bwd_prepare, bwd_body)
        return ex, f, b

    for b0, batch in enumerate(iter_batches(src, batch_size)):
        # Each batch is a failure domain: under a degrading policy an
        # unrecoverable batch is skipped (nothing banked) and the
        # remaining batches still contribute exact per-source results.
        if supervisor is not None:
            out, completed = supervisor.run_unit(
                b0, batch, lambda b0=b0, batch=batch: execute_batch(b0, batch)
            )
            if not completed:
                continue
        else:
            out = execute_batch(b0, batch)
        ex, f, b = out
        fwd_rounds += f
        bwd_rounds += b
        base = b0 * batch_size
        if plane == "array":
            # Same banking, columnar: (si, gid) cells are disjoint, and
            # the per-gid BC accumulation runs si-ascending with zero
            # contributions from non-masters (float identity), so the
            # result is bit-identical to the dict loop below.
            M = ex.masters
            si_p, g_p = np.nonzero(M.ent_d != INF)
            dist[base + si_p, g_p] = M.ent_d[si_p, g_p]
            sigma[base + si_p, g_p] = M.best_sigma[si_p, g_p]
            if not forward_only:
                registered = M.master_seq >= 0
                for si in range(batch.size):
                    row = np.where(registered, ex.delta[si], 0.0)
                    row[int(batch[si])] = 0.0
                    bc += row
        else:
            for gid, ms in ex.masters.items():
                for si, (d, sg) in ms.best.items():
                    dist[base + si, gid] = d
                    sigma[base + si, gid] = sg
            if not forward_only:
                for gid, dl in ex.delta.items():
                    for si in range(batch.size):
                        if int(batch[si]) != gid:
                            bc[gid] += dl[si]

    partial = (
        supervisor.partial_result(bc, requested_sources=int(src.size), num_vertices=n)
        if supervisor is not None
        else None
    )
    return MRBCEngineResult(
        bc=bc,
        dist=dist,
        sigma=sigma,
        sources=src,
        batch_size=batch_size,
        run=run,
        forward_rounds=fwd_rounds,
        backward_rounds=bwd_rounds,
        partition=pg,
        partial=partial,
    )
