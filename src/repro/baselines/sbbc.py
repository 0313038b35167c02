"""Synchronous-Brandes BC (SBBC) on the simulated D-Galois engine.

SBBC is the paper's main distributed comparison point (§5): the classic
Brandes algorithm executed one source at a time with level-by-level BFS —
in BSP round ``ℓ`` the vertices at distance ``ℓ`` settle, and the
accumulation phase walks the levels in reverse.  Per source it therefore
executes roughly ``2 · ecc(s)`` rounds, against MRBC's ``2(k + H)/k``
rounds amortized per source; the entire Table 1 "rounds" comparison falls
out of these two schedules.

Engine mapping (mirroring the MRBC implementation for a fair comparison):

- mirrors accumulate ``(dist, σ)`` candidates from host-local in-edges and
  reduce them to the master, which settles a vertex the first round any
  candidate arrives (level-synchrony makes that round its BFS level, with
  all same-level σ contributions present in the same reduce);
- settled values broadcast to *all* proxies — the standard Brandes-BFS
  sync; mirrors use them both to relax out-edges and to suppress redundant
  candidates;
- the backward phase fires each settled vertex at round
  ``(max level − its level + 1)``, broadcasting ``(1 + δ)/σ`` to in-edge
  hosts, which credit host-local predecessors and reduce partial δ sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.engine.gluon import TARGET_ALL_PROXIES, TARGET_IN_EDGES
from repro.engine.partition import PartitionedGraph
from repro.engine.stats import EngineRun
from repro.graph.digraph import DiGraph
from repro.runtime.arrays import ExchangeBatch, HostArena, expand_csr
from repro.runtime.plane import GluonArrayPlane, GluonPlane, resolve_partition
from repro.runtime.superstep import SuperstepRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext
    from repro.resilience.supervisor import PartialResult, RecoveryPolicy

INF = np.iinfo(np.int32).max

#: Forward payload: dist (4B) + sigma (8B); single source, no source slot.
FWD_PAYLOAD_BYTES = 12
#: Backward payload: dependency coefficient (8B).
BWD_PAYLOAD_BYTES = 8


@dataclass
class SBBCResult:
    """Output of :func:`sbbc_engine`."""

    bc: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    sources: np.ndarray
    run: EngineRun
    forward_rounds: int
    backward_rounds: int
    partition: PartitionedGraph
    #: Graceful-degradation record when a recovery policy dropped one or
    #: more sources (SBBC's failure domain is the single source); None on
    #: a fully completed run.
    partial: "PartialResult | None" = None

    @property
    def total_rounds(self) -> int:
        """All BSP rounds across sources and phases."""
        return self.forward_rounds + self.backward_rounds

    def rounds_per_source(self) -> float:
        """The paper's Table 1 metric."""
        return self.total_rounds / self.sources.size


class _SourceExecutor:
    """One Brandes source on the engine."""

    def __init__(
        self,
        pg: PartitionedGraph,
        gluon: GluonPlane,
        run: EngineRun,
        source: int,
    ) -> None:
        self.pg = pg
        self.gluon = gluon
        self.run = run
        self.source = source
        self.H = pg.num_hosts
        self.cand_dist = [
            np.full(p.num_local, INF, dtype=np.int64) for p in pg.parts
        ]
        self.cand_sigma = [np.zeros(p.num_local) for p in pg.parts]
        self.fin_dist = [np.full(p.num_local, INF, dtype=np.int64) for p in pg.parts]
        self.fin_sigma = [np.zeros(p.num_local) for p in pg.parts]
        self.dirty: list[np.ndarray] = [
            np.zeros(p.num_local, dtype=bool) for p in pg.parts
        ]
        self.partial_delta = [np.zeros(p.num_local) for p in pg.parts]
        self.delta_dirty = [np.zeros(p.num_local, dtype=bool) for p in pg.parts]
        # Master-side settled state and dependency accumulators.
        self.settled: dict[int, tuple[int, float]] = {}
        self.delta: dict[int, float] = {}

    def run_forward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        s = self.source
        rledger = obs.current().rounds
        pending: list[list[tuple]] = [[] for _ in range(self.H)]
        # Round 1 settles the source itself.
        newly_settled: dict[int, tuple[int, float]] = {s: (0, 1.0)}

        def step(rnd: int, rs) -> bool:
            nonlocal pending, newly_settled
            inbox = gluon.reduce_to_masters(pending, FWD_PAYLOAD_BYTES, 1, rs)
            pending = [[] for _ in range(self.H)]
            for h, items in enumerate(inbox):
                oc = rs.compute[h]
                for gid, _sender, d, sigma in items:
                    oc.struct_ops += 1
                    cur = self.settled.get(gid)
                    fresh = newly_settled.get(gid)
                    if cur is not None:
                        assert d > cur[0], "late same-level contribution"
                        continue  # redundant longer-path candidate
                    if fresh is None:
                        newly_settled[gid] = (d, sigma)
                    else:
                        assert fresh[0] == d, "level-synchrony violated"
                        newly_settled[gid] = (d, fresh[1] + sigma)

            fires: list[list[tuple]] = [[] for _ in range(self.H)]
            for gid, (d, sigma) in newly_settled.items():
                self.settled[gid] = (d, sigma)
                h = int(pg.master_of[gid])
                fires[h].append((gid, d, sigma))
                rs.compute[h].vertex_ops += 1
            if rledger is not None:
                # Level-synchronous settling: this round's frontier is
                # exactly the BFS level that settles in it.
                level = sum(len(f) for f in fires)
                rledger.note(
                    frontier=level, settled=level, active_sources=1
                )
            newly_settled = {}

            deliveries = gluon.broadcast_from_masters(
                fires, TARGET_ALL_PROXIES, FWD_PAYLOAD_BYTES, 1, rs
            )

            any_activity = False
            for h, items in enumerate(deliveries):
                part = pg.parts[h]
                oc = rs.compute[h]
                fd, fsg = self.fin_dist[h], self.fin_sigma[h]
                cd, csg = self.cand_dist[h], self.cand_sigma[h]
                dirty = self.dirty[h]
                for gid, d, sigma in items:
                    lid = int(np.searchsorted(part.gids, gid))
                    fd[lid] = d
                    fsg[lid] = sigma
                    nbrs = part.out_neighbors_local(lid)
                    oc.vertex_ops += 1
                    oc.edge_ops += nbrs.size
                    if nbrs.size == 0:
                        continue
                    nd = d + 1
                    # Suppress relaxations into already-settled proxies.
                    open_mask = fd[nbrs] == INF
                    tgt = nbrs[open_mask]
                    if tgt.size == 0:
                        continue
                    better = nd < cd[tgt]
                    equal = nd == cd[tgt]
                    if np.any(better):
                        t = tgt[better]
                        cd[t] = nd
                        csg[t] = sigma
                        dirty[t] = True
                        oc.struct_ops += int(better.sum())
                    if np.any(equal):
                        t = tgt[equal]
                        csg[t] += sigma
                        dirty[t] = True
                        oc.struct_ops += int(equal.sum())

            for h in range(self.H):
                rows = np.nonzero(self.dirty[h])[0]
                if rows.size:
                    any_activity = True
                    part = pg.parts[h]
                    gids = part.gids[rows]
                    cd = self.cand_dist[h][rows]
                    csg = self.cand_sigma[h][rows]
                    items = pending[h]
                    for g, d, sg in zip(gids.tolist(), cd.tolist(), csg.tolist()):
                        items.append((g, d, sg))
                    self.dirty[h][:] = False

            return any_activity

        return runtime.run_loop("forward", step)

    def run_backward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        levels: dict[int, list[int]] = {}
        max_level = 0
        for gid, (d, _sg) in self.settled.items():
            if gid == self.source:
                continue
            levels.setdefault(d, []).append(gid)
            max_level = max(max_level, d)
        self.delta = {gid: 0.0 for gid in self.settled}

        rledger = obs.current().rounds
        pending: list[list[tuple]] = [[] for _ in range(self.H)]

        def step(rnd: int, rs) -> bool:
            nonlocal pending
            inbox = gluon.reduce_to_masters(pending, BWD_PAYLOAD_BYTES, 1, rs)
            pending = [[] for _ in range(self.H)]
            for h, items in enumerate(inbox):
                oc = rs.compute[h]
                for gid, _sender, pd in items:
                    self.delta[gid] += pd
                    oc.struct_ops += 1

            level = max_level - rnd + 1
            fires: list[list[tuple]] = [[] for _ in range(self.H)]
            for gid in levels.get(level, ()):
                d, sigma = self.settled[gid]
                coeff = (1.0 + self.delta[gid]) / sigma
                h = int(pg.master_of[gid])
                fires[h].append((gid, coeff, d))
                rs.compute[h].vertex_ops += 1

            if rledger is not None:
                # The reverse walk fires level max_level - rnd + 1 whole:
                # each settled vertex's dependency finalizes exactly once.
                fired = sum(len(f) for f in fires)
                rledger.note(frontier=fired, settled=fired)

            deliveries = gluon.broadcast_from_masters(
                fires, TARGET_IN_EDGES, BWD_PAYLOAD_BYTES, 1, rs
            )

            for h, items in enumerate(deliveries):
                part = pg.parts[h]
                oc = rs.compute[h]
                fd, fsg = self.fin_dist[h], self.fin_sigma[h]
                for gid, coeff, d in items:
                    lid = int(np.searchsorted(part.gids, gid))
                    preds = part.in_neighbors_local(lid)
                    oc.vertex_ops += 1
                    oc.edge_ops += preds.size
                    if preds.size == 0:
                        continue
                    is_pred = fd[preds] == d - 1
                    if np.any(is_pred):
                        tgt = preds[is_pred]
                        self.partial_delta[h][tgt] += fsg[tgt] * coeff
                        self.delta_dirty[h][tgt] = True
                        oc.struct_ops += int(is_pred.sum())

            any_dirty = False
            for h in range(self.H):
                rows = np.nonzero(self.delta_dirty[h])[0]
                if rows.size:
                    any_dirty = True
                    part = pg.parts[h]
                    gids = part.gids[rows]
                    pd = self.partial_delta[h][rows]
                    items = pending[h]
                    for g, v in zip(gids.tolist(), pd.tolist()):
                        items.append((g, v))
                    self.partial_delta[h][rows] = 0.0
                    self.delta_dirty[h][:] = False

            return any_dirty

        return runtime.run_loop("backward", step, min_rounds=max_level)

    def collect(
        self, dist_row: np.ndarray, sigma_row: np.ndarray, bc: np.ndarray
    ) -> None:
        """Bank this source's results into the engine accumulators."""
        for gid, (d, sg) in self.settled.items():
            dist_row[gid] = d
            sigma_row[gid] = sg
        for gid, dl in self.delta.items():
            if gid != self.source:
                bc[gid] += dl


class _ArraySourceExecutor:
    """One Brandes source on the columnar plane.

    The vectorized twin of :class:`_SourceExecutor`: per-source state
    lives in a shared :class:`~repro.runtime.arrays.HostArena` (``k=1``
    — one column) reset between sources, masters keep dense settled
    arrays, and every step is an arena-wide sweep.

    Bit-exactness relies on SBBC's level synchrony: all deliveries in a
    round carry the same BFS level, so every candidate cell sees one
    assignment followed by ordered additions — ``np.add.at`` in item
    order reproduces the dict plane's float sequences without any
    per-cell replay.
    """

    def __init__(
        self,
        pg: PartitionedGraph,
        gluon: "GluonArrayPlane",
        run: EngineRun,
        source: int,
        arena: HostArena,
    ) -> None:
        self.pg = pg
        self.gluon = gluon
        self.run = run
        self.source = source
        self.H = pg.num_hosts
        self.n = int(pg.master_of.size)
        arena.reset_state()
        self.arena = arena
        # Master-side settled state, dense over all vertices.
        self.settled_d = np.full(self.n, INF, dtype=np.int64)
        self.settled_sg = np.zeros(self.n, dtype=np.float64)
        #: Settle order (the dict plane's insertion order), per round.
        self._order: list[np.ndarray] = []
        self.delta = np.zeros(self.n, dtype=np.float64)

    def run_forward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        A = self.arena
        H = self.H
        rledger = obs.current().rounds
        # Staged candidates and fires both carry (d, σ).
        no_rows = ExchangeBatch.empty(H, (np.int64, np.float64))
        pending = no_rows
        # View construction only — every value read happens inside the
        # step closure, after that round's broadcast delivered.
        fd = A.fin_dist[:, 0]  # repro-lint: disable=RL301
        fsg = A.fin_sigma[:, 0]  # repro-lint: disable=RL301
        cd = A.cand_dist[:, 0]
        csg = A.cand_sigma[:, 0]
        dirty = A.dirty[:, 0]
        fpos = A.fpos[:, 0]
        # Round 1 settles the source itself.
        newly = (
            np.array([self.source], dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.ones(1, dtype=np.float64),
        )
        empty = (no_rows.gids, *no_rows.cols)

        def step(rnd: int, rs) -> bool:
            nonlocal pending, newly
            inbox = gluon.reduce_to_masters(pending, FWD_PAYLOAD_BYTES, 1, rs)
            if len(inbox):
                rs.charge("struct_ops", inbox.counts())
                gi = inbox.gids
                _snd, d, sg = inbox.cols
                fresh = self.settled_d[gi] == INF
                assert (
                    d[~fresh] > self.settled_d[gi[~fresh]]
                ).all(), "late same-level contribution"
                gi, d, sg = gi[fresh], d[fresh], sg[fresh]
                if gi.size:
                    # Merge same-gid contributions in first-occurrence
                    # order; σ sums accumulate in item order.
                    ug, first, inv = np.unique(
                        gi, return_index=True, return_inverse=True
                    )
                    assert (d == d[first][inv]).all(), "level-synchrony violated"
                    acc = np.zeros(ug.size, dtype=np.float64)
                    np.add.at(acc, inv, sg)
                    ordp = np.argsort(first, kind="stable")
                    newly = (ug[ordp], d[first][ordp], acc[ordp])

            new_g, new_d, new_sg = newly
            fires = no_rows
            level = int(new_g.size)
            if level:
                self.settled_d[new_g] = new_d
                self.settled_sg[new_g] = new_sg
                self._order.append(new_g)
                fires = ExchangeBatch.grouped(
                    pg.master_of[new_g], new_g, (new_d, new_sg), H
                )
                rs.charge("vertex_ops", fires.counts())
            if rledger is not None:
                # Level-synchronous settling: this round's frontier is
                # exactly the BFS level that settles in it.
                rledger.note(frontier=level, settled=level, active_sources=1)
            newly = empty

            deliveries = gluon.broadcast_from_masters(
                fires, TARGET_ALL_PROXIES, FWD_PAYLOAD_BYTES, 1, rs
            )

            if len(deliveries):
                hs = deliveries.host
                dv, sgv = deliveries.cols
                m = len(deliveries)
                lid = A.lut[hs, deliveries.gids]
                fd[lid] = dv
                fsg[lid] = sgv
                fpos[lid] = np.arange(m, dtype=np.int64)
                rs.charge("vertex_ops", deliveries.counts())
                deg = A.out_offsets[lid + 1] - A.out_offsets[lid]
                rs.charge("edge_ops", np.bincount(hs, deg, H))
                item_of, w = expand_csr(A.out_offsets, A.out_targets, lid)
                if w.size:
                    # Open ⟺ not settled in an earlier round and not
                    # finalized by an earlier item of this round.
                    open_ = (fd[w] == INF) | (fpos[w] > item_of)
                    sel = np.nonzero(open_)[0]
                    if sel.size:
                        wt = w[sel]
                        nd = dv[item_of[sel]] + 1
                        sv = sgv[item_of[sel]]
                        cdv = cd[wt]
                        # One shared level per round: the first event into
                        # an improved cell assigns, the rest add — a
                        # zeroed ordered sum, and every open event with
                        # nd <= old candidate counts one struct op.
                        bet = nd < cdv
                        upd = bet | (nd == cdv)
                        if bet.any():
                            bw = wt[bet]
                            cd[bw] = nd[bet]
                            csg[bw] = 0.0
                        if upd.any():
                            uw = wt[upd]
                            np.add.at(csg, uw, sv[upd])
                            dirty[uw] = True
                            rs.charge(
                                "struct_ops",
                                np.bincount(hs[item_of[sel[upd]]], minlength=H),
                            )
                fpos[lid] = -1

            rows = np.nonzero(dirty)[0]
            if rows.size == 0:
                pending = no_rows
                return False
            # Arena rows are host-contiguous, so staging by row is host-sorted.
            pending = ExchangeBatch(
                A.host_of[rows], A.gids[rows], (cd[rows], csg[rows]), H
            )
            dirty[rows] = False
            return True

        return runtime.run_loop("forward", step)

    def run_backward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        A = self.arena
        H = self.H
        so = (
            np.concatenate(self._order)
            if self._order
            else np.empty(0, dtype=np.int64)
        )
        so = so[so != self.source]
        lv = self.settled_d[so]
        max_level = int(lv.max()) if lv.size else 0
        self.delta[:] = 0.0
        # View construction only — every value read happens inside the
        # step closure, on state the forward phase already finalized.
        fd = A.fin_dist[:, 0]  # repro-lint: disable=RL301
        fsg = A.fin_sigma[:, 0]  # repro-lint: disable=RL301
        pdel = A.partial_delta[:, 0]
        ddirty = A.delta_dirty[:, 0]
        rledger = obs.current().rounds
        no_pending = ExchangeBatch.empty(H, (np.float64,))
        pending = no_pending
        no_fires = ExchangeBatch.empty(H, (np.float64, np.int64))

        def step(rnd: int, rs) -> bool:
            nonlocal pending
            inbox = gluon.reduce_to_masters(pending, BWD_PAYLOAD_BYTES, 1, rs)
            if len(inbox):
                rs.charge("struct_ops", inbox.counts())
                # Item-order accumulation — the dict plane's `+=` sequence.
                np.add.at(self.delta, inbox.gids, inbox.cols[1])

            level = max_level - rnd + 1
            fires_g = so[lv == level]
            fires = no_fires
            if fires_g.size:
                coeff = (1.0 + self.delta[fires_g]) / self.settled_sg[fires_g]
                fires = ExchangeBatch.grouped(
                    pg.master_of[fires_g],
                    fires_g,
                    (coeff, self.settled_d[fires_g]),
                    H,
                )
                rs.charge("vertex_ops", fires.counts())
            if rledger is not None:
                # The reverse walk fires level max_level - rnd + 1 whole:
                # each settled vertex's dependency finalizes exactly once.
                rledger.note(
                    frontier=int(fires_g.size), settled=int(fires_g.size)
                )

            deliveries = gluon.broadcast_from_masters(
                fires, TARGET_IN_EDGES, BWD_PAYLOAD_BYTES, 1, rs
            )

            if len(deliveries):
                hs = deliveries.host
                coeff, dv = deliveries.cols
                lid = A.lut[hs, deliveries.gids]
                rs.charge("vertex_ops", deliveries.counts())
                deg = A.in_offsets[lid + 1] - A.in_offsets[lid]
                rs.charge("edge_ops", np.bincount(hs, deg, H))
                item_of, wp = expand_csr(A.in_offsets, A.in_sources, lid)
                if wp.size:
                    sel = np.nonzero(fd[wp] == dv[item_of] - 1)[0]
                    if sel.size:
                        wt = wp[sel]
                        np.add.at(pdel, wt, fsg[wt] * coeff[item_of[sel]])
                        ddirty[wt] = True
                        rs.charge(
                            "struct_ops",
                            np.bincount(hs[item_of[sel]], minlength=H),
                        )

            rows = np.nonzero(ddirty)[0]
            if rows.size == 0:
                pending = no_pending
                return False
            pending = ExchangeBatch(
                A.host_of[rows], A.gids[rows], (pdel[rows],), H
            )
            pdel[rows] = 0.0
            ddirty[rows] = False
            return True

        return runtime.run_loop("backward", step, min_rounds=max_level)

    def collect(
        self, dist_row: np.ndarray, sigma_row: np.ndarray, bc: np.ndarray
    ) -> None:
        """Bank this source's results into the engine accumulators."""
        sel = np.nonzero(self.settled_d != INF)[0]
        dist_row[sel] = self.settled_d[sel]
        sigma_row[sel] = self.settled_sg[sel]
        nz = sel[sel != self.source]
        bc[nz] += self.delta[nz]


def sbbc_engine(
    g: DiGraph,
    sources: np.ndarray | list[int] | None = None,
    num_hosts: int = 8,
    policy: str = "cvc",
    partition: PartitionedGraph | None = None,
    resilience: "ResilienceContext | None" = None,
    recovery_policy: "RecoveryPolicy | str | None" = None,
    plane: str = "dict",
) -> SBBCResult:
    """Run Synchronous-Brandes BC on the simulated engine.

    Processes one source at a time (the algorithm's defining property);
    ``sources=None`` uses every vertex (exact BC).

    With a ``resilience`` context, channel faults from its plan are
    injected/guarded at the Gluon layer, and (in ``repair`` mode) an
    injected host crash replays the in-flight source from scratch — the
    source loop is SBBC's natural checkpoint granularity, since completed
    sources have already banked their BC contributions.  Replayed rounds
    are marked as recovery overhead.

    ``recovery_policy`` (named so because ``policy`` is the partition
    policy) attaches a :class:`~repro.resilience.supervisor
    .RecoveryPolicy`: retry/backoff/deadline/restart budgets, and — when
    the policy degrades — per-source failure domains, with unrecoverable
    sources dropped and the completed ones salvaged into ``partial``.

    ``plane`` selects the execution tier: ``"dict"`` (default) runs the
    row-wise reference executor on :class:`~repro.runtime.plane
    .GluonPlane`; ``"array"`` runs the vectorized columnar executor on
    :class:`~repro.runtime.plane.GluonArrayPlane`, reusing one
    :class:`~repro.runtime.arrays.HostArena` across sources.  Both tiers
    produce bit-identical results and identical ledger counts.
    """
    from repro.resilience.supervisor import attach_policy

    pg = resolve_partition(g, partition, num_hosts, policy)
    if sources is None:
        src = np.arange(g.num_vertices, dtype=np.int64)
    else:
        src = np.asarray(sources, dtype=np.int64).ravel()
    if src.size == 0:
        raise ValueError("need at least one source")

    resilience, supervisor = attach_policy(resilience, recovery_policy)
    n = g.num_vertices
    arena: HostArena | None = None
    if plane == "dict":
        plane_obj = GluonPlane(pg, resilience=resilience)
    elif plane == "array":
        plane_obj = GluonArrayPlane(pg, resilience=resilience)
        # One arena for the whole run: topology (LUT + stitched CSRs) is
        # source-independent; only the state columns reset per source.
        arena = HostArena(pg.parts, 1, n)
    else:
        raise ValueError(f"unknown plane {plane!r} (expected 'dict' or 'array')")
    runtime = SuperstepRuntime(plane=plane_obj, resilience=resilience)
    gluon = runtime.plane
    run = runtime.run
    bc = np.zeros(n, dtype=np.float64)
    dist = np.full((src.size, n), -1, dtype=np.int64)
    sigma = np.zeros((src.size, n), dtype=np.float64)
    fwd = 0
    bwd = 0
    for i, s in enumerate(src.tolist()):
        # The source is SBBC's recovery unit: on an injected crash the
        # in-flight source replays from scratch (redone rounds are
        # charged to the recovery phase by the runtime policy).
        def prepare(attempt: int, s: int = int(s)):
            if arena is not None:
                return _ArraySourceExecutor(pg, gluon, run, s, arena)
            return _SourceExecutor(pg, gluon, run, s)

        def both_phases(ex, s: int = int(s)) -> tuple[int, int]:
            with runtime.phase("forward", source=s):
                f = ex.run_forward(runtime)
            with runtime.phase("backward", source=s):
                b = ex.run_backward(runtime)
            return f, b

        def run_source(s: int = int(s)):
            return runtime.run_with_restart(prepare, both_phases)

        if supervisor is not None:
            # Per-source failure domain: an unrecoverable source is
            # dropped under a degrading policy; its dist row stays -1.
            out, completed = supervisor.run_unit(i, [int(s)], run_source)
            if not completed:
                continue
        else:
            out = run_source()
        ex, (f, b) = out
        fwd += f
        bwd += b
        ex.collect(dist[i], sigma[i], bc)
    partial = (
        supervisor.partial_result(bc, requested_sources=int(src.size), num_vertices=n)
        if supervisor is not None
        else None
    )
    return SBBCResult(
        bc=bc,
        dist=dist,
        sigma=sigma,
        sources=src,
        run=run,
        forward_rounds=fwd,
        backward_rounds=bwd,
        partition=pg,
        partial=partial,
    )
