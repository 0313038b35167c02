"""White-box tests for the MRBC batch executor internals: derived
local lists, delayed-sync staging, and backward scheduling."""

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.core.mrbc import INF, _ArrayBatchExecutor, mrbc_engine
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph import generators as gen
from repro.graph.builders import from_edges
from repro.runtime.plane import GluonArrayPlane


def make_executor(g, batch, H=2, delayed=True):
    pg = partition_graph(g, H, "cvc")
    run = EngineRun(num_hosts=H)
    return _ArrayBatchExecutor(
        pg, GluonArrayPlane(pg), run, np.asarray(batch, dtype=np.int64), delayed
    )


def mark_unsent(ex, *rows):
    ex.arena.unsent.set_many(np.asarray(rows, dtype=np.int64))


class TestLocalListMaintenance:
    """A proxy's sorted ``(d, si)`` list is derived from its candidate
    row, so every candidate update is reflected without list upkeep."""

    def test_insert_and_replace(self):
        g = gen.path_graph(4, bidirectional=False)
        ex = make_executor(g, [0, 1], H=1)  # one host: arena row == lid
        A = ex.arena
        assert A.cand_dist[2, 0] == INF
        A.cand_dist[2, 0] = 5
        assert A.derive_local_lists(0)[2] == [(5, 0)]
        A.cand_dist[2, 0] = 3  # improvement replaces
        assert A.derive_local_lists(0)[2] == [(3, 0)]
        A.cand_dist[2, 1] = 3  # second source
        assert A.derive_local_lists(0)[2] == [(3, 0), (3, 1)]
        assert list(A.derive_local_lists(0)) == [2]  # only vertices with candidates

    def test_same_distance_noop_on_list(self):
        g = gen.path_graph(3, bidirectional=False)
        ex = make_executor(g, [0], H=1)
        A = ex.arena
        A.cand_dist[1, 0] = 2
        A.cand_sigma[1, 0] = 1.0
        A.cand_sigma[1, 0] += 1.0  # σ-only update
        assert A.derive_local_lists(0)[1] == [(2, 0)]


class TestDelayedStaging:
    def test_stages_only_due_pairs(self):
        g = gen.path_graph(4, bidirectional=False)
        ex = make_executor(g, [0, 1], H=1)
        A = ex.arena
        A.cand_dist[2, 0] = 1
        A.cand_sigma[2, 0] = 1.0
        A.cand_dist[2, 1] = 3
        A.cand_sigma[2, 1] = 2.0
        mark_unsent(ex, 2)
        rs = ex.run.new_round("forward")
        # Round 1: (1,0) at position 1 → due round 2 → staged (arrives at
        # its due round); (3,1) at position 2 → due 5 → not staged.
        staged, any_work = ex._stage_delayed(1, rs)
        assert len(staged) == 1
        assert staged.cols[0].tolist() == [0]  # source index 0
        assert A.sent_d[2, 0] == 1
        assert any_work and 2 in A.unsent  # (3,1) still unsent
        # Round 4: the second pair becomes due.
        staged, _ = ex._stage_delayed(4, rs)
        assert len(staged) == 1
        assert staged.cols[0].tolist() == [1]

    def test_no_restaging_once_sent(self):
        g = gen.path_graph(3, bidirectional=False)
        ex = make_executor(g, [0], H=1)
        A = ex.arena
        A.cand_dist[1, 0] = 1
        A.cand_sigma[1, 0] = 1.0
        mark_unsent(ex, 1)
        rs = ex.run.new_round("forward")
        p1, _ = ex._stage_delayed(2, rs)
        assert len(p1) == 1
        p2, any_work = ex._stage_delayed(3, rs)
        assert len(p2) == 0 and not any_work
        assert not A.unsent.any()  # cleaned up

    def test_sigma_growth_after_send_restages(self):
        g = gen.path_graph(3, bidirectional=False)
        ex = make_executor(g, [0], H=1)
        A = ex.arena
        A.cand_dist[1, 0] = 1
        A.cand_sigma[1, 0] = 1.0
        mark_unsent(ex, 1)
        rs = ex.run.new_round("forward")
        ex._stage_delayed(2, rs)
        assert A.sent_d[1, 0] == 1
        # Simulate the relax sweep's σ-growth path: reset the sent mark.
        A.cand_sigma[1, 0] = 2.0
        A.sent_d[1, 0] = -1
        mark_unsent(ex, 1)
        p2, _ = ex._stage_delayed(2, rs)
        assert len(p2) == 1
        assert p2.cols[2].tolist() == [2.0]  # the refreshed σ


class TestBackwardScheduling:
    def test_fire_rounds_reverse_taus(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        ex = make_executor(g, [0], H=1)
        ex.run_forward()
        M = ex.masters
        taus = {g_: int(M.tau[0, g_]) for g_ in M.master_order if M.fired[0, g_]}
        ex.run_backward()
        # Vertex 2 (latest forward τ) fires earliest backward; the source
        # never fires.  δ values are the exact Brandes dependencies.
        assert taus[2] > taus[1] > taus[0]
        assert np.isclose(ex.delta[0, 1], 1.0)  # 1 lies on the 0→2 path
        assert np.isclose(ex.delta[0, 0], 2.0)  # source dependency

    def test_bc_excludes_source(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        res = mrbc_engine(g, sources=[0], batch_size=1, num_hosts=1)
        assert res.bc.tolist() == [0.0, 1.0, 0.0]


class TestEagerVsDelayedEquivalence:
    @pytest.mark.parametrize("H", [1, 3])
    def test_identical_results(self, H):
        g = gen.erdos_renyi(35, 3.0, seed=71)
        srcs = [0, 5, 9, 20]
        pg = partition_graph(g, H, "cvc")
        a = mrbc_engine(g, sources=srcs, batch_size=4, partition=pg,
                        delayed_sync=True)
        b = mrbc_engine(g, sources=srcs, batch_size=4, partition=pg,
                        delayed_sync=False)
        ref = brandes_bc(g, sources=srcs)
        assert np.allclose(a.bc, ref)
        assert np.allclose(b.bc, ref)
        assert np.array_equal(a.dist, b.dist)
        assert np.allclose(a.sigma, b.sigma)
        # Same round schedule — the optimization changes traffic only.
        assert a.forward_rounds == b.forward_rounds
