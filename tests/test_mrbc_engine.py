"""Tests for MRBC on the simulated D-Galois engine (paper §4)."""

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.core.mrbc import mrbc_engine
from repro.core.mrbc_congest import mrbc_congest
from repro.engine.partition import partition_graph
from tests.conftest import batch_executor, fire, report, some_sources


class TestBCCorrectness:
    @pytest.mark.parametrize(
        "fixture", ["diamond", "er_graph", "powerlaw_graph", "road_graph", "webcrawl_graph"]
    )
    @pytest.mark.parametrize("H", [1, 4])
    def test_matches_brandes(self, fixture, H, request):
        g = request.getfixturevalue(fixture)
        srcs = some_sources(g)
        res = mrbc_engine(g, sources=srcs, batch_size=4, num_hosts=H)
        assert np.allclose(res.bc, brandes_bc(g, sources=srcs))

    @pytest.mark.parametrize("policy", ["oec", "iec", "cvc", "random"])
    def test_all_partition_policies(self, er_graph, policy):
        srcs = some_sources(er_graph)
        res = mrbc_engine(
            er_graph, sources=srcs, batch_size=8, num_hosts=4, policy=policy
        )
        assert np.allclose(res.bc, brandes_bc(er_graph, sources=srcs))

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_batch_size_does_not_change_result(self, er_graph, k):
        srcs = some_sources(er_graph, 6)
        res = mrbc_engine(er_graph, sources=srcs, batch_size=k, num_hosts=4)
        assert np.allclose(res.bc, brandes_bc(er_graph, sources=srcs))

    def test_all_sources_exact_bc(self, er_graph):
        res = mrbc_engine(er_graph, batch_size=16, num_hosts=2)
        assert np.allclose(res.bc, brandes_bc(er_graph))

    def test_sampled_sources_via_num_sources(self, er_graph):
        res = mrbc_engine(er_graph, num_sources=5, batch_size=5, seed=3)
        assert res.sources.size == 5
        assert np.allclose(res.bc, brandes_bc(er_graph, sources=res.sources))

    def test_distances_and_sigma(self, er_graph):
        srcs = some_sources(er_graph, 4)
        res = mrbc_engine(er_graph, sources=srcs, batch_size=4, num_hosts=4)
        ref = mrbc_congest(er_graph, sources=srcs)
        assert np.array_equal(res.dist, ref.dist)
        assert np.allclose(res.sigma, ref.sigma)


class TestScheduleEquivalence:
    """The engine must execute the CONGEST round schedule (Lemma 8)."""

    @pytest.mark.parametrize("fixture", ["er_graph", "road_graph", "webcrawl_graph"])
    def test_rounds_match_congest_within_detector_slack(self, fixture, request):
        g = request.getfixturevalue(fixture)
        srcs = some_sources(g, 6)
        eng = mrbc_engine(g, sources=srcs, batch_size=len(srcs), num_hosts=4)
        con = mrbc_congest(g, sources=srcs)
        assert abs(eng.forward_rounds - con.forward_rounds) <= 1
        assert abs(eng.backward_rounds - con.backward_rounds) <= 1

    def test_forward_round_bound(self, webcrawl_graph):
        g = webcrawl_graph
        srcs = some_sources(g, 8)
        res = mrbc_engine(g, sources=srcs, batch_size=len(srcs), num_hosts=4)
        H = int(res.dist.max())
        assert res.forward_rounds <= len(srcs) + H + 1

    def test_larger_batches_reduce_rounds(self, webcrawl_graph):
        """Figure 1's mechanism: fewer batches ⇒ fewer total rounds."""
        g = webcrawl_graph
        srcs = some_sources(g, 8)
        small = mrbc_engine(g, sources=srcs, batch_size=2, num_hosts=4)
        large = mrbc_engine(g, sources=srcs, batch_size=8, num_hosts=4)
        assert large.total_rounds < small.total_rounds
        assert large.rounds_per_source() < small.rounds_per_source()


class TestDelayedSync:
    def test_each_pair_broadcast_once(self, er_graph):
        """Delayed sync: one forward broadcast per reached (v, s) pair —
        verified indirectly: eager mode strictly inflates traffic."""
        srcs = some_sources(er_graph, 6)
        pg = partition_graph(er_graph, 4, "cvc")
        delayed = mrbc_engine(
            er_graph, sources=srcs, batch_size=6, partition=pg, delayed_sync=True
        )
        eager = mrbc_engine(
            er_graph, sources=srcs, batch_size=6, partition=pg, delayed_sync=False
        )
        assert np.allclose(delayed.bc, eager.bc)
        assert delayed.run.total_bytes < eager.run.total_bytes
        assert delayed.run.total_items_synced < eager.run.total_items_synced


class TestMasterVertexState:
    """The master-side ``L_v`` rule as the batch executor applies it,
    read back in row format (``MasterVertexState``)."""

    V = 5  # a non-source vertex of the path

    def test_source_seeding_fires_round_one(self):
        ex = batch_executor([3])
        assert fire(ex, 1) == [(3, 0, 0, 1.0)]
        ms = ex.masters.to_rows()[3]
        assert ms.entries == [(0, 0)] and ms.sent_prefix == 1  # all fired

    def test_contributions_aggregate_across_hosts(self):
        ex = batch_executor([0])
        report(ex, self.V, (1, 0, 2, 3.0), (2, 0, 2, 4.0))
        assert ex.masters.to_rows()[self.V].best[0] == (2, 7.0)

    def test_shorter_distance_replaces(self):
        ex = batch_executor([0])
        report(ex, self.V, (1, 0, 3, 5.0))
        report(ex, self.V, (2, 0, 2, 1.0))
        ms = ex.masters.to_rows()[self.V]
        assert ms.best[0] == (2, 1.0)
        assert ms.entries == [(2, 0)]

    def test_stale_host_report_ignored(self):
        ex = batch_executor([0])
        report(ex, self.V, (1, 0, 2, 1.0))
        report(ex, self.V, (1, 0, 5, 9.0))
        assert ex.masters.to_rows()[self.V].best[0] == (2, 1.0)

    def test_fire_schedule_positions(self):
        ex = batch_executor([0, 1])
        # (1, 0) at position 1 → round 2; (1, 1) at position 2 → round 3.
        report(ex, self.V, (1, 0, 1, 1.0), (1, 1, 1, 1.0))
        assert self.V not in [gid for gid, *_ in fire(ex, 1)]  # sources only
        assert fire(ex, 2) == [(self.V, 0, 1, 1.0)]
        assert fire(ex, 3) == [(self.V, 1, 1, 1.0)]
        assert ex.masters.to_rows()[self.V].tau == {0: 2, 1: 3}


class TestInputValidation:
    def test_empty_sources_rejected(self, er_graph):
        with pytest.raises(ValueError):
            mrbc_engine(er_graph, sources=[])

    def test_foreign_partition_rejected(self, er_graph, road_graph):
        pg = partition_graph(road_graph, 2, "oec")
        with pytest.raises(ValueError):
            mrbc_engine(er_graph, sources=[0], partition=pg)

    def test_stats_populated(self, er_graph):
        res = mrbc_engine(er_graph, sources=[0, 1], batch_size=2, num_hosts=4)
        assert res.run.num_rounds == res.total_rounds
        assert res.run.total_bytes > 0
        assert res.run.load_imbalance() >= 1.0
