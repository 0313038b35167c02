"""Property-based tests for the engine layer: partition invariants,
Gluon wire-format round-trips, cross-implementation agreement, and
MRBC/SBBC against the sequential Brandes reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brandes import brandes_bc, brandes_sssp
from repro.baselines.sbbc import sbbc_engine
from repro.core.lenzen_peleg import lenzen_peleg_apsp
from repro.core.mrbc import mrbc_engine
from repro.engine.partition import partition_graph
from repro.engine.serialize import decode_message, encode_message
from repro.graph import generators as gen
from repro.graph.digraph import DiGraph

FMT = "<i d"


@st.composite
def digraphs(draw, max_n=14, max_m=35):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=max_m,
        )
    )
    if edges:
        arr = np.asarray(edges, dtype=np.int64)
        return DiGraph(n, arr[:, 0], arr[:, 1])
    return DiGraph(n, np.empty(0, np.int64), np.empty(0, np.int64))


class TestPartitionProperties:
    @given(digraphs(), st.integers(1, 5), st.sampled_from(["oec", "iec", "cvc"]))
    @settings(max_examples=40, deadline=None)
    def test_edges_partition_exactly(self, g, H, policy):
        pg = partition_graph(g, H, policy)
        assert sum(p.num_edges for p in pg.parts) == g.num_edges
        owners = np.zeros(g.num_vertices, dtype=int)
        for p in pg.parts:
            owners[p.gids[p.is_master]] += 1
        assert (owners == 1).all()

    @given(digraphs(), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_host_queries_consistent(self, g, H):
        pg = partition_graph(g, H, "cvc")
        for v in range(g.num_vertices):
            proxy = set(pg.hosts_with_proxy(v).tolist())
            out_h = set(pg.hosts_with_out_edges(v).tolist())
            in_h = set(pg.hosts_with_in_edges(v).tolist())
            assert out_h <= proxy
            assert in_h <= proxy
            assert int(pg.master_of[v]) in proxy


class TestWireFormatProperties:
    @given(
        st.integers(1, 64),
        st.lists(
            st.tuples(
                st.integers(0, 500),
                st.integers(0, 63),
                st.integers(-100, 100),
                st.floats(0.0, 1e6, allow_nan=False),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=60)
    def test_roundtrip(self, k, raw):
        # Clamp sources into the batch and dedupe (vertex, source) pairs —
        # an aggregated message carries one value per pair.
        seen = {}
        for v, si, d, sg in raw:
            seen[(v, si % k)] = (d, sg)
        items = [(v, si, (d, sg)) for (v, si), (d, sg) in seen.items()]
        data = encode_message(items, batch_width=k, payload_format=FMT)
        back = decode_message(data, payload_format=FMT)
        assert sorted(back) == sorted(items)

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=80, unique=True))
    @settings(max_examples=40)
    def test_bitmap_roundtrip(self, vertices):
        shared = sorted(set(vertices) | set(range(0, 201, 7)))
        rank = {v: i for i, v in enumerate(shared)}
        items = [(v, 0, (1, 1.0)) for v in sorted(vertices)]
        data = encode_message(items, 1, shared_rank=rank, payload_format=FMT)
        back = decode_message(data, shared_vertices=shared, payload_format=FMT)
        assert sorted(back) == sorted(items)


class TestCrossImplementationAgreement:
    @given(digraphs(), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_three_way_bc_agreement(self, g, H):
        srcs = list(range(min(3, g.num_vertices)))
        pg = partition_graph(g, H, "cvc")
        a = mrbc_engine(g, sources=srcs, batch_size=2, partition=pg).bc
        b = sbbc_engine(g, sources=srcs, partition=pg).bc
        assert np.allclose(a, b, atol=1e-9)

    @given(digraphs())
    @settings(max_examples=25, deadline=None)
    def test_lenzen_peleg_distances_match_mrbc(self, g):
        from repro.core.mrbc_congest import directed_apsp

        lp = lenzen_peleg_apsp(g)
        mr = directed_apsp(g)
        assert np.array_equal(lp.dist, mr.dist)
        # And the message refinement holds universally:
        assert (
            mr.stats.count_for_tag("apsp") <= lp.stats.count_for_tag("lp")
        )


class TestBrandesReference:
    """Both engines against sequential Brandes on random inputs: exact
    distances and path counts, BC up to float reassociation."""

    @given(
        n=st.integers(2, 30),
        avg_degree=st.floats(0.5, 4.0),
        graph_seed=st.integers(0, 2**16),
        hosts=st.integers(1, 8),
        policy=st.sampled_from(["cvc", "oec", "iec"]),
        batch=st.integers(1, 9),
        delayed=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_engines_match_brandes(
        self, n, avg_degree, graph_seed, hosts, policy, batch, delayed, data
    ):
        g = gen.erdos_renyi(n, avg_degree, seed=graph_seed)
        srcs = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            label="sources",
        )
        pg = partition_graph(g, hosts, policy)
        mr = mrbc_engine(
            g, sources=srcs, batch_size=batch, partition=pg, delayed_sync=delayed
        )
        sb = sbbc_engine(g, sources=srcs, partition=pg)
        for i, s in enumerate(srcs):
            dist, sigma, _preds, _order = brandes_sssp(g, s)
            for res in (mr, sb):
                assert np.array_equal(res.dist[i], dist)
                assert np.array_equal(res.sigma[i], sigma)
        ref = brandes_bc(g, sources=srcs)
        assert np.allclose(mr.bc, ref)
        assert np.allclose(sb.bc, ref)
