"""Communication-volume observability: the CommLedger, the CONGEST
bandwidth-bound checker, the conformance suite, and the persistence
surfaces (manifest ``comm`` section, bench comm gating, ``repro comm``).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.commcheck import (
    CommCheckCase,
    check_congest_bound,
    run_case_checks,
    run_conformance,
)
from repro.cli import main as cli_main
from repro.cluster.model import ClusterModel
from repro.congest.network import CongestNetwork
from repro.congest.program import VertexProgram
from repro.core.mrbc import mrbc_engine
from repro.core.sampling import sample_sources
from repro.graph import generators as gen
from repro.graph.builders import from_edges
from repro.obs.bench import compare_bench
from repro.obs.comm import (
    PLANE_CONGEST,
    PLANE_GLUON,
    CommLedger,
    congest_bound_words,
)
from repro.obs.manifest import build_manifest, load_manifest, write_manifest
from repro.runtime.errors import ChannelBandwidthError


def rs_stub(phase: str, round_index: int) -> SimpleNamespace:
    """The two RoundStats fields record_pair_message reads."""
    return SimpleNamespace(effective_phase=phase, round_index=round_index)


class TestCommLedger:
    def test_totals_phases_and_ops(self):
        led = CommLedger()
        led.record_pair_message(rs_stub("forward", 1), 0, 1, 2, 24, "reduce")
        led.record_pair_message(rs_stub("forward", 1), 1, 0, 1, 8, "reduce")
        led.record_pair_message(rs_stub("backward", 2), 0, 2, 3, 40, "broadcast")
        tot = led.totals(PLANE_GLUON)
        assert (tot.messages, tot.values, tot.payload_bytes) == (3, 6, 72)
        assert list(led.phase_totals(PLANE_GLUON)) == ["forward", "backward"]
        ops = led.op_totals(PLANE_GLUON)
        assert ops["reduce"].payload_bytes == 32
        assert ops["broadcast"].payload_bytes == 40

    def test_word_rounding_is_ceiling(self):
        led = CommLedger()
        led.record_pair_message(rs_stub("forward", 1), 0, 1, 1, 9, "reduce")
        assert led.totals(PLANE_GLUON).words == 2

    def test_epochs_keep_restarting_round_counters_apart(self):
        led = CommLedger()
        led.begin_epoch(PLANE_CONGEST)
        led.record(PLANE_CONGEST, "congest", 1, 0, 1,
                   values=1, words=2, payload_bytes=16)
        led.begin_epoch(PLANE_CONGEST)
        led.record(PLANE_CONGEST, "congest", 1, 0, 1,
                   values=1, words=2, payload_bytes=16)
        rounds = led.rounds(PLANE_CONGEST)
        assert len(rounds) == 2
        assert [rc.epoch for rc in rounds] == [1, 2]
        assert led.totals(PLANE_CONGEST).words == 4

    def test_top_channels_orders_by_bytes_then_pair(self):
        led = CommLedger()
        led.record_pair_message(rs_stub("forward", 1), 0, 1, 1, 8, "reduce")
        led.record_pair_message(rs_stub("forward", 1), 2, 3, 1, 64, "reduce")
        led.record_pair_message(rs_stub("forward", 1), 1, 2, 1, 8, "reduce")
        top = led.top_channels(PLANE_GLUON, 3)
        assert [pair for pair, _ in top] == [(2, 3), (0, 1), (1, 2)]

    def test_bench_counts_split_reduce_and_broadcast(self):
        led = CommLedger()
        led.record_pair_message(rs_stub("forward", 1), 0, 1, 2, 24, "reduce")
        led.record_pair_message(rs_stub("backward", 2), 1, 0, 1, 16, "broadcast")
        counts = led.bench_counts()
        assert counts == {
            "messages": 2,
            "values": 3,
            "payload_bytes": 40,
            "reduce_bytes": 24,
            "broadcast_bytes": 16,
        }

    def test_summary_is_versioned_and_json_safe(self):
        led = CommLedger(bound_words=4)
        led.record_pair_message(rs_stub("forward", 1), 0, 1, 1, 8, "reduce")
        led.record(PLANE_CONGEST, "congest", 1, 0, 1,
                   values=1, words=2, payload_bytes=16)
        doc = led.summary()
        assert doc["schema"] == 1
        assert set(doc["planes"]) == {PLANE_GLUON, PLANE_CONGEST}
        assert doc["planes"][PLANE_CONGEST]["bound_words"] == 4
        json.dumps(doc)  # must be serializable as-is

    def test_bound_violation_returned_only_on_congest_plane(self):
        led = CommLedger(bound_words=2)
        ok = led.record_pair_message(rs_stub("forward", 1), 0, 1, 1, 800, "reduce")
        assert ok is None and not led.violations
        v = led.record(PLANE_CONGEST, "congest", 3, 4, 5,
                       values=1, words=7, payload_bytes=56)
        assert v is not None and (v.words, v.bound_words) == (7, 2)
        assert led.violations == [v]


#: One exchange: its round (phase, index, recovery flag), op, and pairs
#: ``(src, dst, values, payload_bytes)`` — byte sizes deliberately not
#: multiples of the 8-byte word, and repeated pairs allowed.
_exchange = st.tuples(
    st.sampled_from(["forward", "backward"]),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from(["reduce", "broadcast"]),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(1, 40),
            st.integers(1, 2000),
        ),
        max_size=12,
    ),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_exchange, max_size=8))
def test_record_pairs_equals_record_pair_message_loop(exchanges):
    batched, looped = CommLedger(), CommLedger()
    for phase, rnd, recovery, op, pairs in exchanges:
        rs = SimpleNamespace(
            effective_phase="recovery" if recovery else phase, round_index=rnd
        )
        for src, dst, values, nbytes in pairs:
            looped.record_pair_message(rs, src, dst, values, nbytes, op)
        cols = [list(c) for c in zip(*pairs)] or [[], [], [], []]
        batched.record_pairs(rs, *cols, op)
    assert batched.summary(top=64) == looped.summary(top=64)
    assert batched.pair_totals(PLANE_GLUON) == looped.pair_totals(PLANE_GLUON)
    assert batched.totals() == looped.totals()
    assert batched.per_round() == looped.per_round()
    assert [(rc.phase, rc.round_index, rc.pairs) for rc in batched.rounds()] == [
        (rc.phase, rc.round_index, rc.pairs) for rc in looped.rounds()
    ]


class Oversized(VertexProgram):
    """Deliberately violates CONGEST: one 30-value payload in one round."""

    def compute_sends(self, rnd):
        if self.ctx.vid == 0 and rnd == 1:
            return [(1, (7,) * 30)]
        return []

    def handle_message(self, rnd, sender, payload):
        pass

    def has_pending_work(self, rnd):
        return False


class TestBandwidthBound:
    def test_congest_bound_words(self):
        assert congest_bound_words(2) == 4
        assert congest_bound_words(60) == 24
        assert congest_bound_words(60, factor=1) == 6
        with pytest.raises(ValueError):
            congest_bound_words(60, factor=0)

    def test_oversized_message_is_flagged(self):
        g = from_edges(2, [(0, 1)])
        ledger = CommLedger(bound_words=congest_bound_words(2))
        net = CongestNetwork(g, lambda v: Oversized())
        with obs.session(comm=ledger):
            net.run(2, detect_quiescence=True)
        assert len(ledger.violations) == 1
        v = ledger.violations[0]
        assert (v.src, v.dst, v.words) == (0, 1, 29)
        res = check_congest_bound("oversized", ledger, ledger.bound_words)
        assert not res.ok  # the conformance check must FAIL on this run

    def test_oversized_message_hard_fails(self):
        g = from_edges(2, [(0, 1)])
        ledger = CommLedger(
            bound_words=congest_bound_words(2), hard_fail=True
        )
        net = CongestNetwork(g, lambda v: Oversized())
        with obs.session(comm=ledger):
            with pytest.raises(ChannelBandwidthError):
                net.run(2)

    def test_legal_traffic_stays_under_bound(self):
        g = gen.erdos_renyi(30, 3.0, seed=5)
        ledger = CommLedger(bound_words=congest_bound_words(30))
        from repro.core.mrbc_congest import mrbc_congest

        srcs = sample_sources(g, 4, seed=3)
        with obs.session(comm=ledger):
            mrbc_congest(g, sources=srcs)
        assert not ledger.violations
        words, _ = ledger.max_channel_words()
        assert 0 < words <= ledger.bound_words


class TestConformance:
    def test_small_suite_passes_end_to_end(self):
        cases = [
            CommCheckCase("t-mrbc", "mrbc", "er:30:3",
                          hosts=4, sources=4, batch=4, seed=3),
            CommCheckCase("t-congest", "mrbc-congest", "er:30:3",
                          hosts=4, sources=4, batch=4, seed=3),
        ]
        report = run_conformance(cases)
        bad = [r for r in report.results if not r.ok]
        assert report.ok, bad
        doc = report.to_dict()
        assert doc["verdict"] == "PASS"
        checks = {r.check for r in report.results}
        assert {"ledger-bytes-vs-run", "alpha-beta-wire",
                "delayed-sync-savings", "congest-channel-bound"} <= checks

    def test_sbbc_case_checks(self):
        results = run_case_checks(
            CommCheckCase("t-sbbc", "sbbc", "er:30:3",
                          hosts=4, sources=4, batch=4, seed=3)
        )
        assert results and all(r.ok for r in results)


class TestPersistence:
    def _engine_manifest(self, tmp_path):
        g = gen.erdos_renyi(30, 3.0, seed=11)
        ledger = CommLedger()
        srcs = sample_sources(g, 4, seed=3)
        with obs.session(comm=ledger):
            res = mrbc_engine(
                g, sources=srcs, batch_size=4, num_hosts=4
            )
        man = build_manifest(
            "mrbc", res.run, ClusterModel(4), ledger=ledger,
            graph_spec="er:30:3", num_hosts=4,
        )
        return res, man

    def test_manifest_carries_comm_summary(self, tmp_path):
        res, man = self._engine_manifest(tmp_path)
        gl = man.comm["planes"][PLANE_GLUON]
        assert gl["payload_bytes"] == res.run.total_bytes
        assert gl["messages"] == res.run.total_pair_messages
        path = tmp_path / "manifest.json"
        write_manifest(man, path)
        loaded = load_manifest(path)
        assert loaded.comm == man.comm

    def test_pre_ledger_manifest_still_loads(self, tmp_path):
        _, man = self._engine_manifest(tmp_path)
        path = tmp_path / "old.json"
        doc = man.to_dict()
        del doc["comm"]  # a snapshot written before the ledger existed
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_manifest(path)
        assert loaded.comm == {}
        assert loaded.algorithm == man.algorithm

    @staticmethod
    def _snap(comm):
        case = {
            "name": "c",
            "deterministic": {"bytes": 10, "rounds": 2},
            "wall_s": {"median": 0.01, "iqr": 0.001},
        }
        if comm is not None:
            case["comm"] = comm
        return {"cases": [case]}

    COMM = {"messages": 5, "values": 9, "payload_bytes": 80,
            "reduce_bytes": 48, "broadcast_bytes": 32}

    def test_bench_gates_comm_counts(self):
        assert compare_bench(
            self._snap(dict(self.COMM)), self._snap(dict(self.COMM)),
            wall="never",
        ).ok
        drift = dict(self.COMM, payload_bytes=81)
        cmp = compare_bench(
            self._snap(drift), self._snap(dict(self.COMM)), wall="never"
        )
        assert not cmp.ok
        assert any("comm.payload_bytes" in f
                   for f in cmp.cases[0].failures)

    def test_bench_tolerates_pre_ledger_baseline(self):
        cmp = compare_bench(
            self._snap(dict(self.COMM)), self._snap(None), wall="never"
        )
        assert cmp.ok
        assert any("no baseline yet" in n for n in cmp.cases[0].notes)

    def test_bench_rejects_dropped_comm_section(self):
        cmp = compare_bench(
            self._snap(None), self._snap(dict(self.COMM)), wall="never"
        )
        assert not cmp.ok


class TestCommCLI:
    def test_breakdown_json(self, capsys):
        rc = cli_main([
            "comm", "mrbc", "--graph", "er:30:3", "-k", "4",
            "--hosts", "4", "--batch", "4", "--format", "json",
            "--per-round", "--matrix",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["planes"][PLANE_GLUON]["messages"] > 0
        assert len(doc["host_matrix"]) == 4
        assert doc["per_round"]

    def test_congest_breakdown_reports_bound(self, capsys):
        rc = cli_main([
            "comm", "mrbc-congest", "--graph", "er:30:3", "-k", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max channel load" in out
        assert "violations: 0" in out

    def test_check_single_case_with_report(self, tmp_path, capsys):
        report = tmp_path / "comm-report.json"
        rc = cli_main([
            "comm", "mrbc", "--graph", "er:30:3", "-k", "4",
            "--batch", "4", "--check", "--report", str(report),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "commcheck verdict: PASS" in out
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["verdict"] == "PASS"
