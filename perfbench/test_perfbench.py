"""Tests of the benchmark harness itself: ``python -m pytest perfbench``."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads as wl
from layers import Span

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = wl.Workload("tiny-mrbc", "mrbc", "er:40:3", hosts=2, sources=4, batch=2)


def test_self_time_of_nested_call_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    spans = [
        Span("driver", 0.0, 10.0, -1, 1, 0),
        Span("kernel", 1.0, 4.0, 0, 1, 0),
        Span("exchange", 2.0, 3.0, 1, 1, 5),
        Span("kernel", 5.0, 9.0, 0, 1, 0),
    ]
    assert layers.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # The same tree recorded after 7 earlier spans: parents count from there.
    shifted = [s._replace(parent=s.parent + 7 if s.parent >= 0 else -1) for s in spans]
    assert layers.self_times(shifted, base=7) == [3.0, 2.0, 1.0, 4.0]
    by_layer = layers.solve_layers(spans, 0)
    assert by_layer["kernel"]["self_s"] == 6.0 and by_layer["kernel"]["calls"] == 2
    assert by_layer["exchange"]["items"] == 5 and by_layer["exchange"]["empty"] == 0
    assert sum(row["self_s"] for row in by_layer.values()) == 10.0


def test_recorder_nests_spans_by_call():
    rec = layers.SpanRecorder()

    def inner():
        return 1

    def outer():
        return rec.call("kernel", inner, (), {}) + 1

    assert rec.call("driver", outer, (), {}) == 2
    driver, kernel = rec.spans
    assert driver.layer == "driver" and driver.parent == -1
    assert kernel.layer == "kernel" and kernel.parent == 0
    assert driver.start <= kernel.start <= kernel.end <= driver.end


def test_wrappers_are_removed_by_identity():
    before = {}
    for mod, cls_name, meth, _layer, _items in layers.HOOKS:
        cls = getattr(__import__(mod, fromlist=[cls_name]), cls_name)
        before[(cls, meth)] = cls.__dict__[meth]
    rec = layers.SpanRecorder()
    inst = layers.install(rec)
    assert inst.missing == []
    for (cls, meth), fn in before.items():
        assert cls.__dict__[meth] is not fn
    layers.uninstall(inst)
    for (cls, meth), fn in before.items():
        assert cls.__dict__[meth] is fn
    # Nothing records once the wrappers are gone.
    inp = wl.build_inputs(TINY, seed=1)
    wl.call_engine(TINY, inp)
    assert rec.spans == []


def test_traced_solve_covers_every_gluon_layer():
    inp = wl.build_inputs(TINY, seed=1)
    rec = layers.SpanRecorder()
    inst = layers.install(rec)
    try:
        session, _comm, _rounds = wl.ledger_session()
        with session:
            rec.call("driver", wl.call_engine, (TINY, inp), {})
    finally:
        layers.uninstall(inst)
    by_layer = layers.solve_layers(rec.spans, 0)
    for name in ("kernel", "exchange", "accounting", "ledger", "runtime", "arena", "driver"):
        assert by_layer[name]["calls"] > 0, name
    wall = rec.spans[0].end - rec.spans[0].start
    assert sum(row["self_s"] for row in by_layer.values()) == pytest.approx(wall)


def test_check_flags_a_perturbed_bc():
    inp = wl.build_inputs(TINY, seed=1)
    ref = wl.reference_bc(inp)
    res = wl.call_engine(TINY, inp)
    assert wl.bc_matches(res.bc, ref)
    bad = res.bc.copy()
    bad[int(np.argmax(bad))] *= 1.01
    assert not wl.bc_matches(bad, ref)
    assert not wl.bc_matches(res.bc[:-1], ref)


def test_runner_counts_a_wrong_solve_as_failed():
    inp = wl.build_inputs(TINY, seed=1)
    ref = wl.reference_bc(inp)
    ref[int(np.argmax(ref))] += 1.0
    runner = run.Runner(wl, TINY, inp, ref)
    assert runner.solve() is not None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_same_seed_same_inputs_other_seed_other_inputs():
    for w in wl.WORKLOADS.values():
        a, b, c = (wl.build_inputs(w, seed) for seed in (3, 3, 4))
        assert np.array_equal(a.sources, b.sources)
        assert np.array_equal(a.graph.out_offsets, b.graph.out_offsets)
        assert np.array_equal(a.graph.out_targets, b.graph.out_targets)
        assert not np.array_equal(a.sources, c.sources), w.name


def test_names_are_well_formed_and_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    names = list(wl.WORKLOADS)
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_metric(trace, section, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(wl.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    argv = ["--workload", TINY.name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_SOLVES * (1 + trace)
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert (tmp_path / f"{TINY.name}.spans.jsonl").stat().st_size > 0
