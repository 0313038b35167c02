"""Betweenness-centrality benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload mrbc-webcrawl --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The load is a closed loop: one thread
runs one solve at a time, each with a ``CommLedger`` and a ``RoundLedger``
attached on a null sink.  Every solve is checked against ``brandes_bc`` on
the same sources and against the first solve's counts; a solve that raises
or fails a check counts as failed.

Solve throughput is reported in host-reference time (``sources_per_kref``):
``hostref.work``, a fixed computation outside the program, is timed in
bursts between the solves, and a kref is the time 1000 of its calls take.
Wall-time throughput is printed too, but it moves with the host's load.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced solves, reports per-layer self time from the traced ones
and writes their spans to ``perfbench/out/<workload>.spans.jsonl``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# Single-threaded BLAS, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostref  # noqa: E402
import layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their spans.
OUT_DIR = ROOT / "perfbench" / "out"
#: Set-ups and ``hostref.work`` run in short bursts, once before timing
#: and after each solve, so that both sample the same seconds as the
#: solves: the host's speed drifts over tens of seconds.
SETUP_BURST_S = 0.05
HOST_BURST_S = 0.3
#: Timed solves per run even when ``--seconds`` runs out first.
MIN_SOLVES = 5


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def burst(fn, seconds):
    """Calls ``fn()`` until ``seconds`` have passed (at least once); returns
    its results and the seconds taken."""
    t0 = time.perf_counter()
    results = []
    while True:
        results.append(fn())
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return results, elapsed


def bursts(wl, w, seed, setups, refs):
    """One burst of set-ups, whose times go to ``setups`` (the inputs are
    discarded), and one of ``hostref.work``, whose mean seconds per call
    goes to ``refs``."""
    built, _ = burst(lambda: wl.build_inputs(w, seed), SETUP_BURST_S)
    setups.extend(inp.times for inp in built)
    done, elapsed = burst(hostref.work, HOST_BURST_S)
    refs.append(elapsed / len(done))


class Runner:
    """Solves one workload's inputs and keeps the failure tally."""

    def __init__(self, wl, w, inp, ref):
        self.wl = wl
        self.w = w
        self.inp = inp
        self.ref = ref
        self.first = None
        self.first_rounds = None
        self.attempted = 0
        self.failed = 0

    def solve(self, rec=None):
        """One checked solve; returns its wall seconds (None if it raised)."""
        wl, w, inp = self.wl, self.w, self.inp
        self.attempted += 1
        # Each solve starts with no garbage left by the one before.
        gc.collect()
        session, comm, rounds = wl.ledger_session()
        try:
            with session:
                t0 = time.perf_counter()
                if rec is None:
                    res = wl.call_engine(w, inp)
                else:
                    res = rec.call("driver", wl.call_engine, (w, inp), {})
                dt = time.perf_counter() - t0
            got = wl.counts(w, res, comm, rounds, inp.graph.num_vertices)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if self.first is None:
            self.first, self.first_rounds = got, rounds
        if not wl.bc_matches(res.bc, self.ref):
            print(f"perfbench: solve {self.attempted}: BC differs from brandes_bc", file=sys.stderr)
            self.failed += 1
        elif got != self.first:
            print(f"perfbench: solve {self.attempted}: counts {got} != first {self.first}", file=sys.stderr)
            self.failed += 1
        return dt


def sources_per_s(w, walls):
    """Sources solved over seconds spent solving, across the whole run.

    The host's speed flips between a fast and a ~1.5x slower state for
    seconds at a time, so a median of solves jumps between the two while
    the total tracks the share of time spent in each.
    """
    total = sum(walls)
    return w.sources * len(walls) / total if total > 0 else 0.0


def end_to_end(runner, setups, walls, refs):
    w = runner.w
    first = runner.first or {"rounds": 0, "messages": 0, "comm_bytes": 0, "sim_s": 0.0}
    return {
        # Throughput in host-reference time: a kref is the time of 1000
        # ``hostref.work`` calls, measured between this run's solves.  The
        # host's speed moves both solves and reference alike, so the ratio
        # keeps only what the program changes.  On a 2-vCPU share of a busy
        # host, wall-time sources_per_s of one build spread by 29% of its
        # median (IQR) over ten 50-s runs, this ratio by under 10% over ten
        # 24-s runs.
        "sources_per_kref": (sources_per_s(w, walls) * statistics.fmean(refs) * 1000, "1/kref"),
        "setup_s": (_median([s.setup_s for s in setups]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "rounds": (first["rounds"], "count"),
        "messages": (first["messages"], "count"),
        "comm_bytes": (first["comm_bytes"], "bytes"),
        "sim_s": (first["sim_s"], "s"),
    }


def per_layer(runner, setups, plain, traced, refs):
    """Layer metrics from the traced solves: ``traced`` is a list of
    ``(wall_s, solve_layers(...))`` and ``plain`` the untraced walls."""
    out = {
        "solve.sources_per_s": (sources_per_s(runner.w, plain), "1/s"),
        "host.ref_s": (statistics.fmean(refs), "s"),
    }
    rounds = runner.first["rounds"] if runner.first else 0
    for name in layers.LAYERS:
        selfs = [lay[name]["self_s"] for _wall, lay in traced]
        calls = traced[0][1][name]["calls"] if traced else 0
        out[f"{name}.self_s"] = (_median(selfs), "s")
        out[f"{name}.share"] = (_median([lay[name]["self_s"] / wall for wall, lay in traced]), "ratio")
        out[f"{name}.calls"] = (calls, "count")
    per_round = 1e6 / rounds if rounds else 0.0
    out["kernel.us_per_round"] = (out["kernel.self_s"][0] * per_round, "us")
    out["runtime.us_per_round"] = (out["runtime.self_s"][0] * per_round, "us")
    ex = traced[0][1]["exchange"] if traced else {"calls": 0}
    ncalls = ex["calls"]
    out["exchange.us_per_call"] = (out["exchange.self_s"][0] * 1e6 / ncalls if ncalls else 0.0, "us")
    out["exchange.items_per_call"] = (ex["items"] / ncalls if ncalls else 0.0, "count")
    out["exchange.empty_frac"] = (ex["empty"] / ncalls if ncalls else 0.0, "ratio")
    out["arena.bytes"] = (traced[0][1]["arena"]["items"] if traced else 0, "bytes")
    out["graph.build_s"] = (_median([s.graph_s for s in setups]), "s")
    out["partition.build_s"] = (_median([s.partition_s for s in setups]), "s")
    ledger = runner.first_rounds
    frontiers = [f for u in ledger.units() for f in u.convergence()] if ledger else []
    out["frontier.max"] = (ledger.max_frontier() if ledger else 0, "count")
    out["frontier.mean"] = (sum(frontiers) / len(frontiers) if frontiers else 0.0, "count")
    tmed, pmed = _median([wall for wall, _lay in traced]), _median(plain)
    out["trace.overhead"] = (tmed / pmed - 1.0 if pmed > 0 else 0.0, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: program source not found at {src / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(options: {', '.join(wl.WORKLOADS)})", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]

    inp = wl.build_inputs(w, args.seed)
    ref = wl.reference_bc(inp)
    runner = Runner(wl, w, inp, ref)
    runner.solve()  # untimed warm-up; its counts are the reference counts

    plain, traced, setups, refs = [], [], [inp.times], []
    bursts(wl, w, args.seed, setups, refs)
    rec = layers.SpanRecorder()
    deadline = time.perf_counter() + args.seconds
    iterations = 0
    while time.perf_counter() < deadline or iterations < MIN_SOLVES:
        iterations += 1
        dt = runner.solve()
        if dt is not None:
            plain.append(dt)
        if args.trace:
            rec.solve += 1
            base = len(rec.spans)
            inst = layers.install(rec)
            try:
                dt = runner.solve(rec)
            finally:
                layers.uninstall(inst)
            if inst.missing:
                print("perfbench: hooks not found: " + ", ".join(inst.missing), file=sys.stderr)
            if dt is not None:
                traced.append((dt, layers.solve_layers(rec.spans[base:], base)))
        bursts(wl, w, args.seed, setups, refs)

    g = inp.graph
    print(f"# perfbench workload={w.name} seed={args.seed} trace={args.trace}")
    print(f"# env python={platform.python_version()} numpy={np.__version__} "
          f"nproc={os.cpu_count()} threads=1")
    print(f"# input engine={w.engine} graph={w.graph} n={g.num_vertices} "
          f"m={g.num_edges} hosts={w.hosts} k={w.sources} batch={w.batch}")
    print(f"# solve_s median={_median(plain):.6f} iqr={_iqr(plain):.6f} "
          f"mean={statistics.fmean(plain) if plain else 0.0:.6f} samples={len(plain)}")
    print("# solve_s samples: " + " ".join(f"{x:.6f}" for x in plain))
    print(f"# sources_per_s={sources_per_s(w, plain):.6f} (wall)")
    print(f"# host_ref_s mean={statistics.fmean(refs):.6f} median={_median(refs):.6f} "
          f"iqr={_iqr(refs):.6f} samples={len(refs)}")
    if args.trace:
        walls = [wall for wall, _lay in traced]
        print(f"# traced_solve_s median={_median(walls):.6f} iqr={_iqr(walls):.6f} "
              f"samples={len(walls)}")
        metrics = per_layer(runner, setups, plain, traced, refs)
        OUT_DIR.mkdir(exist_ok=True)
        layers.write_spans(rec, str(OUT_DIR / f"{w.name}.spans.jsonl"))
    else:
        metrics = end_to_end(runner, setups, plain, refs)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
