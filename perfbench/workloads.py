"""Workloads, seeded inputs, solves and the per-solve correctness check.

Every call into the program goes through its public functions:
``from_spec``, ``partition_graph`` and ``sample_sources`` build the inputs,
``mrbc_engine``, ``sbbc_engine`` and ``mrbc_congest_batched`` solve, and
``brandes_bc`` gives the reference result.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.baselines.brandes import brandes_bc
from repro.baselines.sbbc import sbbc_engine
from repro.cluster.model import ClusterModel
from repro.core.mrbc import mrbc_engine
from repro.core.mrbc_congest import mrbc_congest_batched
from repro.core.sampling import sample_sources
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph.generators import from_spec
from repro.obs.comm import PLANE_CONGEST, CommLedger
from repro.obs.rounds import RoundLedger


@dataclass(frozen=True)
class Workload:
    name: str
    #: "mrbc" | "sbbc" | "congest"
    engine: str
    #: Generator spec.  The graph is the workload's fixed dataset (the
    #: generator's default seed); ``--seed`` draws the source sample, as
    #: the paper samples sources on fixed graphs.  Seeding the generator
    #: too swung webcrawl rounds between 428 and 920, so medians across
    #: seeds would have measured the generator rather than the code.
    graph: str
    #: Simulated hosts; 0 for CONGEST, which has no partition.
    hosts: int
    sources: int
    #: Sources per batch (SBBC solves one source at a time).
    batch: int


#: Why each workload is here, and which layer metric should move which
#: end-to-end metric on it, is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mrbc-rmat", "mrbc", "rmat:11:8", hosts=8, sources=128, batch=32),
        Workload("mrbc-webcrawl", "mrbc", "webcrawl:600:400", hosts=8, sources=192, batch=16),
        Workload("sbbc-road", "sbbc", "grid:32:32", hosts=8, sources=64, batch=1),
        Workload("congest-mrbc", "congest", "er:400:4", hosts=0, sources=64, batch=16),
    )
}


@dataclass
class SetupTimes:
    """What building one workload's inputs cost, by step."""

    graph_s: float
    partition_s: float
    sample_s: float

    @property
    def setup_s(self) -> float:
        return self.graph_s + self.partition_s + self.sample_s


@dataclass
class Inputs:
    """Everything handed to the engine, plus what building it cost."""

    graph: Any
    partition: Any
    sources: np.ndarray
    times: SetupTimes


def build_inputs(w: Workload, seed: int) -> Inputs:
    """Generate the graph, partition it and sample the sources."""
    t0 = time.perf_counter()
    g = from_spec(w.graph)
    t1 = time.perf_counter()
    pg = partition_graph(g, w.hosts) if w.hosts else None
    t2 = time.perf_counter()
    src = sample_sources(g, w.sources, mode="uniform", seed=seed)
    t3 = time.perf_counter()
    return Inputs(g, pg, src, SetupTimes(t1 - t0, t2 - t1, t3 - t2))


def _plane_kwargs(fn: Any) -> dict[str, str]:
    # The columnar tier is selected by ``plane="array"`` while the engines
    # still offer a choice; once the parameter is retired the only tier
    # left is the one to measure, and the call needs no edit.
    if "plane" in inspect.signature(fn).parameters:
        return {"plane": "array"}
    return {}


_MRBC_KW = _plane_kwargs(mrbc_engine)
_SBBC_KW = _plane_kwargs(sbbc_engine)


def call_engine(w: Workload, inp: Inputs) -> Any:
    """One solve: the engine call alone, as the timed region sees it."""
    if w.engine == "mrbc":
        return mrbc_engine(
            inp.graph,
            sources=inp.sources,
            batch_size=w.batch,
            num_hosts=w.hosts,
            partition=inp.partition,
            **_MRBC_KW,
        )
    if w.engine == "sbbc":
        return sbbc_engine(
            inp.graph,
            sources=inp.sources,
            num_hosts=w.hosts,
            partition=inp.partition,
            **_SBBC_KW,
        )
    if w.engine == "congest":
        return mrbc_congest_batched(inp.graph, inp.sources, batch_size=w.batch)
    raise ValueError(f"unknown engine {w.engine!r}")


def ledger_session() -> tuple[Any, CommLedger, RoundLedger]:
    """A null-sink session with both ledgers attached, as every solve runs."""
    comm, rounds = CommLedger(), RoundLedger()
    return obs.session(comm=comm, rounds=rounds), comm, rounds


def congest_sim_s(comm: CommLedger, rounds: RoundLedger, n: int) -> float:
    """``ClusterModel`` time of a CONGEST run, every vertex a host.

    CONGEST runs return no ``EngineRun``, so one is rebuilt from the two
    ledgers: a round per ``RoundLedger`` round (one unit and one comm
    epoch per network run, in the same order), and per-vertex bytes and
    messages from that round's channel records.
    """
    by_round = {(rc.epoch, rc.round_index): rc for rc in comm.rounds(PLANE_CONGEST)}
    run = EngineRun(num_hosts=n)
    placed = 0
    for epoch, unit in enumerate(rounds.units(), start=1):
        for rnd in range(1, unit.num_rounds + 1):
            rs = run.new_round("congest")
            rc = by_round.get((epoch, rnd))
            if rc is None:
                continue
            placed += 1
            for (src, dst), t in rc.pairs.items():
                rs.bytes_out[src] += t.payload_bytes
                rs.bytes_in[dst] += t.payload_bytes
                rs.msgs_out[src] += t.messages
                rs.msgs_in[dst] += t.messages
    if placed != len(by_round):
        raise RuntimeError("CONGEST comm records do not line up with the round ledger")
    return ClusterModel(n).time_run(run).total


def counts(w: Workload, res: Any, comm: CommLedger, rounds: RoundLedger, n: int) -> dict[str, float]:
    """The solve's deterministic outcome counts."""
    if w.engine == "congest":
        return {
            "rounds": res.total_rounds,
            "messages": res.total_messages,
            "comm_bytes": comm.totals(PLANE_CONGEST).payload_bytes,
            "sim_s": congest_sim_s(comm, rounds, n),
        }
    return {
        "rounds": res.total_rounds,
        "messages": res.run.total_pair_messages,
        "comm_bytes": res.run.total_bytes,
        "sim_s": ClusterModel(w.hosts).time_run(res.run).total,
    }


def reference_bc(inp: Inputs) -> np.ndarray:
    return brandes_bc(inp.graph, sources=inp.sources)


def bc_matches(bc: np.ndarray, ref: np.ndarray) -> bool:
    """The tier-1 tests' tolerance: ``np.allclose`` against Brandes."""
    return bc.shape == ref.shape and bool(np.allclose(bc, ref))
