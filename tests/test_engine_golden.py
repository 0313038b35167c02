"""The golden engine record: pinned MRBC/SBBC cases and their recorded
outputs in ``tests/golden/engine_golden.json``.

Each case stores the run's full
:meth:`~repro.engine.stats.EngineRun.deterministic_signature`, its
forward/backward round counts and sha256 digests of the ``bc``,
``dist`` and ``sigma`` bytes; ``tests/test_plane_equivalence.py`` runs
every case against it.  The graph suite spans the paper's three regimes
(ER random, web-crawl with long tails, grid road) plus RMAT, across
single-host, uneven and full fan-out partitions; two cases add an
injected host crash with channel repair, pinning restart accounting.

Regenerate the fixture with ``PYTHONPATH=src python
tests/test_engine_golden.py``.  A regenerated fixture changes what
"correct" means, so every regeneration needs a CHANGES.md entry saying
why the recorded values moved.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

from repro.baselines.sbbc import sbbc_engine
from repro.core.mrbc import mrbc_engine
from repro.graph.generators import from_spec
from repro.resilience.context import ResilienceContext
from repro.resilience.plan import FaultPlan, FaultSpec

GOLDEN = Path(__file__).parent / "golden" / "engine_golden.json"

#: (graph spec, hosts, delayed_sync, batch) — MRBC axis.
MRBC_CASES = [
    ("er:60:3", 4, True, 8),
    ("er:60:3", 8, True, 4),
    ("er:60:3", 1, True, 8),
    ("er:60:3", 4, False, 8),
    ("er:200:4", 4, True, 8),
    ("grid:8:8", 8, True, 4),
    ("grid:8:8", 3, False, 5),
    ("webcrawl:120:80", 8, True, 8),
    ("rmat:8:8", 8, True, 8),
]

#: (graph spec, hosts) — SBBC axis.
SBBC_CASES = [
    ("er:60:3", 4),
    ("er:60:3", 8),
    ("er:60:3", 1),
    ("er:200:4", 8),
    ("grid:8:8", 3),
    ("webcrawl:120:80", 8),
    ("rmat:8:8", 8),
]


def _crash_ctx() -> ResilienceContext:
    return ResilienceContext(
        plan=FaultPlan(
            name="crash1",
            seed=7,
            specs=(FaultSpec(kind="crash", host=1, round=3),),
        ),
        mode="repair",
    )


def _mrbc(spec, hosts, delayed, batch):
    g = from_spec(spec, seed=7)
    return mrbc_engine(
        g,
        num_sources=min(24, g.num_vertices),
        batch_size=batch,
        num_hosts=hosts,
        delayed_sync=delayed,
        seed=7,
    )


def _sbbc(spec, hosts):
    g = from_spec(spec, seed=7)
    return sbbc_engine(g, sources=list(range(min(16, g.num_vertices))), num_hosts=hosts)


def _mrbc_crash():
    g = from_spec("er:60:3", seed=7)
    return mrbc_engine(
        g, num_sources=8, batch_size=4, num_hosts=4, seed=7, resilience=_crash_ctx()
    )


def _sbbc_crash():
    g = from_spec("er:60:3", seed=7)
    return sbbc_engine(g, sources=list(range(8)), num_hosts=4, resilience=_crash_ctx())


def mrbc_case_id(spec, hosts, delayed, batch) -> str:
    return f"mrbc/{spec}/h{hosts}/{'delayed' if delayed else 'eager'}/b{batch}"


def sbbc_case_id(spec, hosts) -> str:
    return f"sbbc/{spec}/h{hosts}"


def _cases() -> dict:
    """Case id -> (runner, args), in fixture order."""
    cases = {mrbc_case_id(*c): (_mrbc, c) for c in MRBC_CASES}
    cases.update({sbbc_case_id(*c): (_sbbc, c) for c in SBBC_CASES})
    cases["mrbc/crash-restart"] = (_mrbc_crash, ())
    cases["sbbc/crash-restart"] = (_sbbc_crash, ())
    return cases


def _digest(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def record(result) -> dict:
    """The golden record of one engine result (JSON-serialisable)."""
    return {
        "signature": result.run.deterministic_signature(),
        "forward_rounds": result.forward_rounds,
        "backward_rounds": result.backward_rounds,
        "bc": _digest(result.bc),
        "dist": _digest(result.dist),
        "sigma": _digest(result.sigma),
    }


def generate() -> dict:
    return {cid: record(fn(*args)) for cid, (fn, args) in _cases().items()}


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_matches_golden(cid: str) -> None:
    """Run case ``cid`` and compare it with its recorded values."""
    fn, args = _cases()[cid]
    assert record(fn(*args)) == _golden()[cid]


def test_fixture_covers_every_case():
    assert list(_golden()) == list(_cases())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
