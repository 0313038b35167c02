"""Per-layer spans: wrappers around the program's layer entry points.

The wrappers are installed only for traced solves and removed after each
one.  Only per-round and per-exchange entry points are wrapped; per-message
and per-vertex hooks (``CommLedger.record``, ``record_pair_message``,
``VertexProgram.compute_sends``, ``handle_message``) are left alone, since
wrapping them costs more than the work they do.

A span is ``(layer, start, end, parent, solve, items)``; ``parent`` is the
index of the enclosing span (-1 for the root).  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, NamedTuple

import numpy as np

LAYERS = ("kernel", "exchange", "accounting", "ledger", "runtime", "arena", "driver")


class Span(NamedTuple):
    layer: str
    start: float
    end: float
    parent: int
    solve: int
    #: Exchange: items moved; arena construction: bytes allocated; else 0.
    items: int


class SpanRecorder:
    """Spans kept in memory, nested by a call stack (one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.solve = 0

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict,
             items: Callable[[tuple, Any], int] | None = None) -> Any:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
        n = items(args, out) if items is not None else 0
        self.spans[idx] = Span(layer, t0, t1, parent, self.solve, n)
        return out


def self_times(spans: list[Span], base: int = 0) -> list[float]:
    """Self time of each span in ``spans``, the recorder's spans from index
    ``base`` on (``parent`` indices count from the recorder's start)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= base:
            covered[s.parent - base] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _block_items(args: tuple, _out: Any) -> int:
    # reduce_to_masters / broadcast_from_masters(self, per_host_blocks, ...)
    return sum(len(b) for b in args[1] if b is not None)


def _congest_items(args: tuple, _out: Any) -> int:
    # exchange_round(self, rnd, result, ...) appends this round's channel
    # messages to result.sends_per_round.
    return args[2].sends_per_round[-1]


def _arena_bytes(args: tuple, _out: Any) -> int:
    arena = args[0]
    return sum(
        getattr(arena, name).nbytes
        for name in type(arena).__slots__
        if isinstance(getattr(arena, name, None), np.ndarray)
    )


#: (module, class, method, layer, item counter)
HOOKS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("repro.runtime.superstep", "SuperstepRuntime", "run_loop", "runtime", None),
    ("repro.engine.stats", "EngineRun", "new_round", "runtime", None),
    ("repro.runtime.plane", "GluonArrayPlane", "reduce_to_masters", "exchange", _block_items),
    ("repro.runtime.plane", "GluonArrayPlane", "broadcast_from_masters", "exchange", _block_items),
    ("repro.runtime.plane", "CongestPlane", "exchange_round", "exchange", _congest_items),
    ("repro.engine.gluon", "GluonSubstrate", "account_column_pairs", "accounting", None),
    ("repro.obs.rounds", "RoundLedger", "begin_unit", "ledger", None),
    ("repro.obs.rounds", "RoundLedger", "open_round", "ledger", None),
    ("repro.obs.rounds", "RoundLedger", "note", "ledger", None),
    ("repro.obs.rounds", "RoundLedger", "close_round", "ledger", None),
    ("repro.obs.rounds", "RoundLedger", "end_unit", "ledger", None),
    ("repro.runtime.arrays", "HostArena", "__init__", "arena", _arena_bytes),
    ("repro.runtime.arrays", "HostArena", "reset_state", "arena", None),
)


def _wrap(rec: SpanRecorder, fn: Callable, layer: str, items: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return rec.call(layer, fn, args, kwargs, items)

    return wrapper


def _wrap_run_loop(rec: SpanRecorder, fn: Callable) -> Callable:
    # The ``step`` callable passed to the round loop is the engine's
    # per-round kernel; it gets its own span under the loop's.
    @functools.wraps(fn)
    def wrapper(self: Any, phase: str, step: Callable, *args: Any, **kwargs: Any) -> Any:
        def kernel(*a: Any, **kw: Any) -> Any:
            return rec.call("kernel", step, a, kw)

        return rec.call("runtime", fn, (self, phase, kernel) + args, kwargs)

    return wrapper


class Installed:
    """Wrappers currently installed, and the originals they replaced."""

    def __init__(self, originals: list[tuple[type, str, Any]], missing: list[str]) -> None:
        self.originals = originals
        self.missing = missing


def install(rec: SpanRecorder) -> Installed:
    """Replace each hooked method with a span-recording wrapper.

    A hook whose module, class or method no longer exists is skipped and
    named in ``Installed.missing``, so a refactor shows as a missing layer
    instead of a crash.
    """
    originals: list[tuple[type, str, Any]] = []
    missing: list[str] = []
    for mod, cls_name, meth, layer, items in HOOKS:
        try:
            cls = getattr(importlib.import_module(mod), cls_name)
            fn = cls.__dict__[meth]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{mod}.{cls_name}.{meth}")
            continue
        if meth == "run_loop":
            wrapped = _wrap_run_loop(rec, fn)
        else:
            wrapped = _wrap(rec, fn, layer, items)
        originals.append((cls, meth, fn))
        setattr(cls, meth, wrapped)
    return Installed(originals, missing)


def uninstall(inst: Installed) -> None:
    """Put every original back, checked by identity."""
    for cls, meth, fn in reversed(inst.originals):
        setattr(cls, meth, fn)
    for cls, meth, fn in inst.originals:
        if cls.__dict__[meth] is not fn:
            raise RuntimeError(f"{cls.__name__}.{meth} was not restored")
    inst.originals = []


def solve_layers(spans: list[Span], base: int) -> dict[str, dict[str, float]]:
    """Per layer: self seconds, calls, items and empty calls of one solve."""
    out = {name: {"self_s": 0.0, "calls": 0, "items": 0, "empty": 0} for name in LAYERS}
    for s, st in zip(spans, self_times(spans, base)):
        row = out[s.layer]
        row["self_s"] += st
        row["calls"] += 1
        row["items"] += s.items
        row["empty"] += s.items == 0
    return out


def write_spans(rec: SpanRecorder, path: str) -> None:
    """One JSON array per line: [solve, index, parent, layer, start, end, items]."""
    with open(path, "w") as f:
        for i, s in enumerate(rec.spans):
            if s is not None:
                f.write(f'[{s.solve},{i},{s.parent},"{s.layer}",{s.start!r},{s.end!r},{s.items}]\n')
