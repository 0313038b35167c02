"""The columnar plane's flat exchange against the tuple plane.

:class:`~repro.runtime.plane.GluonArrayPlane` moves one host-sorted
:class:`~repro.runtime.arrays.ExchangeBatch` per exchange and accounts
every host pair of it in one call.  Driven with the same logical items
as :class:`~repro.runtime.plane.GluonPlane`, it must be unobservable:
identical inboxes (destination-sorted, senders ascending within a
destination, staging order within a sender), identical
``RoundStats``/signatures, identical :class:`CommLedger` rows and — with
an enabled sink — identical ``gluon.*`` metric series, including the
zero-valued counters an empty exchange creates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.gluon import (
    TARGET_ALL_PROXIES,
    TARGET_IN_EDGES,
    TARGET_OUT_EDGES,
)
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph import generators as gen
from repro.obs.comm import PLANE_GLUON, CommLedger
from repro.obs.sinks import MemorySink
from repro.runtime.arrays import ExchangeBatch
from repro.runtime.errors import UnknownBroadcastTargetError
from repro.runtime.plane import GluonArrayPlane, GluonPlane

TARGETS = (TARGET_OUT_EDGES, TARGET_IN_EDGES, TARGET_ALL_PROXIES)
#: Payload columns of every staged row: (source slot, distance, σ).
DTYPES = (np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.float64))


@pytest.mark.parametrize("plane_cls", [GluonPlane, GluonArrayPlane])
def test_unknown_broadcast_target_raises(plane_cls):
    pg = partition_graph(gen.erdos_renyi(12, 2.0, seed=1), 2, "cvc")
    plane = plane_cls(pg)
    staged = [[], []]
    if plane_cls is GluonArrayPlane:
        staged = ExchangeBatch.from_tuples(staged, DTYPES)
    rs = EngineRun(num_hosts=2).new_round("forward")
    with pytest.raises(UnknownBroadcastTargetError):
        plane.broadcast_from_masters(staged, "bogus", 12, 1, rs)


@st.composite
def exchanges(draw):
    """A partitioned random graph plus a few exchanges staged on it.

    Each exchange stages, per host, a random subset of the vertices it
    may send (proxies for a reduce, masters for a broadcast), each with
    1..batch_width source slots; a ``dense`` exchange stages all of them,
    which on larger graphs pushes it past 32 items.  One exchange always
    stages nothing at all.
    """
    n = draw(st.integers(2, 48))
    g = gen.erdos_renyi(n, draw(st.sampled_from([1.0, 2.5, 4.0])),
                        seed=draw(st.integers(0, 2**16)))
    hosts = draw(st.integers(1, 8))
    pg = partition_graph(g, hosts, draw(st.sampled_from(["cvc", "oec", "iec"])))
    width = draw(st.sampled_from([1, 1, 3, 8, 17]))
    plan = []
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["reduce", "broadcast"]))
        target = draw(st.sampled_from(TARGETS))
        dense = draw(st.booleans())
        staged: list[list[tuple]] = []
        for h in range(hosts):
            if op == "reduce":
                pool = [int(v) for v in pg.parts[h].gids]
            else:
                pool = np.flatnonzero(pg.master_of == h).tolist()
            items = []
            for v in pool:
                if not dense and not draw(st.booleans()):
                    continue
                slots = draw(st.integers(1, width))
                for si in range(slots):
                    items.append((v, si, draw(st.integers(0, 50)), float(v + si)))
            staged.append(items)
        plan.append((op, target, staged))
    empty = [[] for _ in range(hosts)]
    plan.insert(draw(st.integers(0, len(plan))),
                (draw(st.sampled_from(["reduce", "broadcast"])),
                 TARGET_ALL_PROXIES, empty))
    return pg, width, plan


def _drive(pg, width, plan, columnar: bool):
    plane = GluonArrayPlane(pg) if columnar else GluonPlane(pg)
    run = EngineRun(num_hosts=pg.num_hosts)
    ledger = CommLedger()
    inboxes = []
    with obs.session(sink=MemorySink(), comm=ledger) as tele:
        for i, (op, target, staged) in enumerate(plan):
            # Alternate phases and mark one round as recovery so the
            # ledger's phase keys are exercised too.
            rs = run.new_round("forward" if i % 2 else "backward",
                               recovery=i == 2)
            items = ExchangeBatch.from_tuples(staged, DTYPES) if columnar else staged
            if op == "reduce":
                out = plane.reduce_to_masters(items, 16, width, rs)
            else:
                out = plane.broadcast_from_masters(items, target, 16, width, rs)
            if columnar:
                assert np.all(np.diff(out.host) >= 0)
                out = out.to_tuples()
            inboxes.append([list(map(tuple, box)) for box in out])
        metrics = [
            rec for rec in tele.metrics.snapshot()
            if rec["name"].startswith("gluon.")
        ]
    return run, ledger, inboxes, metrics


@settings(max_examples=60, deadline=None)
@given(exchanges())
def test_flat_exchange_matches_tuple_plane(case):
    pg, width, plan = case
    t_run, t_led, t_inbox, t_metrics = _drive(pg, width, plan, columnar=False)
    a_run, a_led, a_inbox, a_metrics = _drive(pg, width, plan, columnar=True)

    assert a_inbox == t_inbox
    assert a_run.deterministic_signature() == t_run.deterministic_signature()
    for a, t in zip(a_run.rounds, t_run.rounds):
        for field in ("bytes_out", "bytes_in", "msgs_out", "msgs_in"):
            assert np.array_equal(getattr(a, field), getattr(t, field))
        assert (a.pair_messages, a.items_synced, a.proxies_synced) == (
            t.pair_messages, t.items_synced, t.proxies_synced
        )
    assert a_led.summary(top=64) == t_led.summary(top=64)
    assert a_led.per_round() == t_led.per_round()
    assert a_led.pair_totals(PLANE_GLUON) == t_led.pair_totals(PLANE_GLUON)
    assert [sorted(rc.pairs.items()) for rc in a_led.rounds()] == [
        sorted(rc.pairs.items()) for rc in t_led.rounds()
    ]
    assert a_metrics == t_metrics
