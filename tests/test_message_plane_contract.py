"""Contract tests every ledger-recording MessagePlane must satisfy.

Both concrete planes — :class:`~repro.runtime.plane.GluonPlane`
(host-level reduce/broadcast) and :class:`~repro.runtime.plane
.CongestPlane` (per-edge channel exchange) — are driven through small
deterministic workloads and held to the same contract:

1. **Reconciliation** — :class:`CommLedger` totals equal the plane's own
   accounting (``RoundStats`` bytes / pair messages for Gluon,
   ``MessageStats`` messages / values / words for CONGEST) exactly, by
   construction rather than by sampling.
2. **Empty rounds** — a round that sends nothing across the wire records
   nothing in the ledger.
3. **Neutrality** — attaching a ledger changes no engine-visible
   accounting (deterministic signatures are identical with and without
   one), and termination detection (quiescence) is unaffected.

The shared assertions live in :class:`PlaneContractBase`; each plane
subclass provides ``drive()`` plus plane-specific reconciliation checks.

The same contract binds the :class:`~repro.obs.rounds.RoundLedger`
(:class:`RoundLedgerContractBase`): every round the plane executes
through :class:`~repro.runtime.superstep.SuperstepRuntime` appears in
the ledger exactly once (ledger totals == ``EngineRun`` round counts /
``rounds_executed``), units terminate by quiescence, and attachment is
signature-neutral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.congest.network import CongestNetwork
from repro.congest.program import BROADCAST, VertexProgram
from repro.engine.gluon import TARGET_ALL_PROXIES
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph import generators as gen
from repro.graph.generators import path_graph
from repro.obs.comm import (
    PLANE_CONGEST,
    PLANE_GLUON,
    WORD_BYTES,
    CommLedger,
)
from repro.obs.rounds import RoundLedger
from repro.runtime.arrays import ExchangeBatch
from repro.runtime.plane import GluonArrayPlane, GluonPlane
from repro.runtime.superstep import SuperstepRuntime

NUM_HOSTS = 4


#: Payload dtypes of the contract workload's staged rows: reduce
#: ``(gid, 1, float)`` and broadcast ``(gid, 0, 1, float)``.
REDUCE_DTYPES = (np.int64, np.float64)
BROADCAST_DTYPES = (np.int64, np.int64, np.float64)


@dataclass
class Reference:
    """The plane's own accounting, for reconciliation with the ledger."""

    messages: int
    payload_bytes: int
    nonempty_rounds: int
    signature: dict[str, Any]
    extra: Any = None


class PlaneContractBase:
    """Assertions every ledger-recording plane must pass."""

    plane_label: str

    def drive(self, ledger: CommLedger | None) -> Reference:
        raise NotImplementedError

    def test_ledger_reconciles_with_plane_accounting(self):
        ledger = CommLedger()
        ref = self.drive(ledger)
        tot = ledger.totals(self.plane_label)
        assert tot.messages == ref.messages
        assert tot.payload_bytes == ref.payload_bytes
        # Pair totals decompose the same grand total.
        pair_bytes = sum(
            t.payload_bytes for t in ledger.pair_totals(self.plane_label).values()
        )
        assert pair_bytes == ref.payload_bytes

    def test_empty_rounds_record_nothing(self):
        ledger = CommLedger()
        ref = self.drive(ledger)
        rounds = ledger.rounds(self.plane_label)
        assert all(rc.totals.messages > 0 for rc in rounds)
        assert len(rounds) == ref.nonempty_rounds

    def test_ledger_attachment_is_neutral(self):
        with_ledger = self.drive(CommLedger())
        without = self.drive(None)
        assert with_ledger.signature == without.signature


class TestGluonPlaneContract(PlaneContractBase):
    plane_label = PLANE_GLUON

    def drive(self, ledger: CommLedger | None) -> Reference:
        g = gen.erdos_renyi(40, 3.0, seed=13)
        pg = partition_graph(g, NUM_HOSTS, "cvc")
        plane = GluonPlane(pg)
        run = EngineRun(num_hosts=NUM_HOSTS)
        with obs.session(comm=ledger):
            for step in range(3):
                rs = run.new_round("forward")
                items: list[list] = [[] for _ in range(NUM_HOSTS)]
                for v in range(step, g.num_vertices, 4):
                    for h in pg.hosts_with_proxy(v).tolist():
                        items[h].append((v, 1, float(v)))
                plane.reduce_to_masters(items, 12, 1, rs)
            rs = run.new_round("backward")
            items = [[] for _ in range(NUM_HOSTS)]
            for v in range(0, g.num_vertices, 3):
                items[int(pg.master_of[v])].append((v, 0, 1, float(v)))
            plane.broadcast_from_masters(
                items, TARGET_ALL_PROXIES, 16, 1, rs
            )
            # An empty round: nothing staged, nothing may be recorded.
            rs = run.new_round("forward")
            plane.reduce_to_masters(
                [[] for _ in range(NUM_HOSTS)], 12, 1, rs
            )
        return Reference(
            messages=run.total_pair_messages,
            payload_bytes=run.total_bytes,
            nonempty_rounds=sum(
                1 for r in run.rounds if r.pair_messages > 0
            ),
            signature=run.deterministic_signature(),
            extra=run,
        )

    def test_per_host_bytes_match_round_stats(self):
        ledger = CommLedger()
        ref = self.drive(ledger)
        run = ref.extra
        out, inn = ledger.per_host_bytes(NUM_HOSTS)
        for h in range(NUM_HOSTS):
            assert out[h] == sum(int(r.bytes_out[h]) for r in run.rounds)
            assert inn[h] == sum(int(r.bytes_in[h]) for r in run.rounds)

    def test_host_matrix_row_and_column_sums(self):
        ledger = CommLedger()
        self.drive(ledger)
        m = ledger.host_matrix(NUM_HOSTS)
        out, inn = ledger.per_host_bytes(NUM_HOSTS)
        assert [sum(row) for row in m] == out
        assert [sum(m[s][d] for s in range(NUM_HOSTS))
                for d in range(NUM_HOSTS)] == inn


class TestGluonArrayPlaneContract(PlaneContractBase):
    """The columnar plane under the exact same contract and workload.

    Drives :class:`GluonArrayPlane` with the same logical items as
    :class:`TestGluonPlaneContract` (staged as one ExchangeBatch), so on top
    of the base contract we can assert its accounting is *identical* to
    the tuple plane's, byte for byte.
    """

    plane_label = PLANE_GLUON

    def drive(self, ledger: CommLedger | None) -> Reference:
        g = gen.erdos_renyi(40, 3.0, seed=13)
        pg = partition_graph(g, NUM_HOSTS, "cvc")
        plane = GluonArrayPlane(pg)
        run = EngineRun(num_hosts=NUM_HOSTS)
        with obs.session(comm=ledger):
            for step in range(3):
                rs = run.new_round("forward")
                items: list[list] = [[] for _ in range(NUM_HOSTS)]
                for v in range(step, g.num_vertices, 4):
                    for h in pg.hosts_with_proxy(v).tolist():
                        items[h].append((v, 1, float(v)))
                staged = ExchangeBatch.from_tuples(items, REDUCE_DTYPES)
                plane.reduce_to_masters(staged, 12, 1, rs)
            rs = run.new_round("backward")
            items = [[] for _ in range(NUM_HOSTS)]
            for v in range(0, g.num_vertices, 3):
                items[int(pg.master_of[v])].append((v, 0, 1, float(v)))
            plane.broadcast_from_masters(
                ExchangeBatch.from_tuples(items, BROADCAST_DTYPES),
                TARGET_ALL_PROXIES,
                16,
                1,
                rs,
            )
            # An empty round: nothing staged, nothing may be recorded.
            rs = run.new_round("forward")
            plane.reduce_to_masters(
                ExchangeBatch.empty(NUM_HOSTS, REDUCE_DTYPES), 12, 1, rs
            )
        return Reference(
            messages=run.total_pair_messages,
            payload_bytes=run.total_bytes,
            nonempty_rounds=sum(
                1 for r in run.rounds if r.pair_messages > 0
            ),
            signature=run.deterministic_signature(),
            extra=run,
        )

    def test_accounting_identical_to_tuple_plane(self):
        array_ledger = CommLedger()
        array_ref = self.drive(array_ledger)
        tuple_ledger = CommLedger()
        tuple_ref = TestGluonPlaneContract().drive(tuple_ledger)
        assert array_ref.signature == tuple_ref.signature
        assert array_ledger.totals(PLANE_GLUON) == tuple_ledger.totals(
            PLANE_GLUON
        )
        assert array_ledger.pair_totals(PLANE_GLUON) == tuple_ledger.pair_totals(
            PLANE_GLUON
        )

    def test_per_host_bytes_match_round_stats(self):
        ledger = CommLedger()
        ref = self.drive(ledger)
        run = ref.extra
        out, inn = ledger.per_host_bytes(NUM_HOSTS)
        for h in range(NUM_HOSTS):
            assert out[h] == sum(int(r.bytes_out[h]) for r in run.rounds)
            assert inn[h] == sum(int(r.bytes_in[h]) for r in run.rounds)


class Flood(VertexProgram):
    """Vertex 0 starts a token; each holder broadcasts it exactly once."""

    def setup(self, ctx):
        super().setup(ctx)
        self.have = ctx.vid == 0
        self.sent = False

    def compute_sends(self, rnd):
        if self.have and not self.sent:
            self.sent = True
            return [(BROADCAST, ("tok", 1))]
        return []

    def handle_message(self, rnd, sender, payload):
        self.have = True

    def has_pending_work(self, rnd):
        return self.have and not self.sent


class TestCongestPlaneContract(PlaneContractBase):
    plane_label = PLANE_CONGEST

    def drive(self, ledger: CommLedger | None) -> Reference:
        net = CongestNetwork(
            path_graph(8, bidirectional=False), lambda v: Flood()
        )
        with obs.session(comm=ledger):
            res = net.run(20, detect_quiescence=True)
        return Reference(
            messages=res.stats.messages,
            payload_bytes=res.stats.words * WORD_BYTES,
            nonempty_rounds=sum(1 for c in res.sends_per_round if c),
            signature={
                "messages": res.stats.messages,
                "values": res.stats.values,
                "words": res.stats.words,
                "rounds_executed": res.rounds_executed,
                "terminated_by": res.terminated_by,
            },
            extra=res,
        )

    def test_values_and_words_match_message_stats(self):
        ledger = CommLedger()
        ref = self.drive(ledger)
        res = ref.extra
        tot = ledger.totals(PLANE_CONGEST)
        assert tot.values == res.stats.values
        assert tot.words == res.stats.words

    def test_quiescence_detection_with_ledger_attached(self):
        ledger = CommLedger()
        ref = self.drive(ledger)
        res = ref.extra
        assert res.terminated_by == "quiescence"
        # The quiet tail rounds after the last send left no ledger rows.
        assert all(
            rc.round_index <= res.last_send_round
            for rc in ledger.rounds(PLANE_CONGEST)
        )


# -- the round-ledger contract ------------------------------------------------


class RoundLedgerContractBase:
    """Assertions binding the :class:`RoundLedger` to a plane's rounds.

    Same shape as the comm contract: ``drive_rounds()`` runs a small
    deterministic workload through the plane's *runtime-owned* round
    loop with the given ledger attached and returns ``(ledger,
    signature, engine_result)``.
    """

    def drive_rounds(
        self, rledger: RoundLedger | None
    ) -> tuple[RoundLedger | None, dict[str, Any], Any]:
        raise NotImplementedError

    def test_round_ledger_attachment_is_neutral(self):
        _, with_sig, _ = self.drive_rounds(RoundLedger())
        _, without_sig, _ = self.drive_rounds(None)
        assert with_sig == without_sig

    def test_units_terminate_by_quiescence(self):
        rledger, _, _ = self.drive_rounds(RoundLedger())
        units = rledger.units()
        assert units
        assert all(
            u.terminated_by in ("quiescence", "stopped") for u in units
        )
        assert rledger.recovery_rounds() == 0


class TestGluonRoundLedgerContract(RoundLedgerContractBase):
    def drive_rounds(
        self, rledger: RoundLedger | None
    ) -> tuple[RoundLedger | None, dict[str, Any], Any]:
        g = gen.erdos_renyi(40, 3.0, seed=13)
        pg = partition_graph(g, NUM_HOSTS, "cvc")
        plane = GluonPlane(pg)
        runtime = SuperstepRuntime(plane=plane)

        def step(rnd, rs):
            items: list[list] = [[] for _ in range(NUM_HOSTS)]
            fired = 0
            for v in range(rnd - 1, g.num_vertices, 8):
                fired += 1
                for h in pg.hosts_with_proxy(v).tolist():
                    items[h].append((v, 1, float(v)))
            plane.reduce_to_masters(items, 12, 1, rs)
            rl = obs.current().rounds
            if rl is not None:
                rl.note(frontier=fired, settled=fired)
            return rnd < 3

        with obs.session(rounds=rledger):
            with runtime.phase("forward", batch=0):
                runtime.run_loop("forward", step)
            with runtime.phase("backward", batch=0):
                runtime.run_loop("backward", step)
        return rledger, runtime.run.deterministic_signature(), runtime.run

    def test_ledger_reconciles_with_engine_run(self):
        rledger, _, run = self.drive_rounds(RoundLedger())
        assert rledger.total_rounds() == run.num_rounds
        assert rledger.rounds_by_phase() == {
            "forward": run.rounds_in_phase("forward"),
            "backward": run.rounds_in_phase("backward"),
        }

    def test_units_carry_phase_span_attribution(self):
        rledger, _, _ = self.drive_rounds(RoundLedger())
        assert [
            (u.phase, u.label) for u in rledger.units()
        ] == [("forward", "batch=0"), ("backward", "batch=0")]

    def test_noted_state_accumulates_per_round(self):
        rledger, _, _ = self.drive_rounds(RoundLedger())
        (fwd,) = rledger.units("forward")
        # range(rnd-1, 40, 8) fires 5 pairs in each of the 3 rounds.
        assert fwd.convergence() == [5, 5, 5]
        assert fwd.total_settled == 15
        assert rledger.max_frontier() == 5


class TestGluonArrayRoundLedgerContract(TestGluonRoundLedgerContract):
    """The same runtime-owned round-loop contract on the columnar plane."""

    def drive_rounds(
        self, rledger: RoundLedger | None
    ) -> tuple[RoundLedger | None, dict[str, Any], Any]:
        g = gen.erdos_renyi(40, 3.0, seed=13)
        pg = partition_graph(g, NUM_HOSTS, "cvc")
        plane = GluonArrayPlane(pg)
        runtime = SuperstepRuntime(plane=plane)

        def step(rnd, rs):
            items: list[list] = [[] for _ in range(NUM_HOSTS)]
            fired = 0
            for v in range(rnd - 1, g.num_vertices, 8):
                fired += 1
                for h in pg.hosts_with_proxy(v).tolist():
                    items[h].append((v, 1, float(v)))
            staged = ExchangeBatch.from_tuples(items, REDUCE_DTYPES)
            plane.reduce_to_masters(staged, 12, 1, rs)
            rl = obs.current().rounds
            if rl is not None:
                rl.note(frontier=fired, settled=fired)
            return rnd < 3

        with obs.session(rounds=rledger):
            with runtime.phase("forward", batch=0):
                runtime.run_loop("forward", step)
            with runtime.phase("backward", batch=0):
                runtime.run_loop("backward", step)
        return rledger, runtime.run.deterministic_signature(), runtime.run


class TestCongestRoundLedgerContract(RoundLedgerContractBase):
    def drive_rounds(
        self, rledger: RoundLedger | None
    ) -> tuple[RoundLedger | None, dict[str, Any], Any]:
        net = CongestNetwork(
            path_graph(8, bidirectional=False), lambda v: Flood()
        )
        with obs.session(rounds=rledger):
            res = net.run(20, detect_quiescence=True)
        sig = {
            "messages": res.stats.messages,
            "values": res.stats.values,
            "words": res.stats.words,
            "rounds_executed": res.rounds_executed,
            "terminated_by": res.terminated_by,
        }
        return rledger, sig, res

    def test_ledger_reconciles_with_network_result(self):
        rledger, _, res = self.drive_rounds(RoundLedger())
        assert rledger.total_rounds() == res.rounds_executed
        (unit,) = rledger.units("congest")
        # The plane's per-round channel counts are the network's own
        # sends-per-round series, row for row.
        assert [r.channels for r in unit.rounds] == res.sends_per_round
        assert sum(r.values for r in unit.rounds) == res.stats.values

    def test_comm_totals_unchanged_by_round_ledger(self):
        def run_with(comm, rounds):
            net = CongestNetwork(
                path_graph(8, bidirectional=False), lambda v: Flood()
            )
            with obs.session(comm=comm, rounds=rounds):
                net.run(20, detect_quiescence=True)

        alone = CommLedger()
        run_with(alone, None)
        both = CommLedger()
        run_with(both, RoundLedger())
        assert both.totals(PLANE_CONGEST) == alone.totals(PLANE_CONGEST)
