"""Per-round and per-run statistics for the simulated engine.

These records are the raw material for the paper's measurements:

- **rounds** (Table 1): length of :attr:`EngineRun.rounds`;
- **communication volume** (Figure 2 bar labels): :attr:`EngineRun.total_bytes`;
- **load imbalance** (Table 1): ratio of max to mean per-host compute,
  averaged across rounds (:meth:`EngineRun.load_imbalance`);
- **computation / communication time breakdown** (Figures 2-3): produced
  by feeding an :class:`EngineRun` to :class:`repro.cluster.model.ClusterModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.timing import OpCounter


@dataclass
class RoundStats:
    """Statistics for a single BSP round."""

    round_index: int
    phase: str  # "forward" | "backward"
    #: Abstract work units per host for this round's compute phase.
    compute: list[OpCounter]
    #: Bytes leaving each host during this round's communication phase.
    bytes_out: np.ndarray
    #: Bytes arriving at each host.
    bytes_in: np.ndarray
    #: Aggregated pair messages leaving each host this round.
    msgs_out: np.ndarray = None  # type: ignore[assignment]
    #: Aggregated pair messages arriving at each host this round.
    msgs_in: np.ndarray = None  # type: ignore[assignment]
    #: Host-pair messages exchanged (Gluon sends one aggregated message
    #: per pair per round when there is data).
    pair_messages: int = 0
    #: Individual (vertex, source) label values synchronized.
    items_synced: int = 0
    #: Distinct vertex proxies touched by synchronization.
    proxies_synced: int = 0
    #: True for rounds that only exist because of a fault: retransmission
    #: rounds, stall barriers, and post-crash replays of lost rounds.
    recovery: bool = False

    @property
    def effective_phase(self) -> str:
        """Phase for time attribution: recovery rounds form their own phase.

        A replayed forward round keeps ``phase == "forward"`` (it runs the
        forward operator) but is *charged* to ``"recovery"`` — the paper's
        Figure 2 style breakdowns should show fault overhead separately,
        not inflate the algorithm's own phases.
        """
        return "recovery" if self.recovery else self.phase

    def charge(self, kind: str, per_host: np.ndarray) -> None:
        """Add per-host work units of one kind (``"vertex_ops"``,
        ``"edge_ops"`` or ``"struct_ops"``) from an array indexed by host."""
        for oc, c in zip(self.compute, per_host.tolist()):
            if c:
                setattr(oc, kind, getattr(oc, kind) + int(c))

    def max_compute_ops(self) -> int:
        """Work units of the busiest host (the BSP straggler)."""
        return max(c.total() for c in self.compute)

    def mean_compute_ops(self) -> float:
        """Average work units across hosts."""
        return float(np.mean([c.total() for c in self.compute]))

    def total_bytes(self) -> int:
        """Total bytes crossing the network this round."""
        return int(self.bytes_out.sum())

    def copy(self, round_index: int | None = None) -> "RoundStats":
        """Independent deep copy, optionally renumbered."""
        return RoundStats(
            round_index=self.round_index if round_index is None else round_index,
            phase=self.phase,
            compute=[c.copy() for c in self.compute],
            bytes_out=self.bytes_out.copy(),
            bytes_in=self.bytes_in.copy(),
            msgs_out=None if self.msgs_out is None else self.msgs_out.copy(),
            msgs_in=None if self.msgs_in is None else self.msgs_in.copy(),
            pair_messages=self.pair_messages,
            items_synced=self.items_synced,
            proxies_synced=self.proxies_synced,
            recovery=self.recovery,
        )


@dataclass
class EngineRun:
    """Accumulated statistics for one algorithm execution on the engine."""

    num_hosts: int
    rounds: list[RoundStats] = field(default_factory=list)
    #: When > 0, the next this-many rounds are marked as recovery replays.
    #: Drivers set it after a crash restart to the number of rounds the
    #: crashed attempt had executed — the re-execution is fault overhead.
    replay_countdown: int = 0

    def new_round(self, phase: str, recovery: bool = False) -> RoundStats:
        """Open a fresh round record (appended and returned)."""
        if self.replay_countdown > 0:
            self.replay_countdown -= 1
            recovery = True
        rs = RoundStats(
            round_index=len(self.rounds) + 1,
            phase=phase,
            compute=[OpCounter() for _ in range(self.num_hosts)],
            bytes_out=np.zeros(self.num_hosts, dtype=np.int64),
            bytes_in=np.zeros(self.num_hosts, dtype=np.int64),
            msgs_out=np.zeros(self.num_hosts, dtype=np.int64),
            msgs_in=np.zeros(self.num_hosts, dtype=np.int64),
            recovery=recovery,
        )
        self.rounds.append(rs)
        return rs

    @property
    def recovery_rounds(self) -> int:
        """Rounds attributable to fault recovery (retransmit/stall/replay)."""
        return sum(1 for r in self.rounds if r.recovery)

    # -- aggregates -----------------------------------------------------------

    @property
    def num_rounds(self) -> int:
        """Total BSP rounds executed."""
        return len(self.rounds)

    def rounds_in_phase(self, phase: str) -> int:
        """Rounds attributed to one phase ("forward"/"backward"/"recovery").

        Recovery rounds (including post-crash replays) count toward
        ``"recovery"``, not the algorithm phase they re-execute.
        """
        return sum(1 for r in self.rounds if r.effective_phase == phase)

    @property
    def total_bytes(self) -> int:
        """Total communication volume in bytes."""
        return sum(r.total_bytes() for r in self.rounds)

    @property
    def total_pair_messages(self) -> int:
        """Total aggregated host-pair messages."""
        return sum(r.pair_messages for r in self.rounds)

    @property
    def total_items_synced(self) -> int:
        """Total label values synchronized."""
        return sum(r.items_synced for r in self.rounds)

    @property
    def total_proxies_synced(self) -> int:
        """Total proxy synchronizations (the quantity §5.3 says is similar
        between SBBC and MRBC)."""
        return sum(r.proxies_synced for r in self.rounds)

    def per_host_compute(self) -> np.ndarray:
        """Total work units per host across all rounds."""
        totals = np.zeros(self.num_hosts, dtype=np.int64)
        for r in self.rounds:
            for h, c in enumerate(r.compute):
                totals[h] += c.total()
        return totals

    def load_imbalance(self) -> float:
        """Table 1's metric: mean over rounds of (max host ops / mean host ops).

        Rounds with no computation anywhere are skipped.
        """
        ratios = []
        for r in self.rounds:
            mean = r.mean_compute_ops()
            if mean > 0:
                ratios.append(r.max_compute_ops() / mean)
        return float(np.mean(ratios)) if ratios else 1.0

    def deterministic_signature(self) -> dict[str, int | float]:
        """The run's machine-comparable identity: counts only, no clocks.

        Same graph + sources + configuration ⇒ bit-identical signature;
        the bench trajectory (``repro bench``) stores and gates on these
        fields, so any change to rounds or communication volume is a
        loud diff rather than a silent drift.
        """
        return {
            "rounds": self.num_rounds,
            "bytes": self.total_bytes,
            "pair_messages": self.total_pair_messages,
            "items_synced": self.total_items_synced,
            "proxies_synced": self.total_proxies_synced,
            "load_imbalance": round(self.load_imbalance(), 9),
        }

    def phases(self) -> list[str]:
        """Distinct attributed phase labels in first-execution order."""
        seen: list[str] = []
        for r in self.rounds:
            if r.effective_phase not in seen:
                seen.append(r.effective_phase)
        return seen

    def merge(self, other: "EngineRun") -> None:
        """Append copies of another run's rounds (e.g. successive source
        batches).  ``other`` is left untouched: the appended rounds are
        renumbered deep copies, so neither run can corrupt the other."""
        if other.num_hosts != self.num_hosts:
            raise ValueError("cannot merge runs with different host counts")
        for rs in other.rounds:
            self.rounds.append(rs.copy(round_index=len(self.rounds) + 1))
