"""Self-checking round invariants for the MRBC master state.

The channel guard is the first line of defense (it sees messages); these
checks are the second: they watch the *state* the paper's correctness
argument depends on, so a fault that slips past the transport (or is
injected directly into memory) still trips an alarm instead of silently
poisoning every downstream σ and δ:

- **sent-prefix immutability** (Lemma 2): once an ``L_v`` entry has fired
  it is immutable — a fired cell stays fired at the distance it fired
  with.
- **σ monotonicity**: for a fixed ``(v, s)`` the authoritative distance
  never increases, and at a fixed distance σ never decreases (host
  contributions only accumulate shortest paths).
- **timestamp-schedule conformance**: entry ``(d, s)`` at list position
  ``p`` fires in exactly round ``d + p + 1`` (the flat-map schedule the
  forward-round bound of Lemma 8 rests on).

Modes: ``off`` (checker not constructed), ``detect`` (violations raise
:class:`~repro.resilience.errors.InvariantViolation`), ``repair``
(best-effort rollback to the last known-good recorded value, reported as
a recovery event; unrepairable violations still raise).

The checker reads and repairs the executor's live
:class:`~repro.runtime.arrays.MasterColumns`, so a rollback is the state
the rest of the batch runs on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.resilience.errors import InvariantViolation
from repro.runtime.arrays import INF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext
    from repro.runtime.arrays import MasterColumns


class InvariantChecker:
    """Per-batch checker over the masters' authoritative state.

    One instance per batch executor: it records the fired cells and the
    best labels it has seen and re-verifies them every round.
    """

    def __init__(self, mode: str, ctx: "ResilienceContext") -> None:
        if mode not in ("detect", "repair"):
            raise ValueError(f"invalid invariant mode {mode!r}")
        self.mode = mode
        self.ctx = ctx
        # Last known-good copies of the checked columns (None until the
        # first round): fired mask, entry distance, σ*.
        self._fired: np.ndarray | None = None
        self._ent_d: np.ndarray | None = None
        self._sigma: np.ndarray | None = None

    # -- violation plumbing ----------------------------------------------------

    def _violate(
        self, invariant: str, rnd: int, detail: str, repaired: bool
    ) -> None:
        self.ctx.record_invariant_violation(invariant, rnd, detail, repaired)
        if not repaired:
            raise InvariantViolation(invariant, rnd, detail)

    # -- per-round check -------------------------------------------------------

    def check_master_round(self, rnd: int, M: "MasterColumns") -> None:
        """Verify every master's state after round ``rnd``'s updates."""
        if self._fired is not None:
            self._check_prefix(rnd, M)
        self._check_schedule(rnd, M)
        if self._fired is not None:
            self._check_best(rnd, M)
        self._fired = M.fired.copy()
        self._ent_d = M.ent_d.copy()
        self._sigma = M.best_sigma.copy()

    @staticmethod
    def _cells(M: "MasterColumns", mask: np.ndarray) -> list[tuple[int, int]]:
        """``(row, gid)`` of every set cell of ``mask``, masters in
        creation order."""
        row, gid = np.nonzero(mask)
        o = np.argsort(M.master_seq[gid], kind="stable")
        return list(zip(row[o].tolist(), gid[o].tolist()))

    def _check_prefix(self, rnd: int, M: "MasterColumns") -> None:
        pf, pd = self._fired, self._ent_d
        bad = pf & (~M.fired | (M.ent_d != pd))
        for gid in dict.fromkeys(g for _si, g in self._cells(M, bad)):
            was = np.nonzero(pf[:, gid])[0]
            now = np.nonzero(M.fired[:, gid])[0]
            prev = sorted(zip(pd[was, gid].tolist(), was.tolist()))
            cur = sorted(zip(M.ent_d[now, gid].tolist(), now.tolist()))
            repaired = self.mode == "repair" and int(M.sent_prefix[gid]) >= was.size
            if repaired:
                M.fired[was, gid] = True
                M.ent_d[was, gid] = pd[was, gid]
            self._violate(
                "sent_prefix_immutability",
                rnd,
                f"fired prefix of vertex {gid} changed from {prev} to {cur}",
                repaired,
            )

    def _check_schedule(self, rnd: int, M: "MasterColumns") -> None:
        # Fired entries must have fired on schedule: the entry at sorted
        # list position ``pos`` fires in round τ = d + pos + 1.  Unfired
        # cells sort first (key −1), so a fired cell's position is its
        # rank among its master's fired cells.
        k = M.k
        key = np.where(M.fired, M.ent_d * (k + 1) + np.arange(k)[:, None], -1)
        order = np.argsort(key, axis=0)
        fired, d, tau = (
            np.take_along_axis(a, order, axis=0) for a in (M.fired, M.ent_d, M.tau)
        )
        pos = np.arange(k)[:, None] - (k - M.fired.sum(axis=0))
        off = self._cells(M, fired & (tau != d + pos + 1))
        if off:
            r, gid = off[0]
            e, p = (int(d[r, gid]), int(order[r, gid])), int(pos[r, gid])
            # A fired entry with the wrong timestamp cannot be rolled
            # back — the broadcast already went out.
            self._violate(
                "timestamp_schedule",
                rnd,
                f"vertex {gid} entry {e} at position {p} fired in round "
                f"{int(tau[r, gid])}, schedule says {e[0] + p + 1}",
                repaired=False,
            )

    def _check_best(self, rnd: int, M: "MasterColumns") -> None:
        od, osig = self._ent_d, self._sigma
        bad = (od != INF) & (
            (M.ent_d > od) | ((M.ent_d == od) & (M.best_sigma < osig))
        )
        for si, gid in self._cells(M, bad):
            old = (int(od[si, gid]), float(osig[si, gid]))
            new = (int(M.ent_d[si, gid]), float(M.best_sigma[si, gid]))
            repaired = self.mode == "repair"
            if repaired:
                M.ent_d[si, gid], M.best_sigma[si, gid] = old
            self._violate(
                "sigma_monotonicity",
                rnd,
                f"label of (v={gid}, s={si}) regressed from "
                f"(d={old[0]}, σ={old[1]}) to (d={new[0]}, σ={new[1]})",
                repaired,
            )
