"""Columnar per-source state for the vectorized (array) message plane.

The dict plane keeps per-vertex Python dicts (``MasterVertexState``,
``local_lists``) and exchanges per-vertex tuples; this module provides the
columnar twin: dense ``(k, n)`` / ``(L, k)`` NumPy arrays for
distance/σ/δ, :class:`~repro.utils.bitset.Bitset`-backed masks for the
delayed-sync staging sets, and :class:`ExchangeBatch` — the unit of
exchange on the :class:`~repro.runtime.plane.GluonArrayPlane`: every
host's rows in one host-sorted struct of arrays instead of one tuple
list per host.

Explicit converters bridge the two representations:

- :meth:`MasterColumns.to_rows` / :meth:`MasterColumns.from_rows`
  translate between the columnar master state and the dict plane's
  ``{gid: MasterVertexState}`` map (used by checkpoints — snapshots are
  cross-plane compatible — and by the resilience invariant checker);
- :meth:`ExchangeBatch.to_tuples` / :meth:`ExchangeBatch.from_tuples`
  translate exchange payloads, which is how the array plane routes
  through the guarded dict substrate under a fault plan.

Iteration-order contract: everywhere the dict plane's behavior depends on
dict insertion order (master creation, fire emission, backward schedule),
the columnar state carries an explicit sequence number
(``master_seq``) so both planes produce byte-identical engine counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.utils.bitset import Bitset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mrbc import MasterVertexState

#: "Infinite" distance sentinel (identical to the dict plane's).
INF = np.iinfo(np.int32).max

#: Sentinel larger than any schedule key ``d * (k + 1) + si``.
BIG = np.iinfo(np.int64).max


def expand_csr(
    offsets: np.ndarray, data: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the variable-length CSR slices ``data[offsets[i]:offsets[i+1]]``
    for every ``i`` in ``idx``, concatenated in order.

    Returns ``(item_of, values)`` where ``item_of[e]`` is the position in
    ``idx`` that produced ``values[e]`` — the vectorized form of

    ``for j, i in enumerate(idx): for v in data[off[i]:off[i+1]]: ...``
    """
    idx = np.asarray(idx, dtype=np.int64)
    counts = (offsets[idx + 1] - offsets[idx]).astype(np.int64, copy=False)
    item_of = np.arange(idx.size, dtype=np.int64).repeat(counts)
    total = item_of.size
    if total == 0:
        return item_of, data[:0]
    starts = offsets[idx].astype(np.int64, copy=False)
    run_first = counts.cumsum() - counts
    pos = np.arange(total, dtype=np.int64) - run_first.repeat(counts)
    return item_of, data[starts.repeat(counts) + pos]


class ExchangeBatch:
    """One exchange's rows from every host, as one flat struct of arrays.

    ``host`` is non-decreasing — rows are grouped by host (the sender
    for a staged batch, the destination for an inbox) — ``gids`` names
    each row's global vertex and ``cols`` carries the payload columns
    (e.g. source slot, distance, σ).  Within one host, rows keep the
    order they were staged or delivered in.  The dict plane's equivalent
    is one list of ``(gid, *payload)`` tuples per host; the converters
    below translate losslessly in both directions.

    Iterating yields one sized row range per host, so code that walks an
    exchange host by host (item counters, tests) sees the per-host shape.
    """

    __slots__ = ("host", "gids", "cols", "num_hosts")

    def __init__(
        self,
        host: np.ndarray,
        gids: np.ndarray,
        cols: tuple[np.ndarray, ...],
        num_hosts: int,
    ) -> None:
        # No validation: built on every exchange from already-typed arrays.
        self.host = host
        self.gids = gids
        self.cols = cols
        self.num_hosts = num_hosts

    @classmethod
    def grouped(
        cls,
        host: np.ndarray,
        gids: np.ndarray,
        cols: tuple[np.ndarray, ...],
        num_hosts: int,
    ) -> "ExchangeBatch":
        """Batch from rows in any host order (stable: a host's rows keep
        their relative order)."""
        order = np.argsort(host, kind="stable")
        return cls(
            host[order], gids[order], tuple(c[order] for c in cols), num_hosts
        )

    @classmethod
    def empty(cls, num_hosts: int, dtypes: tuple[Any, ...]) -> "ExchangeBatch":
        """A batch with no rows (payload columns typed by ``dtypes``)."""
        none = np.empty(0, dtype=np.int64)
        return cls(
            none, none, tuple(np.empty(0, dtype=dt) for dt in dtypes), num_hosts
        )

    def __len__(self) -> int:
        return int(self.gids.size)

    @property
    def dtypes(self) -> tuple[Any, ...]:
        """Payload column dtypes (what :meth:`from_tuples` needs back)."""
        return tuple(c.dtype for c in self.cols)

    def counts(self) -> np.ndarray:
        """Rows per host (int64, length ``num_hosts``)."""
        return np.bincount(self.host, minlength=self.num_hosts)

    def offsets(self) -> np.ndarray:
        """Per-host row offsets: host ``h`` owns rows ``off[h]:off[h+1]``."""
        return np.searchsorted(self.host, np.arange(self.num_hosts + 1))

    def __iter__(self) -> Iterator[range]:
        off = self.offsets().tolist()
        return (range(a, b) for a, b in zip(off[:-1], off[1:]))

    def to_tuples(self) -> list[list[tuple[Any, ...]]]:
        """The dict plane's representation: per host, ``(gid, *payload)``."""
        rows = list(zip(self.gids.tolist(), *(c.tolist() for c in self.cols)))
        return [rows[r.start : r.stop] for r in self]

    @classmethod
    def from_tuples(
        cls, per_host: list[list[tuple[Any, ...]]], dtypes: tuple[Any, ...]
    ) -> "ExchangeBatch":
        """Rebuild a batch from dict-plane per-host tuple lists.

        ``dtypes`` gives the payload column dtypes (``gids`` is always
        int64); required because an empty exchange carries no type info.
        """
        H = len(per_host)
        rows = [it for items in per_host for it in items]
        if not rows:
            return cls.empty(H, dtypes)
        columns = list(zip(*rows))
        return cls(
            np.repeat(
                np.arange(H, dtype=np.int64), [len(items) for items in per_host]
            ),
            np.asarray(columns[0], dtype=np.int64),
            tuple(
                np.asarray(col, dtype=dt) for col, dt in zip(columns[1:], dtypes)
            ),
            H,
        )


class HostArena:
    """Every host's per-source proxy state stacked into one row arena.

    Arena row ``off[h] + lid`` holds host ``h``'s local vertex ``lid``;
    both hosts' CSRs are re-stitched with arena-row targets (every edge
    is intra-host, so the stitch is a shifted concatenation).  Stacking
    lets the relax/stage/credit sweeps run **once per round over every
    host's deliveries** instead of once per host — per-cell semantics
    are untouched because a cell key ``row * k + si`` already encodes
    the host, so items from different hosts can never interact.

    Mirrors the dict plane's ``HostState`` field for field, with two
    exceptions: the sorted per-vertex candidate lists (``local_lists``)
    are *derived* from ``cand_dist`` on demand (list entry ⟺ candidate
    distance present — the invariant the dict plane maintains by hand),
    and the ``unsent`` set is a :class:`Bitset` over arena rows, whose
    sorted index vector is exactly the dict plane's (host, lid)
    iteration order.

    ``lut[h, gid]`` resolves a delivery to its arena row in one gather
    (−1 = no proxy).  It costs ``H × n`` int64s — fine at the repo's
    simulation scales; a per-host ``searchsorted`` would trade memory
    for an extra log factor if that ever pinches.
    """

    __slots__ = (
        "off",
        "total",
        "gids",
        "host_of",
        "lut",
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_sources",
        "cand_dist",
        "cand_sigma",
        "fin_dist",
        "fin_sigma",
        "sent_d",
        "unsent",
        "dirty",
        "partial_delta",
        "delta_dirty",
        "fpos",
    )

    def __init__(self, parts: list, k: int, n: int) -> None:
        H = len(parts)
        sizes = np.array([p.num_local for p in parts], dtype=np.int64)
        self.off = np.zeros(H + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.off[1:])
        total = int(self.off[-1])
        self.total = total
        self.gids = np.concatenate(
            [p.gids for p in parts] or [np.empty(0, dtype=np.int64)]
        ).astype(np.int64)
        self.host_of = np.repeat(np.arange(H, dtype=np.int64), sizes)
        self.lut = np.full((H, n), -1, dtype=np.int64)
        for h, p in enumerate(parts):
            self.lut[h, p.gids] = np.arange(
                self.off[h], self.off[h + 1], dtype=np.int64
            )
        self.out_offsets, self.out_targets = self._stitch_csr(
            parts, [p.out_offsets for p in parts], [p.out_targets for p in parts]
        )
        self.in_offsets, self.in_sources = self._stitch_csr(
            parts, [p.in_offsets for p in parts], [p.in_sources for p in parts]
        )
        shape = (total, k)
        self.cand_dist = np.full(shape, INF, dtype=np.int64)
        self.cand_sigma = np.zeros(shape, dtype=np.float64)
        self.fin_dist = np.full(shape, INF, dtype=np.int64)
        self.fin_sigma = np.zeros(shape, dtype=np.float64)
        self.sent_d = np.full(shape, -1, dtype=np.int64)
        self.unsent = Bitset(total)
        self.dirty = np.zeros(shape, dtype=bool)
        self.partial_delta = np.zeros(shape, dtype=np.float64)
        self.delta_dirty = np.zeros(shape, dtype=bool)
        #: Scratch: delivery index of this round's fire per cell (−1 =
        #: not fired this round); reset after each relax sweep.
        self.fpos = np.full(shape, -1, dtype=np.int64)

    def reset_state(self) -> None:
        """Reset the mutable state columns to their initial values.

        Lets a driver that runs many independent units over the same
        partition (SBBC: one per source) reuse the topology — LUT and
        stitched CSRs — instead of rebuilding the arena each time.
        """
        self.cand_dist.fill(INF)
        self.cand_sigma.fill(0.0)
        # Between-units reset, not a stale read: no round is in flight.
        self.fin_dist.fill(INF)  # repro-lint: disable=RL301
        self.fin_sigma.fill(0.0)  # repro-lint: disable=RL301
        self.sent_d.fill(-1)
        self.unsent.clear_all()
        self.dirty.fill(False)
        self.partial_delta.fill(0.0)
        self.delta_dirty.fill(False)
        self.fpos.fill(-1)

    def _stitch_csr(self, parts, offsets_list, data_list):
        counts = np.concatenate(
            [np.diff(o) for o in offsets_list] or [np.empty(0, dtype=np.int64)]
        )
        offsets = np.zeros(self.total + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        data = np.concatenate(
            [
                np.asarray(d, dtype=np.int64) + self.off[h]
                for h, d in enumerate(data_list)
            ]
            or [np.empty(0, dtype=np.int64)]
        )
        return offsets, data

    def rows_of(self, h: int) -> slice:
        """Arena row range belonging to host ``h``."""
        return slice(int(self.off[h]), int(self.off[h + 1]))

    def host_view(self, h: int) -> "_HostRowView":
        """Per-host view of the finalized arrays (checkpoint shape)."""
        sl = self.rows_of(h)
        # Checkpoint/restore seam: runs at a round boundary by contract.
        return _HostRowView(self.fin_dist[sl], self.fin_sigma[sl])  # repro-lint: disable=RL301

    def derive_local_lists(self, h: int) -> dict[int, list[tuple[int, int]]]:
        """The dict plane's ``local_lists`` view for host ``h``: per
        local vertex, the lexicographically sorted ``(d, si)`` pairs."""
        sl = self.rows_of(h)
        out: dict[int, list[tuple[int, int]]] = {}
        sub = self.cand_dist[sl]
        rows, cols = np.nonzero(sub != INF)
        for lid, si in zip(rows.tolist(), cols.tolist()):
            out.setdefault(lid, []).append((int(sub[lid, si]), si))
        for lst in out.values():
            lst.sort()
        return out


class RowStateView:
    """Dict-plane-shaped view of an array executor (``to_rows()`` result).

    Quacks like a ``_BatchExecutor`` where checkpoints and the invariant
    checker are concerned: ``masters`` is a ``{gid: MasterVertexState}``
    map in creation order, ``hosts`` exposes the per-host finalized
    arrays, ``batch`` is the source batch.
    """

    __slots__ = ("masters", "hosts", "batch")

    def __init__(self, masters: dict, hosts: list, batch: np.ndarray) -> None:
        self.masters = masters
        self.hosts = hosts
        self.batch = batch


class _HostRowView:
    __slots__ = ("fin_dist", "fin_sigma")

    def __init__(self, fin_dist: np.ndarray, fin_sigma: np.ndarray) -> None:
        self.fin_dist = fin_dist
        self.fin_sigma = fin_sigma


class MasterColumns:
    """Authoritative master state for one batch, as dense columns.

    The dict plane's ``{gid: MasterVertexState}`` becomes:

    - ``ent_d[si, gid]`` — the schedule-entry distance (INF = absent);
      the fired/unfired split is ``fired`` plus ``sent_prefix``;
    - ``best_sigma[si, gid]`` — the authoritative σ*;
    - ``contrib_d/contrib_sigma[h, si, gid]`` — per-host contributions,
      with the virtual source host (−1 in the dict plane) stored at row
      ``H``;
    - ``tau[si, gid]`` — fire timestamps for the backward schedule;
    - ``master_seq[gid]`` / ``master_order`` — creation order, which is
      the dict plane's insertion order; every order-sensitive sweep
      (fire emission, backward schedule, snapshots) follows it.
    """

    def __init__(self, k: int, n: int, num_hosts: int) -> None:
        self.k = k
        self.n = n
        self.H = num_hosts
        self.ent_d = np.full((k, n), INF, dtype=np.int64)
        self.best_sigma = np.zeros((k, n), dtype=np.float64)
        self.fired = np.zeros((k, n), dtype=bool)
        self.tau = np.zeros((k, n), dtype=np.int64)
        self.sent_prefix = np.zeros(n, dtype=np.int64)
        self.contrib_d = np.full((num_hosts + 1, k, n), INF, dtype=np.int64)
        self.contrib_sigma = np.zeros((num_hosts + 1, k, n), dtype=np.float64)
        self.master_seq = np.full(n, -1, dtype=np.int64)
        self.master_order: list[int] = []
        self._si_col = np.arange(k, dtype=np.int64)[:, None]

    # -- registration ------------------------------------------------------

    def register(self, gid: int) -> None:
        """Create the master for ``gid`` if absent (dict setdefault)."""
        if self.master_seq[gid] < 0:
            self.master_seq[gid] = len(self.master_order)
            self.master_order.append(int(gid))

    def register_new(self, gids: np.ndarray) -> None:
        """Register unseen gids in first-occurrence order."""
        fresh = self.master_seq[gids] < 0
        if not fresh.any():
            return
        cand = gids[fresh]
        _uniq, first = np.unique(cand, return_index=True)
        for g in cand[np.sort(first)].tolist():
            self.register(g)

    def initialize_source(self, si: int, gid: int) -> None:
        """Seed ``(0, si)`` at a batch source (virtual host −1 = row H)."""
        self.register(gid)
        self.ent_d[si, gid] = 0
        self.best_sigma[si, gid] = 1.0
        self.contrib_d[self.H, si, gid] = 0
        self.contrib_sigma[self.H, si, gid] = 1.0

    # -- derived views -----------------------------------------------------

    @property
    def present(self) -> np.ndarray:
        """Boolean ``(k, n)``: schedule entry exists for (si, gid)."""
        return self.ent_d != INF

    def schedule_key(self) -> np.ndarray:
        """``d * (k + 1) + si`` over unfired entries, else :data:`BIG`.

        The per-master minimum of this key is the head of the dict
        plane's sorted entry list past the fired prefix (send rounds are
        strictly increasing along it, so fired entries are a prefix).
        """
        act = (self.ent_d != INF) & ~self.fired
        return np.where(act, self.ent_d * (self.k + 1) + self._si_col, BIG)

    def order_by_seq(self, gids: np.ndarray) -> np.ndarray:
        """Permutation sorting ``gids`` into master creation order."""
        return np.argsort(self.master_seq[gids], kind="stable")

    # -- row converters ----------------------------------------------------

    def to_rows(self) -> "dict[int, MasterVertexState]":
        """The dict plane's ``{gid: MasterVertexState}`` in creation order."""
        from repro.core.mrbc import MasterVertexState

        out: dict[int, MasterVertexState] = {}
        for gid in self.master_order:
            ms = MasterVertexState()
            sis = np.nonzero(self.ent_d[:, gid] != INF)[0]
            ms.entries = sorted(
                (int(self.ent_d[si, gid]), int(si)) for si in sis
            )
            ms.best = {
                int(si): (int(self.ent_d[si, gid]), float(self.best_sigma[si, gid]))
                for si in sis
            }
            fired_sis = sis[self.fired[sis, gid]]
            for si in fired_sis[np.argsort(self.tau[fired_sis, gid], kind="stable")]:
                ms.tau[int(si)] = int(self.tau[si, gid])
            ms.sent_prefix = int(self.sent_prefix[gid])
            for si in sis:
                per: dict[int, tuple[int, float]] = {}
                if self.contrib_d[self.H, si, gid] != INF:
                    per[-1] = (
                        int(self.contrib_d[self.H, si, gid]),
                        float(self.contrib_sigma[self.H, si, gid]),
                    )
                for h in np.nonzero(self.contrib_d[: self.H, si, gid] != INF)[0]:
                    per[int(h)] = (
                        int(self.contrib_d[h, si, gid]),
                        float(self.contrib_sigma[h, si, gid]),
                    )
                if per:
                    ms.contrib[int(si)] = per
            out[int(gid)] = ms
        return out

    def from_rows(self, masters: "dict[int, MasterVertexState]") -> None:
        """Load dict-plane master state (checkpoint restore path)."""
        for gid, ms in masters.items():
            self.register(int(gid))
            self.sent_prefix[gid] = ms.sent_prefix
            for si, (d, sg) in ms.best.items():
                self.ent_d[si, gid] = d
                self.best_sigma[si, gid] = sg
            for si, t in ms.tau.items():
                self.fired[si, gid] = True
                self.tau[si, gid] = t
            for si, per in ms.contrib.items():
                for h, (d, sg) in per.items():
                    row = self.H if h < 0 else h
                    self.contrib_d[row, si, gid] = d
                    self.contrib_sigma[row, si, gid] = sg
