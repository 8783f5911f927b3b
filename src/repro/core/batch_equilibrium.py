"""Stacked-numpy batch equilibrium solver (many mixes, one Newton).

The paper's equilibrium system (Eq. 1 capacity constraint + Eq. 7
throughput-ratio conditions) is solved per co-run mix by
:class:`~repro.core.equilibrium.NewtonSolver` in plain Python floats —
the right call for one mix, but a batch of hundreds of mixes pays the
interpreter once per table lookup.  This module restates the *same*
damped Newton iteration over an ``(n_mixes, k)`` size matrix:

- the residual/Jacobian kernels gather from the profiles' tabulated
  growth curves (``OccupancyModel.growth_table``) and MPA tails
  (``ReuseDistanceHistogram.tail_table``), concatenated into flat
  arrays with per-cell offsets so one vector op serves every profile;
- the arrow-structured Jacobian (row 0 all ones, row i nonzero only
  at columns 0 and i) is eliminated column-by-column across the whole
  stack at once;
- convergence / failure are tracked per row: converged rows freeze
  (their state is kept, further full-stack evaluations of them are
  discarded), failed rows are excluded from the masks and retried on
  the scalar path — one row hitting a non-finite residual cannot
  poison its siblings, because every kernel op is element-wise.

Bit-compatibility policy
------------------------
Batched rows are **bit-identical** to the scalar
``solve_equilibrium(..., strategy=...)`` result for the payload fields
``sizes``, ``mpas``, ``spis``, ``solver``, ``iterations`` and
``contended``.  This is achieved by replicating the scalar path's
IEEE-754 float64 operation ordering exactly, not by a tolerance:

- table interpolation is hand-rolled as ``t[lo]*(1-frac) + t[lo+1]*frac``
  (``np.interp`` rounds differently and is *not* used);
- ``np.searchsorted(side="left")`` matches ``bisect_left``, and
  ``astype(int64)`` matches ``int()`` truncation for the non-negative
  sizes the solver iterates over;
- sums accumulate column-by-column in the scalar loop's left-to-right
  order; the damping ladder is exact powers of two; clamps apply
  ``max`` before ``min`` exactly as the scalar line search does;
- the post-convergence Eq. 1 closure reuses the *same*
  ``_redistribute_to_capacity`` routine, row by row.

The property test in ``tests/test_batch_equilibrium.py`` enforces the
policy with ``==`` on every payload field.  Telemetry is the one
documented divergence: ``telemetry.solver`` is ``"batch_newton"`` and
``telemetry.residual_norm`` is the stacked residual norm at the
converged iterate (before the Eq. 1 closure), whereas the scalar path
re-evaluates the residual after closure.  Telemetry is observability
metadata, not result payload, and is excluded from the bit-compat
guarantee.

Fallback ladder
---------------
A row leaves the stack and is solved by the ordinary scalar
:func:`~repro.core.equilibrium.solve_equilibrium` (with this solver's
``fallback_strategy``) when any of these hold:

- its curves are not sniffable as tabulated histogram/occupancy pairs
  (custom ``mpa`` callables, explicit ``mpa_slope`` overrides,
  subclassed models — anything whose scalar evaluation the kernels
  cannot replicate bit-for-bit);
- it is uncontended (the scalar short-circuit is already cheap);
- fewer than ``min_stack`` rows share its process count ``k`` (numpy
  overhead would exceed the win);
- its Newton iteration fails (non-finite residual, singular Jacobian,
  exhausted line search or iteration budget) — mirroring the scalar
  solver's own failure → fallback behaviour.

Two caveats worth knowing: frozen rows still ride along in full-stack
evaluations (their results are discarded — the fixed gather indices
are what keep the kernels cheap), so a single stubborn row makes the
whole stack iterate with it; and the per-row damping line search
evaluates the full stack once per halving round.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.equilibrium import (
    NEWTON_DOMAIN_FLOOR,
    EquilibriumProcess,
    EquilibriumResult,
    NewtonSolver,
    SolverTelemetry,
    _redistribute_to_capacity,
    solve_equilibrium,
)
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.occupancy import OccupancyModel
from repro.errors import ConfigurationError

__all__ = ["BATCH_MIN_STACK", "BatchNewtonSolver"]

#: Smallest same-``k`` stack worth vectorizing; below this the numpy
#: call overhead exceeds the interpreter savings and rows take the
#: scalar path instead.
BATCH_MIN_STACK = 4

#: The one histogram method the batch kernels replicate; identity is
#: checked (not name) so subclass overrides never sneak onto the
#: vector path.
_HISTOGRAM_MPA = ReuseDistanceHistogram.mpa


class _TableRegistry:
    """Growth/tail tables of every distinct profile, concatenated flat.

    A *profile* is a (``OccupancyModel``, ``ReuseDistanceHistogram``)
    pair.  The registry pins the objects (so ``id()`` keys stay
    unique), keeps each table, and maintains flat concatenations plus
    per-profile constants so the batch kernels can gather any mix of
    profiles with plain integer offsets.
    """

    def __init__(self) -> None:
        self._index: Dict[Tuple[int, int], int] = {}
        self._pins: List[Tuple[OccupancyModel, ReuseDistanceHistogram]] = []
        self.growth_arrays: List[np.ndarray] = []
        self.tail_arrays: List[np.ndarray] = []
        self._dirty = True
        self.growth_flat: Optional[np.ndarray] = None
        self.tail_flat: Optional[np.ndarray] = None
        self.g_off: Optional[np.ndarray] = None
        self.g_len: Optional[np.ndarray] = None
        self.g_first: Optional[np.ndarray] = None
        self.g_last: Optional[np.ndarray] = None
        self.g_sat_cut: Optional[np.ndarray] = None
        self.inv_g_first: Optional[np.ndarray] = None
        self.t_off: Optional[np.ndarray] = None
        self.t_top_i: Optional[np.ndarray] = None
        self.t_top_f: Optional[np.ndarray] = None
        self.tail_at_top: Optional[np.ndarray] = None

    def lookup(self, process: EquilibriumProcess) -> Optional[int]:
        """Profile index for a batchable process, ``None`` otherwise.

        Only exact :class:`OccupancyModel` / bound
        ``ReuseDistanceHistogram.mpa`` pairs with no explicit
        ``mpa_slope`` override qualify — subclasses or custom callables
        could evaluate differently from the tables, which would break
        the bit-compat guarantee, so they take the scalar path.
        """
        occ = process.occupancy
        if type(occ) is not OccupancyModel:
            return None
        if process.mpa_slope is not None:
            return None
        mpa = process.mpa
        try:
            owner = mpa.__self__
            func = mpa.__func__
        except AttributeError:
            return None
        if func is not _HISTOGRAM_MPA or type(owner) is not ReuseDistanceHistogram:
            return None
        key = (id(occ), id(owner))
        index = self._index.get(key)
        if index is None:
            index = len(self.growth_arrays)
            self._index[key] = index
            self._pins.append((occ, owner))
            self.growth_arrays.append(np.asarray(occ.growth_table, dtype=float))
            self.tail_arrays.append(np.asarray(owner.tail_table, dtype=float))
            self._dirty = True
        return index

    def ensure_flat(self) -> None:
        if not self._dirty:
            return
        g_sizes = [g.size for g in self.growth_arrays]
        t_sizes = [t.size for t in self.tail_arrays]
        self.growth_flat = np.concatenate(self.growth_arrays)
        self.tail_flat = np.concatenate(self.tail_arrays)
        self.g_off = np.array(
            [0] + list(np.cumsum(g_sizes[:-1])), dtype=np.int64
        )
        self.g_len = np.array(g_sizes, dtype=np.int64)
        self.g_first = np.array([g[0] for g in self.growth_arrays])
        self.g_last = np.array([g[-1] for g in self.growth_arrays])
        # growth[-1] - 1e-12 / 1.0 / growth[0]: the same float64 ops the
        # scalar g_inverse performs, done once per profile.
        self.g_sat_cut = self.g_last - 1e-12
        self.inv_g_first = 1.0 / self.g_first
        self.t_off = np.array(
            [0] + list(np.cumsum(t_sizes[:-1])), dtype=np.int64
        )
        self.t_top_i = np.array([t.size - 1 for t in self.tail_arrays], dtype=np.int64)
        self.t_top_f = self.t_top_i.astype(float)
        self.tail_at_top = np.array([t[-1] for t in self.tail_arrays])
        self._dirty = False


class _StackState:
    """Residual state of one full-stack evaluation (see ``_Stack.evaluate``)."""

    __slots__ = ("res", "norm", "n", "spi", "gslope", "mslope")

    def __init__(self, res, norm, n, spi, gslope, mslope):
        self.res = res
        self.norm = norm
        self.n = n
        self.spi = spi
        self.gslope = gslope
        self.mslope = mslope

    def merge_rows(self, other: "_StackState", rows: np.ndarray) -> None:
        """Adopt ``other``'s state for the masked rows (line-search accept)."""
        cols = rows[:, None]
        np.copyto(self.res, other.res, where=cols)
        np.copyto(self.norm, other.norm, where=rows)
        np.copyto(self.n, other.n, where=cols)
        np.copyto(self.spi, other.spi, where=cols)
        np.copyto(self.gslope, other.gslope, where=cols)
        np.copyto(self.mslope, other.mslope, where=cols)


class _Stack:
    """All same-``k`` rows of one batch, stacked for vector kernels."""

    def __init__(
        self,
        registry: _TableRegistry,
        processes: List[List[EquilibriumProcess]],
        profiles: List[List[int]],
        total_ways: int,
    ):
        registry.ensure_flat()
        self.registry = registry
        self.processes = processes
        self.total_ways = total_ways
        self.m = len(processes)
        self.k = len(processes[0])
        prof = np.array(profiles, dtype=np.int64)
        pf = prof.reshape(-1)
        # Per-cell table constants (gathered once; iteration kernels
        # reuse them every evaluation).
        self.g_off = registry.g_off[pf]
        self.g_len = registry.g_len[pf]
        self.g_first = registry.g_first[pf]
        self.g_sat_cut = registry.g_sat_cut[pf]
        self.inv_g_first = registry.inv_g_first[pf]
        self.t_off = registry.t_off[pf]
        self.t_top_i = registry.t_top_i[pf]
        self.t_top_f = registry.t_top_f[pf]
        self.tail_at_top = registry.tail_at_top[pf]
        self.sat = registry.g_last[pf].reshape(self.m, self.k)
        # searchsorted is 1-D per table: group flat cells by profile.
        order = np.argsort(pf, kind="stable")
        sorted_pf = pf[order]
        bounds = np.flatnonzero(np.diff(sorted_pf)) + 1
        self.groups = [
            (registry.growth_arrays[int(pf[cells[0]])], cells)
            for cells in np.split(order, bounds)
        ]
        self.api_flat = np.array([p.api for row in processes for p in row])
        self.alpha_flat = np.array([p.alpha for row in processes for p in row])
        self.beta_flat = np.array([p.beta for row in processes for p in row])
        self.api = self.api_flat.reshape(self.m, self.k)
        self.alpha = self.alpha_flat.reshape(self.m, self.k)
        self.beta = self.beta_flat.reshape(self.m, self.k)
        # Hoisted iteration constants (one array op saved per use).
        self.alpha_neg = -self.alpha
        self.g_len_m1 = self.g_len - 1
        self.g_off_m1 = self.g_off - 1

    # ------------------------------------------------------------------
    # Kernels — every op mirrors the scalar path bit-for-bit
    # ------------------------------------------------------------------
    def _mpa_kernel(self, flat_sizes: np.ndarray, cells: np.ndarray):
        """Histogram ``mpa`` and ``mpa_slope`` at the given flat cells.

        Replicates ``ReuseDistanceHistogram.mpa`` exactly: clamp to the
        tail top beyond the support, otherwise the two-sided lerp
        ``tail[lo]*(1-frac) + tail[lo+1]*frac`` with ``lo = int(size)``.
        """
        tail_flat = self.registry.tail_flat
        top_mask = flat_sizes >= self.t_top_f[cells]
        lo = np.minimum(flat_sizes.astype(np.int64), self.t_top_i[cells] - 1)
        t_lo = tail_flat[self.t_off[cells] + lo]
        t_hi = tail_flat[self.t_off[cells] + lo + 1]
        frac = flat_sizes - lo
        mval = t_lo * (1.0 - frac) + t_hi * frac
        mval = np.where(top_mask, self.tail_at_top[cells], mval)
        mslope = np.where(top_mask, 0.0, t_hi - t_lo)
        return mval, mslope

    def evaluate(self, x: np.ndarray) -> _StackState:
        """Full-stack residual + Jacobian-ingredient evaluation.

        Mirrors the ``evaluate`` closure of
        ``NewtonSolver._solve_analytic`` (residual entries, left-to-right
        capacity sum, squared-norm accumulation order) plus the
        ``g_inverse_slope`` / ``mpa_slope`` lookups the Jacobian pass
        needs — the masks and segment indices are shared, so the extra
        slope outputs cost two vector ops, not a second table walk.
        Rows whose state is junk (frozen or failed) evaluate to junk
        harmlessly: all ops are element-wise, so no row contaminates
        another.
        """
        m, k = self.m, self.k
        s = x.reshape(-1)
        with np.errstate(all="ignore"):
            # --- g_inverse + g_inverse_slope (grouped searchsorted) ---
            idx = np.empty(s.size, dtype=np.int64)
            for growth, cells in self.groups:
                idx[cells] = np.searchsorted(growth, s[cells], side="left")
            sat_mask = s >= self.g_sat_cut
            below = (s <= self.g_first) & ~sat_mask
            idx_c = np.minimum(np.maximum(idx, 1), self.g_len_m1)
            growth_flat = self.registry.growth_flat
            g_lo = growth_flat[self.g_off_m1 + idx_c]
            g_hi = growth_flat[self.g_off + idx_c]
            span = g_hi - g_lo
            flat_seg = span <= 0.0
            nval = idx_c + (s - g_lo) / span
            nval = np.where(flat_seg, (idx_c + 1).astype(float), nval)
            nval = np.where(below, s / self.g_first, nval)
            nval = np.where(sat_mask, np.inf, nval)
            gslope = np.where(flat_seg, np.inf, 1.0 / span)
            gslope = np.where(below, self.inv_g_first, gslope)
            gslope = np.where(sat_mask, np.inf, gslope)
            # --- mpa + mpa_slope -------------------------------------
            mval, mslope = self._mpa_kernel(s, slice(None))
            spi = self.alpha_flat * mval + self.beta_flat
            rate = self.api_flat / spi
            # --- residual assembly (scalar accumulation order) -------
            n2 = nval.reshape(m, k)
            rate2 = rate.reshape(m, k)
            n1 = n2[:, 0]
            rate1 = rate2[:, 0]
            ok = np.isfinite(n1) & (n1 > 0.0)
            # Eq. 7 entries for all columns in one 2-D pass; the
            # element-wise products/divides are the scalar loop's ops
            # verbatim, just issued per-matrix instead of per-column.
            nc = n2[:, 1:]
            good = ok[:, None] & np.isfinite(nc) & (nc > 0.0)
            value = np.where(
                good,
                (n1[:, None] * rate2[:, 1:]) / (nc * rate1[:, None]) - 1.0,
                np.inf,
            )
            res = np.empty((m, k))
            res[:, 1:] = value
            # The capacity sum and squared-norm accumulate column-by-
            # column in the scalar's left-to-right order (float addition
            # is not associative; a tree reduction would change bits).
            total = x[:, 0].copy()
            for c in range(1, k):
                total += x[:, c]
            vsq = value * value
            sq = np.zeros(m)
            for c in range(k - 1):
                sq += vsq[:, c]
            res0 = total - self.total_ways
            res[:, 0] = res0
            sq += res0 * res0
            norm = np.sqrt(sq)
        return _StackState(
            res=res,
            norm=norm,
            n=n2,
            spi=spi.reshape(m, k),
            gslope=gslope.reshape(m, k),
            mslope=mslope.reshape(m, k),
        )

    def final_curves(self, x: np.ndarray, rows: np.ndarray):
        """``mpas``/``spis`` at the closed sizes for the given rows.

        The vectorized equivalent of ``_finish``'s per-process
        ``p.mpa(s)`` / ``p.alpha * m + p.beta``.
        """
        k = self.k
        cells = (rows[:, None] * k + np.arange(k)).reshape(-1)
        with np.errstate(all="ignore"):
            mval, _ = self._mpa_kernel(x.reshape(-1), cells)
            spis = self.alpha_flat[cells] * mval + self.beta_flat[cells]
        return mval.reshape(rows.size, k), spis.reshape(rows.size, k)


class BatchNewtonSolver:
    """Damped Newton over a stack of equilibrium systems at once.

    Args:
        tol / max_iterations: Must match the scalar
            :class:`NewtonSolver` defaults for bit-compatibility (they
            do by default; override both paths together or not at all).
        fallback_strategy: Strategy handed to
            :func:`solve_equilibrium` for rows the stack cannot or did
            not solve (see the module docstring's fallback ladder).
        min_stack: Smallest same-``k`` row group worth vectorizing.
    """

    name = "batch_newton"

    def __init__(
        self,
        tol: float = 1e-7,
        max_iterations: int = 120,
        fallback_strategy: str = "auto",
        min_stack: int = BATCH_MIN_STACK,
    ):
        if fallback_strategy not in ("auto", "newton", "bisection"):
            raise ConfigurationError(
                f"unknown strategy {fallback_strategy!r}; "
                "choose newton, bisection or auto"
            )
        self.tol = tol
        self.max_iterations = max_iterations
        self.fallback_strategy = fallback_strategy
        self.min_stack = max(1, int(min_stack))
        self._tables = _TableRegistry()

    def solve_batch(
        self,
        batch: Sequence[Sequence[EquilibriumProcess]],
        total_ways: int,
    ) -> List[EquilibriumResult]:
        """Solve every co-run in ``batch`` against one shared cache.

        Returns one :class:`EquilibriumResult` per input row, in order,
        each bit-identical (payload fields) to
        ``solve_equilibrium(row, total_ways, strategy=fallback_strategy)``.
        Exceptions (validation errors, rows where even the fallback
        fails) propagate exactly as the equivalent scalar loop would
        raise them.
        """
        jobs = [list(row) for row in batch]
        results: List[Optional[EquilibriumResult]] = [None] * len(jobs)
        if self.fallback_strategy == "bisection":
            # Nothing to vectorize: the batch kernels implement Newton.
            return [self._fallback(row, total_ways) for row in jobs]
        stacks: Dict[int, List[int]] = {}
        profiles: List[Optional[List[int]]] = [None] * len(jobs)
        scalar_rows: List[int] = []
        # The sniff test runs once per process per batch (hundreds of
        # times per call), so its hit path is inlined and minimal: an
        # id-keyed registry hit already proved the exact types at
        # registration (the registry pins both objects, so a live id
        # can only be the registered object); the per-process
        # ``mpa_slope`` / ``__func__`` identities are all that can
        # differ between processes sharing a profile.  Misses take the
        # registry's full ``lookup``.
        lookup = self._tables.lookup
        index_get = self._tables._index.get
        for index, row in enumerate(jobs):
            if not row or total_ways < len(row):
                # Scalar path raises the canonical validation error.
                scalar_rows.append(index)
                continue
            prof: List[Optional[int]] = []
            for p in row:
                mpa = p.mpa
                if (
                    p.mpa_slope is None
                    and getattr(mpa, "__func__", None) is _HISTOGRAM_MPA
                ):
                    pi = index_get((id(p.occupancy), id(mpa.__self__)))
                    prof.append(pi if pi is not None else lookup(p))
                else:
                    prof.append(None)
                    break
            if None in prof:
                scalar_rows.append(index)
                continue
            profiles[index] = prof  # type: ignore[assignment]
            stacks.setdefault(len(row), []).append(index)
        for _, members in sorted(stacks.items()):
            if len(members) < self.min_stack:
                scalar_rows.extend(members)
                continue
            unsolved = self._solve_stack(jobs, profiles, members, total_ways, results)
            scalar_rows.extend(unsolved)
        for index in sorted(scalar_rows):
            results[index] = self._fallback(jobs[index], total_ways)
        return results  # type: ignore[return-value]

    def _fallback(
        self, processes: List[EquilibriumProcess], total_ways: int
    ) -> EquilibriumResult:
        return solve_equilibrium(
            processes, total_ways, strategy=self.fallback_strategy
        )

    def _solve_stack(
        self,
        jobs: List[List[EquilibriumProcess]],
        profiles: List[Optional[List[int]]],
        members: List[int],
        total_ways: int,
        results: List[Optional[EquilibriumResult]],
    ) -> List[int]:
        """Newton-iterate one same-``k`` stack; returns unsolved rows."""
        stack = _Stack(
            self._tables,
            [jobs[i] for i in members],
            [profiles[i] for i in members],  # type: ignore[list-item]
            total_ways,
        )
        m, k = stack.m, stack.k
        lo = NEWTON_DOMAIN_FLOOR
        with np.errstate(all="ignore"):
            # Uncontended rows short-circuit on the (cheap) scalar path.
            demand = np.minimum(stack.sat, float(total_ways))
            total_demand = demand[:, 0].copy()
            for c in range(1, k):
                total_demand += demand[:, c]
            contended = total_demand > total_ways + 1e-9
            if not contended.all():
                keep = np.flatnonzero(contended)
                if keep.size < self.min_stack:
                    return list(members)
                uncontended_rows = [
                    members[i] for i in np.flatnonzero(~contended)
                ]
                members = [members[i] for i in keep]
                stack = _Stack(
                    self._tables,
                    [jobs[i] for i in members],
                    [profiles[i] for i in members],  # type: ignore[list-item]
                    total_ways,
                )
                m = stack.m
                demand = demand[keep]
                total_demand = total_demand[keep]
            else:
                uncontended_rows = []
            # Start guess and domain caps: same ops as the scalar
            # _proportional_start / _newton_caps, stacked.
            caps = np.minimum(stack.sat - 1e-3, total_ways - lo * (k - 1))
            scale = total_ways / total_demand
            x = np.minimum(np.maximum(demand * scale[:, None], lo), caps)

            state = stack.evaluate(x)
            active = np.ones(m, dtype=bool)
            converged_at = np.zeros(m, dtype=np.int64)
            for iteration in range(1, self.max_iterations + 1):
                # Scalar order: the finite check precedes the tol check.
                nonfinite = active & ~np.isfinite(state.norm)
                active &= ~nonfinite
                newly_converged = active & (state.norm < self.tol)
                converged_at[newly_converged] = iteration
                active &= ~newly_converged
                if not active.any():
                    break
                # --- arrow Jacobian + elimination, all rows at once ---
                # Per-cell log-derivatives for every column in three 2-D
                # ops (the scalar loop's exact expression, issued
                # matrix-wide); only the running denominator/numerator
                # stay as a column loop, because float addition order is
                # part of the bit contract.
                res = state.res
                nlog = state.gslope / state.n
                rlog = stack.alpha_neg * state.mslope / state.spi
                head = nlog[:, 0] - rlog[:, 0]
                q = res + 1.0
                b_cols = q * (rlog - nlog)
                a_cols = q * head[:, None]
                b_tail = b_cols[:, 1:]
                bad = active & (
                    ~np.isfinite(head)
                    | ((b_tail == 0.0) | ~np.isfinite(b_tail)).any(axis=1)
                )
                ab = a_cols / b_cols
                rb = res / b_cols
                denom = np.ones(m)
                num = -res[:, 0]
                for c in range(1, k):
                    denom = denom - ab[:, c]
                    num = num + rb[:, c]
                bad |= active & (
                    (denom == 0.0) | ~np.isfinite(denom) | ~np.isfinite(num)
                )
                d1 = num / denom
                delta = np.empty((m, k))
                delta[:, 0] = d1
                delta[:, 1:] = (-res[:, 1:] - a_cols[:, 1:] * d1[:, None]) / b_tail
                bad |= active & ~np.isfinite(delta).all(axis=1)
                active &= ~bad
                if not active.any():
                    break
                # --- damped line search, per-row damping ladder -------
                pending = active.copy()
                damping = np.ones(m)
                x_prev = x
                x = x.copy()
                for _ in range(30):
                    # Non-pending rows get junk trial values; harmless —
                    # evaluation is element-wise and only ``accepted``
                    # (⊆ pending) rows are ever merged back.
                    trial = np.minimum(
                        np.maximum(x_prev + damping[:, None] * delta, lo), caps
                    )
                    trial_state = stack.evaluate(trial)
                    accepted = pending & (trial_state.norm < state.norm)
                    if accepted.any():
                        x[accepted] = trial[accepted]
                        state.merge_rows(trial_state, accepted)
                        pending &= ~accepted
                    if not pending.any():
                        break
                    damping[pending] *= 0.5
                # Rows that exhausted the 30 halvings fail like the
                # scalar "line search failed".
                active &= ~pending
                if not active.any():
                    break
            # Rows still active exhausted the iteration budget → fallback.
        solved = np.flatnonzero(converged_at > 0)
        unsolved = [members[i] for i in np.flatnonzero(converged_at == 0)]
        if solved.size == 0:
            return unsolved
        # Endgame: close Eq. 1 per row.  The well-conditioned case of
        # ``_redistribute_to_capacity`` — no entry saturates, one
        # proportional pass closes within roundoff — is a fixed float64
        # op sequence, so it vectorizes bit-exactly: clamp, left-to-right
        # free sum, one scale, gap check.  Rows that hit a cap or leave
        # a gap above the 1e-12 closure threshold rerun through the
        # scalar routine (identical bits by construction: the vector
        # pass only *commits* when it took the scalar fast path).
        total_f = float(total_ways)
        with np.errstate(all="ignore"):
            xs = x[solved]
            caps_s = caps[solved]
            caps_sum = caps_s[:, 0].copy()
            for c in range(1, k):
                caps_sum += caps_s[:, c]
            need = caps_sum > total_f
            clamped = np.minimum(xs, caps_s)
            free_sum = clamped[:, 0].copy()
            for c in range(1, k):
                free_sum += clamped[:, c]
            scale_r = total_f / free_sum
            scaled = clamped * scale_r[:, None]
            out_sum = scaled[:, 0].copy()
            for c in range(1, k):
                out_sum += scaled[:, c]
            gap = total_f - out_sum
            tol_r = 1e-12 * max(1.0, abs(total_f))
            fast = (
                need
                & (free_sum > 0.0)
                & ~(scaled >= caps_s).any(axis=1)
                & (np.abs(gap) <= tol_r)
            )
        closed = np.where(need[:, None], scaled, xs)
        for out_row in np.flatnonzero(need & ~fast):
            closed[out_row] = _redistribute_to_capacity(
                xs[out_row].tolist(), caps_s[out_row].tolist(), total_f
            )
        mpas, spis = stack.final_curves(closed, solved)
        strategy_label = self.fallback_strategy
        # Result construction is the batch's largest fixed per-row cost
        # (two frozen dataclasses per row, 512 per 256-mix batch), so
        # the hot loop avoids both per-row numpy indexing (whole-matrix
        # ``.tolist()`` yields the exact same Python floats as per-row
        # ``.tolist()``) and the frozen-dataclass ``__init__``, whose
        # per-field ``object.__setattr__`` calls alone cost more than
        # the rest of the loop.  ``__dict__.update`` on a bare instance
        # produces field-for-field identical objects (``==``/``hash``
        # read the same attributes) at less than half the cost; every
        # field is assigned explicitly, defaults included.
        closed_l = closed.tolist()
        mpas_l = mpas.tolist()
        spis_l = spis.tolist()
        norm_l = state.norm.tolist()
        conv_l = converged_at.tolist()
        batch_name = self.name
        scalar_name = NewtonSolver.name
        new = object.__new__
        for out_row, row in enumerate(solved):
            iterations = int(conv_l[row])
            telemetry = new(SolverTelemetry)
            telemetry.__dict__.update(
                strategy=strategy_label,
                solver=batch_name,
                jacobian="analytic",
                iterations=iterations,
                residual_norm=norm_l[row],
                fallback_reason=None,
            )
            result = new(EquilibriumResult)
            result.__dict__.update(
                sizes=tuple(closed_l[out_row]),
                mpas=tuple(mpas_l[out_row]),
                spis=tuple(spis_l[out_row]),
                solver=scalar_name,
                iterations=iterations,
                contended=True,
                telemetry=telemetry,
            )
            results[members[row]] = result
        for index in uncontended_rows:
            unsolved.append(index)
        return unsolved
