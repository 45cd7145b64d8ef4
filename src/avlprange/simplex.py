"""Dense two-phase simplex for inequality-form programs with free
variables.

The primal shape solved here is ``maximize c @ x subject to G x <= g``
with no sign restriction on ``x``.  Internally the standard-form dual
``min g @ y subject to G.T y = c, y >= 0`` is solved by a two-phase
tableau simplex: phase one always starts from the all-artificial basis,
and every dual basis is a set of rows of ``G``.  The primal solution is read off the optimal
multipliers, so the reported basis is a row index set ``B`` with
``G[B]`` nonsingular, ``x = G[B]^-1 g[B]`` and ``G[B]^-T c >= 0`` --
the same convention used by the basis-stability machinery.

Pivoting is deterministic: largest-coefficient entering rule with
lowest-index tie breaks, switching to Bland's rule after a run of
``3 * (rows + cols)`` degenerate pivots, and an explicit failure beyond
``50 * (rows + cols)`` iterations.  Unbounded outcomes carry a
certified ray ``d`` with ``G d <= 0`` and ``c @ d > 0``.

``_solve_inequality_batch`` pivots a stack of same-shape inequality
LPs in lockstep with numpy, under the same rules applied per LP, so
each outcome equals the scalar one bit for bit.  It settles the common
cases (optimal, and infeasible with the certificate read from phase
two), returns them as stacked arrays, and hands the rare ones back to
the scalar kernel.  On request it prunes, in phase two, the LPs whose
optimum provably falls below the best optimum found so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InputError, NumericalError, SingularMatrixError
from .intervals import DEFAULT_TOL, _check_tolerances
from .linalg import _checked_inverse

_PIVOT_FLOOR = 1e-10


class Status(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class BasisOptimality(str, Enum):
    OPTIMAL = "optimal"
    OPTIMAL_NONDEGENERATE = "optimal_nondegenerate"
    NOT_OPTIMAL = "not_optimal"


@dataclass(frozen=True)
class LpProblem:
    """``maximize c @ x subject to G x <= g`` with free ``x``."""

    c: np.ndarray
    G: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        G = np.asarray(self.G, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if c.ndim != 1 or G.ndim != 2 or g.ndim != 1:
            raise DimensionError("LpProblem needs c (1-D), G (2-D), g (1-D)")
        if c.shape[0] < 1:
            raise InputError("LpProblem needs at least one variable")
        if G.shape != (g.shape[0], c.shape[0]):
            raise DimensionError(
                f"G shape {G.shape} inconsistent with c ({c.shape[0]}) and g ({g.shape[0]})"
            )
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(G)) and np.all(np.isfinite(g))):
            raise InputError("LpProblem data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "g", g)

    @property
    def m(self) -> int:
        return self.G.shape[0]

    @property
    def n(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True)
class LpOutcome:
    """Result of one LP solve.

    For ``OPTIMAL``: ``x``, ``y`` and ``value`` are set, and ``basis``
    is the optimal row index set when a basic optimum exists (full row
    rank at the optimum), else None.  For ``UNBOUNDED``: ``value`` is
    ``+inf``, ``ray`` is a certified improving direction and ``x`` a
    feasible point.  For ``INFEASIBLE``: ``value`` is ``-inf`` and
    ``certificate`` holds Farkas multipliers ``y >= 0`` with
    ``G.T y = 0`` and ``g @ y < 0``.
    """

    status: Status
    value: float
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    basis: tuple[int, ...] | None = None
    ray: np.ndarray | None = None
    certificate: np.ndarray | None = None


@dataclass
class _StdResult:
    status: Status
    z: np.ndarray | None = None
    basis: list[int] | None = None
    multipliers: np.ndarray | None = None
    value: float = np.nan
    farkas: np.ndarray | None = None
    ray: np.ndarray | None = None
    dropped: int = 0


def _solve_standard(A: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float) -> _StdResult:
    """Two-phase tableau simplex on ``min c @ z, A z = b, z >= 0``."""
    k, ncols_orig = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    a1 = A * sign[:, None]
    b1 = b * sign

    width = ncols_orig + k
    T = np.zeros((k + 1, width + 1))
    T[:k, :ncols_orig] = a1
    rows_idx = np.arange(k)
    T[rows_idx, ncols_orig + rows_idx] = 1.0
    T[:k, -1] = b1
    basis = list(range(ncols_orig, width))
    active = [True] * k

    limit = 50 * (k + ncols_orig) + 20
    bland_after = 3 * (k + ncols_orig)

    def run_phase() -> int | None:
        """Pivot to optimality; returns the entering column on an
        unbounded direction, else None."""
        degenerate = 0
        for _ in range(limit):
            rc = T[k, :ncols_orig]
            if degenerate <= bland_after:
                # most negative reduced cost, lowest index on ties
                j = int(np.argmin(rc))
                if rc[j] >= -tol:
                    return None
            else:
                j = int(np.argmax(rc < -tol))  # Bland: first eligible
                if rc[j] >= -tol:
                    return None
            # the ratio test on Python floats: a tableau has few rows,
            # and per-element numpy indexing costs more than the loop
            col = T[:k, j].tolist()
            rhs_col = T[:k, -1].tolist()
            theta = None
            for i in range(k):
                if active[i] and col[i] > _PIVOT_FLOOR:
                    t = rhs_col[i] / col[i]
                    if theta is None or t < theta:
                        theta = t
            if theta is None:
                return j
            cutoff = theta + 1e-12 * (1.0 + abs(theta))
            r = -1
            label = width
            for i in range(k):
                if active[i] and col[i] > _PIVOT_FLOOR:
                    if rhs_col[i] / col[i] <= cutoff and basis[i] < label:
                        r = i
                        label = basis[i]
            degenerate = degenerate + 1 if theta <= tol else 0
            _pivot(T, basis, r, j)
        raise NumericalError("numerical-failure: simplex iteration limit exceeded")

    # phase 1: drive the artificials out
    T[k, :ncols_orig] = -a1.sum(axis=0)
    T[k, -1] = -b1.sum()
    entering = run_phase()
    if entering is not None:
        # phase one is bounded below, so an entering column without a
        # pivot row means the pivoted cost row has drifted: rebuild it
        # from the basis (unit cost on the artificials) and go on
        T[k] = 0.0
        T[k, ncols_orig:width] = 1.0
        T[k] -= T[:k][np.array(basis) >= ncols_orig].sum(axis=0)
        entering = run_phase()
    if entering is not None:
        raise NumericalError("numerical-failure: phase one reported unbounded")
    infeas = -T[k, -1]
    feas_tol = 1e-7 * (1.0 + float(np.max(np.abs(b1), initial=0.0)))
    if infeas > feas_tol:
        p = 1.0 - T[k, ncols_orig:width]
        return _StdResult(Status.INFEASIBLE, farkas=sign * p, value=np.inf)

    # remove residual basic artificials; rows that cannot give one up
    # are redundant and drop out of play
    in_basis = set(basis)
    dropped = 0
    for r in range(k):
        if basis[r] < ncols_orig:
            continue
        row = T[r, :ncols_orig]
        pivot_col = -1
        for j in range(ncols_orig):
            if j not in in_basis and abs(row[j]) > 1e-9:
                pivot_col = j
                break
        if pivot_col >= 0:
            in_basis.discard(basis[r])
            _pivot(T, basis, r, pivot_col)
            in_basis.add(pivot_col)
        else:
            active[r] = False
            dropped += 1

    # phase 2 under the real costs
    costrow = np.zeros(width + 1)
    costrow[:ncols_orig] = c
    coeffs = np.array([c[basis[r]] if active[r] else 0.0 for r in range(k)])
    costrow -= coeffs @ T[:k]
    T[k] = costrow
    entering = run_phase()

    if entering is not None:
        j = entering
        ray = np.zeros(ncols_orig)
        ray[j] = 1.0
        for r in range(k):
            if active[r]:
                ray[basis[r]] = -T[r, j]
        return _StdResult(Status.UNBOUNDED, ray=ray, value=-np.inf, dropped=dropped)

    z = np.zeros(ncols_orig)
    for r in range(k):
        if active[r]:
            z[basis[r]] = T[r, -1]
    small = np.abs(z) < 1e2 * tol
    z[small] = np.maximum(z[small], 0.0)
    p = np.where(active, -T[k, ncols_orig:width], 0.0)
    return _StdResult(
        Status.OPTIMAL,
        z=z,
        basis=[basis[r] for r in range(k) if active[r]],
        multipliers=sign * p,
        value=float(c @ z),
        dropped=dropped,
    )


def _pivot(T: np.ndarray, basis: list[int], r: int, j: int) -> None:
    T[r] /= T[r, j]
    colvals = T[:, j].copy()
    colvals[r] = 0.0
    T -= colvals[:, None] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0
    basis[r] = j


def _solve_inequality(
    G: np.ndarray,
    g: np.ndarray,
    c: np.ndarray,
    tol: float,
) -> LpOutcome:
    """Internal fast path for ``max c @ x, G x <= g``.  No input
    validation."""
    n = G.shape[1]
    # the dual's columns are the rows of G, one to one
    dual = G.T
    res = _solve_standard(dual, c, g, tol)
    if res.status is Status.OPTIMAL:
        x = res.multipliers
        rows = sorted(int(j) for j in res.basis)
        basis = tuple(rows) if (len(rows) == n and res.dropped == 0) else None
        return LpOutcome(Status.OPTIMAL, float(c @ x), x=x, y=res.z, basis=basis)
    if res.status is Status.UNBOUNDED:
        # dual unbounded below: the primal is infeasible
        return LpOutcome(Status.INFEASIBLE, -np.inf, certificate=res.ray)

    # dual infeasible: primal is unbounded if feasible, infeasible otherwise
    direction = res.farkas
    feas = _solve_standard(dual, np.zeros(n), g, tol)
    if feas.status is Status.OPTIMAL:
        scale = float(np.max(np.abs(direction), initial=0.0))
        ray = direction / scale if scale > 0 else direction
        return LpOutcome(Status.UNBOUNDED, np.inf, x=feas.multipliers, ray=ray)
    if feas.status is Status.UNBOUNDED:
        return LpOutcome(Status.INFEASIBLE, -np.inf, certificate=feas.ray)
    raise NumericalError("numerical-failure: feasibility probe returned an impossible status")


def _run_phase_batch(
    T: np.ndarray,
    basis: np.ndarray,
    ncols: int,
    tol: float,
    limit: int,
    bland_after: int,
    incumbent: float | None = None,
) -> np.ndarray:
    """``run_phase`` of ``_solve_standard`` on a stack of tableaux.

    Every unfinished tableau is priced, ratio-tested and pivoted in one
    numpy step, and finished ones leave the working set.  Returns per
    tableau ``-1`` when it reached the phase's optimum, the entering
    column when it found no pivot row, ``-2`` on the iteration limit
    and ``-3`` when pruned.  ``T`` and ``basis`` are updated in place,
    except for pruned tableaux, which are left mid-phase.

    Pruning is for phase two only, and only when ``incumbent`` is given.
    There every tableau is dual feasible, so its objective
    ``-T[b, k, -1]`` bounds its LP's optimum from above, and it only
    falls as pivots go on.  The incumbent starts at ``incumbent`` and
    rises to each optimum the stack reaches; a live LP is dropped once
    its bound is below the incumbent by more than
    ``tol * (1 + |incumbent|)``, so it can neither beat nor tie an
    optimum already found.
    """
    k = basis.shape[1]
    width = T.shape[2] - 1
    outcome = np.full(len(T), -2)
    live = np.arange(len(T))
    Tw, bw = T, basis
    degenerate = np.zeros(len(T), dtype=int)
    for _ in range(limit if live.size else 0):
        at = np.arange(len(live))
        rc = Tw[:, k, :ncols]
        j = np.argmin(rc, axis=1)
        bland = degenerate > bland_after
        if bland.any():
            # Bland: first eligible column
            j[bland] = np.argmax(rc[bland] < -tol, axis=1)
        optimal = rc[at, j] >= -tol
        col = Tw[at, :k, j]
        eligible = col > _PIVOT_FLOOR
        ratio = np.divide(Tw[:, :k, -1], col, out=np.full(col.shape, np.inf), where=eligible)
        no_row = ~optimal & ~eligible.any(axis=1)
        finished = optimal | no_row
        dropped = finished
        if incumbent is not None:
            bound = -Tw[:, k, -1]
            incumbent = max(incumbent, bound[optimal].max(initial=-np.inf))
            pruned = ~finished & (bound < incumbent - tol * (1.0 + abs(incumbent)))
            outcome[live[pruned]] = -3
            dropped = finished | pruned
        if dropped.any():
            outcome[live[optimal]] = -1
            outcome[live[no_row]] = j[no_row]
            T[live[finished]] = Tw[finished]
            basis[live[finished]] = bw[finished]
            keep = ~dropped
            live, Tw, bw, degenerate = live[keep], Tw[keep], bw[keep], degenerate[keep]
            if not live.size:
                return outcome
            at, j, eligible, ratio = at[: live.size], j[keep], eligible[keep], ratio[keep]
        theta = ratio.min(axis=1)
        cutoff = theta + 1e-12 * (1.0 + np.abs(theta))
        ties = eligible & (ratio <= cutoff[:, None])
        r = np.argmin(np.where(ties, bw, width), axis=1)
        degenerate = np.where(theta <= tol, degenerate + 1, 0)
        # _pivot on every live tableau
        Tw[at, r] /= Tw[at, r, j][:, None]
        colvals = Tw[at, :, j]
        colvals[at, r] = 0.0
        Tw -= colvals[:, :, None] * Tw[at, r][:, None, :]
        Tw[at, :, j] = 0.0
        Tw[at, r, j] = 1.0
        bw[at, r] = j
    return outcome


#: Outcome codes of ``_solve_inequality_batch``.
_OPTIMAL, _INFEASIBLE, _PRUNED, _HANDED_BACK = range(4)


class _BatchOutcome(NamedTuple):
    """Stacked outcomes of ``_solve_inequality_batch``, one row per LP.

    ``code`` is ``_OPTIMAL``, ``_INFEASIBLE``, ``_PRUNED`` or
    ``_HANDED_BACK``.  ``value`` is ``c @ x`` when optimal, ``-inf``
    when infeasible or pruned and nan when handed back.  ``x``, ``y``
    (nan) and ``rows``, the sorted basis rows (``-1``), are set only
    for optimal LPs, and ``certificate`` (nan) only for infeasible
    ones.
    """

    code: np.ndarray
    value: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rows: np.ndarray
    certificate: np.ndarray


def _solve_inequality_batch(
    G_stack: np.ndarray,
    g: np.ndarray,
    c_stack: np.ndarray,
    tol: float,
    incumbent: float | None = None,
) -> _BatchOutcome:
    """``_solve_inequality(G_stack[b], g, c_stack[b], tol)`` for
    every ``b``, pivoted in lockstep.

    Each LP follows the same two phases, pivot rules, Bland switch and
    iteration limit as ``_solve_standard``, per LP, so every optimal or
    infeasible outcome equals the scalar one bit for bit.  An LP that
    needs one of the scalar kernel's rare branches is handed back
    (``_HANDED_BACK``): phase one without a pivot row (the drift
    repair), an infeasible phase one (the feasibility probe), a
    residual basic artificial, or the iteration limit.  Solve those
    with ``_solve_inequality``.

    With ``incumbent`` given, phase two prunes every LP whose optimum
    provably lies below the best of ``incumbent`` and the optima found
    in this stack by more than ``tol * (1 + |best|)``
    (``_PRUNED``); see ``_run_phase_batch``.  Pass ``-inf`` to
    prune without a prior optimum.
    """
    B, m, n = G_stack.shape
    # the standard-form dual of each LP: n rows, m columns, rhs c_b
    sign = np.where(c_stack < 0, -1.0, 1.0)
    a1 = G_stack.transpose(0, 2, 1) * sign[:, :, None]
    b1 = c_stack * sign
    width = m + n
    T = np.zeros((B, n + 1, width + 1))
    T[:, :n, :m] = a1
    T[:, np.arange(n), m + np.arange(n)] = 1.0
    T[:, :n, -1] = b1
    T[:, n, :m] = -a1.sum(axis=1)
    T[:, n, -1] = -b1.sum(axis=1)
    basis = np.broadcast_to(np.arange(m, width), (B, n)).copy()
    limit = 50 * (n + m) + 20
    bland_after = 3 * (n + m)

    phase_one = _run_phase_batch(T, basis, m, tol, limit, bland_after)
    feas_tol = 1e-7 * (1.0 + np.max(np.abs(b1), axis=1))
    ok = (phase_one == -1) & (-T[:, n, -1] <= feas_tol) & np.all(basis < m, axis=1)
    (go,) = np.nonzero(ok)
    T2 = T[go]
    basis2 = basis[go]
    # phase two's cost row, g minus the basic costs times the rows
    costrow = np.zeros((len(go), width + 1))
    costrow[:, :m] = g
    costrow -= np.matmul(g[basis2][:, None, :], T2[:, :n])[:, 0]
    T2[:, n] = costrow
    phase_two = _run_phase_batch(T2, basis2, m, tol, limit, bland_after, incumbent)

    out = _BatchOutcome(
        code=np.full(B, _HANDED_BACK),
        value=np.full(B, np.nan),
        x=np.full((B, n), np.nan),
        y=np.full((B, m), np.nan),
        rows=np.full((B, n), -1),
        certificate=np.full((B, m), np.nan),
    )
    opt = phase_two == -1
    b = go[opt]
    T_opt = T2[opt]
    x = sign[b] * -T_opt[:, n, m:width]
    z = np.zeros((len(b), m))
    np.put_along_axis(z, basis2[opt], T_opt[:, :n, -1], axis=1)
    small = np.abs(z) < 1e2 * tol
    z[small] = np.maximum(z[small], 0.0)
    out.code[b] = _OPTIMAL
    out.value[b] = np.matmul(c_stack[b][:, None, :], x[:, :, None])[:, 0, 0]
    out.x[b] = x
    out.y[b] = z
    out.rows[b] = np.sort(basis2[opt], axis=1)

    # dual unbounded below: the primal is infeasible
    infeasible = phase_two >= 0
    b = go[infeasible]
    j = phase_two[infeasible]
    ray = np.zeros((len(b), m))
    np.put_along_axis(ray, basis2[infeasible], -T2[np.flatnonzero(infeasible), :n, j], axis=1)
    ray[np.arange(len(b)), j] = 1.0
    out.code[b] = _INFEASIBLE
    out.value[b] = -np.inf
    out.certificate[b] = ray

    b = go[phase_two == -3]
    out.code[b] = _PRUNED
    out.value[b] = -np.inf
    return out


def solve_lp(problem: LpProblem, tol: float = DEFAULT_TOL) -> LpOutcome:
    """Solve ``maximize c @ x subject to G x <= g`` with free variables.

    Returns status, optimal value (``+-inf`` for unbounded/infeasible),
    primal and dual solutions, the optimal row basis when one exists,
    and a certificate (improving ray or Farkas multipliers) for the
    degenerate statuses.  Raises ``InputError`` unless
    ``0 < tol <= 1e-3``.
    """
    _check_tolerances(tol)
    return _solve_inequality(problem.G, problem.g, problem.c, tol)


def _integer_rows(entries) -> tuple[int, ...]:
    """Basis row labels as Python ints; ``InputError`` for any entry
    that is not a Python or numpy integer (floats, bools, strings),
    which ``int()`` would otherwise truncate or coerce."""
    rows = tuple(entries)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in rows):
        raise InputError(f"basis rows must be integers, got {rows}")
    return tuple(int(i) for i in rows)


class _BasisSolution(NamedTuple):
    """Basic solution of ``max c @ x, G x <= g`` at one row basis, read
    from a single inverse of ``G[B]``."""

    x: np.ndarray
    y: np.ndarray
    primal_ok: bool
    dual_ok: bool


def _basis_solution(G: np.ndarray, g: np.ndarray, c: np.ndarray, idx: np.ndarray,
                    tol: float) -> _BasisSolution:
    """Point ``x = G[B]^-1 g[B]``, multipliers ``y = G[B]^-T c``, and
    whether ``x`` satisfies the nonbasic rows and ``y >= 0``, both to
    ``tol``.  Raises ``SingularMatrixError`` when ``G[B]`` is singular
    to working precision."""
    inverse, _ = _checked_inverse(G[idx])
    x = inverse @ g[idx]
    y = c @ inverse
    mask = np.ones(G.shape[0], dtype=bool)
    mask[idx] = False
    primal_ok = bool((G[mask] @ x <= g[mask] + tol).all())
    dual_ok = bool((y >= -tol).all())
    return _BasisSolution(x, y, primal_ok, dual_ok)


def check_basis_optimal(G, g, c, basis, tol: float = DEFAULT_TOL) -> BasisOptimality:
    """Classify a row index set as an optimal basis of
    ``max c @ x, G x <= g``.

    The basis ``B`` must select ``n`` distinct rows.  ``B`` is optimal
    when ``x = G[B]^-1 g[B]`` satisfies the nonbasic rows and the basic
    multipliers ``G[B]^-T c`` are nonnegative; it is reported
    nondegenerate when the multipliers are strictly positive beyond the
    tolerance.  Raises ``SingularMatrixError`` when ``G[B]`` is singular
    to working precision, and ``InputError`` unless ``0 < tol <= 1e-3``
    and every entry of ``B`` is an integer.
    """
    _check_tolerances(tol)
    G = np.asarray(G, dtype=float)
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = G.shape
    rows = _integer_rows(basis)
    if len(rows) != n or len(set(rows)) != n:
        raise InputError(f"basis must name {n} distinct rows, got {rows}")
    if any(i < 0 or i >= m for i in rows):
        raise InputError(f"basis rows out of range for {m} rows: {rows}")
    sol = _basis_solution(G, g, c, np.array(rows, dtype=int), tol)
    if sol.primal_ok and sol.dual_ok:
        if (sol.y > tol).all():
            return BasisOptimality.OPTIMAL_NONDEGENERATE
        return BasisOptimality.OPTIMAL
    return BasisOptimality.NOT_OPTIMAL


__all__ = [
    "Status",
    "BasisOptimality",
    "LpProblem",
    "LpOutcome",
    "solve_lp",
    "check_basis_optimal",
    "SingularMatrixError",
]
