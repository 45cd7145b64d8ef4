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
each LP it settles gets the scalar kernel's value and point bit for
bit.  It builds the stack of tableaux once and runs both phases on it
in place, with one scratch buffer for the pivots' rank-one updates.
It settles the common cases (optimal, and infeasible as read from
phase two) and hands the rare ones back to the scalar kernel.  On
request it prunes, in phase two, the LPs whose optimum provably falls
below the best optimum found so far.
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
    b1 = b * sign

    width = ncols_orig + k
    T = np.zeros((k + 1, width + 1))
    a1 = T[:k, :ncols_orig]
    np.multiply(A, sign[:, None], out=a1)
    np.fill_diagonal(T[:k, ncols_orig:width], 1.0)
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
                j = int(rc.argmin())
                if rc[j] >= -tol:
                    return None
            else:
                j = int((rc < -tol).argmax())  # Bland: first eligible
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
    _phase_one_costs(a1, T[k, :ncols_orig])
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
    feas_tol = 1e-7 * (1.0 + float(np.abs(b1).max(initial=0.0)))
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
    kept = np.array(active)
    costrow = np.zeros(width + 1)
    costrow[:ncols_orig] = c
    coeffs = np.zeros(k)
    coeffs[kept] = c[np.array(basis)[kept]]
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
    z[np.array(basis)[kept]] = T[:k, -1][kept]
    small = np.abs(z) < 1e2 * tol
    z[small] = np.maximum(z[small], 0.0)
    p = np.where(kept, -T[k, ncols_orig:width], 0.0)
    return _StdResult(
        Status.OPTIMAL,
        z=z,
        basis=[basis[r] for r in range(k) if active[r]],
        multipliers=sign * p,
        value=float(c @ z),
        dropped=dropped,
    )


def _phase_one_costs(a1: np.ndarray, out: np.ndarray) -> None:
    """Write phase one's reduced costs, minus the sum of the rows of
    ``a1`` (its second-to-last axis), into ``out``.

    The rows are added one after another in index order, so the scalar
    kernel (one tableau) and the lockstep kernel (a stack) get the same
    bits at any row count and memory layout; numpy's own sum would add
    a contiguous axis pairwise and a strided one row by row.
    """
    np.copyto(out, a1[..., 0, :])
    for i in range(1, a1.shape[-2]):
        out += a1[..., i, :]
    np.negative(out, out=out)


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
    live: np.ndarray | None = None,
) -> np.ndarray:
    """``run_phase`` of ``_solve_standard`` on a stack of tableaux.

    Every unfinished tableau is priced, ratio-tested and pivoted in one
    numpy step, and finished ones leave the working set.  Returns per
    tableau ``-1`` when it reached the phase's optimum, the entering
    column when it found no pivot row, ``-2`` on the iteration limit
    and ``-3`` when pruned.  ``T`` and ``basis`` are updated in place,
    except for pruned tableaux, which are left mid-phase.  ``live``
    names the tableaux to run (default all); the others are left as
    they are and get ``-2``.

    The stack is pivoted in place until the first tableau leaves the
    working set; from then on the working set is a compacted copy, and
    each finished tableau is written back.  One scratch buffer the
    size of the working set holds each step's rank-one update.  It is
    formed by ``np.einsum``, which writes +0.0 where ``_pivot``'s
    product is -0.0; so a zero entry may end with the other sign than
    in the scalar kernel, and no other bit differs.  The entries read
    out for a point, the artificial columns of phase two's cost row,
    never hold -0.0, so points and values match bit for bit.

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
    if live is None or live.size == len(T):
        live = np.arange(len(T))
        Tw, bw = T, basis
    else:
        Tw, bw = T[live], basis[live]
    # buffers for the rank-one update and the ratio test (inf where a
    # row is not eligible), cut down as the working set shrinks
    scratch = np.empty_like(Tw)
    ratio_buf = np.empty((len(live), k))
    # each LP's last step with a nondegenerate pivot: its run of
    # degenerate pivots is the steps since, so it can pass bland_after
    # only after bland_after steps
    settled = np.full(len(live), -1)
    at = np.arange(len(live))
    # views of the working set: reduced costs, rhs and objective
    rc, rhs, obj = Tw[:, k, :ncols], Tw[:, :k, -1], Tw[:, k, -1]
    for step in range(limit if live.size else 0):
        j = rc.argmin(1)
        if step > bland_after:
            bland = step - 1 - settled > bland_after
            if bland.any():
                # Bland: first eligible column
                j[bland] = (rc[bland] < -tol).argmax(1)
        # the entering column, cost row included
        colj = Tw[at, :, j]
        optimal = colj[:, k] >= -tol
        col = colj[:, :k]
        eligible = col > _PIVOT_FLOOR
        ratio = ratio_buf
        ratio.fill(np.inf)
        np.divide(rhs, col, out=ratio, where=eligible)
        no_row = ~(optimal | eligible.any(1))
        finished = optimal | no_row
        dropped = finished
        if incumbent is not None:
            # the bound is -obj, so bound < cut is obj > -cut
            incumbent = max(incumbent, -obj[optimal].min(initial=np.inf))
            pruned = obj > -(incumbent - tol * (1.0 + abs(incumbent)))
            if pruned.any():
                pruned &= ~finished
                outcome[live[pruned]] = -3
                dropped = finished | pruned
        if dropped.any():
            outcome[live[optimal]] = -1
            outcome[live[no_row]] = j[no_row]
            if Tw is not T:
                T[live[finished]] = Tw[finished]
                basis[live[finished]] = bw[finished]
            keep = ~dropped
            live, Tw, bw, settled = live[keep], Tw[keep], bw[keep], settled[keep]
            if not live.size:
                return outcome
            at, scratch, ratio_buf = at[: live.size], scratch[: live.size], ratio_buf[: live.size]
            rc, rhs, obj = Tw[:, k, :ncols], Tw[:, :k, -1], Tw[:, k, -1]
            j, colj, eligible, ratio = j[keep], colj[keep], eligible[keep], ratio[keep]
        # the row of each minimum gives theta faster than a per-row
        # min; only the sign of a zero theta can differ, which neither
        # cutoff nor settled reads
        theta = ratio[at, ratio.argmin(1)]
        cutoff = theta + 1e-12 * (1.0 + np.abs(theta))
        r = np.where(eligible & (ratio <= cutoff[:, None]), bw, width).argmin(1)
        settled[theta > tol] = step
        # _pivot on every live tableau, in its order; the entering
        # column read above stands in for the one after the pivot row
        # is divided, since only row r, zeroed here, changed.  np.einsum
        # forms the rank-one update faster than a broadcast multiply
        prow = Tw[at, r]
        prow /= prow[at, j][:, None]
        Tw[at, r] = prow
        colj[at, r] = 0.0
        Tw -= np.einsum("bi,bj->bij", colj, prow, out=scratch)
        Tw[at, :, j] = 0.0
        Tw[at, r, j] = 1.0
        bw[at, r] = j
    return outcome


def _solve_inequality_batch(
    G_stack: np.ndarray,
    g: np.ndarray,
    c_stack: np.ndarray,
    tol: float,
    incumbent: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``_solve_inequality(G_stack[b], g, c_stack[b], tol)`` for
    every ``b``, pivoted in lockstep; returns each LP's ``value`` and
    point ``x``.

    Each LP follows the same two phases, pivot rules, Bland switch and
    iteration limit as ``_solve_standard``, per LP, so every optimal or
    infeasible LP gets the scalar kernel's value and point bit for bit,
    whatever the memory layout of ``G_stack``.  The stack is built once
    and both phases pivot it in place.  ``value`` is ``c @ x`` for an
    optimal LP and ``-inf`` for an infeasible one; ``x`` is nan except
    for optimal LPs.  An LP that needs one of the scalar kernel's rare
    branches is handed back with ``value`` nan: phase one without a
    pivot row (the drift repair), an infeasible phase one (the
    feasibility probe), a residual basic artificial, or the iteration
    limit.  Solve those with ``_solve_inequality``.

    With ``incumbent`` given, phase two prunes every LP whose optimum
    provably lies below the best of ``incumbent`` and the optima found
    in this stack by more than ``tol * (1 + |best|)``, and reports it
    as ``-inf``; see ``_run_phase_batch``.  Pass ``-inf`` to prune
    without a prior optimum.
    """
    B, m, n = G_stack.shape
    # the standard-form dual of each LP: n rows, m columns, rhs c_b
    sign = np.where(c_stack < 0, -1.0, 1.0)
    b1 = c_stack * sign
    width = m + n
    T = np.zeros((B, n + 1, width + 1))
    a1 = T[:, :n, :m]
    np.multiply(G_stack.transpose(0, 2, 1), sign[:, :, None], out=a1)
    T[:, np.arange(n), m + np.arange(n)] = 1.0
    T[:, :n, -1] = b1
    _phase_one_costs(a1, T[:, n, :m])
    T[:, n, -1] = -b1.sum(axis=1)
    basis = np.broadcast_to(np.arange(m, width), (B, n)).copy()
    limit = 50 * (n + m) + 20
    bland_after = 3 * (n + m)

    phase_one = _run_phase_batch(T, basis, m, tol, limit, bland_after)
    feas_tol = 1e-7 * (1.0 + np.abs(b1).max(1))
    ok = (phase_one == -1) & (-T[:, n, -1] <= feas_tol) & (basis < m).all(1)
    # phase two runs on the same stack; the handed-back LPs sit it out
    (go,) = np.nonzero(ok)
    at = slice(None) if go.size == B else go
    # phase two's cost row, g minus the basic costs times the rows
    costrow = np.zeros(width + 1)
    costrow[:m] = g
    T[at, n] = costrow - np.matmul(g[basis[at]][:, None, :], T[at, :n])[:, 0]
    phase_two = _run_phase_batch(T, basis, m, tol, limit, bland_after, incumbent, go)

    value = np.full(B, np.nan)
    x = np.full((B, n), np.nan)
    (b,) = np.nonzero(phase_two == -1)
    xb = sign[b] * -T[b, n, m:width]
    x[b] = xb
    value[b] = np.matmul(c_stack[b][:, None, :], xb[:, :, None])[:, 0, 0]
    # pruned, or infeasible: a column without a pivot row leaves the
    # dual unbounded below
    value[(phase_two >= 0) | (phase_two == -3)] = -np.inf
    return value, x


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


__all__ = [
    "Status",
    "LpProblem",
    "LpOutcome",
    "solve_lp",
    "SingularMatrixError",
]
