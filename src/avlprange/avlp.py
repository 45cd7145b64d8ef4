"""Programs that are linear in ``x`` and ``|x|`` jointly.

A generalized program here is

    maximize  linear_cost @ x + abs_cost @ |x|
    subject to  linear_lhs @ x + abs_lhs @ |x| <= rhs

with ``|x|`` taken entrywise.  Only maximization is offered: a minimum
is minus the maximum of the negated costs.  Restricted to the orthant
where ``sign(x) = s`` the absolute value collapses, ``|x| = diag(s) x``,
and the program becomes an ordinary LP.

Only columns with a nonconvex ``|x_j|`` term are split this way.  A
column without ``|x_j|`` terms stays a free variable.  A convex column,
whose ``|x_j|`` only loosens rows and lowers the objective of the max
(``abs_lhs[:, j] >= 0``, ``abs_cost[j] <= 0``), gets an epigraph
variable ``t_j >= |x_j|`` in place of ``|x_j|``; that is exact, since
lowering ``t_j`` to ``|x_j|`` keeps every row and cannot lose value.
The solver enumerates the ``2**k`` orthants of the ``k`` remaining
columns, solves each restriction, and combines: an unbounded orthant
makes the whole program unbounded, otherwise the best finite orthant
wins, and the program is infeasible only when every orthant is.  Ties
go to the lexicographically smallest sign vector (all-minus first), so
results are deterministic.  A program that is convex in every column is
one LP.

The orthant LPs of one program share their shape, so they are stacked
in lexicographic chunks and pivoted in lockstep by
``simplex._solve_inequality_batch``; each gets exactly the outcome the
scalar kernel would give.  An LP that needs one of the scalar kernel's
rare branches (a drifted phase one, the feasibility probe, a redundant
row, the iteration limit) is handed back and re-solved by
``simplex._solve_inequality``.  A program with no enumerated column
is one LP, for which the scalar kernel is faster: its outcome is built
straight from that LP's, with none of the sweep's bookkeeping.  The
sweep keeps its outcomes as arrays and picks the winner from them; it
builds one sign vector, for the winner, and lists the optimizers of the
orthants that tie it.

The sweep also prunes.  In phase two each orthant LP's tableau is dual
feasible, so its objective bounds that orthant's optimum from above.
Once the bound falls below the best optimum found so far (carried
across chunks) by more than the tie window ``tol * (1 + |best|)``, the
LP is dropped: that orthant can neither win nor tie, so the winner and
the ties stay those of the full sweep, bit for bit.

Large sweeps screen before they pivot.  When a program has ``2**8`` or
more orthants and a proved bound ``|x| <= U`` (``_abs_bound``), the
sweep first solves a spread of orthants.  The row multipliers
``y >= 0`` of those LPs bound every orthant's optimum by
``g @ y + max (c_s - G_s.T y) @ x`` over the orthant within the box
(Neumaier and Shcherbina, "Safe bounds in linear and mixed-integer
linear programming", Math. Program. 99, 2004).  Orthants whose bound
lies below the best optimum by more than the tie window are dropped
before their phase one, by the pruning rule above, so the outcome is
unchanged bit for bit.  The best case of interval LPs with free
variables is NP-hard, so this is a screen, not a shortcut.  Below
``2**8`` orthants a second lockstep pass costs more than it saves, and
the sweep is one pass.

The enumeration is exact but exponential, so problems are refused
beyond a configurable cap (default 16) on the number of variables; the
cap counts all ``n`` variables, not only the enumerated ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, SizeCapError
from .intervals import DEFAULT_TOL, REGULARITY_MARGIN, SignVector, _check_tolerances, sign_of
from .linalg import _contraction_ratio
from .simplex import Status, _solve_inequality, _solve_inequality_batch

DEFAULT_ORTHANT_CAP = 16

#: Tableau bytes of one lockstep chunk of orthant LPs.  The sweep's
#: working set, whatever the number of orthants, is that chunk's stack
#: of tableaux and the kernel's two spare buffers of the same size.
_CHUNK_BYTES = 1 << 20

#: Sweeps of at least this many orthants are screened when the
#: program's ``|x|`` is bounded.  Below it a second lockstep pass costs
#: more in numpy's per-step overhead than the orthants it drops save.
_SCREEN_ORTHANTS = 2**8


@dataclass(frozen=True)
class GenAvlpProgram:
    """Data of ``max linear_cost @ x + abs_cost @ |x|`` subject to
    ``linear_lhs @ x + abs_lhs @ |x| <= rhs``."""

    linear_cost: np.ndarray
    abs_cost: np.ndarray
    linear_lhs: np.ndarray
    abs_lhs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.linear_cost, dtype=float)
        q = np.asarray(self.abs_cost, dtype=float)
        G = np.asarray(self.linear_lhs, dtype=float)
        H = np.asarray(self.abs_lhs, dtype=float)
        g = np.asarray(self.rhs, dtype=float)
        if p.ndim != 1 or q.ndim != 1 or g.ndim != 1 or G.ndim != 2 or H.ndim != 2:
            raise DimensionError("cost and rhs vectors must be 1-D, matrices 2-D")
        n = p.shape[0]
        if n < 1:
            raise InputError("program needs at least one variable")
        if q.shape[0] != n:
            raise DimensionError(f"abs_cost has {q.shape[0]} entries, expected {n}")
        m = g.shape[0]
        if G.shape != (m, n) or H.shape != (m, n):
            raise DimensionError(
                f"matrix shapes {G.shape} and {H.shape} inconsistent with "
                f"{m} constraints over {n} variables"
            )
        for arr in (p, q, G, H, g):
            if not np.all(np.isfinite(arr)):
                raise InputError("program data must be finite")
        object.__setattr__(self, "linear_cost", p)
        object.__setattr__(self, "abs_cost", q)
        object.__setattr__(self, "linear_lhs", G)
        object.__setattr__(self, "abs_lhs", H)
        object.__setattr__(self, "rhs", g)

    @classmethod
    def _trusted(cls, linear_cost, abs_cost, linear_lhs, abs_lhs, rhs) -> "GenAvlpProgram":
        """A program from float arrays already known to be finite and of
        consistent shapes, built without checking them again."""
        program = object.__new__(cls)
        for name, value in (("linear_cost", linear_cost), ("abs_cost", abs_cost),
                            ("linear_lhs", linear_lhs), ("abs_lhs", abs_lhs), ("rhs", rhs)):
            object.__setattr__(program, name, value)
        return program

    @property
    def m(self) -> int:
        return self.rhs.shape[0]

    @property
    def n(self) -> int:
        return self.linear_cost.shape[0]


@dataclass(frozen=True)
class SolveOutcome:
    """Combined result over all enumerated orthants.

    ``value`` is a Python float, ``orthant`` the sign vector of the
    winning restriction, ``optimizer`` its point (a feasible point when
    unbounded) and ``ray`` an improving direction when unbounded (it
    stays inside the winning orthant's cone).  The sign vector has
    length ``n``: enumerated columns carry the orthant's label, the
    other columns the sign of the optimizer (of the ray when
    unbounded).  ``ties`` holds, one row each and in lexicographic
    orthant order, the optimizers of the orthants whose optimum lies
    within ``tol * (1 + |value|)`` of ``value``, the winner's included;
    it has no rows unless the status is optimal.
    """

    status: Status
    value: float
    optimizer: np.ndarray | None
    orthant: SignVector | None
    ray: np.ndarray | None
    ties: np.ndarray

    @property
    def sign(self) -> SignVector | None:
        """Sign pattern of the optimizer (zeros count as plus).

        This is the sign of the point itself, which on an orthant
        boundary can differ from the label of the orthant that produced
        it, and it is what downstream sign-update rules consume.
        """
        if self.optimizer is None:
            return None
        return sign_of(self.optimizer)


def _lp_data(
    program: GenAvlpProgram, conv: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, right-hand side and cost of the LP the program lifts to.

    The variables are ``(x, t)``, with one epigraph variable
    ``t_i >= |x_conv[i]|`` per convex column.  The rows are the
    program's rows, then ``k`` zero rows that each orthant turns into
    the sign row of an enumerated column, then the two epigraph rows of
    each convex column.  Without either, the LP is the program's own.
    """
    m, n, c = program.m, program.n, conv.size
    if k == c == 0:
        return program.linear_lhs, program.rhs, program.linear_cost
    lhs = np.zeros((m + k + 2 * c, n + c))
    lhs[:m, :n] = program.linear_lhs
    rhs = np.concatenate([program.rhs, np.zeros(k + 2 * c)])
    if not c:
        return lhs, rhs, program.linear_cost
    lhs[:m, n:] = program.abs_lhs[:, conv]
    lower = m + k + 2 * np.arange(c)
    t_cols = n + np.arange(c)
    lhs[lower, conv] = 1.0
    lhs[lower + 1, conv] = -1.0
    lhs[lower, t_cols] = -1.0
    lhs[lower + 1, t_cols] = -1.0
    cost = np.concatenate([program.linear_cost, program.abs_cost[conv]])
    return lhs, rhs, cost


def _abs_bound(G: np.ndarray, H: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """A vector ``U`` with ``|x| <= U`` for every ``x`` that satisfies
    ``G x + H |x| <= g``, or None when none is proved.

    For a column ``j`` and a sign ``sigma``, a row ``i`` with
    ``d = sigma * G[i, j] + H[i, j] > 0`` bounds ``|x_j|`` on the half
    ``sigma * x_j >= 0``: there ``G[i, j] x_j + H[i, j] |x_j| = d |x_j|``
    and every other column adds at most ``W[i, l] |x_l|``, with
    ``W = max(|G| - H, 0)``.  Of those rows the one with the least
    off-column mass ``sum_{l != j} W[i, l] / d`` is taken, and the
    larger of the two signs' bounds kept, which gives
    ``|x| <= beta + N |x|`` with ``N >= 0`` and a zero diagonal.  When
    ``linalg._contraction_ratio`` proves ``rho(N) <= 1 -
    REGULARITY_MARGIN``, ``(I - N)^-1`` is nonnegative, so any ``U``
    with ``(I - N) U >= beta`` bounds ``|x|``.  ``U`` is one solve,
    lifted along the gate's vector ``v`` until that holds as computed:
    ``(I - N) v >= (1 - ratio) v`` and ``v >= 1``.  None when a column
    lacks a bounding row for a sign, the gate fails or ``U`` is not
    finite.
    """
    n = G.shape[1]
    W = np.maximum(np.abs(G) - H, 0.0)
    off = W.sum(axis=1)[:, None] - W
    at = np.arange(n)
    beta = np.full(n, -np.inf)
    N = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for sigma in (1.0, -1.0):
            d = sigma * G + H
            mass = np.where(d > 0.0, off / d, np.inf)
            rows = mass.argmin(axis=0)
            if not (d[rows, at] > 0.0).all():
                return None
            scale = 1.0 / d[rows, at]
            beta = np.maximum(beta, g[rows] * scale)
            N = np.maximum(N, W[rows] * scale[:, None])
        N[at, at] = 0.0
        ratio, v = _contraction_ratio(N)
        if not ratio <= 1.0 - REGULARITY_MARGIN:
            return None
        I_N = np.eye(n) - N
        U = np.linalg.solve(I_N, beta)
        for _ in range(3):
            if not np.isfinite(U).all():
                return None
            short = (beta - I_N @ U).max()
            if short <= 0.0:
                return np.maximum(U, 0.0)
            U = U + short / (1.0 - ratio) * v
    return None


def _orthant_bounds(
    program: GenAvlpProgram, enum: np.ndarray, U: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Per orthant, in lexicographic order, an upper bound on its
    optimum from the row multipliers ``y >= 0`` (one vector per row),
    the least over the vectors.

    For any feasible ``x``, ``p @ x + q @ |x| <= g @ y + a @ x + h @ |x|``
    with ``a = p - G.T y`` and ``h = q - H.T y``, and the right side
    separates by column over the box ``|x| <= U``: an enumerated column
    of sign ``s`` adds ``U_j max(0, s a_j + h_j)``, any other column
    ``U_j max(0, |a_j| + h_j)``.  The enumerated columns' terms are
    summed over all orthants by one doubling per column, in blocks of
    orthants whose working set stays within ``_CHUNK_BYTES``.
    """
    a = program.linear_cost - y @ program.linear_lhs
    h = program.abs_cost - y @ program.abs_lhs
    other = np.ones(program.n, dtype=bool)
    other[enum] = False
    base = y @ program.rhs + np.maximum(np.abs(a[:, other]) + h[:, other], 0.0) @ U[other]
    # column t's term at bit 0 (s_t = -1) and at bit 1 (s_t = +1)
    a, h, Ue = a[:, enum], h[:, enum], U[enum]
    terms = np.stack([np.maximum(h - a, 0.0) * Ue, np.maximum(h + a, 0.0) * Ue], axis=2)
    k, count = enum.size, len(y)
    # the last ``low`` columns' sums over their 2**low orthants, per
    # vector, as one block; the first columns' sum is added per block
    low = min(k, max(0, (_CHUNK_BYTES // (8 * count)).bit_length() - 1))
    tail = np.zeros((count, 1))
    for t in range(k - low, k):
        tail = (tail[:, :, None] + terms[:, t, None, :]).reshape(count, -1)
    high = np.arange(k - low)
    bounds = np.empty(2**k)
    for i in range(2 ** (k - low)):
        head = base + terms[:, high, (i >> (k - low - 1 - high)) & 1].sum(axis=1)
        bounds[i << low : (i + 1) << low] = (head[:, None] + tail).min(axis=0)
    return bounds


def solve_gen_avlp(
    program: GenAvlpProgram,
    tol: float = DEFAULT_TOL,
    orthant_cap: int = DEFAULT_ORTHANT_CAP,
) -> SolveOutcome:
    """Solve a generalized program by orthant decomposition over the
    columns with a nonconvex ``|x|`` term.

    A column is enumerated unless its ``|x_j|`` only loosens rows and
    costs (``abs_lhs[:, j] >= 0``, ``abs_cost[j] <= 0``), which includes
    a column without ``|x_j|`` terms.  A program with no enumerated
    column is one LP, which the scalar kernel solves.  Otherwise the
    orthant LPs are solved in lockstep chunks of at most
    ``_CHUNK_BYTES`` of tableau, and those the batch hands back go to
    the scalar kernel.  The winner is the first unbounded orthant, else
    the first orthant with the largest value.

    The batch prunes in phase two every orthant LP whose optimum
    provably lies below the best optimum found so far in the sweep by
    more than ``tol * (1 + |best|)``.  An orthant that ties the winner
    within that window is never pruned, since its bound never falls
    below its own optimum, which is at least the winner's value minus
    the window (up to rounding: the bound is read off the tableau, the
    optimum recomputed as ``cost @ x``); so the outcome, ties
    included, is the one the full sweep gives.

    A sweep of at least ``_SCREEN_ORTHANTS`` orthants over a program
    whose ``|x|`` ``_abs_bound`` bounds first solves ``F =
    2**(ceil(k/2) + 1)`` orthants, every ``(2**k // F + 1)``-th modulo
    ``2**k``.  Every other orthant whose bound from their multipliers
    (``_orthant_bounds``) lies below the best optimum so far by more
    than the same window reads ``-inf`` unsolved; the bound is at least
    the orthant's optimum, so it can neither win nor tie.  The rest
    are swept in lexicographic chunks with the incumbent carried, and
    pivoted exactly as without the screen.

    Raises ``SizeCapError`` when the variable count exceeds
    ``orthant_cap`` and ``InputError`` unless ``0 < tol <= 1e-3``.
    """
    _check_tolerances(tol)
    n = program.n
    if n > orthant_cap:
        raise SizeCapError(
            f"orthant decomposition over {n} variables needs up to 2**{n} subproblems, "
            f"cap is {orthant_cap}"
        )
    p = program.linear_cost
    q = program.abs_cost
    G = program.linear_lhs
    H = program.abs_lhs
    enumerated = (H < 0.0).any(axis=0) | (q > 0.0)
    # columns with an |x| term that are not enumerated are convex
    conv = np.flatnonzero(~enumerated & (H.any(axis=0) | (q != 0.0)))

    if not enumerated.any():
        core = _solve_inequality(*_lp_data(program, conv, 0), tol)
        if core.status is Status.INFEASIBLE:
            return SolveOutcome(Status.INFEASIBLE, core.value, None, None, None, np.empty((0, n)))
        point = core.x[:n]
        if core.status is Status.UNBOUNDED:
            ray = core.ray[:n]
            # a feasible point, no optimum to tie
            return SolveOutcome(Status.UNBOUNDED, core.value, point, sign_of(ray), ray,
                                np.empty((0, n)))
        return SolveOutcome(Status.OPTIMAL, core.value, point, sign_of(point), None,
                            point[None].copy())

    enum = np.flatnonzero(enumerated)
    m, k = program.m, enum.size
    lhs, rhs, cost = _lp_data(program, conv, k)

    # per orthant, in lexicographic order: the LP value (+inf
    # unbounded, -inf infeasible or pruned), the point (nan when there
    # is none) and the ray when unbounded
    values = np.full(2**k, np.nan)
    points = np.full((2**k, n), np.nan)
    rays: dict[int, np.ndarray] = {}

    # enumerated column t takes bit k-1-t of the orthant's index, so
    # index order is lexicographic sign order
    shifts = np.arange(k - 1, -1, -1)
    rows, cols = lhs.shape
    chunk = max(1, _CHUNK_BYTES // (8 * (cols + 1) * (rows + cols + 1)))
    incumbent = -np.inf
    # enumerated column t of G + H diag(s), as a row: G - H where
    # s_t = -1 (bit 0) and G + H where s_t = +1 (bit 1), bit for bit
    choices = np.stack([(G - H)[:, enum].T, (G + H)[:, enum].T])

    def sweep(order: np.ndarray) -> list[np.ndarray]:
        """Solve the orthants ``order`` in chunks, carrying the
        incumbent; return each chunk's ``y``."""
        nonlocal incumbent
        ys = []
        for start in range(0, order.size, chunk):
            idx = order[start : start + chunk]
            bits = (idx[:, None] >> shifts) & 1
            signs = np.where(bits, 1.0, -1.0)
            # built as (orthant, column, row), the layout the dual
            # tableaux read, and passed as its (orthant, row, column) view
            lhs_stack = np.broadcast_to(lhs.T, (idx.size, cols, rows)).copy()
            lhs_stack[:, enum, :m] = choices[bits, np.arange(k)]
            lhs_stack[:, enum, m + np.arange(k)] = -signs
            lhs_stack = lhs_stack.transpose(0, 2, 1)
            cost_stack = np.broadcast_to(cost, (idx.size, cols)).copy()
            cost_stack[:, enum] = p[enum] + q[enum] * signs
            value, x, y = _solve_inequality_batch(lhs_stack, rhs, cost_stack, tol, incumbent)
            ys.append(y)
            for i in np.flatnonzero(np.isnan(value)):
                # a rare branch of the scalar kernel
                core = _solve_inequality(lhs_stack[i], rhs, cost_stack[i], tol)
                value[i] = core.value
                if core.x is not None:
                    x[i] = core.x
                if core.ray is not None:
                    rays[idx[i]] = core.ray[:n]
            values[idx] = value
            points[idx] = x[:, :n]
            incumbent = max(incumbent, value[np.isfinite(value)].max(initial=-np.inf))
        return ys

    order = np.arange(2**k)
    if 2**k >= _SCREEN_ORTHANTS and (U := _abs_bound(G, H, program.rhs)) is not None:
        # screen: solve a spread of orthants, then bound every other
        # one from their multipliers and drop those that can neither
        # win nor tie, as the kernel's pruning does
        spread = 2 ** ((k + 1) // 2 + 1)
        first = np.arange(spread) * (2**k // spread + 1) % 2**k
        y = np.concatenate(sweep(first))[:, :m]
        y = np.maximum(y[~np.isnan(y).any(axis=1)], 0.0)
        rest = np.ones(2**k, dtype=bool)
        rest[first] = False
        # a bounded |x| leaves no orthant unbounded; should the kernel
        # find one anyway, the first unbounded orthant must still win,
        # so nothing is dropped
        if y.size and np.isfinite(incumbent) and not (values[first] == np.inf).any():
            cut = incumbent - tol * (1.0 + abs(incumbent))
            dropped = rest & (_orthant_bounds(program, enum, U, y) < cut)
            values[dropped] = -np.inf
            rest &= ~dropped
        order = np.flatnonzero(rest)
    sweep(order)

    best = int(np.argmax(values))
    value = float(values[best])
    if value == -np.inf:
        return SolveOutcome(Status.INFEASIBLE, value, None, None, None, np.empty((0, n)))
    if value == np.inf:
        status, ties = Status.UNBOUNDED, np.empty((0, n))
    else:
        status, ties = Status.OPTIMAL, points[values >= value - tol * (1.0 + abs(value))]
    # unsplit columns take the sign of the point (of the ray when
    # unbounded), enumerated ones the orthant's
    label = np.where(rays.get(best, points[best]) < 0, -1.0, 1.0)
    label[enum] = np.where((best >> shifts) & 1, 1.0, -1.0)
    return SolveOutcome(
        status=status,
        value=value,
        optimizer=points[best],
        orthant=SignVector(label),
        ray=rays.get(best),
        ties=ties,
    )


def from_realization(
    lhs: np.ndarray,
    rhs: np.ndarray,
    cost: np.ndarray,
    relief: np.ndarray,
) -> GenAvlpProgram:
    """Embed point data ``max cost @ x, lhs @ x - relief @ |x| <= rhs``.

    ``relief`` scales the slack each constraint gains from ``|x|`` and
    must be entrywise nonnegative; a negative entry is rejected.
    """
    relief = np.asarray(relief, dtype=float)
    bad = np.argwhere(relief < 0)
    if bad.size:
        i, j = bad[0]
        raise InputError(
            f"relief matrix must be nonnegative, entry ({i + 1},{j + 1}) is {relief[i, j]}"
        )
    n = np.asarray(cost, dtype=float).shape[0] if np.ndim(cost) else 1
    return GenAvlpProgram(
        linear_cost=cost,
        abs_cost=np.zeros(n),
        linear_lhs=lhs,
        abs_lhs=-relief,
        rhs=rhs,
    )


__all__ = [
    "DEFAULT_ORTHANT_CAP",
    "GenAvlpProgram",
    "SolveOutcome",
    "solve_gen_avlp",
    "from_realization",
]
