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
``simplex._solve_inequality``.  A single LP is always solved by the
scalar kernel, which is faster for one.  The sweep keeps its outcomes
as arrays and picks the winner from them; it builds one sign vector,
for the winner, and per-orthant records only when asked.

Unless records are asked for, the sweep also prunes.  In phase two each
orthant LP's tableau is dual feasible, so its objective bounds that
orthant's optimum from above.  Once the bound falls below the best
optimum found so far (carried across chunks) by more than the tie
window ``tol * (1 + |best|)``, the LP is dropped: that orthant can
neither win nor tie, so the outcome stays the one the full sweep gives,
bit for bit.

The enumeration is exact but exponential, so problems are refused
beyond a configurable cap (default 16) on the number of variables; the
cap counts all ``n`` variables, not only the enumerated ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, SizeCapError
from .intervals import DEFAULT_TOL, SignVector, _check_tolerances, sign_of
from .simplex import _HANDED_BACK, Status, _solve_inequality, _solve_inequality_batch

DEFAULT_ORTHANT_CAP = 16

#: Tableau bytes of one lockstep chunk of orthant LPs.  The sweep's
#: working set, whatever the number of orthants, is that chunk's stack
#: of tableaux, one scratch buffer of the same size and, once some
#: tableaux finish, a compacted copy of those still pivoting.
_CHUNK_BYTES = 1 << 20


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

    @property
    def m(self) -> int:
        return self.rhs.shape[0]

    @property
    def n(self) -> int:
        return self.linear_cost.shape[0]


@dataclass(frozen=True)
class OrthantRecord:
    """Outcome of one orthant restriction."""

    orthant: SignVector
    status: Status
    value: float
    optimizer: np.ndarray | None = None


@dataclass(frozen=True)
class SolveOutcome:
    """Combined result over all enumerated orthants.

    ``value`` is a Python float, ``orthant`` the sign vector of the
    winning restriction, ``optimizer`` its point (a feasible point when
    unbounded) and ``ray`` an improving direction when unbounded (it
    stays inside the winning orthant's cone).  ``records`` is empty
    unless ``solve_gen_avlp`` was called with ``records=True``; then it
    holds the per-orthant outcomes in lexicographic order, one per
    orthant of the columns with a nonconvex ``|x|`` term (a single
    record when there is none).  Every sign vector has length ``n``:
    enumerated columns carry the orthant's label, the other columns
    the sign of that restriction's optimizer (of its ray when
    unbounded, plus when infeasible).
    """

    status: Status
    value: float
    optimizer: np.ndarray | None
    orthant: SignVector | None
    ray: np.ndarray | None
    records: tuple[OrthantRecord, ...]

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


def _column_kinds(abs_lhs: np.ndarray, abs_cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the convex and of the enumerated columns of a max.

    A column without any ``|x_j|`` term needs nothing.  A column whose
    ``|x_j|`` only loosens rows and costs (``abs_lhs[:, j] >= 0``,
    ``abs_cost[j] <= 0``) is convex; every other column is enumerated.
    """
    absent = np.all(abs_lhs == 0.0, axis=0) & (abs_cost == 0.0)
    convex = ~absent & np.all(abs_lhs >= 0.0, axis=0) & (abs_cost <= 0.0)
    enumerated = ~(absent | convex)
    return np.flatnonzero(convex), np.flatnonzero(enumerated)


def solve_gen_avlp(
    program: GenAvlpProgram,
    tol: float = DEFAULT_TOL,
    orthant_cap: int = DEFAULT_ORTHANT_CAP,
    records: bool = False,
) -> SolveOutcome:
    """Solve a generalized program by orthant decomposition over the
    columns with a nonconvex ``|x|`` term.

    The orthant LPs are solved in lockstep chunks of at most
    ``_CHUNK_BYTES`` of tableau; those the batch hands back, and the
    single LP of a program with no enumerated column, go to the scalar
    kernel.  The winner is the first unbounded orthant, else the first
    orthant with the largest value.

    With ``records=False`` (the default) ``SolveOutcome.records`` is
    empty, and the batch prunes in phase two every orthant LP whose
    optimum provably lies below the best optimum found so far in the
    sweep by more than ``tol * (1 + |best|)``: such an orthant can
    neither win nor tie within that window, so the outcome is the one
    the full sweep gives.  With ``records=True`` nothing is pruned and
    every orthant's record is returned.

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
    conv, enum = _column_kinds(H, q)

    m, k, c = program.m, enum.size, conv.size
    if k == c == 0:
        # one LP on the program's own rows: nothing to lift
        lhs, rhs, cost = G, program.rhs, p
    else:
        # variables (x, t) with one epigraph variable t_i >= |x_conv[i]|;
        # rows: program rows, one sign row per enumerated column, then
        # the two epigraph rows of each convex column
        lhs = np.zeros((m + k + 2 * c, n + c))
        lhs[:m, :n] = G
        lhs[:m, n:] = H[:, conv]
        lower = m + k + 2 * np.arange(c)
        t_cols = n + np.arange(c)
        lhs[lower, conv] = 1.0
        lhs[lower + 1, conv] = -1.0
        lhs[lower, t_cols] = -1.0
        lhs[lower + 1, t_cols] = -1.0
        rhs = np.concatenate([program.rhs, np.zeros(k + 2 * c)])
        cost = np.concatenate([p, q[conv]])

    # per orthant, in lexicographic order: the LP value (+inf
    # unbounded, -inf infeasible or pruned), the point (nan when there
    # is none) and the ray when unbounded
    values = np.full(2**k, np.nan)
    points = np.full((2**k, n), np.nan)
    rays: dict[int, np.ndarray] = {}

    def scalar(i: int, G_i: np.ndarray, c_i: np.ndarray) -> None:
        core = _solve_inequality(G_i, rhs, c_i, tol)
        values[i] = core.value
        if core.x is not None:
            points[i] = core.x[:n]
        if core.ray is not None:
            rays[i] = core.ray[:n]

    # enumerated column t takes bit k-1-t of the orthant's index, so
    # index order is lexicographic sign order
    shifts = np.arange(k - 1, -1, -1)
    if k == 0:
        # a single LP, for which the scalar kernel is faster
        scalar(0, lhs, cost)
    else:
        rows, cols = lhs.shape
        chunk = max(1, _CHUNK_BYTES // (8 * (cols + 1) * (rows + cols + 1)))
        incumbent = None if records else -np.inf
        # enumerated column t of G + H diag(s), as a row: G - H where
        # s_t = -1 (bit 0) and G + H where s_t = +1 (bit 1), bit for bit
        choices = np.stack([(G - H)[:, enum].T, (G + H)[:, enum].T])
        for start in range(0, 2**k, chunk):
            stop = min(start + chunk, 2**k)
            bits = (np.arange(start, stop)[:, None] >> shifts) & 1
            signs = np.where(bits, 1.0, -1.0)
            # built as (orthant, column, row), the layout the dual
            # tableaux read, and passed as its (orthant, row, column) view
            lhs_stack = np.broadcast_to(lhs.T, (stop - start, cols, rows)).copy()
            lhs_stack[:, enum, :m] = choices[bits, np.arange(k)]
            lhs_stack[:, enum, m + np.arange(k)] = -signs
            lhs_stack = lhs_stack.transpose(0, 2, 1)
            cost_stack = np.broadcast_to(cost, (stop - start, cols)).copy()
            cost_stack[:, enum] = p[enum] + q[enum] * signs
            batch = _solve_inequality_batch(lhs_stack, rhs, cost_stack, tol, incumbent)
            values[start:stop] = batch.value
            points[start:stop] = batch.x[:, :n]
            for i in np.flatnonzero(batch.code == _HANDED_BACK):
                # a rare branch of the scalar kernel
                scalar(start + i, lhs_stack[i], cost_stack[i])
            if incumbent is not None:
                done = values[start:stop]
                incumbent = max(incumbent, done[np.isfinite(done)].max(initial=-np.inf))

    def status(i: int) -> Status:
        if np.isfinite(values[i]):
            return Status.OPTIMAL
        return Status.UNBOUNDED if values[i] > 0 else Status.INFEASIBLE

    def orthant(i: int) -> SignVector:
        # unsplit columns take the sign of the point (of the ray when
        # unbounded, plus when infeasible: its point is nan)
        label = np.where(rays.get(i, points[i]) < 0, -1.0, 1.0)
        if k:
            label[enum] = np.where((i >> shifts) & 1, 1.0, -1.0)
        return SignVector(label)

    kept = ()
    if records:
        kept = tuple(
            OrthantRecord(
                orthant=orthant(i),
                status=status(i),
                value=float(values[i]),
                optimizer=points[i] if status(i) is Status.OPTIMAL else None,
            )
            for i in range(len(values))
        )
    best = int(np.argmax(values))
    if values[best] == -np.inf:
        return SolveOutcome(
            status=Status.INFEASIBLE,
            value=-np.inf,
            optimizer=None,
            orthant=None,
            ray=None,
            records=kept,
        )
    return SolveOutcome(
        status=status(best),
        value=float(values[best]),
        optimizer=points[best],
        orthant=orthant(best),
        ray=rays.get(best),
        records=kept,
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
    "OrthantRecord",
    "SolveOutcome",
    "solve_gen_avlp",
    "from_realization",
]
