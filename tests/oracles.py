"""Independent reference computations used only by the tests.

Everything here recomputes answers by brute force (vertex enumeration,
exhaustive sign patterns, corner sweeps) so the package's solvers are
checked against arithmetic that shares no code with them.  The one
exception is ``orthant_sweep``, which solves each orthant LP with the
package's scalar ``solve_lp`` so that its outcome can be compared with
the batched, pruned sweep bit for bit.  The random instance generators
live here too so unit and acceptance tests draw from the same families.
"""

import itertools

import numpy as np

from avlprange import (
    AvlpProblem,
    IntervalMatrix,
    IntervalVector,
    LpProblem,
    SignVector,
    SolveOutcome,
    Status,
    solve_lp,
)

BOX = 1e5


def boxed_vertex_max(G, g, c, box=BOX):
    """Maximum of ``c @ x`` over ``G x <= g`` cut to ``|x_i| <= box``.

    Candidate vertices are intersections of n rows of [G; I; -I]; the
    feasible ones are kept and the best objective wins.  Returns
    ``(value, feasible)``.
    """
    G = np.asarray(G, dtype=float)
    m, n = G.shape
    rows = np.vstack([G, np.eye(n), -np.eye(n)])
    rhs = np.concatenate([np.asarray(g, dtype=float), np.full(2 * n, box)])
    combos = np.array(list(itertools.combinations(range(m + 2 * n), n)))
    mats = rows[combos]
    keep = np.abs(np.linalg.det(mats)) > 1e-8
    if not np.any(keep):
        return -np.inf, False
    sols = np.linalg.solve(mats[keep], rhs[combos[keep]][..., None])[..., 0]
    slack = rhs[None, :] - sols @ rows.T
    feasible = np.all(slack >= -1e-7 * (1.0 + np.abs(rhs))[None, :], axis=1)
    if not np.any(feasible):
        return -np.inf, False
    return float(np.max(sols[feasible] @ np.asarray(c, dtype=float))), True


def lp_oracle(G, g, c, box=BOX):
    """Reference LP solve: ``('optimal'|'unbounded'|'infeasible', value)``.

    Unboundedness shows up as the optimum growing when the safety box
    is doubled.
    """
    v1, feas = boxed_vertex_max(G, g, c, box)
    if not feas:
        return "infeasible", -np.inf
    v2, _ = boxed_vertex_max(G, g, c, 2.0 * box)
    if v2 > v1 + 1e-4 * (1.0 + abs(v1)):
        return "unbounded", np.inf
    return "optimal", v1


def avlp_oracle(lin_cost, abs_cost, lin_lhs, abs_lhs, rhs, box=BOX):
    """Reference solve of ``max lin_cost @ x + abs_cost @ |x|`` subject
    to ``lin_lhs @ x + abs_lhs @ |x| <= rhs``, one boxed LP per orthant."""
    lin_cost = np.asarray(lin_cost, dtype=float)
    abs_cost = np.asarray(abs_cost, dtype=float)
    lin_lhs = np.asarray(lin_lhs, dtype=float)
    abs_lhs = np.asarray(abs_lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = lin_cost.shape[0]
    status = "infeasible"
    best = -np.inf
    for bits in itertools.product((-1.0, 1.0), repeat=n):
        s = np.array(bits)
        G = np.vstack([lin_lhs + abs_lhs * s[None, :], -np.diag(s)])
        g = np.concatenate([rhs, np.zeros(n)])
        st, v = lp_oracle(G, g, lin_cost + abs_cost * s, box)
        if st == "unbounded":
            return "unbounded", np.inf
        if st == "optimal":
            status = "optimal"
            if v > best:
                best = v
    return status, best


def orthant_sweep(program, tol=1e-9):
    """Unpruned reference for ``solve_gen_avlp``: ``(outcome, lps)``.

    Each orthant LP is built as the sweep builds it (the enumerated
    columns' sign rows, then two epigraph rows ``±x_j - t_j <= 0`` per
    convex column) and solved on its own with ``solve_lp``; ``lps``
    holds those outcomes in lexicographic orthant order.  The winner is
    the first unbounded orthant, else the first with the largest value,
    and the ties are the optimizers within ``tol * (1 + |value|)`` of
    it.  Nothing is pruned, batched or chunked.
    """
    p, q = program.linear_cost, program.abs_cost
    G, H, g = program.linear_lhs, program.abs_lhs, program.rhs
    m, n = G.shape
    absent = np.all(H == 0.0, axis=0) & (q == 0.0)
    convex = ~absent & np.all(H >= 0.0, axis=0) & (q <= 0.0)
    enum = np.flatnonzero(~(absent | convex))
    conv = np.flatnonzero(convex)
    k, c = enum.size, conv.size
    lps, labels = [], []
    for bits in itertools.product((-1.0, 1.0), repeat=k):
        s = np.array(bits)
        if k == c == 0:
            lhs, rhs, cost = G, g, p
        else:
            lhs = np.zeros((m + k + 2 * c, n + c))
            lhs[:m, :n] = G
            lhs[:m, enum] = G[:, enum] + H[:, enum] * s
            lhs[:m, n:] = H[:, conv]
            lhs[m + np.arange(k), enum] = -s
            for i, j in enumerate(conv):
                lhs[m + k + 2 * i, [j, n + i]] = (1.0, -1.0)
                lhs[m + k + 2 * i + 1, [j, n + i]] = (-1.0, -1.0)
            rhs = np.concatenate([g, np.zeros(k + 2 * c)])
            cost = np.concatenate([p, q[conv]])
            cost[enum] = p[enum] + q[enum] * s
        out = solve_lp(LpProblem(c=cost, G=lhs, g=rhs), tol)
        lps.append(out)
        point = out.ray if out.status is Status.UNBOUNDED else out.x
        label = np.ones(n) if point is None else np.where(point[:n] < 0, -1.0, 1.0)
        label[enum] = s
        labels.append(SignVector(label))
    values = np.array([out.value for out in lps])
    best = int(np.argmax(values))
    winner = lps[best]
    if winner.status is Status.INFEASIBLE:
        return SolveOutcome(Status.INFEASIBLE, -np.inf, None, None, None, np.empty((0, n))), lps
    optimizer = np.full(n, np.nan) if winner.x is None else winner.x[:n]
    ties = np.empty((0, n))
    if winner.status is Status.OPTIMAL:
        window = tol * (1.0 + abs(winner.value))
        ties = np.array([out.x[:n] for out in lps if out.value >= winner.value - window])
    ray = None if winner.ray is None else winner.ray[:n]
    outcome = SolveOutcome(winner.status, float(winner.value), optimizer, labels[best], ray, ties)
    return outcome, lps


def bstable_characterizations(problem, rows):
    """Four reformulations of the worst case over the basic ``rows``.

    All four use the objective ``mid(c) @ x - rad(c) @ |x|`` and the
    row map ``mid(A)_B x + (rad(A) - inf(D))_B |x|`` against
    ``inf(b)_B``.  Returns ``(min_at_least, max_at_most,
    max_at_equality, min_at_equality)``: minimized where the rows are
    held at least at the bound, maximized where they are held at most
    at it, and both optima where they hold with equality.  Under
    nondegenerate stability all four equal the worst case value.  Each
    is one ``avlp_oracle`` solve; a minimum is minus the maximum of
    the negated objective.
    """
    rows = np.asarray(rows)
    lhs = problem.A.mid[rows]
    relief = (problem.A.rad - problem.D.inf)[rows]
    bound = problem.b.inf[rows]
    p, q = problem.c.mid, -problem.c.rad

    def maximum(sign, lin_lhs, abs_lhs, rhs):
        return sign * avlp_oracle(sign * p, sign * q, lin_lhs, abs_lhs, rhs)[1]

    both = (np.vstack([lhs, -lhs]), np.vstack([relief, -relief]), np.concatenate([bound, -bound]))
    return (
        maximum(-1.0, -lhs, -relief, -bound),
        maximum(1.0, lhs, relief, bound),
        maximum(1.0, *both),
        maximum(-1.0, *both),
    )


def corner_determinant_range(mid, rad):
    """Exact determinant range of an interval matrix.

    The determinant is multilinear in the entries, so its extrema over
    the entry box sit at corners; every corner is enumerated.  Only
    usable when few entries have positive radius.
    """
    mid = np.asarray(mid, dtype=float)
    rad = np.asarray(rad, dtype=float)
    spots = np.argwhere(rad > 0)
    if len(spots) == 0:
        d = float(np.linalg.det(mid))
        return d, d
    lo, hi = np.inf, -np.inf
    for bits in itertools.product((-1.0, 1.0), repeat=len(spots)):
        corner = mid.copy()
        for (i, j), t in zip(spots, bits):
            corner[i, j] += t * rad[i, j]
        d = float(np.linalg.det(corner))
        lo = min(lo, d)
        hi = max(hi, d)
    return lo, hi


def corner_solution_hull(mid, rad, rhs):
    """Vertices of the hull of the solution set of ``[mid ± rad] x = rhs``.

    Every entry with positive radius is put at each of its two ends in
    turn, each endpoint system is solved, and the vertices of the
    convex hull of those solutions are returned.  For a regular
    interval matrix whose solutions keep one sign pattern this is the
    hull of the whole solution set.  Only usable when few entries have
    positive radius.
    """
    from scipy.spatial import ConvexHull

    mid = np.asarray(mid, dtype=float)
    rad = np.asarray(rad, dtype=float)
    spots = np.argwhere(rad > 0)
    points = []
    for bits in itertools.product((-1.0, 1.0), repeat=len(spots)):
        corner = mid.copy()
        for (i, j), t in zip(spots, bits):
            corner[i, j] += t * rad[i, j]
        points.append(np.linalg.solve(corner, rhs))
    points = np.array(points)
    return points[ConvexHull(points).vertices]


def gave_solutions(M, F, g):
    """Every solution of ``M x + F |x| = g`` by trying all sign patterns."""
    M = np.asarray(M, dtype=float)
    F = np.asarray(F, dtype=float)
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    found = []
    cap = 1e-8 * (1.0 + float(np.max(np.abs(g), initial=0.0)))
    for bits in itertools.product((-1.0, 1.0), repeat=n):
        s = np.array(bits)
        try:
            x = np.linalg.solve(M + F * s[None, :], g)
        except np.linalg.LinAlgError:
            continue
        if np.all(s * x >= -1e-10):
            if float(np.max(np.abs(M @ x + F @ np.abs(x) - g))) <= cap:
                if all(float(np.max(np.abs(x - y))) > 1e-7 for y in found):
                    found.append(x)
    return found


def random_lp(rng):
    """Dense random LP with free variables, n <= 4 and m <= 10."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 11))
    G = rng.uniform(-5.0, 5.0, (m, n))
    g = rng.uniform(-5.0, 5.0, m)
    c = rng.uniform(-5.0, 5.0, n)
    return G, g, c


def random_box_bounded_problem(rng, relief=0.0):
    """Interval problem feasible and bounded for every realization.

    Rows are perturbed +-e_j pairs, so any point with large norm
    violates some row no matter which member matrices are drawn, and
    the right side stays positive, so the origin is always strictly
    feasible.  n <= 3 and m = 2n <= 6.

    ``inf(D) = relief * sup(D)``.  With the default 0 the worst-case
    lower program is convex; with a relief near 1, ``inf(D)`` exceeds
    ``rad(A)`` in some entries, so that program has nonconvex columns
    and its sweep can tie across orthants.  The draws do not depend on
    ``relief``.
    """
    n = int(rng.integers(1, 4))
    m = 2 * n
    rows = np.zeros((m, n))
    for j in range(n):
        rows[2 * j, j] = 1.0
        rows[2 * j + 1, j] = -1.0
    rows = rows + rng.uniform(-0.1 / n, 0.1 / n, rows.shape)
    rad_a = rng.uniform(0.0, 0.1 / n, rows.shape)
    d_sup = rng.uniform(0.0, 0.3 / n, rows.shape)
    return AvlpProblem(
        A=IntervalMatrix.from_midrad(rows, rad_a),
        b=IntervalVector.from_midrad(rng.uniform(1.0, 3.0, m), rng.uniform(0.0, 0.2, m)),
        c=IntervalVector.from_midrad(rng.uniform(-2.0, 2.0, n), rng.uniform(0.0, 0.5, n)),
        D=IntervalMatrix(relief * d_sup, d_sup),
    )


def random_stable_problem(rng, scale=1e-3, near_zero=False):
    """Problem built so its first n rows form a stable optimal basis.

    The basic block is diagonally dominant, the cost is a positive
    combination of the basic rows, and the right side puts the basic
    vertex strictly inside every nonbasic row.  Radii (``scale`` times
    uniform draws) are small enough at the default that the stability
    certificate usually verifies; callers filter on it.  With
    ``near_zero`` the first entry of the nominal basic solution is
    drawn within ``scale / 10`` of zero, so its enclosure may touch
    zero.  Returns ``(problem, basis_rows)``.
    """
    n = int(rng.integers(2, 4))
    extra = int(rng.integers(1, 4))
    m = n + extra
    block = rng.uniform(-0.5, 0.5, (n, n))
    block[np.arange(n), np.arange(n)] = rng.uniform(2.0, 4.0, n)
    x_star = rng.uniform(0.5, 2.0, n)
    if near_zero:
        x_star[0] = scale * rng.uniform(-0.1, 0.1)
    y_star = rng.uniform(0.5, 2.0, n)
    a_mid = np.vstack([block, rng.uniform(-1.0, 1.0, (extra, n))])
    b_mid = np.concatenate(
        [block @ x_star, a_mid[n:] @ x_star + rng.uniform(0.5, 1.5, extra)]
    )
    c_mid = block.T @ y_star
    d_sup = scale * rng.uniform(0.0, 1.0, (m, n))
    problem = AvlpProblem(
        A=IntervalMatrix.from_midrad(a_mid, scale * rng.uniform(0.0, 1.0, (m, n))),
        b=IntervalVector.from_midrad(b_mid, scale * rng.uniform(0.0, 1.0, m)),
        c=IntervalVector.from_midrad(c_mid, scale * rng.uniform(0.0, 1.0, n)),
        D=IntervalMatrix(np.zeros_like(d_sup), d_sup),
    )
    return problem, tuple(range(n))


def random_gave(rng):
    """Uniquely solvable absolute value system.

    ``F`` is rescaled until the envelope statistic
    ``rho(|M^-1| |F|)`` sits in (0.2, 0.9), which keeps every
    ``rho(|M^-1 F|)`` style condition comfortably below one.
    """
    n = int(rng.integers(1, 4))
    M = rng.uniform(-2.0, 2.0, (n, n)) + 3.0 * np.eye(n)
    F = rng.uniform(-1.0, 1.0, (n, n))
    stat = float(
        np.max(np.abs(np.linalg.eigvals(np.abs(np.linalg.inv(M)) @ np.abs(F))))
    )
    target = float(rng.uniform(0.2, 0.9))
    if stat > 1e-12:
        F = F * (target / stat)
    g = rng.uniform(-3.0, 3.0, n)
    return M, F, g


def gave_problem(M, F, g, y):
    """Problem with one row per variable whose basis ``(0, ..., n-1)``
    has the worst-case system ``M x + F |x| = g``.

    ``A`` has midpoint ``M`` and radius ``max(F, 0)``, ``D`` is the
    point ``max(-F, 0)``, ``b`` the point ``g`` and ``c`` the point
    ``M.T @ y``, so ``y`` solves the midpoint dual system.  The arrays
    the package reads back (``mid``, ``rad``) may differ from ``M`` and
    ``F`` by rounding; oracles should start from the problem's own.
    """
    M = np.asarray(M, dtype=float)
    F = np.asarray(F, dtype=float)
    relief = np.maximum(-F, 0.0)
    return AvlpProblem(
        A=IntervalMatrix.from_midrad(M, np.maximum(F, 0.0)),
        b=IntervalVector.from_point(g),
        c=IntervalVector.from_point(M.T @ np.asarray(y, dtype=float)),
        D=IntervalMatrix(relief, relief),
    )


def worst_system(problem, rows):
    """``(M, F, g)`` of the worst-case system over the basic ``rows``."""
    rows = np.asarray(rows)
    return problem.A.mid[rows], (problem.A.rad - problem.D.inf)[rows], problem.b.inf[rows]
