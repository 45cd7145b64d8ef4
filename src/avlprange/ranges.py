"""Range of optimal values of an interval absolute value program.

The problem data ``A``, ``b``, ``c``, ``D`` are interval-valued, and
each point selection ("realization") defines one program

    maximize  c @ x  subject to  A x - D |x| <= b,     D >= 0.

Over all realizations the optimal value sweeps an interval.  Its upper
endpoint (the best case) is computed exactly by a single generalized
program.  The lower endpoint (the worst case) is bracketed: a one-shot
program gives a lower bound, a sign-consistency certificate can prove
that bound exact, and an iterative sign-update scheme tightens an upper
bound on the worst case from above.

The certificate asks whether some realization attains the lower bound:
the worst-case corner ``AvlpProblem.worst_corner(s)`` at the sign ``s``
of an optimizer of the lower-bound program.  Both the certificate and
the iteration solve such corners, and they often meet the same
realization.  ``full_range`` shares one memo of outcomes, keyed by the
realization's data, between them, so each distinct realization is
solved once per analysis.  Both carry a realization as its four arrays
(``AvlpProblem._worst_corner_arrays`` for a corner) and build its
program without validating data that comes from a validated problem;
the only ``Realization`` they build is the reported upper witness.
This module solves no LP of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .avlp import (
    DEFAULT_ORTHANT_CAP,
    GenAvlpProgram,
    from_realization,
    solve_gen_avlp,
    SolveOutcome,
)
from .errors import DimensionError, InputError, NumericalError, SingularMatrixError
from .intervals import (
    DEFAULT_TOL,
    IntervalMatrix,
    IntervalVector,
    SignVector,
    _array_fields_eq,
    _as_float_array,
    _check_finite,
    _check_tolerances,
    _freeze,
    sign_of,
)
from .simplex import Status
# unused here; perfbench/tracer.py wraps ``ranges._solve_inequality``,
# and without the name its traced run drops every simplex and avlp metric
from .simplex import _solve_inequality  # noqa: F401

#: Failures that ``full_range`` and ``worst_range`` record per field
#: while the other components still run.  ``SizeCapError`` is not one:
#: the cap counts all ``n`` variables, so it refuses every component
#: alike and propagates.
_COMPONENT_ERRORS = (InputError, SingularMatrixError, NumericalError)


@dataclass(frozen=True)
class AvlpProblem:
    """Interval problem data.

    ``A`` couples constraints to ``x``, ``D`` to ``|x|`` (subtracted,
    so it relaxes constraints and must have a nonnegative lower bound),
    ``b`` bounds the rows and ``c`` is the objective.
    """

    A: IntervalMatrix
    b: IntervalVector
    c: IntervalVector
    D: IntervalMatrix

    def __post_init__(self):
        m, n = self.A.inf.shape
        if self.b.inf.shape != (m,):
            raise DimensionError(
                f"b has {self.b.inf.shape[0]} entries, expected one per row ({m})"
            )
        if self.c.inf.shape != (n,):
            raise DimensionError(
                f"c has {self.c.inf.shape[0]} entries, expected one per column ({n})"
            )
        if self.D.inf.shape != (m, n):
            raise DimensionError(
                f"D has shape {self.D.inf.shape}, expected {(m, n)}"
            )
        bad = np.argwhere(self.D.inf < 0)
        if bad.size:
            i, j = bad[0]
            raise InputError(
                f"D must have a nonnegative lower bound; entry ({i + 1},{j + 1}) "
                f"has lower bound {self.D.inf[i, j]}"
            )
        # the analyses read midpoints, radii and rad(A) + sup(D), which
        # overflow for finite endpoints near the float limit
        with np.errstate(over="ignore"):
            for name in "AbcD":
                for view in ("mid", "rad"):
                    _check_finite(getattr(getattr(self, name), view), f"{name}.{view}")
            _check_finite(self.A.rad + self.D.sup, "rad(A) + sup(D)")

    @property
    def m(self) -> int:
        return self.A.inf.shape[0]

    @property
    def n(self) -> int:
        return self.A.inf.shape[1]

    def best_corner(self, s: SignVector) -> "Realization":
        """Corner realization of the best case at sign ``s``.

        Matrix ``mid(A) - rad(A) diag(s)``, cost ``mid(c) + diag(s)
        rad(c)``, and the permissive bounds ``sup(b)``, ``sup(D)``.
        """
        A, c = self._picks(s.as_array())
        return Realization(A=A, b=self.b.sup, c=c, D=self.D.sup)

    def worst_corner(self, s: SignVector) -> "Realization":
        """Corner realization of the worst case at sign ``s``.

        Matrix ``mid(A) + rad(A) diag(s)``, cost ``mid(c) - diag(s)
        rad(c)``, and the stingy bounds ``inf(b)``, ``inf(D)``.
        """
        return Realization(*self._worst_corner_arrays(s))

    def _worst_corner_arrays(
        self, s: SignVector
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``A``, ``b``, ``c``, ``D`` of ``worst_corner(s)``, without
        building a ``Realization``."""
        A, c = self._picks(-s.as_array())
        return A, self.b.inf, c, self.D.inf

    def _picks(
        self, t: np.ndarray, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Matrix ``mid(A) - rad(A) diag(t)`` and cost ``mid(c) +
        diag(t) rad(c)`` for signs ``t``, the package's one corner
        formula; given ``rows``, only those rows of the matrix.  The
        weights on ``inf``, ``(1 + t) / 2`` for ``A`` and ``(1 - t) / 2``
        for ``c``, are 0 or 1, so each entry is ``inf`` or ``sup``
        exactly."""
        if t.shape[0] != self.n:
            raise DimensionError(f"column selector must have length {self.n}, got {len(t)}")
        a_inf, a_sup = self.A.inf, self.A.sup
        if rows is not None:
            a_inf, a_sup = a_inf[rows], a_sup[rows]
        w = 0.5 * (1.0 + t)
        v = 0.5 * (1.0 - t)
        return w * a_inf + (1.0 - w) * a_sup, v * self.c.inf + (1.0 - v) * self.c.sup


@dataclass(frozen=True, eq=False)
class Realization:
    """One point selection of the interval data."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    D: np.ndarray

    __eq__ = _array_fields_eq

    def __post_init__(self):
        for name, ndim in (("A", 2), ("b", 1), ("c", 1), ("D", 2)):
            arr = _as_float_array(getattr(self, name), ndim, name)
            object.__setattr__(self, name, _freeze(arr))

    @classmethod
    def _trusted(cls, A, b, c, D) -> "Realization":
        """A realization on float arrays already known to be finite and
        of consistent shapes, built from a validated problem's data
        without checking them again.  The arrays are frozen, not
        copied."""
        realization = object.__new__(cls)
        for name, value in (("A", A), ("b", b), ("c", c), ("D", D)):
            object.__setattr__(realization, name, _freeze(value))
        return realization

    def program(self) -> GenAvlpProgram:
        return from_realization(self.A, self.b, self.c, self.D)

    def solve(
        self,
        tol: float = DEFAULT_TOL,
        orthant_cap: int = DEFAULT_ORTHANT_CAP,
    ) -> SolveOutcome:
        return solve_gen_avlp(self.program(), tol=tol, orthant_cap=orthant_cap)


@dataclass(frozen=True)
class IterationStep:
    """One step of the upper-bound iteration."""

    index: int
    status: Status
    value: float
    bound: float
    sign: SignVector | None
    ray: np.ndarray | None = None


@dataclass(frozen=True)
class RangeReport:
    """Aggregated results of the three range analyses.

    ``lower_tight`` is True when the worst case value is proved to
    equal ``worst_lower``, either by the sign-consistency certificate
    or because an infeasible realization pinned both at ``-inf``.
    Fields are None when the corresponding analysis failed; the failure
    message is kept in ``errors`` under the field name.
    """

    best: float | None
    worst_lower: float | None
    worst_upper: float | None
    lower_tight: bool
    best_witness: Realization | None
    upper_witness: Realization | None
    upper_log: tuple[IterationStep, ...] = ()
    errors: dict[str, str] = field(default_factory=dict)
    tol: float = DEFAULT_TOL


def _best_program(problem: AvlpProblem) -> GenAvlpProgram:
    return GenAvlpProgram(
        linear_cost=problem.c.mid,
        abs_cost=problem.c.rad,
        linear_lhs=problem.A.mid,
        abs_lhs=-(problem.A.rad + problem.D.sup),
        rhs=problem.b.sup,
    )


def _worst_lower_program(problem: AvlpProblem) -> GenAvlpProgram:
    return GenAvlpProgram(
        linear_cost=problem.c.mid,
        abs_cost=-problem.c.rad,
        linear_lhs=problem.A.mid,
        abs_lhs=problem.A.rad - problem.D.inf,
        rhs=problem.b.inf,
    )


def best_case(
    problem: AvlpProblem,
    tol: float = DEFAULT_TOL,
    orthant_cap: int = DEFAULT_ORTHANT_CAP,
) -> tuple[float, Realization | None]:
    """Largest optimal value over all realizations, with a witness.

    The combined program maximizes ``mid(c) @ x + rad(c) @ |x|``
    subject to ``mid(A) x - (rad(A) + sup(D)) |x| <= sup(b)``; its
    value is the exact best case.  The witness realization
    ``problem.best_corner(s)`` at the optimal sign ``s`` attains that
    value.  No witness is returned when every realization is infeasible.
    """
    _check_tolerances(tol)
    out = solve_gen_avlp(_best_program(problem), tol=tol, orthant_cap=orthant_cap)
    if out.status is Status.INFEASIBLE:
        return -np.inf, None
    s = out.sign if out.status is Status.OPTIMAL else out.orthant
    return out.value, problem.best_corner(s)


def relaxed_interval_lp(
    problem: AvlpProblem,
) -> tuple[IntervalMatrix, IntervalVector, IntervalVector]:
    """Interval LP whose best case matches the problem's best case.

    The absolute-value relief is absorbed into the matrix radius: the
    returned matrix has the same midpoint as ``A`` and radius
    ``rad(A) + sup(D)``.
    """
    widened = IntervalMatrix.from_midrad(problem.A.mid, problem.A.rad + problem.D.sup)
    return widened, problem.b, problem.c


def worst_lower_bound(
    problem: AvlpProblem,
    tol: float = DEFAULT_TOL,
    orthant_cap: int = DEFAULT_ORTHANT_CAP,
) -> float:
    """Lower bound on the smallest optimal value over realizations.

    Value of ``max mid(c) @ x - rad(c) @ |x|`` subject to
    ``mid(A) x + (rad(A) - inf(D)) |x| <= inf(b)``; ``-inf`` when that
    program is infeasible.  The bound can be strict (the worst case
    value may sit above it, and may not be attained at all).
    """
    _check_tolerances(tol)
    out = solve_gen_avlp(_worst_lower_program(problem), tol=tol, orthant_cap=orthant_cap)
    return out.value


#: A realization's ``A``, ``b``, ``c`` and ``D``.
_Corner = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _solve_corner(
    corner: _Corner,
    tol: float,
    orthant_cap: int,
    corners: dict[bytes, SolveOutcome] | None,
) -> SolveOutcome:
    """Outcome of the program of the realization with data ``corner``.

    The data comes from a validated problem, so the program is built
    without checking it again.  With a memo ``corners`` each
    realization is solved once: the same data at the same ``tol`` and
    ``orthant_cap`` always gives the same outcome.  The key is the
    bytes of the four arrays, whose shapes are fixed for one problem.
    """
    key = b"".join(x.tobytes() for x in corner)
    out = None if corners is None else corners.get(key)
    if out is None:
        A, b, c, D = corner
        program = GenAvlpProgram._trusted(
            linear_cost=c, abs_cost=np.zeros(c.shape[0]), linear_lhs=A, abs_lhs=-D, rhs=b
        )
        out = solve_gen_avlp(program, tol=tol, orthant_cap=orthant_cap)
        if corners is not None:
            corners[key] = out
    return out


def lower_tightness(
    problem: AvlpProblem,
    s_star: SignVector,
    worst_lower: float,
    tol: float = DEFAULT_TOL,
    orthant_cap: int = DEFAULT_ORTHANT_CAP,
    *,
    _corners: dict[bytes, SolveOutcome] | None = None,
) -> bool:
    """Certify that the worst-case lower bound ``worst_lower`` is exact.

    ``worst_lower`` is the value ``worst_lower_bound`` returns.  The
    answer is True when the realization ``problem.worst_corner(s_star)``
    has an optimum within ``tol * (1 + |optimum|)`` of ``worst_lower``.
    That realization then attains the lower bound, so the bound is the
    worst case, whatever ``s_star`` is.  The certificate is sufficient
    only: False does not refute tightness.

    Take ``s_star`` as the sign of an optimizer of the lower-bound
    program (``sign_of`` of a row of its ``SolveOutcome.ties``): on the
    closed orthant of ``s_star`` the corner has the rows and cost of
    that program, so it reaches the lower bound there, and the
    certificate holds unless the corner does better elsewhere.
    ``_corners`` is ``full_range``'s memo of corner outcomes.
    """
    _check_tolerances(tol)
    out = _solve_corner(problem._worst_corner_arrays(s_star), tol, orthant_cap, _corners)
    return out.status is Status.OPTIMAL and bool(
        abs(out.value - worst_lower) <= tol * (1.0 + abs(out.value))
    )


def worst_upper_bound(
    problem: AvlpProblem,
    tol: float = DEFAULT_TOL,
    max_iters: int = 50,
    orthant_cap: int = DEFAULT_ORTHANT_CAP,
    *,
    _corners: dict[bytes, SolveOutcome] | None = None,
) -> tuple[float, Realization | None, tuple[IterationStep, ...]]:
    """Upper bound on the worst case value by iterated sign updates.

    Starting from the midpoint matrix and cost, each step solves the
    realization with bounds ``inf(b)``, ``inf(D)``, reads the sign
    ``s`` of its optimizer (of its ray when unbounded), and moves to
    the realization ``problem.worst_corner(s)``.  The bound is the
    running minimum of the iterate values.  Iteration stops when a
    sign repeats, when the value stops improving by more than ``tol``,
    or after ``max_iters`` steps.  An infeasible iterate proves the
    worst case is exactly ``-inf`` and stops immediately; an unbounded
    iterate contributes ``+inf`` and the iteration continues along its
    ray's sign.  ``_corners`` is ``full_range``'s memo of corner
    outcomes.
    """
    _check_tolerances(tol, max_iters)
    current: _Corner = (problem.A.mid, problem.b.inf, problem.c.mid, problem.D.inf)
    bound = np.inf
    witness: _Corner | None = None
    log: list[IterationStep] = []
    visited: set[tuple[int, ...]] = set()

    for index in range(max_iters):
        out = _solve_corner(current, tol, orthant_cap, _corners)
        if out.status is Status.INFEASIBLE:
            bound = -np.inf
            witness = current
            log.append(IterationStep(index, out.status, -np.inf, bound, None))
            break
        if out.status is Status.OPTIMAL:
            s = out.sign
            if out.value < bound - tol:
                bound = out.value
                witness = current
                stale = False
            else:
                stale = True
            log.append(IterationStep(index, out.status, out.value, bound, s))
            if stale:
                break
        else:
            s = sign_of(out.ray)
            log.append(IterationStep(index, out.status, np.inf, bound, s, ray=out.ray))
        if s.entries in visited:
            break
        visited.add(s.entries)
        current = problem._worst_corner_arrays(s)

    return bound, None if witness is None else Realization(*witness), tuple(log)


def sample_realization(problem: AvlpProblem, rng: np.random.Generator) -> Realization:
    """Draw one realization uniformly from the interval data."""
    return Realization(
        A=problem.A.sample(rng),
        b=problem.b.sample(rng),
        c=problem.c.sample(rng),
        D=problem.D.sample(rng),
    )


def full_range(
    problem: AvlpProblem,
    tol: float = DEFAULT_TOL,
    max_iters: int = 50,
    orthant_cap: int = DEFAULT_ORTHANT_CAP,
) -> RangeReport:
    """Run all three analyses and aggregate them into a report.

    The best case runs first, then ``worst_range``; the report equals
    the one the public analyses give when run one by one.  Component
    failures are caught and recorded per field; the other analyses
    still run.  A ``SizeCapError`` propagates.  The mutual orderings
    of the produced values are checked before returning.
    """
    _check_tolerances(tol, max_iters)
    errors: dict[str, str] = {}
    best = best_witness = None
    try:
        best, best_witness = best_case(problem, tol=tol, orthant_cap=orthant_cap)
    except _COMPONENT_ERRORS as exc:
        errors["best"] = str(exc)
    worst = worst_range(problem, tol=tol, max_iters=max_iters, orthant_cap=orthant_cap)
    report = replace(
        worst, best=best, best_witness=best_witness, errors={**errors, **worst.errors}
    )
    _check_report(report)
    return report


def worst_range(
    problem: AvlpProblem,
    tol: float = DEFAULT_TOL,
    max_iters: int = 50,
    orthant_cap: int = DEFAULT_ORTHANT_CAP,
) -> RangeReport:
    """The worst-case half of ``full_range``: the bracket, its
    tightness certificate and the upper iteration, without the best
    case (``best`` and ``best_witness`` are None).

    The tightness certificate and the upper iteration share one memo
    of corner outcomes, so each distinct realization is solved once.
    Component failures are recorded per field and a ``SizeCapError``
    propagates, as in ``full_range``; the bracket's order is checked
    before returning.
    """
    _check_tolerances(tol, max_iters)
    errors: dict[str, str] = {}
    # outcomes of the realizations the certificate and the upper
    # iteration solve, keyed by their data
    corners: dict[bytes, SolveOutcome] = {}

    worst_lower = None
    lower_tight = False
    try:
        lower_out = solve_gen_avlp(
            _worst_lower_program(problem), tol=tol, orthant_cap=orthant_cap
        )
        worst_lower = lower_out.value
        # multiple orthants can tie for the optimum; the certificate
        # needs only one of their signs to pass
        seen: set[tuple[int, ...]] = set()
        for x in lower_out.ties:
            s = sign_of(x)
            if s.entries in seen:
                continue
            seen.add(s.entries)
            if lower_tightness(
                problem, s, worst_lower, tol=tol, orthant_cap=orthant_cap, _corners=corners
            ):
                lower_tight = True
                break
    except _COMPONENT_ERRORS as exc:
        errors["worst_lower"] = str(exc)

    worst_upper = upper_witness = None
    upper_log: tuple[IterationStep, ...] = ()
    try:
        worst_upper, upper_witness, upper_log = worst_upper_bound(
            problem, tol=tol, max_iters=max_iters, orthant_cap=orthant_cap, _corners=corners
        )
        hit_infeasible = any(step.status is Status.INFEASIBLE for step in upper_log)
        if hit_infeasible and worst_lower == -np.inf:
            # an infeasible realization pins the worst case at -inf,
            # which the lower bound then matches exactly
            lower_tight = True
    except _COMPONENT_ERRORS as exc:
        errors["worst_upper"] = str(exc)

    report = RangeReport(
        best=None,
        worst_lower=worst_lower,
        worst_upper=worst_upper,
        lower_tight=lower_tight,
        best_witness=None,
        upper_witness=upper_witness,
        upper_log=upper_log,
        errors=errors,
        tol=tol,
    )
    _check_report(report)
    return report


def _check_report(report: RangeReport) -> None:
    tol = report.tol
    lo, hi, best = report.worst_lower, report.worst_upper, report.best
    if lo is not None and hi is not None and np.isfinite(lo) and np.isfinite(hi):
        if lo > hi + tol * (1.0 + abs(hi)):
            raise NumericalError(
                f"inconsistent report: worst-case lower bound {lo} exceeds "
                f"upper bound {hi}"
            )
    if best is not None and hi is not None and best < hi - tol * (1.0 + abs(hi)):
        raise NumericalError(
            f"inconsistent report: best case {best} below worst-case upper bound {hi}"
        )


__all__ = [
    "AvlpProblem",
    "Realization",
    "IterationStep",
    "RangeReport",
    "best_case",
    "relaxed_interval_lp",
    "worst_lower_bound",
    "lower_tightness",
    "worst_upper_bound",
    "sample_realization",
    "full_range",
    "worst_range",
]
