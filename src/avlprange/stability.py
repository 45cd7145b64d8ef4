"""Basis stability of the relaxed interval program.

A row basis ``B`` (one row per variable, with the basic square block
nonsingular) is stable when it stays optimal for every realization of
the relaxed program ``max c @ x, A* x <= b`` where ``A*`` widens ``A``
by the largest absolute-value relief.  Stability is certified here by
sufficient conditions only: verified regularity of the basic block, a
verified enclosure of the basic solutions that keeps every nonbasic
row satisfied, and a verified nonnegative (for nondegeneracy: strictly
positive) enclosure of the basic multipliers.  The third outcome is an
honest ``unknown``; instability is never asserted.

Under a verified certificate the range endpoints collapse to single
solves: the best case is one ordinary LP in the multipliers, and the
worst case is the objective at the unique solution of the square
absolute-value system built from the basic rows.

When the certificate's primal enclosure excludes zero, its sign ``S``
is the sign of the solution of every member system of the basic
block.  That pins both solves to one square inverse each: the
best-case LP's optimal basis is read off ``S`` and checked a
posteriori, and the absolute-value system becomes the linear one at
sign ``S``, checked for sign consistency and residual.  Without such
a certificate, or when a check fails, the general LP and sign
iteration run instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .avlp import DEFAULT_ORTHANT_CAP
from .errors import (
    InputError,
    NumericalError,
    SingularMatrixError,
    SizeCapError,
    UnknownRegularityError,
)
from .intervals import (
    DEFAULT_TOL,
    IntervalMatrix,
    IntervalVector,
    RegularityCheck,
    _as_float_array,
    _check_tolerances,
    all_sign_vectors,
    beeck_regular,
    interval_matvec,
    rex_rohn_regular,
    sign_of,
)
from .linalg import enclose_interval_solution, solve_square
from .ranges import AvlpProblem, Realization, relaxed_interval_lp
from .simplex import LpProblem, Status, _basis_solution, _integer_rows, solve_lp

NONDEGENERACY_MARGIN = 1e-7


@dataclass(frozen=True)
class Basis:
    """Row index set intended to select one basic row per variable.

    Indices are 0-based; ``from_one_based`` converts the 1-based labels
    used on the command line.
    """

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = _integer_rows(self.rows)
        if len(set(rows)) != len(rows):
            raise InputError(f"basis rows must be distinct, got {rows}")
        if any(i < 0 for i in rows):
            raise InputError(f"basis rows must be nonnegative, got {rows}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_one_based(cls, labels) -> "Basis":
        return cls(tuple(i - 1 for i in _integer_rows(labels)))

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=int)


def _complement(rows: np.ndarray, total_rows: int) -> np.ndarray:
    """Sorted indices in ``range(total_rows)`` outside ``rows``."""
    mask = np.ones(total_rows, dtype=bool)
    mask[rows] = False
    return np.flatnonzero(mask)


class CertificateStatus(str, Enum):
    VERIFIED_NONDEGENERATE = "verified_nondegenerate"
    VERIFIED = "verified"
    UNKNOWN = "unknown"


#: Certificate statuses under which the basis-stable best and worst
#: case values are valid.
_BEST_ACCEPTS = (CertificateStatus.VERIFIED, CertificateStatus.VERIFIED_NONDEGENERATE)
_WORST_ACCEPTS = (CertificateStatus.VERIFIED_NONDEGENERATE,)


@dataclass(frozen=True)
class StabilityCertificate:
    """Outcome of the three sufficient checks.

    ``primal_margin`` is the smallest verified slack of the nonbasic
    rows over the primal enclosure; ``dual_margin`` the smallest lower
    bound of the multiplier enclosure.  On ``unknown`` the first
    failing check is named in ``reason`` and later fields may be None.
    """

    status: CertificateStatus
    regularity: RegularityCheck | None = None
    primal_enclosure: IntervalVector | None = None
    primal_margin: float | None = None
    dual_enclosure: IntervalVector | None = None
    dual_margin: float | None = None
    reason: str | None = None


@dataclass(frozen=True)
class GaveSystem:
    """Square system ``M x + F |x| = g`` in the unknown ``x``."""

    M: np.ndarray
    F: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        M = _as_float_array(self.M, 2, "M")
        F = _as_float_array(self.F, 2, "F")
        g = _as_float_array(self.g, 1, "g")
        n = g.shape[0]
        if M.shape != (n, n) or F.shape != (n, n):
            raise InputError(
                f"system must be square: M {M.shape}, F {F.shape}, g has {n} entries"
            )
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)


def _basis_rows(basis, problem: AvlpProblem) -> np.ndarray:
    if not isinstance(basis, Basis):
        basis = Basis(tuple(basis))
    rows = basis.as_array()
    if rows.shape[0] != problem.n:
        raise InputError(
            f"basis must select {problem.n} rows, got {rows.shape[0]}"
        )
    if rows.size and rows.max() >= problem.m:
        raise InputError(
            f"basis row {rows.max()} out of range for {problem.m} constraint rows"
        )
    return rows


def _verified_regularity(matrix: IntervalMatrix) -> RegularityCheck:
    check = beeck_regular(matrix)
    if check.verified:
        return check
    return rex_rohn_regular(matrix)


def verify_b_stability(
    problem: AvlpProblem, basis, tol: float = DEFAULT_TOL
) -> StabilityCertificate:
    """Run the three sufficient stability checks for one basis.

    Returns ``verified_nondegenerate`` when additionally every basic
    multiplier is verifiably above ``NONDEGENERACY_MARGIN``, plain
    ``verified`` when multipliers are only verifiably nonnegative, and
    ``unknown`` (with the failing check named) otherwise.
    """
    _check_tolerances(tol)
    rows = _basis_rows(basis, problem)
    star, rhs, cost = relaxed_interval_lp(problem)
    basic = star.take_rows(rows)

    regularity = _verified_regularity(basic)
    if not regularity.verified:
        return StabilityCertificate(
            status=CertificateStatus.UNKNOWN,
            regularity=regularity,
            reason="regularity of the basic block could not be verified"
            + (f" ({regularity.reason})" if regularity.reason else ""),
        )

    try:
        primal = enclose_interval_solution(basic, rhs.take(rows))
    except UnknownRegularityError as exc:
        return StabilityCertificate(
            status=CertificateStatus.UNKNOWN,
            regularity=regularity,
            reason=f"primal enclosure failed: {exc}",
        )

    comp = _complement(rows, problem.m)
    if comp.size:
        reach = interval_matvec(star.take_rows(comp), primal)
        margins = rhs.inf[comp] - reach.sup
        primal_margin = float(margins.min())
        worst_row = int(comp[int(np.argmin(margins))])
    else:
        primal_margin = np.inf
        worst_row = -1
    if primal_margin < -tol:
        return StabilityCertificate(
            status=CertificateStatus.UNKNOWN,
            regularity=regularity,
            primal_enclosure=primal,
            primal_margin=primal_margin,
            reason=f"nonbasic row {worst_row + 1} not verifiably satisfied "
            f"(margin {primal_margin:.3g})",
        )

    try:
        dual = enclose_interval_solution(basic.T, cost)
    except UnknownRegularityError as exc:
        return StabilityCertificate(
            status=CertificateStatus.UNKNOWN,
            regularity=regularity,
            primal_enclosure=primal,
            primal_margin=primal_margin,
            reason=f"dual enclosure failed: {exc}",
        )
    dual_margin = float(dual.inf.min())
    if dual_margin < 0.0:
        which = int(np.argmin(dual.inf))
        return StabilityCertificate(
            status=CertificateStatus.UNKNOWN,
            regularity=regularity,
            primal_enclosure=primal,
            primal_margin=primal_margin,
            dual_enclosure=dual,
            dual_margin=dual_margin,
            reason=f"multiplier {which + 1} not verifiably nonnegative "
            f"(lower bound {dual_margin:.3g})",
        )

    status = (
        CertificateStatus.VERIFIED_NONDEGENERATE
        if dual_margin > NONDEGENERACY_MARGIN
        else CertificateStatus.VERIFIED
    )
    return StabilityCertificate(
        status=status,
        regularity=regularity,
        primal_enclosure=primal,
        primal_margin=primal_margin,
        dual_enclosure=dual,
        dual_margin=dual_margin,
    )


def _warn_unverified(
    certificate: StabilityCertificate | None,
    need: str,
    accepted: tuple[CertificateStatus, ...],
) -> None:
    if certificate is None:
        warnings.warn(
            f"no stability certificate supplied; the result is valid only "
            f"under {need}",
            stacklevel=3,
        )
    elif certificate.status not in accepted:
        warnings.warn(
            f"certificate status is '{certificate.status.value}'; the result "
            f"is valid only under {need}",
            stacklevel=3,
        )


def _enclosure_signs(
    certificate: StabilityCertificate | None, n: int
) -> np.ndarray | None:
    """Sign (+1.0 or -1.0 per entry) shared by every point of the
    certificate's primal enclosure, or None when there is no enclosure
    of length ``n`` or it touches zero."""
    box = None if certificate is None else certificate.primal_enclosure
    if box is None or len(box) != n:
        return None
    positive = box.inf > 0.0
    if not (positive | (box.sup < 0.0)).all():
        return None
    return np.where(positive, 1.0, -1.0)


def best_case_bstable(
    problem: AvlpProblem,
    basis,
    tol: float = DEFAULT_TOL,
    certificate: StabilityCertificate | None = None,
) -> float:
    """Best case value under basis stability, via one LP.

    The program runs over nonnegative multipliers ``y`` of the basic
    rows: maximize ``sup(b)_B @ y`` subject to the widened-block corner
    conditions ``inf(A*)_B.T y <= sup(c)`` and ``sup(A*)_B.T y >=
    inf(c)``.  Outside verified stability the value is meaningless, so
    a missing or inconclusive certificate draws a warning.

    When the certificate's primal enclosure has one sign ``S``, the
    LP's optimal basis is known: row ``j`` of the first block where
    ``S_j = +1`` and of the second where ``S_j = -1``.  Its basic
    solution ``y`` solves a member system of the dual block, so it lies
    in the (nonnegative) dual enclosure, and its multipliers are
    ``S * x`` for the solution ``x`` of a member system of the basic
    block, which lies in the primal enclosure.  One inverse gives
    ``y``, the multipliers and an a-posteriori check of both
    feasibilities; the value is the LP's dual objective at that basis,
    which equals ``sup(b)_B @ y`` there.  When the check fails (a
    certificate for another basis, say), or the enclosure touches zero,
    or there is no certificate, the LP is solved by the simplex method.
    """
    _check_tolerances(tol)
    rows = _basis_rows(basis, problem)
    _warn_unverified(certificate, "basis stability", _BEST_ACCEPTS)
    star, rhs, cost = relaxed_interval_lp(problem)
    n = problem.n
    c = rhs.sup[rows]
    G = np.vstack([star.inf[rows].T, -star.sup[rows].T, -np.eye(n)])
    g = np.concatenate([cost.sup, -cost.inf, np.zeros(n)])
    signs = _enclosure_signs(certificate, n)
    if signs is not None:
        pinned = np.where(signs > 0.0, np.arange(n), n + np.arange(n))
        try:
            sol = _basis_solution(G, g, c, pinned, tol)
        except SingularMatrixError:
            sol = None
        if sol is not None and sol.primal_ok and sol.dual_ok:
            # equals c @ sol.x at an optimal basis; this side of the
            # duality cancels less
            return float(sol.y @ g[pinned])
    out = solve_lp(LpProblem(c=c, G=G, g=g), tol=tol)
    if out.status is not Status.OPTIMAL:
        raise NumericalError(
            f"best-case program is {out.status.value}; this contradicts basis "
            f"stability of the supplied basis"
        )
    return out.value


def _at_sign(
    M: np.ndarray, F: np.ndarray, g: np.ndarray, s: np.ndarray
) -> np.ndarray | None:
    """Solution of ``M x + F |x| = g`` with ``|x|`` fixed to
    ``diag(s) x``, or None when that linear system fails to solve."""
    try:
        return solve_square(M + F * s[None, :], g)
    except (SingularMatrixError, NumericalError):
        return None


def _solves(M: np.ndarray, F: np.ndarray, g: np.ndarray, x: np.ndarray) -> bool:
    """Whether the true residual of ``x`` in ``M x + F |x| = g`` is
    below ``1e-8 * (1 + max|g|)``, the contract of ``solve_gave``."""
    residual = float(np.abs(M @ x + F @ np.abs(x) - g).max(initial=0.0))
    return residual <= 1e-8 * (1.0 + float(np.abs(g).max(initial=0.0)))


def solve_gave(system: GaveSystem, cap: int = DEFAULT_ORTHANT_CAP) -> np.ndarray:
    """Solve ``M x + F |x| = g`` by sign iteration with a safety net.

    A sign vector ``s`` fixes ``|x| = diag(s) x`` and leaves a linear
    solve; the iteration starts from the sign of ``M^-1 g`` and feeds
    each solution's sign back in, accepting any candidate whose true
    residual is below ``1e-8 * (1 + max|g|)``.  If signs cycle (more
    than ``n + 2`` distinct ones) or a solve fails, every sign pattern
    is enumerated instead, which requires ``n <= cap``.  Uniqueness
    holds when the envelope ``[M - |F|, M + |F|]`` is verifiably
    regular; when it is not, a warning is issued and the first
    sign-consistent solution is returned anyway.
    """
    M, F, g = system.M, system.F, system.g
    n = g.shape[0]

    envelope = IntervalMatrix(M - np.abs(F), M + np.abs(F))
    unique = _verified_regularity(envelope).verified
    if not unique:
        warnings.warn(
            "uniqueness of the absolute value system's solution was not "
            "verified; returning the first sign-consistent solution",
            stacklevel=2,
        )

    try:
        s = sign_of(solve_square(M, g))
    except (SingularMatrixError, NumericalError):
        s = None

    visited: set[tuple[int, ...]] = set()
    while s is not None and len(visited) <= n + 2 and s.entries not in visited:
        visited.add(s.entries)
        x = _at_sign(M, F, g, s.as_array())
        if x is None:
            break
        if _solves(M, F, g, x):
            return x
        s = sign_of(x)

    if n > cap:
        raise SizeCapError(
            f"sign iteration failed and exhaustive search over 2**{n} sign "
            f"patterns exceeds the cap of {cap} variables"
        )
    for s in all_sign_vectors(n):
        x = _at_sign(M, F, g, s.as_array())
        if x is not None and _solves(M, F, g, x):
            return x
    raise NumericalError(
        "no sign-consistent solution of the absolute value system was found"
        + ("; this contradicts its verified uniqueness" if unique else "")
    )


def worst_case_bstable(
    problem: AvlpProblem,
    basis,
    cap: int = DEFAULT_ORTHANT_CAP,
    certificate: StabilityCertificate | None = None,
) -> tuple[float, np.ndarray, Realization]:
    """Exact worst case under nondegenerate basis stability.

    The worst-case optimizer is the unique solution ``x*`` of the
    square system ``mid(A)_B x + (rad(A) - inf(D))_B |x| = inf(b)_B``;
    the value is ``mid(c) @ x* - rad(c) @ |x*|``.  The returned witness
    realization attains it: it is ``problem.worst_corner(sign(x*))``
    with the nonbasic rows (free to be anything) reported at ``mid(A)``.

    The envelope ``[M - |F|, M + |F|]`` of that system lies inside the
    widened basic block, so a certificate's primal enclosure proves it
    regular (``x*`` is unique) and contains ``x*``.  When the enclosure
    has one sign ``S``, ``x*`` is the solution of the linear system at
    ``S``: one square solve, accepted when ``S * x >= 0`` and the
    residual meets the contract of ``solve_gave``.  Otherwise, or when
    that check fails, ``solve_gave`` runs.
    """
    rows = _basis_rows(basis, problem)
    _warn_unverified(certificate, "nondegenerate basis stability", _WORST_ACCEPTS)

    mid = problem.A.mid
    M = mid[rows]
    F = (problem.A.rad - problem.D.inf)[rows]
    g = problem.b.inf[rows]
    x_star = None
    signs = _enclosure_signs(certificate, problem.n)
    if signs is not None:
        x = _at_sign(M, F, g, signs)
        if x is not None and (signs * x >= 0.0).all() and _solves(M, F, g, x):
            x_star = x
    if x_star is None:
        x_star = solve_gave(GaveSystem(M=M, F=F, g=g), cap=cap)
    value = float(problem.c.mid @ x_star - problem.c.rad @ np.abs(x_star))

    A, b, c, D = problem._worst_corner_arrays(sign_of(x_star))
    mid[rows] = A[rows]
    return value, x_star, Realization(A=mid, b=b, c=c, D=D)


__all__ = [
    "NONDEGENERACY_MARGIN",
    "Basis",
    "CertificateStatus",
    "StabilityCertificate",
    "GaveSystem",
    "verify_b_stability",
    "best_case_bstable",
    "solve_gave",
    "worst_case_bstable",
]
