"""Basis stability of the relaxed interval program.

A row basis ``B`` (one row per variable, with the basic square block
nonsingular) is stable when it stays optimal for every realization of
the relaxed program ``max c @ x, A* x <= b`` where ``A*`` widens ``A``
by the largest absolute-value relief.  Stability is certified here by
sufficient conditions only: a verified enclosure of the basic
solutions that keeps every nonbasic row satisfied, and a verified
nonnegative (for nondegeneracy: strictly positive) enclosure of the
basic multipliers.  The primal enclosure's contraction gate
(``linalg.enclose_interval_solution``) is also the proof that the
basic block is regular; no separate regularity test runs.  That gate
is a positive vector ``v`` with ``C v <= (1 - REGULARITY_MARGIN) v``
for the preconditioned block's distance ``C`` from the identity,
checked in floating point; outward rounding of it is an open item.
The third outcome is an honest ``unknown``; instability is never
asserted.

The three calls form one pass over the basic block: the certificate
carries the basis rows it validated and the widened basic block it
built, and the value functions reuse them.

Under an accepted certificate the range endpoints collapse to single
solves: the best case is one ordinary LP in the multipliers, and the
worst case is the objective at the unique solution of the square
absolute-value system built from the basic rows.  A certificate is
the only source of validity for those values.  ``best_case_bstable``
and ``worst_case_bstable`` use the certificate passed in only when
``verify_b_stability`` issued it, with the status and enclosure it
still carries, for the same problem and basis objects; otherwise they
run ``verify_b_stability`` themselves.  Either way they raise
``NumericalError`` unless the status is accepted: ``verified`` or
``verified_nondegenerate`` for the best case, and
``verified_nondegenerate`` for the worst.

When the certificate's primal enclosure excludes zero, its sign ``S``
is the sign of the solution of every member system of the basic
block.  That pins both solves to one square inverse each: the
best-case LP's optimal basis is read off ``S`` and checked a
posteriori, and the absolute-value system becomes the linear one at
sign ``S``, checked for sign consistency and residual.  When the
enclosure touches zero, or a check fails, the best case runs the
simplex method and the worst case takes contraction steps, which the
certificate's gate proves to converge to the unique solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InputError, NumericalError, SingularMatrixError, UnknownRegularityError
from .intervals import (
    DEFAULT_TOL,
    IntervalMatrix,
    IntervalVector,
    _check_tolerances,
    interval_matvec,
)
# unused here; perfbench/tracer.py wraps these two names as attributes of stability
from .intervals import beeck_regular, rex_rohn_regular  # noqa: F401
from .linalg import _contraction_ratio, enclose_interval_solution, solve_square
from .ranges import AvlpProblem, Realization, relaxed_interval_lp
from .simplex import LpProblem, Status, _basis_solution, solve_lp

NONDEGENERACY_MARGIN = 1e-7

#: Sign candidates ``worst_case_bstable`` tries before it gives up.
CONTRACTION_STEPS = 1000


def _integer_rows(entries) -> tuple[int, ...]:
    """Basis row labels as Python ints; ``InputError`` for any entry
    that is not a Python or numpy integer (floats, bools, strings),
    which ``int()`` would otherwise truncate or coerce."""
    rows = tuple(entries)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in rows):
        raise InputError(f"basis rows must be integers, got {rows}")
    return tuple(int(i) for i in rows)


def _row_label(i: int) -> str:
    """A 0-based basis row index in both numberings, for messages read
    by library users (0-based) and command-line users (1-based)."""
    return f"basis row index {i} (row {i + 1} counting from 1)"


@dataclass(frozen=True)
class Basis:
    """Row index set intended to select one basic row per variable.

    Indices are 0-based; ``from_one_based`` converts the 1-based labels
    used on the command line.
    """

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = _integer_rows(self.rows)
        for k, i in enumerate(rows):
            if i < 0:
                raise InputError(f"{_row_label(i)} is negative")
            if i in rows[:k]:
                raise InputError(f"{_row_label(i)} appears more than once")
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


@dataclass(frozen=True, eq=False)
class _BasicBlock:
    """What ``verify_b_stability`` validated, built and issued for
    ``problem`` and ``basis`` (as given): the basis rows, those rows of
    ``relaxed_interval_lp``'s widened matrix, and the certificate's
    status and primal enclosure."""

    problem: AvlpProblem
    basis: object
    rows: np.ndarray
    basic: IntervalMatrix
    status: CertificateStatus
    primal: IntervalVector | None


@dataclass(frozen=True)
class StabilityCertificate:
    """Outcome of the sufficient checks.

    ``primal_enclosure`` exists only when the basic block is proved
    regular, since its contraction gate is that proof.
    ``primal_margin`` is the smallest verified slack of the nonbasic
    rows over the primal enclosure; ``dual_margin`` the smallest lower
    bound of the multiplier enclosure.  On ``unknown`` the first
    failing check is named in ``reason`` and later fields may be None.

    ``_block`` records what ``verify_b_stability`` issued, and carries
    the validated basis rows and the widened basic block to
    ``best_case_bstable`` and ``worst_case_bstable``.  It takes no part
    in ``repr`` or comparison.
    """

    status: CertificateStatus
    primal_enclosure: IntervalVector | None = None
    primal_margin: float | None = None
    dual_enclosure: IntervalVector | None = None
    dual_margin: float | None = None
    reason: str | None = None
    _block: _BasicBlock | None = field(default=None, repr=False, compare=False)


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
            f"{_row_label(int(rows.max()))} out of range for {problem.m} constraint rows"
        )
    return rows


def verify_b_stability(
    problem: AvlpProblem, basis, tol: float = DEFAULT_TOL
) -> StabilityCertificate:
    """Run the sufficient stability checks for one basis.

    The checks run in order: a verified enclosure of the basic
    solutions (whose contraction gate proves the basic block regular),
    every nonbasic row satisfied over it, and a verified nonnegative
    enclosure of the basic multipliers.  Returns
    ``verified_nondegenerate`` when additionally every basic multiplier
    is verifiably above ``NONDEGENERACY_MARGIN``, plain ``verified``
    when multipliers are only verifiably nonnegative, and ``unknown``
    (with the failing check named) otherwise.
    """
    _check_tolerances(tol)
    rows = _basis_rows(basis, problem)
    star, rhs, cost = relaxed_interval_lp(problem)
    basic = star.take_rows(rows)

    def issue(status: CertificateStatus, **fields) -> StabilityCertificate:
        block = _BasicBlock(problem, basis, rows, basic, status, fields.get("primal_enclosure"))
        return StabilityCertificate(status=status, **fields, _block=block)

    try:
        primal = enclose_interval_solution(basic, rhs.take(rows))
    except UnknownRegularityError as exc:
        return issue(
            CertificateStatus.UNKNOWN,
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
        return issue(
            CertificateStatus.UNKNOWN,
            primal_enclosure=primal,
            primal_margin=primal_margin,
            reason=f"nonbasic row {worst_row + 1} not verifiably satisfied "
            f"(margin {primal_margin:.3g})",
        )

    try:
        dual = enclose_interval_solution(basic.T, cost)
    except UnknownRegularityError as exc:
        return issue(
            CertificateStatus.UNKNOWN,
            primal_enclosure=primal,
            primal_margin=primal_margin,
            reason=f"dual enclosure failed: {exc}",
        )
    dual_margin = float(dual.inf.min())
    if dual_margin < 0.0:
        which = int(np.argmin(dual.inf))
        return issue(
            CertificateStatus.UNKNOWN,
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
    return issue(
        status,
        primal_enclosure=primal,
        primal_margin=primal_margin,
        dual_enclosure=dual,
        dual_margin=dual_margin,
    )


def _accepted(
    problem: AvlpProblem,
    basis,
    certificate: StabilityCertificate | None,
    tol: float,
    accepted: tuple[CertificateStatus, ...],
    what: str,
) -> StabilityCertificate:
    """The certificate a basis-stable value rests on.

    ``certificate`` counts only when ``verify_b_stability`` issued it,
    with the status and primal enclosure it still carries, for this
    problem object and this basis object; only a tuple or a ``Basis``
    counts as the same basis, since a list could have changed since.
    Otherwise the certificate is derived here.  ``NumericalError``
    unless its status is in ``accepted``, since the value would be
    meaningless.
    """
    block = None if certificate is None else certificate._block
    if not (
        block is not None
        and block.problem is problem
        and block.basis is basis
        and isinstance(basis, (tuple, Basis))
        and block.status is certificate.status
        and block.primal is certificate.primal_enclosure
    ):
        certificate = verify_b_stability(problem, basis, tol)
    if certificate.status not in accepted:
        needed = " or ".join(status.value for status in accepted)
        raise NumericalError(
            f"stability certificate is {certificate.status.value}"
            + (f" ({certificate.reason})" if certificate.reason else "")
            + f"; the basis-stable {what} needs {needed}"
        )
    return certificate


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
    it needs a ``verified`` or ``verified_nondegenerate`` certificate:
    ``certificate`` when ``verify_b_stability`` issued it for these
    same problem and basis objects, else one derived here at ``tol``.
    Any other status raises ``NumericalError``.

    When the certificate's primal enclosure has one sign ``S``, the
    LP's optimal basis is known: row ``j`` of the first block where
    ``S_j = +1`` and of the second where ``S_j = -1``.  Its basic
    solution ``y`` solves a member system of the dual block, so it lies
    in the (nonnegative) dual enclosure, and its multipliers are
    ``S * x`` for the solution ``x`` of a member system of the basic
    block, which lies in the primal enclosure.  One inverse gives
    ``y``, the multipliers and an a-posteriori check of both
    feasibilities; the value is the LP's dual objective at that basis,
    which equals ``sup(b)_B @ y`` there.  When the enclosure touches
    zero, or the check fails, the LP is solved by the simplex method.
    """
    _check_tolerances(tol)
    cert = _accepted(problem, basis, certificate, tol, _BEST_ACCEPTS, "best case")
    rows, basic = cert._block.rows, cert._block.basic
    n = problem.n
    c = problem.b.sup[rows]
    G = np.vstack([basic.inf.T, -basic.sup.T, -np.eye(n)])
    g = np.concatenate([problem.c.sup, -problem.c.inf, np.zeros(n)])
    box = cert.primal_enclosure
    if ((box.inf > 0.0) | (box.sup < 0.0)).all():
        pinned = np.where(box.inf > 0.0, np.arange(n), n + np.arange(n))
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
    below ``1e-8 * (1 + max|g|)``, the contract of ``x*``."""
    residual = float(np.abs(M @ x + F @ np.abs(x) - g).max(initial=0.0))
    return residual <= 1e-8 * (1.0 + float(np.abs(g).max(initial=0.0)))


def worst_case_bstable(
    problem: AvlpProblem,
    basis,
    certificate: StabilityCertificate | None = None,
) -> tuple[float, np.ndarray, Realization]:
    """Exact worst case under nondegenerate basis stability.

    The worst-case optimizer is the unique solution ``x*`` of the
    square system ``mid(A)_B x + (rad(A) - inf(D))_B |x| = inf(b)_B``;
    the value is ``mid(c) @ x* - rad(c) @ |x*|``.  The returned witness
    realization attains it: it is ``problem.worst_corner(sign(x*))``
    with the nonbasic rows (free to be anything) reported at ``mid(A)``.
    It needs a ``verified_nondegenerate`` certificate: ``certificate``
    when ``verify_b_stability`` issued it for these same problem and
    basis objects, else one derived here at ``DEFAULT_TOL``.  Any other
    status raises ``NumericalError``.

    The envelope ``[M - |F|, M + |F|]`` of that system lies inside the
    widened basic block, so the certificate's primal enclosure contains
    ``x*`` and its contraction gate proves ``x*`` unique.  Each step
    solves the linear system at a sign ``s`` and accepts the solution
    ``x`` when ``s * x >= 0`` and its residual is below
    ``1e-8 * (1 + max|g|)``.  The first sign is the enclosure's, +1
    where it touches zero, so one solve suffices when it excludes zero.
    After a failure, one contraction step ``x <- x - R (M x + F |x| -
    g)`` from ``x = R g``, with ``R`` the gate's inverse midpoint, gives
    the next sign.  The gate's ``C = |I - R mid| + |R| (rad(A) +
    sup(D))_B`` bounds that step's Lipschitz matrix, so the iterates
    reach the sign of ``x*``.  After ``CONTRACTION_STEPS`` failed signs
    it raises ``NumericalError``; no unchecked value is returned.

    Only the basic rows are read, apart from the witness's nonbasic
    rows at ``mid(A)``.
    """
    cert = _accepted(problem, basis, certificate, DEFAULT_TOL, _WORST_ACCEPTS, "worst case")
    block = cert._block
    rows = block.rows
    basic = problem.A.take_rows(rows)
    M = basic.mid
    F = basic.rad - problem.D.inf[rows]
    g = problem.b.inf[rows]
    s = np.where(cert.primal_enclosure.sup < 0.0, -1.0, 1.0)
    R = x = None
    for _ in range(CONTRACTION_STEPS):
        x_star = _at_sign(M, F, g, s)
        if x_star is not None and (s * x_star >= 0.0).all() and _solves(M, F, g, x_star):
            break
        if R is None:
            R = block.basic._mid_inverse()
            x = R @ g
        x = x - R @ (M @ x + F @ np.abs(x) - g)
        s = np.where(x >= 0.0, 1.0, -1.0)
    else:
        R = block.basic._mid_inverse()
        gap = np.abs(np.eye(problem.n) - R @ block.basic.mid) + np.abs(R) @ block.basic.rad
        raise NumericalError(
            f"no sign-consistent solution of the absolute value system after "
            f"{CONTRACTION_STEPS} signs, although the contraction gate "
            f"(ratio {_contraction_ratio(gap)[0]:.6f}) proves one exists"
        )
    value = float(problem.c.mid @ x_star - problem.c.rad @ np.abs(x_star))

    # the worst corner at sign(x*), sign(0) = +1, on the basic rows
    corner, c = problem._picks(np.where(x_star >= 0.0, -1.0, 1.0), rows)
    A = problem.A.mid
    A[rows] = corner
    return value, x_star, Realization._trusted(A, problem.b.inf, c, problem.D.inf)


__all__ = [
    "NONDEGENERACY_MARGIN",
    "Basis",
    "CertificateStatus",
    "StabilityCertificate",
    "verify_b_stability",
    "best_case_bstable",
    "worst_case_bstable",
]
