"""Square solves and verified interval-system enclosures.

The enclosure routine covers the united solution set of ``M x = b``
for a square interval matrix and interval right side with one formula:
the Hansen-Bliek-Rohn bound of the system preconditioned by the
inverse midpoint ``R``.  Its contraction gate,
``rho(C) <= 1 - REGULARITY_MARGIN`` for ``C = |I - R mid| + |R| rad``,
proves the interval matrix regular and makes ``R M`` an H-matrix,
which is the assumption under which the Hansen-Bliek-Rohn bound is
valid and sharp for the preconditioned system, so no separate
regularity test runs first.  The gate is proved by a positive vector
``v`` with ``C v <= (1 - REGULARITY_MARGIN) v`` (Collatz-Wielandt),
a certificate anyone can check by one product, and no eigenvalue is
computed.  The product is formed in floating point without directed
rounding; outward rounding of the gate and of the bound is an open
item.  When the gate fails, or the bound cannot be formed in floating
point, the routine raises ``UnknownRegularityError`` and never returns
an unverified box.

Square solves here and in ``simplex._basis_solution`` go through one
checked inverse from ``numpy.linalg.inv``, so the runtime needs numpy
alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError, SingularMatrixError, UnknownRegularityError
from .intervals import REGULARITY_MARGIN, IntervalMatrix, IntervalVector
# unused here; perfbench/tracer.py wraps these two names as attributes of linalg
from .intervals import beeck_regular, rex_rohn_regular  # noqa: F401

#: Reciprocal condition floor for square inverses: a matrix ``A`` with
#: ``PIVOT_RTOL * max(||A||_inf, 1) * ||A^-1||_inf > 1`` counts as
#: singular to working precision.  ``||A||_inf * ||A^-1||_inf`` is the
#: infinity-norm condition number of ``A``, and the ``max(., 1)`` keeps
#: matrices with small entries from reading as singular for their
#: scale alone.
PIVOT_RTOL = 1e-12

#: Residual contract for square solves, relative to the natural scale.
RESIDUAL_RTOL = 1e-8

#: Steps of ``v <- C v + 1`` that build the contraction gate's positive
#: vector.  Three sufficed on every gate the basis-stable pools reach.
GATE_STEPS = 3


def _checked_inverse(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse of a square matrix and its infinity norm ``||A||_inf``.

    Raises ``DimensionError`` for a matrix that is not square or is
    empty, and ``SingularMatrixError`` for non-finite entries, when
    LAPACK finds an exact zero pivot, or when the condition estimate
    fails the ``PIVOT_RTOL`` floor.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"inverse needs a square matrix, got {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise SingularMatrixError("matrix contains non-finite entries")
    if matrix.size == 0:
        raise DimensionError("inverse needs a nonempty matrix")
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from None
    norm = float(np.abs(matrix).sum(axis=1).max())
    condition = max(norm, 1.0) * float(np.abs(inverse).sum(axis=1).max())
    # an inverse with NaN entries fails this test as well
    if not PIVOT_RTOL * condition <= 1.0:
        raise SingularMatrixError(
            f"condition estimate {condition:.3e} exceeds {1.0 / PIVOT_RTOL:.0e}; "
            f"matrix is singular to working precision"
        )
    return inverse, norm


def solve_square(matrix, rhs) -> np.ndarray:
    """Solve a square real system through its checked inverse.

    Raises ``SingularMatrixError`` when the matrix fails the
    ``PIVOT_RTOL`` condition floor and ``NumericalError`` when the
    residual of the computed solution is out of contract.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    inverse, norm = _checked_inverse(matrix)
    n = matrix.shape[0]
    if rhs.shape[0] != n:
        raise DimensionError(f"right side has length {rhs.shape[0]}, expected {n}")
    x = inverse @ rhs
    scale = norm * float(np.abs(x).max(initial=0.0)) + float(np.abs(rhs).max(initial=0.0))
    residual = float(np.abs(matrix @ x - rhs).max(initial=0.0))
    if residual > RESIDUAL_RTOL * max(scale, 1.0):
        raise NumericalError(
            f"square solve residual {residual:.3e} exceeds contract for scale {scale:.3e}"
        )
    return x


def _hansen_bliek_rohn(a_lo, a_hi, b_lo, b_hi):
    """Solution-set bound for a preconditioned system, or None.

    Works on the comparison system: mignitude on the diagonal,
    negated magnitudes off it.  Valid whenever the comparison matrix
    has a nonnegative inverse (the system is an H-matrix), which the
    contraction gate of ``enclose_interval_solution`` guarantees.  The
    checks below return None instead of guessing when rounding breaks
    those assumptions; the caller then raises
    ``UnknownRegularityError``.
    """
    diag_lo = np.diag(a_lo)
    if diag_lo.min() <= 0.0:
        return None
    comp = -np.maximum(np.abs(a_lo), np.abs(a_hi))
    np.fill_diagonal(comp, diag_lo)
    try:
        inv_comp, _ = _checked_inverse(comp)
    except SingularMatrixError:
        return None
    if inv_comp.min() < -1e-12:
        return None
    mag_b = np.maximum(np.abs(b_lo), np.abs(b_hi))
    u = inv_comp @ mag_b
    d = np.diag(inv_comp)
    if d.min() <= 0.0:
        return None
    alpha = np.maximum(diag_lo - 1.0 / d, 0.0)
    beta = np.maximum(u / d - mag_b, 0.0)
    den_lo = diag_lo - alpha
    if den_lo.min() <= 0.0:
        return None
    den_hi = np.diag(a_hi) + alpha
    # interval quotient [num_lo, num_hi] / [den_lo, den_hi], the
    # denominator positive
    num_lo = b_lo - beta
    num_hi = b_hi + beta
    quotients = np.stack([num_lo / den_lo, num_lo / den_hi, num_hi / den_lo, num_hi / den_hi])
    return quotients.min(axis=0), quotients.max(axis=0)


def _contraction_ratio(gap: np.ndarray) -> tuple[float, np.ndarray]:
    """``max_i (C v)_i / v_i`` for the nonnegative matrix ``C = gap``
    and a positive vector ``v``, and that ``v``.

    For any positive ``v`` the quotient bounds ``rho(C)`` from above
    (Collatz-Wielandt), so ``C v <= q v`` proves ``rho(C) <= q``.  ``v``
    is ``GATE_STEPS`` steps of ``v <- C v + 1`` from the ones vector,
    which tilts it towards the Perron vector of ``C``; each entry is at
    least 1.
    """
    v = np.ones(gap.shape[0])
    for _ in range(GATE_STEPS):
        v = gap @ v + 1.0
    return float((gap @ v / v).max()), v


def enclose_interval_solution(matrix: IntervalMatrix, rhs: IntervalVector) -> IntervalVector:
    """Box containing every solution of every member system ``M' x = b'``.

    With ``R`` the inverse midpoint, the contraction gate
    ``rho(|I - R mid(M)| + |R| rad(M)) <= 1 - REGULARITY_MARGIN``,
    proved by the quotient of ``_contraction_ratio``, proves ``M``
    regular and makes the preconditioned matrix ``R M`` an H-matrix,
    which is exactly what the Hansen-Bliek-Rohn bound assumes; the box
    returned is that bound for the preconditioned system
    ``R M x = R b``.  A singular midpoint, a non-finite statistic, a
    failed gate, or a bound that cannot be formed in floating point
    raise ``UnknownRegularityError``; the reason of a failed gate
    reports the quotient as its statistic.
    """
    m, n = matrix.shape
    if m != n:
        raise DimensionError(f"enclosure needs a square system, got {matrix.shape}")
    if len(rhs) != n:
        raise DimensionError(f"right side has length {len(rhs)}, expected {n}")

    inv_mid = matrix._mid_inverse()
    if inv_mid is None:
        raise UnknownRegularityError("unknown-regularity: midpoint is singular")
    # overflow and nan only make the checks below fail; they raise the
    # typed error instead of a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        abs_inv = np.abs(inv_mid)
        pre_mid = inv_mid @ matrix.mid
        pre_rad = abs_inv @ matrix.rad
        rhs_mid = inv_mid @ rhs.mid
        rhs_rad = abs_inv @ rhs.rad

        # distance of the preconditioned family from the identity
        gap = np.abs(np.eye(n) - pre_mid) + pre_rad
        if not np.isfinite(gap).all():
            raise UnknownRegularityError("unknown-regularity: contraction statistic is not finite")
        ratio, _ = _contraction_ratio(gap)
        # also false for nan, which an overflowing v gives
        if not ratio <= 1.0 - REGULARITY_MARGIN:
            raise UnknownRegularityError(
                f"unknown-regularity: preconditioned system does not contract "
                f"(statistic {ratio:.6f}); cannot produce a verified enclosure"
            )

        bound = _hansen_bliek_rohn(
            pre_mid - pre_rad, pre_mid + pre_rad, rhs_mid - rhs_rad, rhs_mid + rhs_rad
        )
        if bound is None or not (np.isfinite(bound[0]).all() and np.isfinite(bound[1]).all()):
            raise UnknownRegularityError(
                "unknown-regularity: Hansen-Bliek-Rohn bound could not be formed"
            )
    # min <= max entrywise, and both are finite
    return IntervalVector._inherit(*bound)
