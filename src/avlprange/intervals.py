"""Interval vectors and matrices with midpoint/radius views.

An interval quantity is the box ``[inf, sup]`` taken entrywise and
inclusive at both ends.  Storage is the endpoint pair; midpoint and
radius are computed on demand.  Degenerate intervals (``inf == sup``)
are ordinary real data and everything here treats them as such.
``IntervalVector`` and ``IntervalMatrix`` share their validation,
constructors and views through one base class.  Endpoints are checked
once, when an object is built from outside data: the slices ``take``,
``take_rows`` and ``transpose`` inherit finiteness and ``inf <= sup``
from their parent and check only their shape.

The corner realizations of a problem, each entry taken from ``inf``
or ``sup`` by a sign vector, are built in one place,
``ranges.AvlpProblem._picks``.

Sign conventions: the sign of zero is ``+1`` everywhere in this package.

Two classical sufficient regularity tests (spectral-radius and
singular-value based) are provided for square interval matrices.  Both
only ever answer "verified" or "unknown"; they never claim singularity.
They serve the public API and the benchmark's tracer only: no analysis
in this package calls them, since the contraction gate of
``linalg.enclose_interval_solution`` is the one regularity proof the
analyses use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import DimensionError, InputError, NumericalError

#: Global absolute comparison tolerance. Containment and feasibility
#: checks use this value unless a caller overrides it.
DEFAULT_TOL = 1e-9

#: Largest accepted ``tol``.  Larger values let the simplex's
#: feasibility and optimality tests pass wrong answers: at 0.5 the
#: worst-case bound of fixtures/example1.json is reported tight.
_MAX_TOL = 1e-3

#: A strict inequality backing a regularity claim must hold with at
#: least this margin before the claim is reported as verified.
REGULARITY_MARGIN = 1e-9


def _check_shape(arr: np.ndarray, ndim: int, what: str) -> None:
    if arr.ndim != ndim:
        raise DimensionError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{what} must be nonempty")


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must contain only finite values")


def _as_float_array(value, ndim: int, what: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    _check_shape(arr, ndim, what)
    _check_finite(arr, what)
    return arr


def _check_tolerances(tol: float, max_iters: int = 1) -> None:
    """Raise ``InputError`` unless ``0 < tol <= _MAX_TOL`` and
    ``max_iters >= 1``.

    Every public entry point that takes ``tol`` calls this first: a
    nonpositive, huge or nan ``tol`` turns the solvers' tests into
    wrong answers rather than errors.
    """
    if not 0.0 < tol <= _MAX_TOL:  # also false for nan
        raise InputError(f"tol must be a finite number in (0, {_MAX_TOL:g}], got {tol}")
    if max_iters < 1:
        raise InputError(f"max_iters must be at least 1, got {max_iters}")


def _check_bounds(inf: np.ndarray, sup: np.ndarray, what: str) -> None:
    if inf.shape != sup.shape:
        raise DimensionError(
            f"{what}: inf shape {inf.shape} does not match sup shape {sup.shape}"
        )
    bad = inf > sup
    if bad.any():
        where = tuple(int(i) + 1 for i in np.argwhere(bad)[0])
        raise InputError(f"{what}: inf exceeds sup at entry {where}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _array_fields_eq(self, other):
    """``__eq__`` for a dataclass of arrays: exact entrywise equality of
    every field, as one bool.  A class that uses it stays unhashable."""
    if type(other) is not type(self):
        return NotImplemented
    return all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
    )


@dataclass(frozen=True, eq=False)
class _IntervalArray:
    """Entrywise interval array ``[inf, sup]`` of a fixed dimension.

    Subclasses set ``_ndim`` and the ``_what`` used in error messages.
    """

    inf: np.ndarray
    sup: np.ndarray

    _ndim: ClassVar[int]
    _what: ClassVar[str]

    __eq__ = _array_fields_eq

    def __post_init__(self):
        inf = _as_float_array(self.inf, self._ndim, f"{self._what} inf")
        sup = _as_float_array(self.sup, self._ndim, f"{self._what} sup")
        _check_bounds(inf, sup, self._what)
        object.__setattr__(self, "inf", _freeze(inf))
        object.__setattr__(self, "sup", _freeze(sup))

    @classmethod
    def _inherit(cls, inf: np.ndarray, sup: np.ndarray):
        """Interval array on endpoints already known to be finite with
        ``inf <= sup``: a slice of a validated array, or the endpoints
        ``from_midrad`` has checked.

        Only the shape of ``inf`` is checked; ``sup`` has the same
        shape by construction.
        """
        _check_shape(inf, cls._ndim, f"{cls._what} inf")
        obj = object.__new__(cls)
        object.__setattr__(obj, "inf", _freeze(inf))
        object.__setattr__(obj, "sup", _freeze(sup))
        return obj

    @classmethod
    def from_midrad(cls, mid, rad):
        mid = _as_float_array(mid, cls._ndim, f"{cls._what} mid")
        rad = _as_float_array(rad, cls._ndim, f"{cls._what} rad")
        if mid.shape != rad.shape:
            raise DimensionError("mid and rad shapes differ")
        if (rad < 0).any():
            raise InputError("interval radius must be nonnegative")
        # rounding is monotone, so mid - rad <= mid + rad once rad >= 0;
        # only overflow can make an endpoint invalid
        inf, sup = mid - rad, mid + rad
        _check_finite(inf, f"{cls._what} inf")
        _check_finite(sup, f"{cls._what} sup")
        return cls._inherit(inf, sup)

    @classmethod
    def from_point(cls, values):
        values = _as_float_array(values, cls._ndim, f"{cls._what} point")
        return cls(values, values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.inf.shape

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.inf + self.sup)

    @property
    def rad(self) -> np.ndarray:
        return 0.5 * (self.sup - self.inf)

    @property
    def width(self) -> np.ndarray:
        return self.sup - self.inf

    def contains(self, member, tol: float = DEFAULT_TOL) -> bool:
        member = _as_float_array(member, self._ndim, f"{self._what} member")
        if member.shape != self.shape:
            raise DimensionError(f"member shape does not match {self._what}")
        return bool(np.all(member >= self.inf - tol) and np.all(member <= self.sup + tol))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Uniformly sampled member; degenerate entries stay put."""
        return self.inf + rng.random(self.shape) * (self.sup - self.inf)


class IntervalVector(_IntervalArray):
    """Entrywise interval vector ``[inf, sup]``."""

    _ndim = 1
    _what = "interval vector"

    def __len__(self) -> int:
        return self.inf.shape[0]

    def take(self, indices) -> "IntervalVector":
        idx = np.asarray(indices, dtype=int)
        return IntervalVector._inherit(self.inf[idx], self.sup[idx])


class IntervalMatrix(_IntervalArray):
    """Entrywise interval matrix ``[inf, sup]``."""

    _ndim = 2
    _what = "interval matrix"

    def take_rows(self, indices) -> "IntervalMatrix":
        idx = np.asarray(indices, dtype=int)
        return IntervalMatrix._inherit(self.inf[idx, :], self.sup[idx, :])

    def transpose(self) -> "IntervalMatrix":
        return IntervalMatrix._inherit(self.inf.T, self.sup.T)

    @property
    def T(self) -> "IntervalMatrix":
        return self.transpose()

    def _mid_inverse(self) -> np.ndarray | None:
        """Inverse of the midpoint, or None when ``numpy.linalg.inv``
        finds it singular."""
        try:
            return np.linalg.inv(self.mid)
        except np.linalg.LinAlgError:
            return None


@dataclass(frozen=True, order=True)
class SignVector:
    """Vector with entries in ``{-1, +1}``.

    Instances order lexicographically entry by entry (so ``(-1, +1)``
    sorts before ``(+1, -1)``), are hashable, and convert to float
    arrays for arithmetic.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        if not entries:
            raise InputError("sign vector must be nonempty")
        if any(e not in (-1, 1) for e in entries):
            raise InputError(f"sign vector entries must be -1 or +1, got {entries}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_point(cls, x) -> "SignVector":
        """Signs of a real vector with sign(0) = +1."""
        x = _as_float_array(x, 1, "point")
        return cls(tuple(1 if v >= 0 else -1 for v in x.tolist()))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


def sign_of(x) -> SignVector:
    """Sign pattern of a real vector under the sign(0) = +1 convention."""
    return SignVector.from_point(x)


@dataclass(frozen=True)
class RegularityCheck:
    """Outcome of a sufficient regularity test.

    ``statistic`` is the quantity that must stay strictly below 1 for
    the test to certify regularity; ``verified`` is False whenever the
    margin is not met, the midpoint is singular, or the statistic could
    not be computed.  A False answer carries no information about actual
    singularity.
    """

    condition: str
    verified: bool
    statistic: float
    reason: str | None = None


def _require_square(matrix: IntervalMatrix) -> int:
    m, n = matrix.shape
    if m != n:
        raise DimensionError(f"regularity checks need a square matrix, got {matrix.shape}")
    return n


def beeck_regular(matrix: IntervalMatrix) -> RegularityCheck:
    """Spectral-radius sufficient regularity test.

    Verifies regularity when ``rho(|mid^-1| @ rad) < 1`` holds with
    margin.  Returns unknown when the midpoint cannot be inverted.
    """
    _require_square(matrix)
    inv_mid = matrix._mid_inverse()
    if inv_mid is None:
        return RegularityCheck("beeck", False, np.inf, "midpoint-singular")
    iteration = np.abs(inv_mid) @ matrix.rad
    rho = float(np.abs(np.linalg.eigvals(iteration)).max()) if iteration.size else 0.0
    if not np.isfinite(rho):
        return RegularityCheck("beeck", False, np.inf, "spectral-radius-overflow")
    return RegularityCheck("beeck", rho <= 1.0 - REGULARITY_MARGIN, rho)


def rex_rohn_regular(matrix: IntervalMatrix) -> RegularityCheck:
    """Singular-value sufficient regularity test.

    Verifies regularity when the largest singular value of the radius
    stays below the smallest singular value of the midpoint, again with
    margin.  The statistic reported is the ratio of the two.  A midpoint
    whose smallest singular value is at most ``n * eps`` times its
    largest (the rank tolerance of ``numpy.linalg.matrix_rank``) counts
    as singular, and the answer is unknown.
    """
    n = _require_square(matrix)
    sigma_rad = float(np.linalg.svd(matrix.rad, compute_uv=False)[0])
    sigma_mid = np.linalg.svd(matrix.mid, compute_uv=False)
    if sigma_mid[-1] <= n * np.finfo(float).eps * sigma_mid[0]:
        return RegularityCheck("rex-rohn", False, np.inf, "midpoint-singular")
    ratio = sigma_rad / float(sigma_mid[-1])
    return RegularityCheck("rex-rohn", ratio <= 1.0 - REGULARITY_MARGIN, ratio)


def interval_matvec(matrix: IntervalMatrix, x: IntervalVector) -> IntervalVector:
    """Interval-arithmetic product of an interval matrix with an
    interval vector (entrywise products, rowwise sums).

    ``lo <= hi`` holds by construction, since rounding is monotone; a
    product that overflows raises ``NumericalError``.
    """
    m, n = matrix.shape
    if len(x) != n:
        raise DimensionError(f"vector has length {len(x)}, expected {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        p1 = matrix.inf * x.inf[None, :]
        p2 = matrix.inf * x.sup[None, :]
        p3 = matrix.sup * x.inf[None, :]
        p4 = matrix.sup * x.sup[None, :]
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)).sum(axis=1)
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)).sum(axis=1)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise NumericalError("interval product overflows")
    return IntervalVector._inherit(lo, hi)
