"""Interval containers, sign vectors, realizations, regularity tests."""

import numpy as np
import pytest

from avlprange import (
    InputError,
    IntervalMatrix,
    IntervalVector,
    NumericalError,
    Realization,
    SignVector,
    beeck_regular,
    interval_matvec,
    rex_rohn_regular,
    sign_of,
)
from avlprange.errors import DimensionError

from oracles import corner_determinant_range


class TestContainers:
    def test_vector_rejects_crossed_bounds(self):
        with pytest.raises(InputError):
            IntervalVector([1.0, 0.0], [0.0, 1.0])

    def test_vector_rejects_negative_radius(self):
        with pytest.raises(InputError):
            IntervalVector.from_midrad([1.0], [-0.5])

    def test_matrix_rejects_nonfinite(self):
        with pytest.raises(InputError):
            IntervalMatrix([[0.0]], [[np.inf]])

    def test_midrad_roundtrip(self):
        v = IntervalVector.from_midrad([1.0, -2.0], [0.5, 0.0])
        assert np.allclose(v.inf, [0.5, -2.0])
        assert np.allclose(v.sup, [1.5, -2.0])
        assert np.allclose(v.mid, [1.0, -2.0])
        assert np.allclose(v.rad, [0.5, 0.0])
        assert np.allclose(v.width, [1.0, 0.0])

    def test_point_constructors_have_zero_radius(self):
        m = IntervalMatrix.from_point([[1.0, 2.0]])
        assert np.all(m.rad == 0.0)
        assert np.array_equal(m.inf, m.sup)

    def test_take_rows_and_transpose(self):
        m = IntervalMatrix([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]],
                           [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        sub = m.take_rows([2, 0])
        assert np.allclose(sub.inf, [[4.0, 5.0], [0.0, 1.0]])
        t = m.T
        assert t.shape == (2, 3)
        assert np.allclose(t.sup, m.sup.T)

    def test_slices_equal_a_validated_construction(self):
        rng = np.random.default_rng(7)
        lo = rng.normal(size=(5, 3))
        m = IntervalMatrix(lo, lo + rng.random((5, 3)))
        v = IntervalVector(m.inf[:, 0], m.sup[:, 0])
        idx = [3, 0, 3]
        pairs = [
            (v.take(idx), IntervalVector(v.inf[idx], v.sup[idx])),
            (m.take_rows(idx), IntervalMatrix(m.inf[idx], m.sup[idx])),
            (m.T, IntervalMatrix(m.inf.T, m.sup.T)),
        ]
        for sliced, built in pairs:
            assert type(sliced) is type(built)
            for end in ("inf", "sup"):
                got, want = getattr(sliced, end), getattr(built, end)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    def test_slices_check_their_shape(self):
        m = IntervalMatrix.from_point(np.eye(3))
        v = IntervalVector.from_point([1.0, 2.0, 3.0])
        for empty in (lambda: v.take([]), lambda: m.take_rows([])):
            with pytest.raises(InputError, match="nonempty"):
                empty()
        for nested in (lambda: v.take([[0, 1]]), lambda: m.take_rows([[0, 1]])):
            with pytest.raises(DimensionError):
                nested()
        for outside in (lambda: v.take([3]), lambda: m.take_rows([3])):
            with pytest.raises(IndexError):
                outside()

    def test_midrad_overflow_rejected(self):
        with np.errstate(over="ignore"):
            with pytest.raises(InputError, match="interval vector sup must contain only finite"):
                IntervalVector.from_midrad([1e308], [1e308])
            with pytest.raises(InputError, match="interval matrix inf must contain only finite"):
                IntervalMatrix.from_midrad([[-1e308]], [[1e308]])

    def test_contains_and_sample(self):
        rng = np.random.default_rng(5)
        m = IntervalMatrix.from_midrad(rng.normal(size=(3, 2)), rng.uniform(0, 1, (3, 2)))
        for _ in range(20):
            assert m.contains(m.sample(rng))
        assert not m.contains(m.sup + 1.0)

    def test_arrays_are_frozen(self):
        v = IntervalVector([0.0], [1.0])
        with pytest.raises(ValueError):
            v.inf[0] = 5.0

    def test_equality_is_exact_and_unhashable(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        pairs = [
            (
                IntervalVector([0.0, 1.0], [2.0, 3.0]),
                IntervalVector(np.array([0.0, 1.0]), np.array([2.0, 3.0])),
                IntervalVector([0.0, 1.0], [2.0, 3.5]),
            ),
            (
                IntervalMatrix.from_midrad(a, np.ones((2, 2))),
                IntervalMatrix(a - 1.0, a + 1.0),
                IntervalMatrix.from_point(a),
            ),
            (
                Realization(A=a, b=[1.0, 2.0], c=[0.5, 0.5], D=np.zeros((2, 2))),
                Realization(A=a.copy(), b=[1.0, 2.0], c=[0.5, 0.5], D=np.zeros((2, 2))),
                Realization(A=a, b=[1.0, 2.0], c=[0.5, 0.5], D=np.eye(2)),
            ),
        ]
        for first, same, other in pairs:
            assert (first == same) is True
            assert (first == other) is False
            assert (first != other) is True
            with pytest.raises(TypeError):
                hash(first)


class TestSignVectors:
    def test_sign_of_zero_counts_as_plus(self):
        assert sign_of([0.0, -0.0, -2.0]).entries == (1, 1, -1)

    def test_invalid_entries_rejected(self):
        with pytest.raises(InputError):
            SignVector((1, 0, -1))


class TestRegularity:
    def test_beeck_verifies_unit_triangular_family(self):
        m = IntervalMatrix.from_midrad(np.eye(2), [[0.0, 2.0], [0.0, 0.0]])
        check = beeck_regular(m)
        assert check.verified
        assert check.statistic < 1e-12
        lo, hi = corner_determinant_range(m.mid, m.rad)
        assert lo * hi > 0

    def test_beeck_declines_wide_family(self):
        m = IntervalMatrix.from_midrad(np.eye(2), 1.5 * np.eye(2))
        assert not beeck_regular(m).verified
        lo, hi = corner_determinant_range(m.mid, m.rad)
        assert lo <= 0 <= hi  # genuinely singular somewhere

    def test_beeck_reports_singular_midpoint(self):
        m = IntervalMatrix.from_midrad([[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2)))
        check = beeck_regular(m)
        assert not check.verified
        assert check.reason == "midpoint-singular"

    def test_rex_rohn_verifies_dominant_diagonal(self):
        m = IntervalMatrix.from_midrad(10.0 * np.eye(2), np.ones((2, 2)))
        check = rex_rohn_regular(m)
        assert check.verified
        assert check.statistic < 1.0

    def test_rex_rohn_reports_singular_midpoint(self):
        # float SVD leaves a tiny nonzero smallest singular value here
        m = IntervalMatrix.from_point([[1.0, 1.0], [1.0, 1.0]])
        check = rex_rohn_regular(m)
        assert not check.verified
        assert check.reason == "midpoint-singular"

    def test_rex_rohn_declines_boundary_case(self):
        m = IntervalMatrix.from_midrad(np.eye(2), np.eye(2))
        assert not rex_rohn_regular(m).verified

    def test_verified_beeck_never_contradicts_corner_oracle(self):
        rng = np.random.default_rng(7)
        agreements = 0
        for _ in range(100):
            mid = rng.uniform(-2, 2, (2, 2)) + 2.0 * np.eye(2)
            rad = rng.uniform(0, 0.8, (2, 2))
            m = IntervalMatrix.from_midrad(mid, rad)
            if beeck_regular(m).verified:
                lo, hi = corner_determinant_range(mid, rad)
                assert lo * hi > 0
                agreements += 1
        assert agreements > 10  # the family must actually exercise the test

    def test_nonsquare_rejected(self):
        m = IntervalMatrix.from_point([[1.0, 2.0]])
        with pytest.raises(DimensionError):
            beeck_regular(m)


class TestMatvec:
    def test_scalar_product_range(self):
        m = IntervalMatrix([[1.0]], [[2.0]])
        x = IntervalVector([-1.0], [1.0])
        out = interval_matvec(m, x)
        assert np.allclose(out.inf, [-2.0])
        assert np.allclose(out.sup, [2.0])

    def test_contains_all_sampled_products(self):
        rng = np.random.default_rng(3)
        m = IntervalMatrix.from_midrad(rng.normal(size=(3, 2)), rng.uniform(0, 1, (3, 2)))
        x = IntervalVector.from_midrad(rng.normal(size=2), rng.uniform(0, 1, 2))
        out = interval_matvec(m, x)
        for _ in range(200):
            prod = m.sample(rng) @ x.sample(rng)
            assert np.all(prod >= out.inf - 1e-12)
            assert np.all(prod <= out.sup + 1e-12)

    def test_length_mismatch_rejected(self):
        m = IntervalMatrix.from_point([[1.0, 2.0]])
        with pytest.raises(DimensionError):
            interval_matvec(m, IntervalVector([0.0], [1.0]))

    @pytest.mark.parametrize("rows", [[[1e308, 1e308]], [[1e308, -1e308]]])
    def test_overflowing_product_is_a_numerical_error(self, rows):
        # the sum overflows to inf, or to nan from inf - inf; either is
        # the typed error, with no numpy warning
        m = IntervalMatrix.from_point(rows)
        with pytest.raises(NumericalError, match="interval product overflows"):
            interval_matvec(m, IntervalVector.from_point([10.0, 10.0]))
