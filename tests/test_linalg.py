"""The checked inverse and verified enclosures."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import avlprange
from avlprange import (
    IntervalMatrix,
    IntervalVector,
    SingularMatrixError,
    UnknownRegularityError,
    beeck_regular,
    enclose_interval_solution,
    rex_rohn_regular,
    solve_square,
)
from avlprange import linalg, stability
from avlprange.errors import DimensionError
from avlprange.intervals import REGULARITY_MARGIN
from avlprange.linalg import _checked_inverse, _contraction_ratio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestLu:
    """The checked inverse behind every square solve."""

    def test_solve_matches_reference(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        inverse, norm = _checked_inverse(a)
        rhs = np.array([5.0, 10.0])
        assert np.allclose(inverse @ rhs, np.linalg.solve(a, rhs), atol=1e-12)
        assert norm == 4.0

    def test_transpose_solve(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4)) + 3 * np.eye(4)
        inverse, _ = _checked_inverse(a)
        c = rng.normal(size=4)
        assert np.allclose(c @ inverse, np.linalg.solve(a.T, c), atol=1e-10)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            _checked_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_matrix_rhs(self):
        a = np.array([[4.0, 1.0], [0.0, 2.0]])
        inverse, _ = _checked_inverse(a)
        assert np.allclose(a @ inverse, np.eye(2), atol=1e-12)

    def test_agrees_with_scipy_solve(self):
        # both solvers are forward stable to O(n eps cond(a)); the
        # inverse-based x leaves a residual of O(n eps |a||a^-1||b|)
        import scipy.linalg

        eps = np.finfo(float).eps
        rng = np.random.default_rng(23)
        for n in range(1, 21):
            for _ in range(5):
                a = rng.normal(size=(n, n)) + n * np.eye(n) * rng.uniform(0.0, 1.0)
                inverse, norm = _checked_inverse(a)
                bound = 4 * n * eps * norm * float(np.abs(inverse).sum(axis=1).max())
                rhs = rng.normal(size=n)
                block = rng.normal(size=(n, 3))
                assert np.array_equal(solve_square(a, rhs), inverse @ rhs)
                for b in (rhs, block):
                    for got, want, lhs in (
                        (inverse @ b, scipy.linalg.solve(a, b), a),
                        (inverse.T @ b, scipy.linalg.solve(a, b, transposed=True), a.T),
                    ):
                        assert got.shape == want.shape
                        assert np.abs(got - want).max() <= bound * np.abs(want).max()
                        residual = np.abs(lhs @ got - b).max()
                        assert residual <= bound * np.abs(b).max()

    def test_exactly_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            _checked_inverse(np.zeros((3, 3)))
        with pytest.raises(SingularMatrixError):
            _checked_inverse(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            _checked_inverse(np.zeros((0, 0)))


class TestSolveSquare:
    def test_known_corner_system(self):
        x = solve_square([[1.05, 1.05], [-2.9, 3.2]], [12.0, 18.0])
        assert np.allclose(x, [3.0444964871194378, 8.38407494145199], atol=1e-12)

    def test_opposite_corner_system(self):
        x = solve_square([[0.95, 0.95], [-3.1, 2.8]], [12.0, 18.0])
        assert np.allclose(x, [2.943800178412132, 9.687778768956289], atol=1e-12)

    def test_near_singular_matrix_raises(self):
        # regular in exact arithmetic, condition number about 4e14
        with pytest.raises(SingularMatrixError):
            solve_square([[1.0, 1.0], [1.0, 1.0 + 1e-14]], [1.0, 2.0])

    def test_random_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = rng.normal(size=(3, 3)) + 4 * np.eye(3)
            b = rng.normal(size=3)
            assert np.allclose(solve_square(a, b), np.linalg.solve(a, b), atol=1e-10)


class TestEnclosure:
    def test_point_system_is_tight(self):
        a = IntervalMatrix.from_point([[2.0, 0.0], [0.0, 4.0]])
        b = IntervalVector.from_point([2.0, 8.0])
        box = enclose_interval_solution(a, b)
        assert np.all(box.width <= 1e-6)
        assert box.contains([1.0, 2.0])

    def test_contains_every_corner_solution(self):
        # Rohn's corner solutions (mid - diag(y) rad diag(z)) x = mid(b) + diag(y) rad(b)
        # all solve member systems, so a sound box holds every one of them
        rng = np.random.default_rng(31)
        systems = [
            (
                IntervalMatrix.from_midrad(
                    [[1.0, 1.0], [-2.0, 4.0]], [[0.05, 0.05], [1.1, 1.2]]
                ),
                IntervalVector.from_point([12.0, 18.0]),
            )
        ]
        for n in (2, 2, 3, 3):
            systems.append(
                (
                    IntervalMatrix.from_midrad(
                        rng.normal(size=(n, n)) + 3 * np.eye(n), rng.uniform(0, 0.3, (n, n))
                    ),
                    IntervalVector.from_midrad(rng.normal(size=n), rng.uniform(0, 0.5, n)),
                )
            )
        # radii scaled so that the contraction statistic is 0.95
        mid = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        shape = rng.uniform(0.1, 1.0, (3, 3))
        scale = 0.95 / np.max(np.abs(np.linalg.eigvals(np.abs(np.linalg.inv(mid)) @ shape)))
        systems.append(
            (
                IntervalMatrix.from_midrad(mid, scale * shape),
                IntervalVector.from_midrad(rng.normal(size=3), rng.uniform(0, 0.5, 3)),
            )
        )
        statistics = []
        for a, b in systems:
            n = len(b)
            inv_mid = np.linalg.inv(a.mid)
            gap = np.abs(np.eye(n) - inv_mid @ a.mid) + np.abs(inv_mid) @ a.rad
            statistics.append(float(np.max(np.abs(np.linalg.eigvals(gap)))))
            box = enclose_interval_solution(a, b)
            for y in itertools.product((-1.0, 1.0), repeat=n):
                for z in itertools.product((-1.0, 1.0), repeat=n):
                    corner = a.mid - np.outer(y, z) * a.rad
                    x = np.linalg.solve(corner, b.mid + np.array(y) * b.rad)
                    assert box.contains(x, tol=1e-9)
        assert max(statistics) > 0.9

    def test_matches_known_widened_block_box(self):
        a = IntervalMatrix.from_midrad(
            [[1.0, 1.0], [-2.0, 4.0]], [[0.05, 0.05], [1.1, 1.2]]
        )
        b = IntervalVector.from_point([12.0, 18.0])
        box = enclose_interval_solution(a, b)
        assert np.allclose(box.inf, [2.2839, 4.4845], atol=1e-3)
        assert np.allclose(box.sup, [9.7894, 11.4356], atol=1e-3)

    def test_contains_sampled_member_solutions(self):
        rng = np.random.default_rng(9)
        a = IntervalMatrix.from_midrad(
            rng.normal(size=(3, 3)) + 4 * np.eye(3), rng.uniform(0, 0.15, (3, 3))
        )
        b = IntervalVector.from_midrad(rng.normal(size=3), rng.uniform(0, 0.2, 3))
        box = enclose_interval_solution(a, b)
        for _ in range(1000):
            x = np.linalg.solve(a.sample(rng), b.sample(rng))
            assert box.contains(x, tol=1e-9)

    def test_unverifiable_matrix_raises(self):
        a = IntervalMatrix.from_midrad(np.eye(2), 1.5 * np.eye(2))
        b = IntervalVector.from_point([1.0, 1.0])
        with pytest.raises(UnknownRegularityError):
            enclose_interval_solution(a, b)

        singular = IntervalMatrix.from_point([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(UnknownRegularityError):
            enclose_interval_solution(singular, b)

        # regular by the singular-value test, but the preconditioned
        # system does not contract
        rotated = IntervalMatrix.from_midrad([[1.0, 1.0], [-1.0, 1.0]], 1.2 * np.eye(2))
        assert rex_rohn_regular(rotated).verified
        assert not beeck_regular(rotated).verified
        with pytest.raises(UnknownRegularityError):
            enclose_interval_solution(rotated, b)

    def test_singular_midpoint_after_a_beeck_test(self):
        # a singular midpoint reads the same to either routine, in
        # either order
        singular = IntervalMatrix.from_point([[1.0, 1.0], [1.0, 1.0]])
        assert beeck_regular(singular).reason == "midpoint-singular"
        with pytest.raises(
            UnknownRegularityError, match=r"^unknown-regularity: midpoint is singular$"
        ):
            enclose_interval_solution(singular, IntervalVector.from_point([1.0, 1.0]))
        assert beeck_regular(singular).reason == "midpoint-singular"

    def test_shape_mismatch_rejected(self):
        a = IntervalMatrix.from_point([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DimensionError):
            enclose_interval_solution(a, IntervalVector.from_point([1.0]))

    def test_overflowing_bound_is_unknown_regularity(self):
        # the gate passes, but the preconditioned right side overflows;
        # that is no fault of the input, so it is not an InputError
        a = IntervalMatrix.from_point(1e-10 * np.eye(2))
        b = IntervalVector.from_point([1e300, -1e300])
        with pytest.raises(
            UnknownRegularityError, match="Hansen-Bliek-Rohn bound could not be formed"
        ):
            enclose_interval_solution(a, b)

    def test_overflowing_gate_vector_is_unknown_regularity(self):
        # the distance from the identity is finite, with entries 1e200
        # off the diagonal, but the gate's positive vector overflows
        a = IntervalMatrix.from_midrad(1e-200 * np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(UnknownRegularityError, match=r"does not contract \(statistic nan\)"):
            enclose_interval_solution(a, IntervalVector.from_point([1.0, 1.0]))

    def test_gate_computes_no_eigenvalues(self, example4, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvalues computed")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        cert = stability.verify_b_stability(example4, (0, 1))
        assert cert.status.value == "verified_nondegenerate"
        stability.best_case_bstable(example4, (0, 1), certificate=cert)
        stability.worst_case_bstable(example4, (0, 1), certificate=cert)


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), target=st.floats(0.9, 1.1))
def test_an_enclosure_implies_a_passed_beeck_test(seed, n, target):
    # the enclosure's gate matrix |I - R mid| + |R| rad dominates Beeck's
    # |R| rad entrywise, so its spectral radius is at least Beeck's
    # statistic; the radii are scaled to put that statistic near 1,
    # where both tests are close to failing
    rng = np.random.default_rng(seed)
    mid = rng.normal(size=(n, n))
    shape = rng.uniform(0.0, 1.0, (n, n))
    statistic = np.max(np.abs(np.linalg.eigvals(np.abs(np.linalg.inv(mid)) @ shape)))
    matrix = IntervalMatrix.from_midrad(mid, (target / statistic) * shape)
    try:
        enclose_interval_solution(matrix, IntervalVector.from_point(np.ones(n)))
    except UnknownRegularityError:
        return
    assert beeck_regular(matrix).verified


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    target=st.floats(0.9, 1.1),
    density=st.floats(0.1, 1.0),
)
def test_the_vector_gate_never_passes_a_larger_spectral_radius(seed, n, target, density):
    # max_i (C v)_i / v_i >= rho(C) for any positive v (Collatz-
    # Wielandt); nonnegative matrices with zeros, reducible ones among
    # them, are scaled to put rho(C) near 1, where the gate decides
    rng = np.random.default_rng(seed)
    gap = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
    rho = float(np.abs(np.linalg.eigvals(gap)).max())
    assume(rho > 0.0)
    gap *= target / rho
    ratio, v = _contraction_ratio(gap)
    assert (v >= 1.0).all()
    if ratio <= 1.0 - REGULARITY_MARGIN:
        assert float(np.abs(np.linalg.eigvals(gap)).max()) <= 1.0 - REGULARITY_MARGIN


def test_pool_gates_hold_in_exact_arithmetic(monkeypatch, tmp_path):
    # every contraction gate a verified certificate of the seed-0
    # basis-stable benchmark pool passes: C v <= (1 - margin) v holds
    # for the float entries of C and v taken as exact rationals
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    gates = []
    ratio_of = linalg._contraction_ratio

    def recording(gap):
        ratio, v = ratio_of(gap)
        gates.append((gap, v))
        return ratio, v

    monkeypatch.setattr(linalg, "_contraction_ratio", recording)
    bound = 1 - Fraction(REGULARITY_MARGIN)
    checked = 0
    for job in workloads.make("bstable").build(avlprange, 0, tmp_path):
        gates.clear()
        cert = stability.verify_b_stability(job.problem, job.basis)
        if not cert.status.value.startswith("verified"):
            continue
        assert len(gates) == 2
        for gap, v in gates:
            exact_v = [Fraction(x) for x in v.tolist()]
            for row, vi in zip(gap.tolist(), exact_v):
                assert sum(Fraction(c) * x for c, x in zip(row, exact_v)) <= bound * vi
            checked += 1
    assert checked == 420


_WITHOUT_SCIPY = """
import sys
from importlib.abc import MetaPathFinder

class BlockScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())

import numpy as np
import avlprange
from avlprange import (
    Basis, CertificateStatus, best_case_bstable, parse_problem, solve_square,
    verify_b_stability, worst_case_bstable,
)

x = solve_square([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
assert np.allclose(x, [1.0, 3.0])
problem = parse_problem(sys.argv[1])
cert = verify_b_stability(problem, Basis((0, 1)))
assert cert.status is CertificateStatus.VERIFIED_NONDEGENERATE, cert
best = best_case_bstable(problem, Basis((0, 1)), certificate=cert)
worst, _, _ = worst_case_bstable(problem, Basis((0, 1)), certificate=cert)
assert worst <= best, (worst, best)
assert not any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)
print("ok")
"""


def test_basis_stable_chain_runs_without_scipy():
    # the runtime depends on numpy alone: with every scipy import
    # blocked, the package imports and the basis-stable chain runs
    root = Path(__file__).resolve().parent.parent
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(root / "fixtures" / "example4.json")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
