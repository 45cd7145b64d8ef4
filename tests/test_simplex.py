"""LP solver: statuses, certificates, duality, basis classification."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from avlprange import (
    InputError,
    LpProblem,
    SingularMatrixError,
    Status,
    solve_lp,
)
from avlprange.errors import DimensionError
from avlprange.simplex import _basis_solution

from oracles import lp_oracle, random_lp


def test_single_variable_optimum():
    out = solve_lp(LpProblem(c=[1.0], G=[[1.0]], g=[5.0]))
    assert out.status is Status.OPTIMAL
    assert out.value == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(out.x, [5.0])
    assert np.allclose(out.y, [1.0])
    assert out.basis == (0,)


def test_two_variable_vertex():
    # max x1 + 2 x2 over x1 <= 3, x2 <= 4, x1 + x2 <= 5
    out = solve_lp(LpProblem(c=[1.0, 2.0], G=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], g=[3.0, 4.0, 5.0]))
    assert out.status is Status.OPTIMAL
    assert out.value == pytest.approx(9.0, abs=1e-9)
    assert np.allclose(out.x, [1.0, 4.0], atol=1e-9)
    assert out.basis == (1, 2)


def test_unbounded_gives_normalized_ray():
    out = solve_lp(LpProblem(c=[1.0, 0.0], G=[[0.0, 1.0]], g=[1.0]))
    assert out.status is Status.UNBOUNDED
    assert out.value == np.inf
    ray = out.ray
    assert ray is not None
    assert np.max(np.abs(ray)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.array([1.0, 0.0]) @ ray) > 1e-9  # improving
    assert np.all(np.array([[0.0, 1.0]]) @ ray <= 1e-9)  # recession direction


def test_infeasible_gives_farkas_certificate():
    G = np.array([[1.0], [-1.0]])
    g = np.array([-1.0, 0.0])  # x <= -1 and x >= 0
    out = solve_lp(LpProblem(c=[0.0], G=G, g=g))
    assert out.status is Status.INFEASIBLE
    assert out.value == -np.inf
    cert = out.certificate
    assert cert is not None
    assert np.all(cert >= -1e-9)
    assert np.allclose(G.T @ cert, 0.0, atol=1e-9)
    assert float(cert @ g) < -1e-9


def test_degenerate_vertex_still_optimal():
    # three rows meet at (1, 1)
    out = solve_lp(
        LpProblem(
            c=[1.0, 1.0],
            G=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            g=[1.0, 1.0, 2.0],
        )
    )
    assert out.status is Status.OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-9)


def test_resolve_is_deterministic():
    rng = np.random.default_rng(14)
    G, g, c = rng.uniform(-5, 5, (8, 3)), rng.uniform(-2, 5, 8), rng.uniform(-5, 5, 3)
    first = solve_lp(LpProblem(c, G, g))
    second = solve_lp(LpProblem(c, G, g))
    assert first.status is second.status
    assert first.value == second.value
    assert np.array_equal(first.x, second.x)
    assert first.basis == second.basis


def test_strong_duality_and_complementary_slackness():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 50:
        G, g, c = random_lp(rng)
        out = solve_lp(LpProblem(c, G, g))
        if out.status is not Status.OPTIMAL:
            continue
        checked += 1
        scale = 1.0 + abs(out.value)
        assert abs(float(g @ out.y) - out.value) <= 1e-7 * scale
        assert np.all(out.y >= -1e-9)
        assert np.allclose(G.T @ out.y, c, atol=1e-7 * scale)
        slack = g - G @ out.x
        assert np.all(slack >= -1e-7 * (1.0 + np.abs(g)))
        assert np.all(np.abs(out.y * slack) <= 1e-6 * scale)


def test_agrees_with_vertex_oracle():
    rng = np.random.default_rng(55)
    for _ in range(60):
        G, g, c = random_lp(rng)
        out = solve_lp(LpProblem(c, G, g))
        status, value = lp_oracle(G, g, c)
        assert out.status.value == status
        if status == "optimal":
            assert abs(out.value - value) <= 1e-7 * (1.0 + abs(value))


def test_reported_basis_reproduces_the_optimum():
    rng = np.random.default_rng(3)
    seen = 0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 11))
        G = rng.uniform(-5, 5, (m, n))
        g = rng.uniform(0.5, 5, m)
        c = rng.uniform(-5, 5, n)
        out = solve_lp(LpProblem(c, G, g))
        if out.status is not Status.OPTIMAL or out.basis is None:
            continue
        seen += 1
        idx = np.array(out.basis)
        sol = _basis_solution(G, g, c, idx, 1e-9)
        assert sol.primal_ok and sol.dual_ok
        x = np.linalg.solve(G[idx], g[idx])
        assert np.allclose(x, out.x, atol=1e-7)
    assert seen >= 20


class TestBasisClassification:
    # simplex._basis_solution, which pins the basis-stable best case
    G = np.array([[1.0, 1.0], [-3.0, 3.0], [-7.0, 1.0], [3.0, -8.0]])
    g = np.array([12.0, 18.0, 36.0, 26.0])
    c = np.array([1.0, 2.0])

    def _solution(self, G, c, rows):
        return _basis_solution(G, self.g[: len(G)], c, np.array(rows), 1e-9)

    def test_good_basis_is_nondegenerate(self):
        sol = self._solution(self.G, self.c, (0, 1))
        assert sol.primal_ok and sol.dual_ok and (sol.y > 1e-9).all()
        assert np.allclose(sol.x, [3.0, 9.0])

    def test_wrong_basis_is_rejected(self):
        sol = self._solution(self.G, self.c, (0, 2))
        assert not (sol.primal_ok and sol.dual_ok)

    def test_zero_cost_accepts_any_feasible_basis(self):
        sol = self._solution(self.G, np.zeros(2), (0, 1))
        assert sol.primal_ok and sol.dual_ok and not (sol.y > 1e-9).any()

    def test_singular_block_raises(self):
        G = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingularMatrixError):
            self._solution(G, self.c, (0, 1))

    def test_near_singular_block_raises(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14], [0.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            self._solution(G, self.c, (0, 1))


def test_phase_one_cost_row_drift_is_repaired():
    # on this LP the pivoted phase-one cost row drifted to a reduced
    # cost of -3.8e-7 in a column without a pivot row, and phase one
    # reported an unbounded direction
    data = json.loads((Path(__file__).parent / "data" / "phase_one_drift_lp.json").read_text())
    G, g, c = (np.array(data[key]) for key in ("G", "g", "c"))
    out = solve_lp(LpProblem(c=c, G=G, g=g))
    ref = linprog(-c, A_ub=G, b_ub=g, bounds=[(None, None)] * c.size, method="highs")
    assert ref.status == 0
    assert out.status is Status.OPTIMAL
    assert out.value == pytest.approx(-ref.fun, rel=1e-7)
    assert np.all(G @ out.x <= g + 1e-7)


def test_outcome_does_not_depend_on_the_layout_of_g():
    # phase one sums the dual's rows, one per variable; numpy would take
    # a sum of eight or more terms in an order set by the memory layout,
    # so the kernel adds them row by row, and C and Fortran order agree
    rng = np.random.default_rng(46)
    statuses = set()
    for trial in range(30):
        n = int(rng.integers(8, 13))
        G = rng.uniform(-5.0, 5.0, (int(rng.integers(n, 3 * n)), n))
        g = rng.uniform(-1.0, 5.0, G.shape[0])
        if trial % 2:
            G = np.vstack([G, np.eye(n), -np.eye(n)])
            g = np.concatenate([g, np.ones(2 * n)])
        c = rng.uniform(-5.0, 5.0, n)
        ref = solve_lp(LpProblem(c=c, G=G, g=g))
        out = solve_lp(LpProblem(c=c, G=np.asfortranarray(G), g=g))
        statuses.add(ref.status)
        assert out.status is ref.status and out.basis == ref.basis
        assert out.value.hex() == ref.value.hex()
        for field in ("x", "y", "ray", "certificate"):
            a, b = getattr(out, field), getattr(ref, field)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tobytes() == b.tobytes()
    assert statuses == {Status.OPTIMAL, Status.UNBOUNDED}


def test_shape_validation():
    with pytest.raises(DimensionError):
        LpProblem(c=[1.0, 2.0], G=[[1.0]], g=[1.0])
    with pytest.raises(InputError):
        LpProblem(c=[np.nan], G=[[1.0]], g=[1.0])


def test_agrees_with_highs():
    # an independent solver on random LPs; plain random rows give
    # unbounded and infeasible LPs, box rows bounded ones
    rng = np.random.default_rng(45)
    seen = {}
    for trial in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 13))
        G = rng.normal(size=(m, n))
        g = rng.uniform(-1.0, 2.0, m)
        if trial % 3 == 0 and m >= 2 * n:
            G[: 2 * n] = np.vstack([np.eye(n), -np.eye(n)])
            g[: 2 * n] = rng.uniform(0.5, 2.0, 2 * n)
        c = rng.normal(size=n)
        out = solve_lp(LpProblem(c=c, G=G, g=g))
        ref = linprog(-c, A_ub=G, b_ub=g, bounds=[(None, None)] * n, method="highs")
        expected = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}[ref.status]
        assert out.status is expected, (trial, ref.message)
        seen[out.status] = seen.get(out.status, 0) + 1
        if out.status is Status.OPTIMAL:
            assert abs(out.value + ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
        elif out.status is Status.INFEASIBLE:
            y = out.certificate
            assert np.all(y >= 0.0)
            assert np.allclose(G.T @ y, 0.0, atol=1e-9 * (1.0 + np.max(np.abs(y))))
            assert g @ y < 0.0
        else:
            d = out.ray
            assert np.all(G @ d <= 1e-9)
            assert c @ d > 0.0
    assert all(seen.get(status, 0) >= 20 for status in Status), seen
