"""Acceptance checks.

One test per shipped guarantee, each printing a single pass/fail line
under ``pytest -v``.  The fixture problems live in ``fixtures/`` and
the brute-force cross-checks in ``oracles.py``.
"""

import numpy as np
import pytest

from avlprange import (
    AvlpProblem,
    Basis,
    CertificateStatus,
    GaveSystem,
    IntervalMatrix,
    LpProblem,
    Realization,
    Status,
    best_case,
    best_case_bstable,
    sample_realization,
    solve_gave,
    solve_lp,
    verify_b_stability,
    worst_case_bstable,
    worst_lower_bound,
    worst_upper_bound,
)

from oracles import (
    bstable_characterizations,
    corner_solution_hull,
    gave_solutions,
    lp_oracle,
    random_box_bounded_problem,
    random_gave,
    random_lp,
    random_stable_problem,
)


def _grid_realizations(problem, row, col, values):
    """Zero-width copies of ``problem`` with A[row][col] swept over a grid."""
    for value in values:
        a = problem.A.mid.copy()
        a[row, col] = value
        yield Realization(A=a, b=problem.b.mid, c=problem.c.mid, D=problem.D.mid)


def test_example1_bracket_and_grid_minimum(example1):
    assert worst_lower_bound(example1) == pytest.approx(1.5, abs=1e-9)
    bound, witness, log = worst_upper_bound(example1)
    assert bound == pytest.approx(3.0, abs=1e-9)

    values = []
    for chosen in _grid_realizations(example1, 3, 0, np.linspace(-1.0, 1.0, 201)):
        out = chosen.solve()
        assert out.status is Status.OPTIMAL
        values.append(out.value)
    assert min(values) == pytest.approx(3.0, abs=1e-9)


def test_example2_bracket_and_near_attainment(example2):
    assert worst_lower_bound(example2) == pytest.approx(-1.0, abs=1e-9)
    bound, witness, log = worst_upper_bound(example2)
    assert bound == pytest.approx(-0.5, abs=1e-9)

    values = []
    for chosen in _grid_realizations(example2, 6, 0, np.linspace(0.0, 0.995, 200)):
        out = chosen.solve()
        assert out.status is Status.OPTIMAL
        values.append(out.value)
    assert min(values) <= -0.99
    assert min(values) > -1.0


def test_example3_open_lower_end_and_finite_upper(example3):
    assert worst_lower_bound(example3) == -np.inf
    bound, witness, log = worst_upper_bound(example3)
    assert bound == pytest.approx(-4.0, abs=1e-9)


def test_example4_stable_basis_workflow(example4):
    nominal = Realization(
        A=example4.A.mid, b=example4.b.mid, c=example4.c.mid, D=example4.D.mid
    ).solve()
    assert nominal.status is Status.OPTIMAL
    assert nominal.value == pytest.approx(21.0, abs=1e-9)
    assert nominal.optimizer == pytest.approx([3.0, 9.0], abs=1e-9)

    basis = Basis((0, 1))
    cert = verify_b_stability(example4, basis)
    assert cert.status in (
        CertificateStatus.VERIFIED,
        CertificateStatus.VERIFIED_NONDEGENERATE,
    )

    assert best_case(example4)[0] == pytest.approx(22.319, abs=1e-3)
    assert best_case_bstable(example4, basis, certificate=cert) == pytest.approx(
        22.319, abs=1e-3
    )

    rows = list(basis)
    x_star = solve_gave(
        GaveSystem(
            M=example4.A.mid[rows],
            F=(example4.A.rad - example4.D.inf)[rows],
            g=example4.b.inf[rows],
        )
    )
    assert x_star == pytest.approx([3.0445, 8.3841], abs=1e-3)

    value, _, _ = worst_case_bstable(example4, basis, certificate=cert)
    assert value == pytest.approx(19.813, abs=1e-3)

    # basic system in the positive orthant, where |x| = x folds the
    # relief into the matrix
    vertices = corner_solution_hull(
        example4.A.mid[rows] - example4.D.mid[rows],
        example4.A.rad[rows] + example4.D.rad[rows],
        example4.b.mid[rows],
    )
    expected = [
        (2.9438, 9.6878),
        (2.3729, 9.0557),
        (3.0445, 8.3841),
        (3.6756, 8.9560),
    ]
    assert len(vertices) == 4
    assert np.all(vertices > 0.0)
    for want in expected:
        assert any(
            np.allclose(got, want, atol=1e-3) for got in vertices
        ), f"vertex {want} not reproduced"

    hull_lo = np.min(vertices, axis=0)
    hull_hi = np.max(vertices, axis=0)
    assert np.all(cert.primal_enclosure.inf <= hull_lo + 1e-9)
    assert np.all(cert.primal_enclosure.sup >= hull_hi - 1e-9)


def test_stable_worst_case_matches_lower_bound():
    rng = np.random.default_rng(20250825)
    accepted = 0
    attempts = 0
    while accepted < 50:
        attempts += 1
        assert attempts < 400, "generator failed to supply stable instances"
        problem, rows = random_stable_problem(rng)
        cert = verify_b_stability(problem, Basis(rows))
        if cert.status is not CertificateStatus.VERIFIED_NONDEGENERATE:
            continue
        accepted += 1
        value, _, _ = worst_case_bstable(problem, Basis(rows), certificate=cert)
        bound = worst_lower_bound(problem)
        scale = 1e-6 * (1.0 + abs(value))
        assert abs(value - bound) <= scale
        for other in bstable_characterizations(problem, rows):
            assert abs(other - value) <= scale


def test_sampled_values_stay_inside_the_range():
    rng = np.random.default_rng(2025)
    for _ in range(50):
        problem = random_box_bounded_problem(rng)
        best, witness = best_case(problem)
        lower = worst_lower_bound(problem)
        for _ in range(500):
            out = sample_realization(problem, rng).solve()
            assert out.status is Status.OPTIMAL
            assert lower - 1e-7 <= out.value <= best + 1e-7
        replay = witness.solve()
        assert replay.status is Status.OPTIMAL
        assert replay.value == pytest.approx(best, abs=1e-9)


def test_simplex_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(200):
        G, g, c = random_lp(rng)
        out = solve_lp(LpProblem(c, G, g))
        status, value = lp_oracle(G, g, c)
        assert out.status.value == status
        if out.status is Status.OPTIMAL:
            assert abs(out.value - value) <= 1e-7 * (1.0 + abs(value))
            # strong duality: the dual certificate reproduces the value
            assert abs(float(g @ out.y) - out.value) <= 1e-7 * (
                1.0 + abs(out.value)
            )


def test_sign_iteration_agrees_with_exhaustive_enumeration():
    rng = np.random.default_rng(88)
    for _ in range(100):
        M, F, g = random_gave(rng)
        x = solve_gave(GaveSystem(M=M, F=F, g=g))
        sols = gave_solutions(M, F, g)
        assert len(sols) == 1
        assert np.allclose(x, sols[0], atol=1e-7)
        residual = M @ x + F @ np.abs(x) - g
        assert np.max(np.abs(residual)) <= 1e-8 * (1.0 + np.max(np.abs(g)))


def test_widening_matrix_radius_is_monotone():
    rng = np.random.default_rng(9)
    for _ in range(100):
        problem = random_box_bounded_problem(rng)
        widened = AvlpProblem(
            A=IntervalMatrix.from_midrad(problem.A.mid, 2.0 * problem.A.rad),
            b=problem.b,
            c=problem.c,
            D=problem.D,
        )
        assert best_case(widened)[0] >= best_case(problem)[0] - 1e-9
        assert worst_lower_bound(widened) <= worst_lower_bound(problem) + 1e-9
