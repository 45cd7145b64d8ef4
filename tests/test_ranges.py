"""Best case, worst-case bracket, tightness certificate, aggregation."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avlprange import (
    AvlpProblem,
    GaveSystem,
    GenAvlpProgram,
    InputError,
    IntervalMatrix,
    IntervalVector,
    LpProblem,
    SignVector,
    Status,
    all_sign_vectors,
    best_case,
    best_case_bstable,
    bstable_characterizations,
    check_basis_optimal,
    full_range,
    lower_tightness,
    parse_problem,
    relaxed_interval_lp,
    sample_realization,
    sign_of,
    solve_gave,
    solve_gen_avlp,
    solve_lp,
    verify_b_stability,
    worst_case_bstable,
    worst_lower_bound,
    worst_upper_bound,
)

from avlprange import ranges
from oracles import random_box_bounded_problem, random_stable_problem


def _point_problem(A, b, c, D):
    return AvlpProblem(
        A=IntervalMatrix.from_point(A),
        b=IntervalVector.from_point(b),
        c=IntervalVector.from_point(c),
        D=IntervalMatrix.from_point(D),
    )


def _box_point_problem():
    """Point data in a box, with point relief in every entry."""
    return _point_problem(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 2.0, 1.0, 2.0],
        [1.0, 1.0],
        np.full((4, 2), 0.1),
    )


def _scalar_interval_problem():
    """One variable, one row a*x <= 1 with a in [-1, 1], objective x."""
    return AvlpProblem(
        A=IntervalMatrix([[-1.0]], [[1.0]]),
        b=IntervalVector.from_point([1.0]),
        c=IntervalVector.from_point([1.0]),
        D=IntervalMatrix.from_point([[0.0]]),
    )


class TestValidation:
    def test_shapes_must_agree(self):
        with pytest.raises(InputError):
            AvlpProblem(
                A=IntervalMatrix.from_point([[1.0, 0.0]]),
                b=IntervalVector.from_point([1.0, 2.0]),
                c=IntervalVector.from_point([1.0, 0.0]),
                D=IntervalMatrix.from_point([[0.0, 0.0]]),
            )

    def test_relief_lower_bound_must_be_nonnegative(self):
        with pytest.raises(InputError):
            AvlpProblem(
                A=IntervalMatrix.from_point([[1.0]]),
                b=IntervalVector.from_point([1.0]),
                c=IntervalVector.from_point([1.0]),
                D=IntervalMatrix([[-0.1]], [[0.2]]),
            )


class TestExampleFixtures:
    def test_square_with_coupler(self, example1):
        report = full_range(example1)
        assert report.best == pytest.approx(3.0, abs=1e-9)
        assert report.worst_lower == pytest.approx(1.5, abs=1e-9)
        assert report.worst_upper == pytest.approx(3.0, abs=1e-9)
        assert report.lower_tight is False
        steps = [(s.index, s.value, tuple(s.sign)) for s in report.upper_log]
        assert steps == [(0, 3.0, (-1, 1)), (1, 3.0, (1, 1))]
        assert not report.errors

    def test_jump_at_the_endpoint(self, example2):
        report = full_range(example2)
        assert report.best == pytest.approx(1.0, abs=1e-9)
        assert report.worst_lower == pytest.approx(-1.0, abs=1e-9)
        assert report.worst_upper == pytest.approx(-0.5, abs=1e-9)
        assert report.lower_tight is False

    def test_tightness_certificate_declines_example2(self, example2):
        assert lower_tightness(example2, SignVector((1, -1))) is False

    def test_unbounded_lower_program(self, example3):
        report = full_range(example3)
        assert report.best == pytest.approx(1.0, abs=1e-9)
        assert report.worst_lower == -np.inf
        assert report.worst_upper == pytest.approx(-4.0, abs=1e-9)
        assert report.lower_tight is False
        steps = [(s.index, s.value, tuple(s.sign)) for s in report.upper_log]
        assert steps == [(0, -4.0, (1, -1)), (1, 1.0, (-1, 1))]

    def test_stable_instance_closes_the_bracket(self, example4):
        report = full_range(example4)
        assert report.best == pytest.approx(22.31935771632471, abs=1e-9)
        assert report.worst_lower == pytest.approx(19.81264637002342, abs=1e-9)
        assert report.worst_upper == pytest.approx(19.81264637002342, abs=1e-9)
        assert report.lower_tight is True

    def test_best_witness_reproduces_best(self, example4):
        value, witness = best_case(example4)
        assert witness is not None
        assert example4.A.contains(witness.A)
        assert example4.b.contains(witness.b)
        assert example4.c.contains(witness.c)
        assert example4.D.contains(witness.D)
        out = witness.solve()
        assert out.status is Status.OPTIMAL
        assert out.value == pytest.approx(value, abs=1e-9)

    def test_upper_witness_attains_the_bound(self, example4):
        bound, witness, log = worst_upper_bound(example4)
        assert witness is not None
        assert witness.solve().value == pytest.approx(bound, abs=1e-9)
        assert log[-1].bound == pytest.approx(bound, abs=1e-12)


def _all_interval_problem():
    """Example 4's matrix with every other datum widened as well, so
    that each endpoint choice shows."""
    return AvlpProblem(
        A=IntervalMatrix.from_midrad(
            [[1.0, 1.0], [-2.0, 4.0], [-6.0, 2.0], [4.0, -7.0]],
            [[0.05, 0.05], [0.1, 0.2], [0.3, 0.1], [0.2, 0.35]],
        ),
        b=IntervalVector.from_midrad([12.0, 18.0, 36.0, 26.0], [0.5, 0.2, 0.1, 0.3]),
        c=IntervalVector.from_midrad([1.0, 2.0], [0.1, 0.3]),
        D=IntervalMatrix.from_midrad(
            [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            [[0.0, 0.0], [0.1, 0.2], [0.3, 0.1], [0.2, 0.1]],
        ),
    )


@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "all-interval"]
)
def test_corners_sit_on_the_documented_endpoints(name, request):
    if name == "all-interval":
        problem = _all_interval_problem()
    else:
        problem = request.getfixturevalue(name)
    A, b, c, D = problem.A, problem.b, problem.c, problem.D
    for s in all_sign_vectors(problem.n):
        plus = s.as_array()[None, :] > 0
        best = problem.best_corner(s)
        assert np.array_equal(best.A, np.where(plus, A.inf, A.sup))
        assert np.array_equal(best.c, np.where(plus[0], c.sup, c.inf))
        assert np.array_equal(best.b, b.sup)
        assert np.array_equal(best.D, D.sup)
        worst = problem.worst_corner(s)
        assert np.array_equal(worst.A, np.where(plus, A.sup, A.inf))
        assert np.array_equal(worst.c, np.where(plus[0], c.inf, c.sup))
        assert np.array_equal(worst.b, b.inf)
        assert np.array_equal(worst.D, D.inf)

    # the best-case witness is the best corner at the combined program's sign
    out = solve_gen_avlp(
        GenAvlpProgram(
            linear_cost=c.mid,
            abs_cost=c.rad,
            linear_lhs=A.mid,
            abs_lhs=-(A.rad + D.sup),
            rhs=b.sup,
        )
    )
    value, witness = best_case(problem)
    assert value == out.value
    expected = problem.best_corner(out.sign if out.status is Status.OPTIMAL else out.orthant)
    for key in ("A", "b", "c", "D"):
        assert np.array_equal(getattr(witness, key), getattr(expected, key))


class TestPointData:
    def test_all_three_collapse_to_the_nominal_value(self):
        problem = _point_problem(
            [[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0], [1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]]
        )
        report = full_range(problem)
        assert report.best == pytest.approx(5.0, abs=1e-12)
        assert report.worst_lower == pytest.approx(5.0, abs=1e-12)
        assert report.worst_upper == pytest.approx(5.0, abs=1e-12)
        assert report.lower_tight is True

    def test_full_range_solves_three_programs(self, monkeypatch):
        # best, worst-lower, and the one worst-corner program, which the
        # upper iteration's midpoint start shares with the certificate
        calls = []
        real_solve = ranges.solve_gen_avlp

        def solve(program, **kwargs):
            calls.append(program)
            return real_solve(program, **kwargs)

        monkeypatch.setattr(ranges, "solve_gen_avlp", solve)
        report = full_range(_box_point_problem())
        monkeypatch.undo()
        assert len(calls) == 3
        assert (report.best, report.worst_lower, report.worst_upper) == (3.75, 3.75, 3.75)
        assert report.lower_tight is True
        assert [step.status for step in report.upper_log] == [Status.OPTIMAL] * 2


class TestScalarIntervalRow:
    def test_best_is_unbounded(self):
        problem = _scalar_interval_problem()
        value, witness = best_case(problem)
        assert value == np.inf
        assert witness is not None
        assert witness.solve().status is Status.UNBOUNDED

    def test_worst_bracket_closes_at_one(self):
        problem = _scalar_interval_problem()
        assert worst_lower_bound(problem) == pytest.approx(1.0, abs=1e-9)
        bound, witness, log = worst_upper_bound(problem)
        assert bound == pytest.approx(1.0, abs=1e-9)
        # first iterate (midpoint matrix) is unbounded and contributes its ray sign
        assert log[0].status is Status.UNBOUNDED
        assert log[0].ray is not None
        assert log[1].status is Status.OPTIMAL

    def test_certificate_confirms_tightness(self):
        problem = _scalar_interval_problem()
        assert lower_tightness(problem, SignVector((1,))) is True
        assert full_range(problem).lower_tight is True


class TestInfeasibleRealizations:
    def _problem(self):
        # x <= b1 with b1 in [-2, -1], together with x >= 0
        return AvlpProblem(
            A=IntervalMatrix.from_point([[1.0], [-1.0]]),
            b=IntervalVector([-2.0, 0.0], [-1.0, 0.0]),
            c=IntervalVector.from_point([1.0]),
            D=IntervalMatrix.from_point([[0.0], [0.0]]),
        )

    def test_worst_case_is_exactly_minus_infinity(self):
        problem = self._problem()
        assert worst_lower_bound(problem) == -np.inf
        bound, witness, log = worst_upper_bound(problem)
        assert bound == -np.inf
        assert witness is not None
        assert witness.solve().status is Status.INFEASIBLE
        assert len(log) == 1 and log[0].status is Status.INFEASIBLE

    def test_report_declares_the_bracket_tight(self):
        report = full_range(self._problem())
        assert report.worst_lower == -np.inf
        assert report.worst_upper == -np.inf
        assert report.lower_tight is True


def test_relaxed_lp_absorbs_the_relief(example4):
    widened, rhs, cost = relaxed_interval_lp(example4)
    assert np.allclose(widened.mid, example4.A.mid)
    assert np.allclose(widened.rad, example4.A.rad + example4.D.sup)
    assert np.allclose(widened.rad[1], [1.1, 1.2])
    assert rhs is example4.b
    assert cost is example4.c


def test_sampling_is_seeded_and_in_bounds(example4):
    first = sample_realization(example4, np.random.default_rng(123))
    second = sample_realization(example4, np.random.default_rng(123))
    assert np.array_equal(first.A, second.A)
    assert np.array_equal(first.b, second.b)
    assert example4.A.contains(first.A)
    assert example4.D.contains(first.D)


def test_bracket_and_witnesses_on_random_problems():
    rng = np.random.default_rng(60)
    for _ in range(30):
        problem = random_box_bounded_problem(rng)
        report = full_range(problem)
        assert report.best is not None and np.isfinite(report.best)
        assert report.worst_lower is not None
        assert report.worst_upper is not None
        assert report.worst_lower <= report.worst_upper + 1e-9
        assert report.worst_upper <= report.best + 1e-9
        assert report.best_witness is not None
        assert report.best_witness.solve().value == pytest.approx(report.best, abs=1e-7)
        if report.upper_witness is not None:
            assert report.upper_witness.solve().value == pytest.approx(
                report.worst_upper, abs=1e-7
            )


def test_widening_the_matrix_radius_is_monotone():
    rng = np.random.default_rng(61)
    for _ in range(30):
        problem = random_box_bounded_problem(rng)
        widened = AvlpProblem(
            A=IntervalMatrix.from_midrad(problem.A.mid, 2.0 * problem.A.rad),
            b=problem.b,
            c=problem.c,
            D=problem.D,
        )
        assert best_case(widened)[0] >= best_case(problem)[0] - 1e-9
        assert worst_lower_bound(widened) <= worst_lower_bound(problem) + 1e-9


#: Every public entry point that takes ``tol``, as ``(name, call)``
#: with ``call(problem, tol)``.
_TOL_ENTRY_POINTS = [
    ("solve_lp", lambda p, tol: solve_lp(LpProblem(c=[1.0], G=[[1.0]], g=[1.0]), tol=tol)),
    ("solve_gen_avlp", lambda p, tol: solve_gen_avlp(p.best_corner(SignVector((1, 1))).program(),
                                                     tol=tol)),
    ("best_case", lambda p, tol: best_case(p, tol=tol)),
    ("worst_lower_bound", lambda p, tol: worst_lower_bound(p, tol=tol)),
    ("lower_tightness", lambda p, tol: lower_tightness(p, SignVector((1, 1)), tol=tol)),
    ("worst_upper_bound", lambda p, tol: worst_upper_bound(p, tol=tol)),
    ("full_range", lambda p, tol: full_range(p, tol=tol)),
    ("verify_b_stability", lambda p, tol: verify_b_stability(p, (0, 1), tol=tol)),
    ("best_case_bstable", lambda p, tol: best_case_bstable(p, (0, 1), tol=tol)),
    ("worst_case_bstable", lambda p, tol: worst_case_bstable(p, (0, 1), tol=tol)),
    ("bstable_characterizations", lambda p, tol: bstable_characterizations(p, (0, 1), tol=tol)),
    ("solve_gave", lambda p, tol: solve_gave(GaveSystem(np.eye(2), np.zeros((2, 2)), np.ones(2)),
                                             tol=tol)),
    ("check_basis_optimal", lambda p, tol: check_basis_optimal(np.eye(2), np.ones(2), np.ones(2),
                                                               (0, 1), tol=tol)),
]


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0, 0.5])
@pytest.mark.parametrize("name, call", _TOL_ENTRY_POINTS, ids=[n for n, _ in _TOL_ENTRY_POINTS])
def test_entry_points_reject_out_of_range_tol(example1, name, call, tol):
    # a tol outside (0, 1e-3] passes wrong answers (0.5 reports a loose
    # bound of example1 tight) or fails every analysis (nan)
    with pytest.raises(InputError, match="tol must be"):
        call(example1, tol)


@pytest.mark.parametrize("entry", [worst_upper_bound, full_range])
def test_entry_points_reject_fewer_than_one_iteration(example1, entry):
    with pytest.raises(InputError, match="max_iters must be"):
        entry(example1, max_iters=0)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_lower_tightness_returns_a_bool(request, name):
    problem = request.getfixturevalue(name)
    for s in all_sign_vectors(problem.n):
        assert type(lower_tightness(problem, s)) is bool


def _zero_entry_problem():
    """Rows pin x2 to zero, so every worst corner's optimizer has an
    exact zero entry."""
    return AvlpProblem(
        A=IntervalMatrix.from_midrad(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            [[0.1, 0.0], [0.1, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ),
        b=IntervalVector.from_midrad([1.0, 1.0, 0.0, 0.0], [0.1, 0.1, 0.0, 0.0]),
        c=IntervalVector.from_midrad([1.0, 0.5], [0.1, 0.1]),
        D=IntervalMatrix(np.zeros((4, 2)), np.full((4, 2), 0.05)),
    )


#: Problems on which ``full_range`` is checked against its parts: the
#: fixtures, a corner optimizer with a zero entry, a problem with
#: intervals in one column only, and seeded random box-bounded
#: instances.  Among the random ones, the upper iteration of random-14
#: and random-35 revisits the negation of a sign the certificate
#: solved, so a memo looked up under the wrong sign shows.  In
#: repeated-corner the certificate and the upper iteration meet signs
#: that differ only in point-data columns, whose worst corners are
#: bitwise equal, so a memo keyed by sign solves one of them twice.
_RANGE_CASES = ["example1", "example2", "example3", "example4", "zero-entry",
                "repeated-corner"] + [f"random-{i}" for i in range(40)]


def _range_problem(request, name):
    if name.startswith("example"):
        return request.getfixturevalue(name)
    if name == "zero-entry":
        return _zero_entry_problem()
    if name == "point":
        return _box_point_problem()
    if name == "repeated-corner":
        return parse_problem(Path(__file__).parent / "data" / "repeated_corner_problem.json")
    return random_box_bounded_problem(np.random.default_rng([62, int(name.split("-")[1])]))


def _bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def _realization_bits(realization):
    if realization is None:
        return None
    return tuple(_bits(getattr(realization, name)) for name in "AbcD")


def _step_bits(step):
    return (step.index, step.status, _bits(step.value), _bits(step.bound), step.sign,
            _bits(step.ray))


def _restricted_lp(problem, s):
    """The corner at ``s`` restricted to the closed orthant of ``s``."""
    corner = problem.worst_corner(s)
    s_arr = s.as_array()
    return solve_lp(LpProblem(
        c=corner.c,
        G=np.vstack([corner.A - corner.D * s_arr[None, :], -np.diag(s_arr)]),
        g=np.concatenate([corner.b, np.zeros(problem.n)]),
    ))


# on point data the upper iteration's start shares the corner memo
@pytest.mark.parametrize("name", _RANGE_CASES + ["point"])
def test_full_range_equals_its_public_parts_bit_for_bit(request, name):
    problem = _range_problem(request, name)
    report = full_range(problem)

    best, best_witness = best_case(problem)
    assert _bits(report.best) == _bits(best)
    assert _realization_bits(report.best_witness) == _realization_bits(best_witness)
    worst_lower = worst_lower_bound(problem)
    assert _bits(report.worst_lower) == _bits(worst_lower)
    upper, upper_witness, upper_log = worst_upper_bound(problem)
    assert _bits(report.worst_upper) == _bits(upper)
    assert _realization_bits(report.upper_witness) == _realization_bits(upper_witness)
    assert [_step_bits(step) for step in report.upper_log] == [
        _step_bits(step) for step in upper_log
    ]

    # the certificate holds when it holds at any sign tied for the
    # lower-bound program's optimum, or when an infeasible iterate pins
    # the worst case at -inf
    lower = solve_gen_avlp(
        GenAvlpProgram(
            linear_cost=problem.c.mid,
            abs_cost=-problem.c.rad,
            linear_lhs=problem.A.mid,
            abs_lhs=problem.A.rad - problem.D.inf,
            rhs=problem.b.inf,
        ),
        records=True,
    )
    tied = set()
    if lower.status is Status.OPTIMAL:
        window = report.tol * (1.0 + abs(lower.value))
        tied = {
            sign_of(record.optimizer)
            for record in lower.records
            if record.status is Status.OPTIMAL and record.value >= lower.value - window
        }
    pinned = worst_lower == -np.inf and any(
        step.status is Status.INFEASIBLE for step in upper_log
    )
    expected = pinned or any(lower_tightness(problem, s) for s in tied)
    assert report.lower_tight is expected


@pytest.mark.parametrize("name", _RANGE_CASES)
def test_full_range_solves_each_program_once(request, name, monkeypatch):
    problem = _range_problem(request, name)
    programs, restricted, certificates = [], [], []
    real_solve = ranges.solve_gen_avlp
    real_restricted = ranges._solve_inequality
    real_tightness = ranges.lower_tightness

    def solve(program, **kwargs):
        programs.append(tuple(
            _bits(getattr(program, field))
            for field in ("linear_cost", "abs_cost", "linear_lhs", "abs_lhs", "rhs")
        ))
        return real_solve(program, **kwargs)

    def restricted_lp(*args):
        restricted.append(args)
        return real_restricted(*args)

    def tightness(problem, s, *args, **kwargs):
        before = len(restricted)
        verdict = real_tightness(problem, s, *args, **kwargs)
        certificates.append((s, len(restricted) - before, verdict))
        return verdict

    monkeypatch.setattr(ranges, "solve_gen_avlp", solve)
    monkeypatch.setattr(ranges, "_solve_inequality", restricted_lp)
    monkeypatch.setattr(ranges, "lower_tightness", tightness)
    report = full_range(problem)
    monkeypatch.undo()

    assert len(set(programs)) == len(programs)
    assert sum(ran for _, ran, _ in certificates) == len(restricted)
    for s, ran, verdict in certificates:
        out = problem.worst_corner(s).solve(tol=report.tol)
        if out.status is not Status.OPTIMAL:
            assert (ran, verdict) == (0, False)
            continue
        if not np.all(s.as_array() * out.optimizer >= 0.0):
            assert ran == 1
            continue
        # the corner's optimizer lies in the closed orthant of s, so the
        # restricted LP was skipped; solved anyway, it ties the corner
        assert (ran, verdict) == (0, True)
        direct = _restricted_lp(problem, s)
        assert direct.status is Status.OPTIMAL
        assert abs(direct.value - out.value) <= report.tol * (1.0 + abs(out.value))


def test_corner_optimizer_with_a_zero_entry_certifies_without_an_lp(monkeypatch):
    problem = _zero_entry_problem()
    s = SignVector((1, 1))
    out = problem.worst_corner(s).solve()
    assert out.status is Status.OPTIMAL
    assert out.optimizer[1] == 0.0
    monkeypatch.setattr(ranges, "_solve_inequality", pytest.fail)
    assert lower_tightness(problem, s) is True
    assert full_range(problem).lower_tight is True
    monkeypatch.undo()
    direct = _restricted_lp(problem, s)
    assert direct.status is Status.OPTIMAL
    assert direct.value == pytest.approx(out.value, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stable=st.booleans(),
    data=st.data(),
)
def test_row_permutation_leaves_the_exact_optima_unchanged(seed, stable, data):
    # best and worst_lower are optima of their programs, so the order
    # of the rows cannot change them; worst_upper and lower_tight
    # follow the pivot path and are not compared
    rng = np.random.default_rng(seed)
    problem = random_stable_problem(rng)[0] if stable else random_box_bounded_problem(rng)
    order = np.array(data.draw(st.permutations(range(problem.m))))
    permuted = AvlpProblem(
        A=problem.A.take_rows(order),
        b=problem.b.take(order),
        c=problem.c,
        D=problem.D.take_rows(order),
    )
    report, shuffled = full_range(problem), full_range(permuted)
    for key in ("best", "worst_lower"):
        want, got = getattr(report, key), getattr(shuffled, key)
        assert want is not None and got is not None
        assert got == want or abs(got - want) <= 1e-9 * (1.0 + abs(want)), key
