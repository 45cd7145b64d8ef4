"""Best case, worst-case bracket, tightness certificate, aggregation."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avlprange import (
    AvlpProblem,
    DimensionError,
    GenAvlpProgram,
    InputError,
    IntervalMatrix,
    IntervalVector,
    LpProblem,
    SignVector,
    SizeCapError,
    Status,
    all_sign_vectors,
    best_case,
    best_case_bstable,
    full_range,
    lower_tightness,
    parse_problem,
    relaxed_interval_lp,
    sample_realization,
    sign_of,
    solve_gen_avlp,
    solve_lp,
    verify_b_stability,
    worst_lower_bound,
    worst_upper_bound,
)

from avlprange import ranges
from oracles import orthant_sweep, random_box_bounded_problem, random_stable_problem


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
        bound = worst_lower_bound(example2)
        assert lower_tightness(example2, SignVector((1, -1)), bound) is False

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


def test_corners_refuse_a_sign_of_the_wrong_length(example1):
    short = SignVector((1,))
    for call in (example1.best_corner, example1.worst_corner,
                 lambda s: lower_tightness(example1, s, 0.0)):
        with pytest.raises(DimensionError, match="column selector must have length 2, got 1"):
            call(short)


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
        assert lower_tightness(problem, SignVector((1,)), worst_lower_bound(problem)) is True
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
    ("lower_tightness", lambda p, tol: lower_tightness(p, SignVector((1, 1)), 1.5, tol=tol)),
    ("worst_upper_bound", lambda p, tol: worst_upper_bound(p, tol=tol)),
    ("full_range", lambda p, tol: full_range(p, tol=tol)),
    ("verify_b_stability", lambda p, tol: verify_b_stability(p, (0, 1), tol=tol)),
    ("best_case_bstable", lambda p, tol: best_case_bstable(p, (0, 1), tol=tol)),
]


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0, 0.5])
@pytest.mark.parametrize("name, call", _TOL_ENTRY_POINTS, ids=[n for n, _ in _TOL_ENTRY_POINTS])
def test_entry_points_reject_out_of_range_tol(example1, name, call, tol):
    # a tol outside (0, 1e-3] passes wrong answers (0.5 reports a loose
    # bound of example1 tight) or fails every analysis (nan)
    with pytest.raises(InputError, match="tol must be"):
        call(example1, tol)


@pytest.mark.parametrize("entry", [full_range, ranges.worst_range])
def test_size_cap_propagates_from_the_aggregates(example1, entry):
    # the cap counts all n variables, so every component would fail
    with pytest.raises(SizeCapError):
        entry(example1, orthant_cap=1)


@pytest.mark.parametrize("entry", [worst_upper_bound, full_range])
def test_entry_points_reject_fewer_than_one_iteration(example1, entry):
    with pytest.raises(InputError, match="max_iters must be"):
        entry(example1, max_iters=0)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_lower_tightness_returns_a_bool(request, name):
    problem = request.getfixturevalue(name)
    bound = worst_lower_bound(problem)
    for s in all_sign_vectors(problem.n):
        assert type(lower_tightness(problem, s, bound)) is bool


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
#: instances, with ``inf(D) = 0`` (random-*) and with ``inf(D)`` a
#: fraction 0.5, 0.9 or 1 of ``sup(D)`` (relief-*), where ``inf(D)``
#: exceeds ``rad(A)`` and the lower program is nonconvex, some with
#: optima tied across orthants.  Among the random ones, the upper
#: iteration of random-14 and random-35 revisits the negation of a sign
#: the certificate solved, so a memo looked up under the wrong sign
#: shows.  In repeated-corner the certificate and the upper iteration
#: meet signs that differ only in point-data columns, whose worst
#: corners are bitwise equal, so a memo keyed by sign solves one of
#: them twice.
_RANGE_CASES = (["example1", "example2", "example3", "example4", "zero-entry",
                 "repeated-corner"] + [f"random-{i}" for i in range(40)]
                + [f"relief-{i}" for i in range(24)])


def _range_problem(request, name):
    if name.startswith("example"):
        return request.getfixturevalue(name)
    if name == "zero-entry":
        return _zero_entry_problem()
    if name == "point":
        return _box_point_problem()
    if name == "repeated-corner":
        return parse_problem(Path(__file__).parent / "data" / "repeated_corner_problem.json")
    if name.startswith("relief"):
        i = int(name.split("-")[1])
        relief = (0.5, 0.9, 1.0)[i % 3]
        return random_box_bounded_problem(np.random.default_rng([63, i]), relief=relief)
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


def _attained_in_orthant(problem, s, tol):
    """Whether the corner at ``s`` attains its optimum in the closed
    orthant of ``s``: its restricted LP ties its optimum."""
    out = problem.worst_corner(s).solve(tol=tol)
    if out.status is not Status.OPTIMAL:
        return False
    restricted = _restricted_lp(problem, s)
    return restricted.status is Status.OPTIMAL and bool(
        abs(restricted.value - out.value) <= tol * (1.0 + abs(out.value))
    )


def _lower_program(problem):
    return GenAvlpProgram(
        linear_cost=problem.c.mid,
        abs_cost=-problem.c.rad,
        linear_lhs=problem.A.mid,
        abs_lhs=problem.A.rad - problem.D.inf,
        rhs=problem.b.inf,
    )


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

    # the certificate holds when the corner at a sign tied for the
    # lower-bound program's optimum attains its optimum in the closed
    # orthant of that sign, or when an infeasible iterate pins the worst
    # case at -inf
    lower, _ = orthant_sweep(_lower_program(problem), tol=report.tol)
    assert _bits(lower.value) == _bits(worst_lower)
    pinned = worst_lower == -np.inf and any(
        step.status is Status.INFEASIBLE for step in upper_log
    )
    tied = {sign_of(x) for x in lower.ties}
    expected = pinned or any(_attained_in_orthant(problem, s, report.tol) for s in tied)
    assert report.lower_tight is expected


def _upper_setter(log):
    """Index of the step that last moved the upper iteration's bound,
    or None when no step did."""
    setter, previous = None, np.inf
    for step in log:
        if _bits(step.bound) != _bits(previous):
            setter = step.index
        previous = step.bound
    return setter


# point data: the midpoint start is bitwise the first corner
@pytest.mark.parametrize("name", _RANGE_CASES + ["point"])
def test_upper_witness_is_the_realization_that_set_the_bound(request, name):
    # the iteration carries its realizations as arrays and builds one
    # Realization, the witness: the midpoint start when step 0 set the
    # bound, else the worst corner at the sign the step before logged
    problem = _range_problem(request, name)
    bound, witness, log = worst_upper_bound(problem)
    setter = _upper_setter(log)
    if setter is None:
        assert witness is None and bound == np.inf
        return
    if setter == 0:
        expected = ranges.Realization(
            A=problem.A.mid, b=problem.b.inf, c=problem.c.mid, D=problem.D.inf
        )
    else:
        expected = problem.worst_corner(log[setter - 1].sign)
    assert _realization_bits(witness) == _realization_bits(expected)
    assert all(not getattr(witness, field).flags.writeable for field in "AbcD")
    out = witness.solve()
    if bound == -np.inf:
        assert out.status is Status.INFEASIBLE
    else:
        assert out.status is Status.OPTIMAL and _bits(out.value) == _bits(bound)
    assert _realization_bits(full_range(problem).upper_witness) == _realization_bits(witness)


def test_upper_witnesses_come_from_the_start_and_from_corners(request):
    # the cases above reach both kinds of witness
    setters = {_upper_setter(worst_upper_bound(_range_problem(request, name))[2])
               for name in _RANGE_CASES}
    assert 0 in setters
    assert any(setter is not None and setter > 0 for setter in setters)


#: Finite data whose midpoint, radius or ``rad(A) + sup(D)`` overflows,
#: as endpoints and as midpoint and radius: ``(what, fields)`` with
#: ``fields`` the parts of a 1 x 2 problem that differ from point data.
_OVERFLOWING = [
    ("A.mid", {"A": IntervalMatrix.from_point([[1e308, 1e308]])}),
    ("b.rad", {"b": IntervalVector([-1e308], [1e308])}),
    ("c.mid", {"c": IntervalVector.from_midrad([1.7e308, 0.0], [0.0, 0.0])}),
    ("D.mid", {"D": IntervalMatrix.from_point([[1.7e308, 0.0]])}),
    ("rad(A) + sup(D)", {"A": IntervalMatrix.from_midrad([[0.0, 0.0]], [[8e307, 0.0]]),
                         "D": IntervalMatrix([[0.0, 0.0]], [[1e308, 0.0]])}),
]


@pytest.mark.parametrize("what, fields", _OVERFLOWING, ids=[w.replace(" ", "") for w, _ in _OVERFLOWING])
def test_overflowing_data_is_refused_when_the_problem_is_built(what, fields):
    data = {
        "A": IntervalMatrix.from_point([[1.0, 1.0]]),
        "b": IntervalVector.from_point([1.0]),
        "c": IntervalVector.from_point([1.0, 1.0]),
        "D": IntervalMatrix.from_point([[0.0, 0.0]]),
        **fields,
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError, match=re.escape(f"{what} must contain only finite values")):
            AvlpProblem(**data)
    assert caught == []


@pytest.mark.parametrize("name", _RANGE_CASES)
def test_full_range_solves_each_program_once(request, name, monkeypatch):
    problem = _range_problem(request, name)
    programs, lps, certificates = [], [], []
    real_solve = ranges.solve_gen_avlp
    real_tightness = ranges.lower_tightness

    def solve(program, **kwargs):
        programs.append(tuple(
            _bits(getattr(program, field))
            for field in ("linear_cost", "abs_cost", "linear_lhs", "abs_lhs", "rhs")
        ))
        return real_solve(program, **kwargs)

    def tightness(problem, s, *args, **kwargs):
        verdict = real_tightness(problem, s, *args, **kwargs)
        certificates.append((s, verdict))
        return verdict

    monkeypatch.setattr(ranges, "solve_gen_avlp", solve)
    # ranges solves no LP of its own
    monkeypatch.setattr(ranges, "_solve_inequality", lambda *args: lps.append(args))
    monkeypatch.setattr(ranges, "lower_tightness", tightness)
    report = full_range(problem)
    monkeypatch.undo()

    assert len(set(programs)) == len(programs)
    assert lps == []
    # each tied sign is tried once, and the first that certifies ends
    # the search
    signs = [s for s, _ in certificates]
    assert len(set(signs)) == len(signs)
    verdicts = [verdict for _, verdict in certificates]
    assert True not in verdicts[:-1]
    for s, verdict in certificates:
        out = problem.worst_corner(s).solve(tol=report.tol)
        attains = out.status is Status.OPTIMAL and bool(
            abs(out.value - report.worst_lower) <= report.tol * (1.0 + abs(out.value))
        )
        assert verdict is attains


@pytest.mark.parametrize("name", _RANGE_CASES)
def test_restricted_lp_at_every_tied_sign_equals_the_lower_bound(request, name):
    # the corner at a tied sign s has, on the closed orthant of s, the
    # rows and cost of the lower-bound program, so its value there is
    # the lower bound
    problem = _range_problem(request, name)
    if name.startswith("relief"):
        assert np.any(problem.A.rad - problem.D.inf < 0.0)
    lower = solve_gen_avlp(_lower_program(problem))
    for s in {sign_of(x) for x in lower.ties}:
        restricted = _restricted_lp(problem, s)
        assert restricted.status is Status.OPTIMAL
        assert abs(restricted.value - lower.value) <= 1e-12 * (1.0 + abs(lower.value))


def test_corner_optimizer_with_a_zero_entry_certifies_without_an_lp(monkeypatch):
    problem = _zero_entry_problem()
    s = SignVector((1, 1))
    out = problem.worst_corner(s).solve()
    assert out.status is Status.OPTIMAL
    assert out.optimizer[1] == 0.0
    monkeypatch.setattr(ranges, "_solve_inequality", pytest.fail)
    assert lower_tightness(problem, s, worst_lower_bound(problem)) is True
    assert full_range(problem).lower_tight is True
    monkeypatch.undo()
    direct = _restricted_lp(problem, s)
    assert direct.status is Status.OPTIMAL
    assert direct.value == pytest.approx(out.value, rel=1e-9, abs=1e-9)


def _tied_signs_problem():
    """Lower-bound optimum 7/3, tied in four orthants.

    Maximize ``x2`` subject to ``x2 <= 2|x1| + |x3|``, ``|x3| <= 1``,
    ``x1 >= -2/3`` and ``beta x1 <= 1`` with ``beta`` in ``[0.5, 1.5]``.
    The lower program takes ``beta = 1.5`` for ``x1 > 0``, so
    ``|x1| <= 2/3`` and ``x1 = ±2/3``, ``x3 = ±1`` tie.  The worst
    corner at a sign with ``x1 < 0`` takes ``beta = 0.5`` and reaches
    ``x1 = 2``; at a sign with ``x1 > 0`` it takes ``beta = 1.5`` and
    attains the bound.
    """
    a_mid = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
             [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    a_rad = np.zeros((5, 3))
    a_rad[2, 0] = 0.5
    relief = np.zeros((5, 3))
    relief[0] = [2.0, 0.0, 1.0]
    return AvlpProblem(
        A=IntervalMatrix.from_midrad(a_mid, a_rad),
        b=IntervalVector.from_point([0.0, 2.0 / 3.0, 1.0, 1.0, 1.0]),
        c=IntervalVector.from_point([0.0, 1.0, 0.0]),
        D=IntervalMatrix.from_point(relief),
    )


def test_tied_signs_are_tried_in_order_until_one_certifies(monkeypatch):
    problem = _tied_signs_problem()
    lower = solve_gen_avlp(_lower_program(problem))
    assert lower.value == pytest.approx(7.0 / 3.0, abs=1e-12)
    tied = [sign_of(x).entries for x in lower.ties]
    assert tied == [(-1, 1, -1), (-1, 1, 1), (1, 1, -1), (1, 1, 1)]
    tried = []
    real_tightness = ranges.lower_tightness

    def tightness(problem, s, *args, **kwargs):
        verdict = real_tightness(problem, s, *args, **kwargs)
        tried.append((s.entries, verdict))
        return verdict

    monkeypatch.setattr(ranges, "lower_tightness", tightness)
    report = ranges.worst_range(problem)
    monkeypatch.undo()
    assert tried == [((-1, 1, -1), False), ((-1, 1, 1), False), ((1, 1, -1), True)]
    assert report.lower_tight is True
    assert report.worst_lower == lower.value
    assert report.worst_upper == pytest.approx(7.0 / 3.0, abs=1e-9)
    # the fourth tied sign would certify too
    assert real_tightness(problem, SignVector((1, 1, 1)), lower.value) is True
    assert problem.worst_corner(SignVector((-1, 1, 1))).solve().value == pytest.approx(5.0)


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stable=st.booleans(),
    data=st.data(),
)
def test_row_permutation_leaves_the_exact_optima_unchanged(seed, stable, data):
    # best and worst_lower are optima of their programs, so neither the
    # order of the rows, nor the order of the variables (the columns of
    # A, D and c permuted together), nor the substitution x_j -> -x_j on
    # some columns (A[:, j] and c_j reflected, |x_j| and so D unchanged)
    # can change them; worst_upper and lower_tight follow the pivot path
    # and are not compared
    rng = np.random.default_rng(seed)
    problem = random_stable_problem(rng)[0] if stable else random_box_bounded_problem(rng)
    order = np.array(data.draw(st.permutations(range(problem.m))))
    permuted = AvlpProblem(
        A=problem.A.take_rows(order),
        b=problem.b.take(order),
        c=problem.c,
        D=problem.D.take_rows(order),
    )
    columns = np.array(data.draw(st.permutations(range(problem.n))))
    renumbered = AvlpProblem(
        A=problem.A.T.take_rows(columns).T,
        b=problem.b,
        c=problem.c.take(columns),
        D=problem.D.T.take_rows(columns).T,
    )
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=problem.n, max_size=problem.n)))
    reflected = AvlpProblem(
        A=IntervalMatrix(
            np.where(flip, -problem.A.sup, problem.A.inf),
            np.where(flip, -problem.A.inf, problem.A.sup),
        ),
        b=problem.b,
        c=IntervalVector(
            np.where(flip, -problem.c.sup, problem.c.inf),
            np.where(flip, -problem.c.inf, problem.c.sup),
        ),
        D=problem.D,
    )
    report = full_range(problem)
    for other in (full_range(permuted), full_range(renumbered), full_range(reflected)):
        for key in ("best", "worst_lower"):
            want, got = getattr(report, key), getattr(other, key)
            assert want is not None and got is not None
            assert got == want or abs(got - want) <= 1e-9 * (1.0 + abs(want)), key
