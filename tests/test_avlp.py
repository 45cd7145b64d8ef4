"""Generalized solver with absolute-value terms in costs and rows."""

import itertools

import numpy as np
import pytest

from avlprange import (
    GenAvlpProgram,
    InputError,
    SizeCapError,
    Status,
    from_realization,
    sign_of,
    solve_gen_avlp,
)
from avlprange import avlp, simplex
from avlprange.errors import DimensionError
from avlprange.simplex import _solve_inequality, _solve_inequality_batch

from oracles import avlp_oracle, orthant_sweep


def _program(lin_cost, abs_cost, lin_lhs, abs_lhs, rhs):
    return GenAvlpProgram(
        linear_cost=np.asarray(lin_cost, float),
        abs_cost=np.asarray(abs_cost, float),
        linear_lhs=np.asarray(lin_lhs, float),
        abs_lhs=np.asarray(abs_lhs, float),
        rhs=np.asarray(rhs, float),
    )


def test_nominal_two_variable_instance():
    prog = from_realization(
        lhs=[[1.0, 1.0], [-2.0, 4.0], [-6.0, 2.0], [4.0, -7.0]],
        rhs=[12.0, 18.0, 36.0, 26.0],
        cost=[1.0, 2.0],
        relief=[[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
    )
    out = solve_gen_avlp(prog)
    assert out.status is Status.OPTIMAL
    assert out.value == pytest.approx(21.0, abs=1e-9)
    assert np.allclose(out.optimizer, [3.0, 9.0], atol=1e-7)
    assert out.orthant.entries == (1, 1)


def test_ties_cover_all_tied_orthants_in_order():
    # max |x_1| + |x_2| over a box: both columns are nonconvex, every
    # orthant is solved and all four tie at their corner of the box
    box = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    prog = _program([0.0, 0.0], [1.0, 1.0], box, np.zeros((4, 2)), [1.0, 1.0, 1.0, 1.0])
    out = solve_gen_avlp(prog)
    assert out.value == pytest.approx(2.0, abs=1e-12)
    corners = list(itertools.product((-1.0, 1.0), repeat=2))
    assert out.ties.shape == (4, 2)
    assert np.allclose(out.ties, corners, atol=1e-12)
    assert np.array_equal(out.ties[0], out.optimizer)


def test_no_column_to_enumerate_gives_one_tie():
    # x_1 absent, x_2 convex (|x_2| only costs and loosens a row)
    box = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    abs_lhs = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.5], [0.0, 0.0]]
    prog = _program([1.0, 1.0], [0.0, -0.5], box, abs_lhs, [1.0, 1.0, 2.0, 1.0])
    out = solve_gen_avlp(prog)
    assert out.status is Status.OPTIMAL
    # x_2 <= 2 - 0.5 x_2 gives x_2 = 4/3, worth 4/3 - 2/3
    assert out.value == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-9)
    assert np.allclose(out.optimizer, [1.0, 4.0 / 3.0], atol=1e-9)
    assert out.orthant.entries == (1, 1)
    assert out.ties.shape == (1, 2)
    assert np.array_equal(out.ties[0], out.optimizer)


def test_one_lp_programs_match_the_oracle_bit_for_bit():
    # programs without an enumerated column are one LP: with no |x|
    # term at all, or lifted with an epigraph variable per convex
    # column; optimal, infeasible and unbounded ones each give the
    # oracle's outcome, an unbounded one labelled by the sign of its ray
    rng = np.random.default_rng(48)
    seen = set()
    for trial in range(80):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        lin_lhs = rng.uniform(-3, 3, (m, n))
        rhs = rng.uniform(-1, 4, m)
        if trial % 4 < 2:
            # box rows keep the program bounded
            lin_lhs = np.vstack([lin_lhs, np.eye(n), -np.eye(n)])
            rhs = np.concatenate([rhs, rng.uniform(0.5, 2.0, 2 * n)])
        if trial % 8 == 3:
            # x_1 <= -1 and x_1 >= 1
            lin_lhs = np.vstack([lin_lhs, np.eye(1, n), -np.eye(1, n)])
            rhs = np.concatenate([rhs, [-1.0, -1.0]])
        abs_lhs = np.zeros_like(lin_lhs)
        abs_cost = np.zeros(n)
        lifted = bool(trial % 2)
        if lifted:
            # |x_j| only loosens rows and lowers the objective
            for j in rng.choice(n, int(rng.integers(1, n + 1)), replace=False):
                abs_lhs[:, j] = rng.uniform(0.0, 0.9, len(rhs)) * (rng.random(len(rhs)) < 0.7)
                abs_cost[j] = -rng.uniform(0.0, 1.0)
        prog = _program(rng.uniform(-2, 2, n), abs_cost, lin_lhs, abs_lhs, rhs)
        ref, lps = orthant_sweep(prog)
        assert len(lps) == 1
        got = solve_gen_avlp(prog)
        _assert_same_outcome(got, ref)
        if got.status is Status.UNBOUNDED:
            assert got.orthant == sign_of(got.ray)
        elif got.status is Status.OPTIMAL:
            assert got.ties.shape == (1, n) and np.array_equal(got.ties[0], got.optimizer)
        seen.add((lifted, got.status))
    assert seen == {(lifted, status) for lifted in (False, True) for status in Status}


def test_tie_keeps_lexicographically_smallest_orthant():
    # max |x| over |x| <= 1: both orthants reach 1
    prog = _program([0.0], [1.0], [[1.0], [-1.0]], [[0.0], [0.0]], [1.0, 1.0])
    out = solve_gen_avlp(prog)
    assert out.status is Status.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-12)
    assert out.orthant.entries == (-1,)
    assert np.allclose(out.optimizer, [-1.0])


def test_unbounded_orthant_wins_over_optimal_one():
    # -x <= 1: the negative orthant tops out at 0, the positive one runs away
    prog = _program([1.0], [0.0], [[-1.0]], [[0.0]], [1.0])
    out = solve_gen_avlp(prog)
    assert out.status is Status.UNBOUNDED
    assert out.value == np.inf
    assert out.orthant.entries == (1,)
    assert out.ray is not None and out.ray[0] > 0
    assert out.ties.shape == (0, 1)


def test_infeasible_only_when_every_orthant_is():
    prog = _program([0.0], [0.0], [[1.0], [-1.0]], [[0.0], [0.0]], [-1.0, -1.0])
    out = solve_gen_avlp(prog)
    assert out.status is Status.INFEASIBLE
    assert out.value == -np.inf
    assert out.optimizer is None
    assert out.ties.shape == (0, 1)
    assert all(lp.status is Status.INFEASIBLE for lp in orthant_sweep(prog)[1])


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("negate", [False, True])
def test_values_are_python_floats(negate, chunked, monkeypatch):
    if chunked:
        # one orthant LP per chunk: the incumbent is carried across chunks
        monkeypatch.setattr(avlp, "_CHUNK_BYTES", 1)
    box = ([[1.0], [-1.0]], [[0.0], [0.0]])
    flip = -1.0 if negate else 1.0
    programs = [
        _program([0.0], [flip], *box, [1.0, 1.0]),  # two orthants
        _program([flip], [0.0], [[-1.0]], [[0.0]], [1.0]),  # unbounded one way
        _program([0.0], [0.0], *box, [-1.0, -1.0]),  # infeasible
    ]
    for prog in programs:
        out = solve_gen_avlp(prog)
        assert type(out.value) is float
        assert out.ties.dtype == np.float64


def test_size_cap():
    n = 17
    prog = _program(np.ones(n), np.zeros(n), np.ones((1, n)), np.zeros((1, n)), [1.0])
    with pytest.raises(SizeCapError):
        solve_gen_avlp(prog)
    small = _program(np.ones(5), np.zeros(5), np.ones((1, 5)), np.zeros((1, 5)), [1.0])
    with pytest.raises(SizeCapError):
        solve_gen_avlp(small, orthant_cap=4)


def test_relief_must_be_nonnegative():
    with pytest.raises(InputError) as err:
        from_realization([[1.0, 0.0]], [1.0], [1.0, 0.0], [[0.0, -0.1]])
    assert "(1,2)" in str(err.value)


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        _program([1.0, 2.0], [0.0, 0.0], [[1.0]], [[0.0]], [1.0])


def test_agrees_with_boxed_orthant_oracle():
    rng = np.random.default_rng(40)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 6))
        lin_lhs = rng.uniform(-3, 3, (m, n))
        abs_lhs = rng.uniform(-1, 1, (m, n))
        rhs = rng.uniform(-2, 4, m)
        lin_cost = rng.uniform(-3, 3, n)
        abs_cost = rng.uniform(-2, 2, n)
        out = solve_gen_avlp(_program(lin_cost, abs_cost, lin_lhs, abs_lhs, rhs))
        status, value = avlp_oracle(lin_cost, abs_cost, lin_lhs, abs_lhs, rhs)
        assert out.status.value == status
        if status == "optimal":
            assert abs(out.value - value) <= 1e-7 * (1.0 + abs(value))


def test_optimizer_feasible_and_consistent_with_the_reference_sweep():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 6))
        prog = _program(
            rng.uniform(-2, 2, n),
            rng.uniform(-1, 1, n),
            rng.uniform(-3, 3, (m, n)),
            rng.uniform(-1, 1, (m, n)),
            rng.uniform(0.5, 4, m),
        )
        out = solve_gen_avlp(prog)
        _assert_same_outcome(out, orthant_sweep(prog)[0])
        if out.status is not Status.OPTIMAL:
            continue
        x = out.optimizer
        lhs = prog.linear_lhs @ x + prog.abs_lhs @ np.abs(x)
        assert np.all(lhs <= prog.rhs + 1e-7 * (1.0 + np.abs(prog.rhs)))
        assert out.value == pytest.approx(
            float(prog.linear_cost @ x + prog.abs_cost @ np.abs(x)), abs=1e-7
        )
        # every tie is a feasible point worth the optimum, to the window
        for x in out.ties:
            lhs = prog.linear_lhs @ x + prog.abs_lhs @ np.abs(x)
            assert np.all(lhs <= prog.rhs + 1e-7 * (1.0 + np.abs(prog.rhs)))
            worth = float(prog.linear_cost @ x + prog.abs_cost @ np.abs(x))
            assert worth >= out.value - 1e-7 * (1.0 + abs(out.value))


def test_appending_a_row_never_helps():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        base = _program(
            rng.uniform(-2, 2, n),
            rng.uniform(-1, 1, n),
            rng.uniform(-3, 3, (m, n)),
            rng.uniform(-1, 1, (m, n)),
            rng.uniform(0.5, 4, m),
        )
        extra_lin = rng.uniform(-3, 3, (1, n))
        extra_abs = rng.uniform(-1, 1, (1, n))
        tightened = _program(
            base.linear_cost,
            base.abs_cost,
            np.vstack([base.linear_lhs, extra_lin]),
            np.vstack([base.abs_lhs, extra_abs]),
            np.concatenate([base.rhs, rng.uniform(0.5, 4, 1)]),
        )
        assert solve_gen_avlp(tightened).value <= solve_gen_avlp(base).value + 1e-9


def test_mixed_columns_agree_with_oracle():
    # columns drawn absent, convex or nonconvex for the direction of
    # optimization; only the nonconvex ones may be enumerated
    rng = np.random.default_rng(43)
    for trial in range(80):
        # odd trials draw a minimization and maximize its negated costs
        flip = -1.0 if trial % 2 == 1 else 1.0
        convex_cost = -flip
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        kinds = rng.choice(["absent", "convex", "nonconvex"], n)
        lin_lhs = rng.uniform(-3, 3, (m, n))
        rhs = rng.uniform(-1, 4, m)
        if trial % 4 < 2:
            # box rows keep most programs bounded
            lin_lhs = np.vstack([lin_lhs, np.eye(n), -np.eye(n)])
            rhs = np.concatenate([rhs, rng.uniform(0.5, 3, 2 * n)])
        rows = lin_lhs.shape[0]
        abs_lhs = np.zeros((rows, n))
        abs_cost = np.zeros(n)
        for j, kind in enumerate(kinds):
            if kind == "convex":
                abs_lhs[:, j] = rng.uniform(0, 0.9, rows) * (rng.random(rows) < 0.7)
                abs_cost[j] = convex_cost * rng.uniform(0, 1)
            elif kind == "nonconvex" and rng.random() < 0.5:
                abs_lhs[:, j] = rng.uniform(-0.9, 0.9, rows)
                abs_cost[j] = -convex_cost * rng.uniform(0.1, 1)
            elif kind == "nonconvex":
                abs_lhs[:, j] = rng.uniform(0, 0.9, rows)
                abs_lhs[int(rng.integers(rows)), j] = -rng.uniform(0.1, 0.9)
                abs_cost[j] = convex_cost * rng.uniform(0, 1)
        lin_cost = rng.uniform(-2, 2, n)
        prog = _program(flip * lin_cost, flip * abs_cost, lin_lhs, abs_lhs, rhs)
        out = solve_gen_avlp(prog)
        # the sweep prunes, and must give the unpruned outcome
        ref, lps = orthant_sweep(prog)
        _assert_same_outcome(out, ref)

        status, value = avlp_oracle(prog.linear_cost, prog.abs_cost, lin_lhs, abs_lhs, rhs)
        assert out.status.value == status
        if status == "optimal":
            assert abs(out.value - value) <= 1e-7 * (1.0 + abs(value))

        enum = kinds == "nonconvex"
        assert len(lps) == 2 ** enum.sum()
        # the unsplit columns are labelled by the sign of the point
        point = out.ray if out.status is Status.UNBOUNDED else out.optimizer
        if point is not None:
            label = np.array(out.orthant.entries)[~enum]
            assert np.array_equal(label, np.where(point[~enum] >= 0, 1, -1))
        if out.status is Status.OPTIMAL:
            x = out.optimizer
            lhs = prog.linear_lhs @ x + prog.abs_lhs @ np.abs(x)
            assert np.all(lhs <= prog.rhs + 1e-7 * (1.0 + np.abs(prog.rhs)))
            assert out.value == pytest.approx(
                float(prog.linear_cost @ x + prog.abs_cost @ np.abs(x)), abs=1e-7
            )


def test_pruning_keeps_the_first_of_tied_orthants_across_chunks(monkeypatch):
    # max |x_1| + |x_2| + x_3 + |x_3| over the box |x| <= 1: the four
    # orthants with x_3 >= 0 tie at exactly 4, the other four reach 2
    box = np.vstack([np.eye(3), -np.eye(3)])
    prog = _program([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], box, np.zeros((6, 3)), np.ones(6))
    values = []
    real_batch = avlp._solve_inequality_batch

    def batch(*args):
        out = real_batch(*args)
        values.append(out[0])
        return out

    # two orthants per chunk: the tied orthants 1 and 3 of the eight
    # land in different chunks
    monkeypatch.setattr(avlp, "_CHUNK_BYTES", 2 * 8 * (3 + 1) * (9 + 3 + 1))
    monkeypatch.setattr(avlp, "_solve_inequality_batch", batch)
    out = solve_gen_avlp(prog)
    assert [len(v) for v in values] == [2, 2, 2, 2]
    ref, lps = orthant_sweep(prog)
    # a pruned LP reads -inf; every other one its own optimum
    values = np.concatenate(values)
    optima = np.array([lp.value for lp in lps])
    pruned = values == -np.inf
    assert pruned.any() and np.isfinite(optima).all()
    assert np.array_equal(values[~pruned], optima[~pruned])
    _assert_same_outcome(out, ref)
    assert out.value == 4.0
    assert out.orthant.entries == (-1, -1, 1)
    assert [lp.value for lp in lps] == [2.0, 4.0] * 4
    # no tied orthant is pruned, in whichever chunk it lands
    assert np.array_equal(np.sign(out.ties), list(itertools.product((-1.0, 1.0), repeat=3))[1::2])


def test_chunking_never_changes_the_sweep(monkeypatch):
    # programs with 3 to 6 enumerated columns, swept one orthant LP per
    # chunk, three per chunk and at the default chunk size: phase two
    # runs on chunks with and without LPs handed back by phase one, and
    # the incumbent is carried across chunks
    rng = np.random.default_rng(45)
    sizes = []
    real_batch = avlp._solve_inequality_batch

    def batch(G_stack, *args):
        sizes.append(len(G_stack))
        return real_batch(G_stack, *args)

    monkeypatch.setattr(avlp, "_solve_inequality_batch", batch)
    default = avlp._CHUNK_BYTES
    for trial in range(40):
        k = int(rng.integers(3, 7))
        kinds = rng.permutation(["nonconvex"] * k + ["convex", "absent"][: int(rng.integers(0, 3))])
        n = len(kinds)
        m = int(rng.integers(1, 4))
        if trial % 2:
            # small integers and halves: exact optima, so orthants tie
            lin_lhs = rng.integers(-2, 3, (m, n)).astype(float)
            rhs = rng.integers(-1, 4, m).astype(float)
        else:
            lin_lhs = rng.uniform(-3, 3, (m, n))
            rhs = rng.uniform(-1, 4, m)
        if trial % 4 < 2:
            # box rows keep most programs bounded; without them some
            # orthants are unbounded and phase one hands them back
            lin_lhs = np.vstack([lin_lhs, np.eye(n), -np.eye(n)])
            rhs = np.concatenate([rhs, np.ones(2 * n)])
        rows = lin_lhs.shape[0]
        abs_lhs = np.zeros((rows, n))
        abs_cost = np.zeros(n)
        for j, kind in enumerate(kinds):
            if kind == "convex":
                abs_lhs[:, j] = rng.uniform(0, 0.9, rows)
                abs_cost[j] = -1.0
            elif kind == "nonconvex":
                abs_lhs[:, j] = rng.uniform(-0.9, 0.9, rows)
                abs_lhs[int(rng.integers(rows)), j] = -0.5
                abs_cost[j] = float(rng.integers(0, 2))
        if trial % 2:
            abs_lhs = np.round(2.0 * abs_lhs) / 2.0
        lin_cost = rng.integers(-2, 3, n).astype(float)
        if trial % 2:
            # x_j enters only through |x_j|: its two orthants mirror
            # each other and tie
            j = np.flatnonzero(kinds == "nonconvex")[0]
            lin_lhs[:m, j] = lin_cost[j] = 0.0
        prog = _program(lin_cost, abs_cost, lin_lhs, abs_lhs, rhs)
        ref, lps = orthant_sweep(prog)
        assert len(lps) == 2**k
        # tableau bytes of one orthant LP, counted as the sweep counts them
        conv = int(np.sum(kinds == "convex"))
        lp_bytes = 8 * (n + conv + 1) * (rows + k + 2 * conv + n + conv + 1)
        for chunk_bytes, most in ((1, 1), (3 * lp_bytes, 3), (default, 2**k)):
            monkeypatch.setattr(avlp, "_CHUNK_BYTES", chunk_bytes)
            sizes.clear()
            _assert_same_outcome(solve_gen_avlp(prog), ref)
            assert sum(sizes) == 2**k and max(sizes) == most


def _assert_same_outcome(got, ref):
    """Bit-identical sweep outcomes, ties included."""
    assert got.status is ref.status
    assert type(got.value) is float and got.value.hex() == ref.value.hex()
    assert got.orthant == ref.orthant
    for field in ("optimizer", "ray", "ties"):
        a, b = getattr(got, field), getattr(ref, field)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_core(out, i, ref):
    """LP ``i`` of a batch's ``(value, x)`` equals the scalar kernel's
    ``ref``: the value, and the point when optimal, bit for bit."""
    value, x = out
    assert ref.status in (Status.OPTIMAL, Status.INFEASIBLE)
    assert float(value[i]).hex() == ref.value.hex()
    if ref.status is Status.OPTIMAL:
        assert x[i].tobytes() == ref.x.tobytes()
    else:
        assert np.isnan(x[i]).all()


def _batch_against_scalar(G_stack, g, c_stack):
    """Batch outcomes, each checked bit for bit against the scalar
    kernel; the batch must leave its inputs as they were.  A handed-back
    LP reads nan."""
    inputs = [a.copy() for a in (G_stack, g, c_stack)]
    out = value, x = _solve_inequality_batch(G_stack, g, c_stack, 1e-9)
    for a, before in zip((G_stack, g, c_stack), inputs):
        assert a.tobytes() == before.tobytes()
    assert value.shape == (len(G_stack),) and x.shape == (len(G_stack), G_stack.shape[2])
    for i, (G, c) in enumerate(zip(G_stack, c_stack)):
        if np.isnan(value[i]):
            assert np.isnan(x[i]).all()
        else:
            _assert_same_core(out, i, _solve_inequality(G, g, c, 1e-9))
    return out


def test_batch_kernel_matches_scalar_bit_for_bit():
    rng = np.random.default_rng(44)
    n = 3
    box = np.vstack([np.eye(n), -np.eye(n)])
    optimal = infeasible = 0
    for _ in range(20):
        B = 12
        # box rows, four random rows, then x_1 <= -1 and s x_1 <= -1,
        # which is infeasible for s = -1
        G_stack = np.zeros((B, 2 * n + 6, n))
        G_stack[:, : 2 * n] = box
        G_stack[:, 2 * n : 2 * n + 4] = rng.normal(size=(B, 4, n))
        G_stack[:, -2, 0] = 1.0
        G_stack[:, -1, 0] = rng.choice([-1.0, 1.0], B)
        g = np.concatenate([rng.uniform(1, 3, 2 * n), rng.uniform(-1, 3, 4), [-1.0, -1.0]])
        c_stack = rng.normal(size=(B, n))
        # in LP 0 only a lower bound limits x_2, so it is unbounded
        G_stack[0, :, 1] = 0.0
        G_stack[0, n + 1, 1] = -1.0
        c_stack[0, 1] = 1.0
        G_stack[0, -1, 0] = 1.0
        # in LP 1 column 2 repeats column 1, cost included: its dual has
        # a redundant row, which leaves an artificial in the basis
        G_stack[1, -1, 0] = 1.0
        G_stack[1, :, 1] = G_stack[1, :, 0]
        c_stack[1, 1] = c_stack[1, 0]
        out = value, _ = _batch_against_scalar(G_stack, g, c_stack)
        # the same LPs as a view of a (B, n, m) array, the layout the
        # sweep passes: the same outcomes, to the bit
        view = np.ascontiguousarray(G_stack.transpose(0, 2, 1)).transpose(0, 2, 1)
        again = _batch_against_scalar(view, g, c_stack)
        for a, b in zip(out, again):
            assert a.tobytes() == b.tobytes()
        assert np.isnan(value[:2]).all()
        # the box keeps the dual feasible, so the batch settles the rest,
        # and without an incumbent nothing is pruned: -inf is infeasible
        settled = value[2:]
        assert not np.isnan(settled).any() and (settled < np.inf).all()
        assert (settled[G_stack[2:, -1, 0] < 0] == -np.inf).all()
        infeasible += int((settled == -np.inf).sum())
        optimal += int(np.isfinite(settled).sum())
    assert optimal > 0 and infeasible > 0


def test_batch_kernel_matches_scalar_with_eight_or_more_variables():
    # phase one's reduced cost of a column sums the dual's rows, one
    # per variable, and numpy would add eight or more terms in an order
    # set by the layout; both kernels add them row by row.  Rows of G
    # that permute one vector have reduced costs that differ only by
    # that order, so the entering column, and with it the pivot path
    # and the last bits, show any other order in either kernel
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(8, 13))
        B = 12
        G_stack = np.zeros((B, 2 * n + 6, n))
        G_stack[:, : 2 * n] = np.vstack([np.eye(n), -np.eye(n)])
        v = rng.uniform(0.1, 1.0, n)
        G_stack[:, 2 * n :] = [rng.permutation(v) for _ in range(6)]
        g = np.concatenate([rng.uniform(1, 3, 2 * n), np.ones(6)])
        c_stack = rng.uniform(0.1, 1.0, (B, n))
        value, _ = _batch_against_scalar(G_stack, g, c_stack)
        assert np.isfinite(value).all()


def test_batch_kernel_takes_the_bland_switch(monkeypatch):
    # Chvatal's cycling example (Linear Programming, 1983) as the dual
    # of max x_3 s.t. G x <= g: its phase two cycles with period 6
    # under the largest-coefficient rule with lowest-label ties, so
    # only the switch to Bland's rule after 3 * (3 + 7) degenerate
    # pivots ends it
    dual = np.array([
        [0.5, -5.5, -2.5, 9.0, 1.0, 0.0, 0.0],
        [0.5, -1.5, -0.5, 1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    g = np.array([-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0])
    c = np.array([0.0, 0.0, 1.0])
    pivots = []
    real_pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or real_pivot(*args))
    ref = _solve_inequality(dual.T.copy(), g, c, 1e-9)
    assert len(pivots) > 3 * (3 + 7)
    assert ref.status is Status.OPTIMAL and ref.value == pytest.approx(-1.0)
    # stacked with copies whose first dual row is scaled
    scale = np.array([1.0, 2.0, 0.5, 4.0])
    G_stack = dual.T[None] * np.ones((4, 1, 1))
    c_stack = np.tile(c, (4, 1))
    G_stack[:, :, 0] *= scale[:, None]
    out = _batch_against_scalar(G_stack, g, c_stack)
    assert not np.isnan(out[0]).any()
    _assert_same_core(out, 0, ref)
