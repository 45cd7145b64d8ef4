"""Basis stability certificate, stable best/worst values, square
absolute-value systems."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from avlprange import stability
from avlprange import (
    AvlpProblem,
    Basis,
    CertificateStatus,
    GaveSystem,
    InputError,
    IntervalMatrix,
    IntervalVector,
    NumericalError,
    SizeCapError,
    StabilityCertificate,
    Status,
    best_case_bstable,
    relaxed_interval_lp,
    solve_gave,
    verify_b_stability,
    worst_case_bstable,
)

from oracles import bstable_characterizations, gave_solutions, random_gave, random_stable_problem

WORST_EX4 = 19.81264637002342


class TestBasis:
    def test_one_based_conversion(self):
        assert Basis.from_one_based((1, 2)).rows == (0, 1)

    def test_iteration_and_len(self):
        b = Basis((0, 3))
        assert list(b) == [0, 3]
        assert len(b) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            Basis((1, 1))

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            Basis((-1, 0))

    @pytest.mark.parametrize(
        "rows",
        [(0.9, 1.7), (0.0, 1.0), np.array([True, False]), (True, 2), ("0", 1)],
    )
    def test_non_integer_entries_rejected(self, rows):
        with pytest.raises(InputError, match="integers"):
            Basis(rows)

    def test_non_integer_labels_rejected(self):
        with pytest.raises(InputError, match="integers"):
            Basis.from_one_based((1.5, 2))

    def test_numpy_integers_accepted(self):
        assert Basis(np.array([0, 2])).rows == (0, 2)
        assert Basis.from_one_based(np.array([1, 3], dtype=np.int32)).rows == (0, 2)

    def test_verify_rejects_fractional_rows(self, example4):
        with pytest.raises(InputError):
            verify_b_stability(example4, (0.9, 1.2))


class TestCertificate:
    def test_example4_basis_is_verified_nondegenerate(self, example4):
        cert = verify_b_stability(example4, Basis((0, 1)))
        assert cert.status is CertificateStatus.VERIFIED_NONDEGENERATE
        assert cert.primal_margin == pytest.approx(0.4334, abs=1e-3)
        assert cert.dual_margin == pytest.approx(0.1021, abs=1e-3)
        box = cert.primal_enclosure
        assert np.allclose(box.inf, [2.2839, 4.4845], atol=1e-3)
        assert np.allclose(box.sup, [9.7894, 11.4356], atol=1e-3)

    def test_wrong_basis_fails_the_nonbasic_check(self, example4):
        cert = verify_b_stability(example4, Basis((0, 2)))
        assert cert.status is CertificateStatus.UNKNOWN
        assert "not verifiably satisfied" in cert.reason

    def test_basis_size_checked(self, example4):
        with pytest.raises(InputError):
            verify_b_stability(example4, Basis((0, 1, 2)))

    def test_basis_range_checked(self, example4):
        with pytest.raises(InputError):
            verify_b_stability(example4, Basis((0, 7)))


    def test_one_verified_certificate_inverts_two_midpoints(self, example4, monkeypatch):
        # the primal enclosure inverts the basic block's midpoint and
        # the dual enclosure its transpose; no regularity test inverts
        # either again.  Comparison matrices of the enclosures are
        # inverted too, so only calls on the two midpoints count.
        mid = relaxed_interval_lp(example4)[0].take_rows([0, 1]).mid
        calls = []
        inv = np.linalg.inv

        def counting_inv(a):
            calls.append(np.array(a, copy=True))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        cert = verify_b_stability(example4, Basis((0, 1)))
        monkeypatch.undo()
        assert cert.status is CertificateStatus.VERIFIED_NONDEGENERATE
        assert not np.array_equal(mid, mid.T)
        assert sum(np.array_equal(a, mid) for a in calls) == 1
        assert sum(np.array_equal(a, mid.T) for a in calls) == 1

    def test_singular_basic_block_is_unknown(self):
        problem = AvlpProblem(
            A=IntervalMatrix.from_point([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]),
            b=IntervalVector.from_point([1.0, 1.0, 1.0]),
            c=IntervalVector.from_point([1.0, 1.0]),
            D=IntervalMatrix.from_point(np.zeros((3, 2))),
        )
        cert = verify_b_stability(problem, (0, 1))
        assert cert.status is CertificateStatus.UNKNOWN
        assert cert.reason == "primal enclosure failed: unknown-regularity: midpoint is singular"

    def test_block_verified_by_rex_rohn_alone(self):
        # Beeck's test declines this block and the singular-value test
        # proves it regular; its preconditioned system still does not
        # contract, so no enclosure follows and the certificate stays
        # unknown
        problem = AvlpProblem(
            A=IntervalMatrix.from_midrad([[1.0, 1.0], [-1.0, 1.0]], 1.2 * np.eye(2)),
            b=IntervalVector.from_point([1.0, 2.0]),
            c=IntervalVector.from_point([1.0, 1.0]),
            D=IntervalMatrix.from_point(np.zeros((2, 2))),
        )
        cert = verify_b_stability(problem, (0, 1))
        assert cert.status is CertificateStatus.UNKNOWN
        assert cert.reason.startswith(
            "primal enclosure failed: unknown-regularity: preconditioned system "
            "does not contract"
        )

    def test_analysis_leaves_the_problem_untouched(self, example4):
        owned = (example4, example4.A, example4.b, example4.c, example4.D)
        before = [dict(vars(obj)) for obj in owned]
        cert = verify_b_stability(example4, (0, 1))
        best_case_bstable(example4, (0, 1), certificate=cert)
        worst_case_bstable(example4, (0, 1), certificate=cert)
        after = [dict(vars(obj)) for obj in owned]
        assert cert.status is CertificateStatus.VERIFIED_NONDEGENERATE
        for old, new in zip(before, after):
            assert new.keys() == old.keys()
            assert all(new[key] is old[key] for key in old)


def _count_calls(monkeypatch, names) -> dict[str, int]:
    """Calls so far of each of ``names`` in ``stability``, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(stability, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(stability, name, counted)
    return calls


@pytest.fixture
def derivations(monkeypatch):
    """Counts of the calls that validate a basis and widen the matrix."""
    return _count_calls(monkeypatch, ("_basis_rows", "relaxed_interval_lp"))


def _answers(problem, basis, cert):
    """Best value, worst value, ``x*`` and witness, as bytes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        best = best_case_bstable(problem, basis, certificate=cert)
        value, x_star, witness = worst_case_bstable(problem, basis, certificate=cert)
    return (best.hex(), value.hex(), x_star.tobytes(),
            *(getattr(witness, name).tobytes() for name in "AbcD"))


class TestCarriedBlock:
    def test_same_problem_and_basis_reuse_the_block(self, example4, derivations):
        for basis in ((0, 1), Basis((0, 1))):
            derivations.update(_basis_rows=0, relaxed_interval_lp=0)
            cert = verify_b_stability(example4, basis)
            assert derivations == {"_basis_rows": 1, "relaxed_interval_lp": 1}
            answers = _answers(example4, basis, cert)
            assert derivations == {"_basis_rows": 1, "relaxed_interval_lp": 1}
            assert answers == _answers(example4, basis, replace(cert, _block=None))

    def test_another_problem_or_basis_is_derived_anew(self, example4, derivations):
        # a certificate whose block is not this problem's and basis's
        # gives the answers of a certificate without a block: every
        # array is derived again from the problem and basis passed
        own = verify_b_stability(example4, (0, 1))
        scaled = AvlpProblem(
            A=IntervalMatrix(1.01 * example4.A.inf, 1.01 * example4.A.sup),
            b=example4.b, c=example4.c, D=example4.D,
        )
        copy = AvlpProblem(A=example4.A, b=example4.b, c=example4.c, D=example4.D)
        cases = [
            (scaled, (0, 1), own),
            (copy, (0, 1), own),
            (example4, (0, 1), verify_b_stability(example4, (2, 3))),
            (example4, Basis((0, 1)), verify_b_stability(example4, Basis((2, 3)))),
            # equal rows in another tuple or Basis, or in a list, which
            # could have changed since
            (example4, tuple([0, 1]), own),
            (example4, Basis((0, 1)), verify_b_stability(example4, Basis((0, 1)))),
            (example4, [0, 1], verify_b_stability(example4, [0, 1])),
        ]
        for problem, basis, cert in cases:
            derivations.update(_basis_rows=0, relaxed_interval_lp=0)
            answers = _answers(problem, basis, cert)
            assert derivations == {"_basis_rows": 2, "relaxed_interval_lp": 1}
            assert answers == _answers(problem, basis, replace(cert, _block=None))
        assert _answers(scaled, (0, 1), own) != _answers(example4, (0, 1), own)

    def test_certificates_compare_and_print_without_the_block(self, example4):
        cert = verify_b_stability(example4, (0, 1))
        shown = ", ".join(
            f"{name}={getattr(cert, name)!r}"
            for name in ("status", "primal_enclosure", "primal_margin",
                         "dual_enclosure", "dual_margin", "reason")
        )
        assert repr(cert) == f"StabilityCertificate({shown})"
        assert cert._block is not None
        assert cert == replace(cert, _block=None)
        copy = AvlpProblem(A=example4.A, b=example4.b, c=example4.c, D=example4.D)
        assert verify_b_stability(copy, Basis((0, 1))) == cert
        assert verify_b_stability(example4, (0, 2)) != cert


class TestStableValues:
    def test_best_matches_global_best(self, example4):
        cert = verify_b_stability(example4, Basis((0, 1)))
        value = best_case_bstable(example4, Basis((0, 1)), certificate=cert)
        assert value == pytest.approx(22.31935771632471, abs=1e-9)

    def test_worst_value_point_and_witness(self, example4):
        cert = verify_b_stability(example4, Basis((0, 1)))
        value, x_star, witness = worst_case_bstable(
            example4, Basis((0, 1)), certificate=cert
        )
        assert value == pytest.approx(WORST_EX4, abs=1e-9)
        assert np.allclose(x_star, [3.0444964871194378, 8.38407494145199], atol=1e-9)
        assert example4.A.contains(witness.A)
        assert example4.b.contains(witness.b)
        assert example4.c.contains(witness.c)
        assert example4.D.contains(witness.D)
        out = witness.solve()
        assert out.status is Status.OPTIMAL
        assert out.value == pytest.approx(value, abs=1e-9)

    def test_missing_certificate_warns(self, example4):
        with pytest.warns(UserWarning, match="no stability certificate"):
            best_case_bstable(example4, Basis((0, 1)))

    def test_verified_certificate_does_not_warn(self, example4):
        cert = verify_b_stability(example4, Basis((0, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best_case_bstable(example4, Basis((0, 1)), certificate=cert)

    def test_merely_verified_certificate_warns_for_worst(self, example4):
        weak = StabilityCertificate(status=CertificateStatus.VERIFIED)
        with pytest.warns(UserWarning, match="nondegenerate"):
            worst_case_bstable(example4, Basis((0, 1)), certificate=weak)

    def test_characterizations_coincide(self, example4):
        for value in bstable_characterizations(example4, (0, 1)):
            assert value == pytest.approx(WORST_EX4, abs=1e-6)

    def test_characterization_orderings_on_random_instances(self):
        rng = np.random.default_rng(70)
        seen = 0
        while seen < 10:
            problem, rows = random_stable_problem(rng)
            cert = verify_b_stability(problem, Basis(rows))
            if cert.status is not CertificateStatus.VERIFIED_NONDEGENERATE:
                continue
            seen += 1
            min_at_least, max_at_most, max_at_equality, min_at_equality = (
                bstable_characterizations(problem, rows)
            )
            # the equality set sits inside both one-sided sets
            assert min_at_least <= min_at_equality + 1e-9
            assert max_at_most >= max_at_equality - 1e-9
            assert min_at_equality <= max_at_equality + 1e-9


def flip_columns(problem: AvlpProblem, signs) -> AvlpProblem:
    """Same program in the variables ``signs * x``: every optimizer,
    and every enclosure, changes sign where ``signs`` is -1."""
    signs = np.asarray(signs, dtype=float)
    return AvlpProblem(
        A=IntervalMatrix.from_midrad(problem.A.mid * signs, problem.A.rad),
        b=problem.b,
        c=IntervalVector.from_midrad(problem.c.mid * signs, problem.c.rad),
        D=problem.D,
    )


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts of the general solvers that the pinned paths replace."""
    return _count_calls(monkeypatch, ("solve_lp", "solve_gave"))


def _stable_instances():
    """Example 4 and seeded random stable problems with mixed optimizer
    signs, each with its verified nondegenerate certificate."""
    rng = np.random.default_rng(74)
    out = []
    while len(out) < 12:
        problem, rows = random_stable_problem(rng)
        signs = rng.choice([-1.0, 1.0], problem.n)
        problem = flip_columns(problem, signs)
        cert = verify_b_stability(problem, Basis(rows))
        if cert.status is CertificateStatus.VERIFIED_NONDEGENERATE:
            out.append((problem, rows, cert))
    return out


def _fallback_answers(problem, rows):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        best = best_case_bstable(problem, Basis(rows))
        worst = worst_case_bstable(problem, Basis(rows))
    return best, worst


class TestPinnedEndpoints:
    def test_pinned_answers_equal_the_general_solvers(self, example4, fallback_calls):
        instances = _stable_instances()
        instances.append((example4, (0, 1), verify_b_stability(example4, Basis((0, 1)))))
        mixed = 0
        for problem, rows, cert in instances:
            box = cert.primal_enclosure
            mixed += bool(np.any(box.sup < 0.0)) and bool(np.any(box.inf > 0.0))
            best = best_case_bstable(problem, Basis(rows), certificate=cert)
            value, x_star, witness = worst_case_bstable(problem, Basis(rows), certificate=cert)
            assert fallback_calls == {"solve_lp": 0, "solve_gave": 0}

            ref_best, (ref_value, ref_x, ref_witness) = _fallback_answers(problem, rows)
            assert fallback_calls == {"solve_lp": 1, "solve_gave": 1}
            fallback_calls.update(solve_lp=0, solve_gave=0)
            assert best == pytest.approx(ref_best, rel=1e-12, abs=0.0)
            assert x_star.tobytes() == ref_x.tobytes()
            assert value == ref_value
            assert witness == ref_witness
        assert mixed >= 4

    def test_zero_straddling_enclosure_falls_back(self, fallback_calls):
        for problem, rows, cert in _stable_instances()[:4]:
            box = cert.primal_enclosure
            low = box.inf.copy()
            low[0] = -abs(box.sup[0])
            straddling = replace(cert, primal_enclosure=IntervalVector(low, box.sup))
            best = best_case_bstable(problem, Basis(rows), certificate=straddling)
            value, x_star, _ = worst_case_bstable(problem, Basis(rows), certificate=straddling)
            assert fallback_calls == {"solve_lp": 1, "solve_gave": 1}
            ref_best, (ref_value, ref_x, _) = _fallback_answers(problem, rows)
            fallback_calls.update(solve_lp=0, solve_gave=0)
            assert best == ref_best
            assert value == ref_value
            assert x_star.tobytes() == ref_x.tobytes()

    def test_example4_basis_with_a_straddling_enclosure_falls_back(self, example4, fallback_calls):
        cert = verify_b_stability(example4, Basis((0, 2)))
        assert np.any((cert.primal_enclosure.inf < 0.0) & (cert.primal_enclosure.sup > 0.0))
        with pytest.warns(UserWarning, match="certificate status is 'unknown'"):
            best = best_case_bstable(example4, Basis((0, 2)), certificate=cert)
        assert fallback_calls["solve_lp"] == 1
        assert best == _fallback_answers(example4, (0, 2))[0]

    def test_certificate_of_another_basis_fails_the_check(self, example4, fallback_calls):
        # the enclosure of basis (2, 3) is negative, the solutions of
        # basis (0, 1) are positive: the pinned basis is not optimal
        other = verify_b_stability(example4, Basis((2, 3)))
        assert np.all(other.primal_enclosure.sup < 0.0)
        with pytest.warns(UserWarning):
            best = best_case_bstable(example4, Basis((0, 1)), certificate=other)
            value, x_star, _ = worst_case_bstable(example4, Basis((0, 1)), certificate=other)
        assert fallback_calls == {"solve_lp": 1, "solve_gave": 1}
        ref_best, (ref_value, ref_x, _) = _fallback_answers(example4, (0, 1))
        assert best == ref_best
        assert value == ref_value == pytest.approx(WORST_EX4, abs=1e-9)
        assert x_star.tobytes() == ref_x.tobytes()

    def test_another_basis_on_random_instances(self, fallback_calls):
        checked = 0
        for problem, rows, cert in _stable_instances():
            foreign = verify_b_stability(problem, Basis(tuple(range(1, problem.n + 1))))
            box = foreign.primal_enclosure
            if box is None or np.any((box.inf <= 0.0) & (box.sup >= 0.0)):
                continue
            if np.array_equal(np.sign(box.inf), np.sign(cert.primal_enclosure.inf)):
                continue
            with pytest.warns(UserWarning):
                best = best_case_bstable(problem, Basis(rows), certificate=foreign)
                value, x_star, _ = worst_case_bstable(problem, Basis(rows), certificate=foreign)
            assert fallback_calls == {"solve_lp": 1, "solve_gave": 1}
            ref_best, (ref_value, ref_x, _) = _fallback_answers(problem, rows)
            fallback_calls.update(solve_lp=0, solve_gave=0)
            assert best == ref_best
            assert value == ref_value
            assert x_star.tobytes() == ref_x.tobytes()
            checked += 1
        assert checked >= 2


class TestGave:
    def test_scalar_expansion(self):
        x = solve_gave(GaveSystem(M=[[1.0]], F=[[0.5]], g=[3.0]))
        assert np.allclose(x, [2.0], atol=1e-12)

    def test_scalar_contraction(self):
        x = solve_gave(GaveSystem(M=[[1.0]], F=[[-0.5]], g=[1.0]))
        assert np.allclose(x, [2.0], atol=1e-12)

    def test_negative_branch(self):
        # x + 0.5|x| = -3 forces x < 0
        x = solve_gave(GaveSystem(M=[[1.0]], F=[[0.5]], g=[-3.0]))
        assert np.allclose(x, [-6.0], atol=1e-12)

    def test_ambiguous_system_warns_and_picks_sign_consistent_solution(self):
        with pytest.warns(UserWarning, match="uniqueness"):
            x = solve_gave(GaveSystem(M=np.eye(2), F=2.0 * np.eye(2), g=[3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_unverified_system_with_one_solution_warns_and_returns_it(self):
        # x - D_B |x| = (-1, -1) with D_B all ones: the envelope holds
        # the zero matrix, yet x = (-1/3, -1/3) solves the system
        with pytest.warns(UserWarning, match="not verified"):
            x = solve_gave(GaveSystem(M=np.eye(2), F=-np.ones((2, 2)), g=[-1.0, -1.0]))
        assert x == pytest.approx([-1 / 3, -1 / 3], abs=1e-12)

    def test_unverified_system_without_solution_warns_then_fails(self, example1):
        # example 1's midpoint basic system at basis (0, 1)
        rows = [0, 1]
        system = GaveSystem(
            M=example1.A.mid[rows], F=-example1.D.mid[rows], g=example1.b.mid[rows]
        )
        with pytest.warns(UserWarning, match="uniqueness"):
            with pytest.raises(NumericalError, match="^no sign-consistent solution"):
                solve_gave(system)

    def test_envelope_verified_by_rex_rohn_alone(self):
        # Beeck's test declines the envelope [M - 1.2 I, M + 1.2 I] and
        # the singular-value test proves it regular
        M = np.array([[1.0, 1.0], [-1.0, 1.0]])
        F = 1.2 * np.eye(2)
        g = np.array([1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve_gave(GaveSystem(M=M, F=F, g=g))
        assert np.max(np.abs(M @ x + F @ np.abs(x) - g)) <= 1e-8 * (1.0 + np.max(np.abs(g)))
        assert x == pytest.approx([0.0342, 0.9247], abs=1e-4)

    def test_residual_contract(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            M, F, g = random_gave(rng)
            x = solve_gave(GaveSystem(M=M, F=F, g=g))
            residual = np.max(np.abs(M @ x + F @ np.abs(x) - g))
            assert residual <= 1e-8 * (1.0 + np.max(np.abs(g)))

    def test_agrees_with_exhaustive_enumeration(self):
        rng = np.random.default_rng(72)
        for _ in range(60):
            M, F, g = random_gave(rng)
            sols = gave_solutions(M, F, g)
            assert len(sols) == 1
            x = solve_gave(GaveSystem(M=M, F=F, g=g))
            assert np.allclose(x, sols[0], atol=1e-7)

    def test_size_cap_when_enumeration_is_needed(self):
        n = 17
        system = GaveSystem(M=np.zeros((n, n)), F=np.eye(n), g=np.ones(n))
        with pytest.warns(UserWarning):
            with pytest.raises(SizeCapError):
                solve_gave(system)

    def test_nonsquare_rejected(self):
        with pytest.raises(InputError):
            GaveSystem(M=np.ones((2, 3)), F=np.ones((2, 3)), g=np.ones(2))


def test_stable_worst_matches_global_lower_bound():
    from avlprange import worst_lower_bound

    rng = np.random.default_rng(73)
    seen = 0
    while seen < 15:
        problem, rows = random_stable_problem(rng)
        cert = verify_b_stability(problem, Basis(rows))
        if cert.status is not CertificateStatus.VERIFIED_NONDEGENERATE:
            continue
        seen += 1
        value, _, witness = worst_case_bstable(problem, Basis(rows), certificate=cert)
        assert abs(value - worst_lower_bound(problem)) <= 1e-6 * (1.0 + abs(value))
        assert witness.solve().value == pytest.approx(value, abs=1e-7)
