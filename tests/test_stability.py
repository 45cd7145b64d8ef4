"""Basis stability certificate, stable best/worst values, square
absolute-value systems."""

from dataclasses import replace

import numpy as np
import pytest

from avlprange import stability
from avlprange import (
    AvlpProblem,
    Basis,
    CertificateStatus,
    InputError,
    IntervalMatrix,
    IntervalVector,
    LpProblem,
    NumericalError,
    StabilityCertificate,
    Status,
    best_case_bstable,
    rex_rohn_regular,
    beeck_regular,
    relaxed_interval_lp,
    solve_lp,
    solve_square,
    verify_b_stability,
    worst_case_bstable,
    worst_lower_bound,
)

from oracles import (
    bstable_characterizations,
    gave_problem,
    gave_solutions,
    random_gave,
    random_stable_problem,
    worst_system,
)

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
        # a certificate that verify_b_stability did not issue for this
        # problem and basis, with the status and enclosure it carries,
        # is not trusted: each value function derives its own, which
        # gives the answers of a certificate without a block
        basis = (0, 1)
        own = verify_b_stability(example4, basis)
        scaled = AvlpProblem(
            A=IntervalMatrix(1.01 * example4.A.inf, 1.01 * example4.A.sup),
            b=example4.b, c=example4.c, D=example4.D,
        )
        copy = AvlpProblem(A=example4.A, b=example4.b, c=example4.c, D=example4.D)
        other = verify_b_stability(example4, (2, 3))
        cases = [
            (scaled, basis, own),
            (copy, basis, own),
            (example4, (0, 1), other),
            (example4, Basis((0, 1)), verify_b_stability(example4, Basis((2, 3)))),
            # equal rows in another tuple or Basis, or in a list, which
            # could have changed since
            (example4, tuple([0, 1]), own),
            (example4, Basis((0, 1)), verify_b_stability(example4, Basis((0, 1)))),
            (example4, [0, 1], verify_b_stability(example4, [0, 1])),
            # the right objects, with an edited status or enclosure
            (example4, basis, replace(own, status=CertificateStatus.VERIFIED)),
            (example4, basis, replace(own, primal_enclosure=other.primal_enclosure)),
        ]
        for problem, basis, cert in cases:
            derivations.update(_basis_rows=0, relaxed_interval_lp=0)
            answers = _answers(problem, basis, cert)
            assert derivations == {"_basis_rows": 2, "relaxed_interval_lp": 2}
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

    def test_missing_certificate_is_derived(self, example4):
        cert = verify_b_stability(example4, Basis((0, 1)))
        assert _answers(example4, Basis((0, 1)), None) == _answers(example4, Basis((0, 1)), cert)

    def test_verified_certificate_does_not_warn(self, example4):
        # the suite turns every warning into an error
        cert = verify_b_stability(example4, Basis((0, 1)))
        best_case_bstable(example4, Basis((0, 1)), certificate=cert)
        worst_case_bstable(example4, Basis((0, 1)), certificate=cert)

    def test_merely_verified_certificate_is_refused_for_worst(self):
        # a multiplier of 1e-8 is verified nonnegative but not
        # nondegenerate: enough for the best case, not for the worst
        problem = AvlpProblem(
            A=IntervalMatrix.from_point([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            b=IntervalVector.from_point([1.0, 1.0, 3.0]),
            c=IntervalVector.from_point([1.0, 1e-8]),
            D=IntervalMatrix.from_point(np.zeros((3, 2))),
        )
        basis = Basis((0, 1))
        cert = verify_b_stability(problem, basis)
        assert cert.status is CertificateStatus.VERIFIED
        assert best_case_bstable(problem, basis, certificate=cert) == pytest.approx(1.0 + 1e-8)
        claimed = StabilityCertificate(status=CertificateStatus.VERIFIED_NONDEGENERATE)
        for given in (cert, None, claimed):
            with pytest.raises(
                NumericalError,
                match="^stability certificate is verified; the basis-stable worst case "
                "needs verified_nondegenerate$",
            ):
                worst_case_bstable(problem, basis, certificate=given)

    def test_hand_built_certificate_is_never_trusted(self, example4):
        # a certificate that claims a status is not one: basis (0, 1)
        # gets its real certificate's answers, and basis (0, 2), whose
        # real certificate is unknown, gets no value at all
        claimed = StabilityCertificate(status=CertificateStatus.VERIFIED_NONDEGENERATE)
        real = verify_b_stability(example4, (0, 1))
        assert _answers(example4, (0, 1), claimed) == _answers(example4, (0, 1), real)
        unknown = verify_b_stability(example4, (0, 2))
        assert unknown.status is CertificateStatus.UNKNOWN
        for given in (claimed, replace(unknown, status=CertificateStatus.VERIFIED_NONDEGENERATE)):
            with pytest.raises(NumericalError, match="^stability certificate is unknown "
                               r"\(nonbasic row 2 not verifiably satisfied"):
                best_case_bstable(example4, (0, 2), certificate=given)
            with pytest.raises(NumericalError, match="^stability certificate is unknown "):
                worst_case_bstable(example4, (0, 2), certificate=given)

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
    """Counts of the simplex method, which the pinned best case
    replaces, and of the square solves of the worst case."""
    return _count_calls(monkeypatch, ("solve_lp", "solve_square"))


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


def _straddling_instances(count, seed=75):
    """Seeded random stable problems whose verified nondegenerate
    certificate has a primal enclosure that touches zero, at radii
    from 1e-3 to 0.2."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        scale = float(rng.choice([1e-3, 1e-2, 0.05, 0.2]))
        problem, rows = random_stable_problem(rng, scale=scale, near_zero=True)
        cert = verify_b_stability(problem, rows)
        box = cert.primal_enclosure
        if cert.status is CertificateStatus.VERIFIED_NONDEGENERATE and np.any(
            (box.inf <= 0.0) & (box.sup >= 0.0)
        ):
            out.append((problem, rows, cert))
    return out


def _best_program(problem, rows):
    """The best-case LP in the multipliers, built from the docstring of
    ``best_case_bstable``."""
    basic = relaxed_interval_lp(problem)[0].take_rows(list(rows))
    n = problem.n
    return LpProblem(
        c=problem.b.sup[list(rows)],
        G=np.vstack([basic.inf.T, -basic.sup.T, -np.eye(n)]),
        g=np.concatenate([problem.c.sup, -problem.c.inf, np.zeros(n)]),
    )


def _sign_solve(problem, rows, x):
    """The linear solve of the worst-case system at the sign of ``x``."""
    M, F, g = worst_system(problem, rows)
    return solve_square(M + F * np.where(x >= 0.0, 1.0, -1.0)[None, :], g)


def _check_worst(problem, rows, value, x_star, witness):
    """``x*`` is the one solution of the worst-case system, the value is
    the worst-case lower bound, and the witness attains it."""
    M, F, g = worst_system(problem, rows)
    (expected,) = gave_solutions(M, F, g)
    assert np.abs(x_star - expected).max() <= 1e-9 * (1.0 + np.abs(expected).max())
    assert np.abs(M @ x_star + F @ np.abs(x_star) - g).max() <= 1e-8 * (1.0 + np.abs(g).max())
    assert value == pytest.approx(worst_lower_bound(problem), rel=1e-9, abs=1e-9)
    out = witness.solve()
    assert out.status is Status.OPTIMAL
    assert out.value == pytest.approx(value, rel=1e-7, abs=1e-7)


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
            assert fallback_calls == {"solve_lp": 0, "solve_square": 1}
            fallback_calls.update(solve_square=0)

            reference = solve_lp(_best_program(problem, rows))
            assert reference.status is Status.OPTIMAL
            assert best == pytest.approx(reference.value, rel=1e-12, abs=0.0)
            _check_worst(problem, rows, value, x_star, witness)
        assert mixed >= 4

    def test_zero_straddling_enclosure_falls_back(self, fallback_calls):
        # the best case's basis cannot be read off the enclosure, so the
        # simplex method runs; the worst case starts at +1 where the
        # enclosure touches zero, which is wrong for these instances,
        # and one contraction step finds the sign of x*
        for problem, rows, cert in _straddling_instances(8):
            fallback_calls.update(solve_lp=0, solve_square=0)
            best = best_case_bstable(problem, rows, certificate=cert)
            value, x_star, _ = worst_case_bstable(problem, rows, certificate=cert)
            assert fallback_calls == {"solve_lp": 1, "solve_square": 2}
            assert best == solve_lp(_best_program(problem, rows)).value
            assert x_star.tobytes() == _sign_solve(problem, rows, x_star).tobytes()

    def test_straddling_instances_agree_with_the_oracles(self):
        for problem, rows, cert in _straddling_instances(40, seed=76):
            value, x_star, witness = worst_case_bstable(problem, rows, certificate=cert)
            _check_worst(problem, rows, value, x_star, witness)

    def test_contraction_steps_are_capped(self, monkeypatch):
        # one sign, the wrong one: the step limit ends the search with
        # the typed error, never with an unchecked value
        problem, rows, cert = _straddling_instances(1)[0]
        monkeypatch.setattr(stability, "CONTRACTION_STEPS", 1)
        with pytest.raises(NumericalError, match=r"after 1 signs.*\(ratio 0\.\d+\)"):
            worst_case_bstable(problem, rows, certificate=cert)

    def test_example4_basis_with_an_unknown_certificate_is_refused(self, example4, fallback_calls):
        # basis (0, 2)'s enclosure touches zero, and a nonbasic row is
        # not verifiably satisfied: neither value may be computed
        cert = verify_b_stability(example4, Basis((0, 2)))
        assert np.any((cert.primal_enclosure.inf < 0.0) & (cert.primal_enclosure.sup > 0.0))
        with pytest.raises(NumericalError, match="certificate is unknown"):
            best_case_bstable(example4, Basis((0, 2)), certificate=cert)
        with pytest.raises(NumericalError, match="certificate is unknown"):
            worst_case_bstable(example4, Basis((0, 2)), certificate=cert)
        assert fallback_calls == {"solve_lp": 0, "solve_square": 0}

    def test_certificate_of_another_basis_fails_the_check(self, example4, fallback_calls):
        # the enclosure of basis (2, 3) is negative, the solutions of
        # basis (0, 1) are positive; the certificate is not basis
        # (0, 1)'s, so (0, 1)'s own is derived and pins both values
        other = verify_b_stability(example4, Basis((2, 3)))
        assert np.all(other.primal_enclosure.sup < 0.0)
        answers = _answers(example4, Basis((0, 1)), other)
        assert fallback_calls == {"solve_lp": 0, "solve_square": 1}
        own = Basis((0, 1))
        assert answers == _answers(example4, own, verify_b_stability(example4, own))
        assert float.fromhex(answers[1]) == pytest.approx(WORST_EX4, abs=1e-9)

    def test_another_basis_on_random_instances(self, fallback_calls):
        checked = 0
        for problem, rows, cert in _stable_instances():
            foreign = verify_b_stability(problem, Basis(tuple(range(1, problem.n + 1))))
            box = foreign.primal_enclosure
            if box is None or np.any((box.inf <= 0.0) & (box.sup >= 0.0)):
                continue
            if np.array_equal(np.sign(box.inf), np.sign(cert.primal_enclosure.inf)):
                continue
            fallback_calls.update(solve_lp=0, solve_square=0)
            answers = _answers(problem, Basis(rows), foreign)
            assert fallback_calls == {"solve_lp": 0, "solve_square": 1}
            basis = Basis(rows)
            assert answers == _answers(problem, basis, verify_b_stability(problem, basis))
            checked += 1
        assert checked >= 2


def _worst_of(M, F, g, y=None):
    """Worst-case value, ``x*`` and the problem, through
    ``worst_case_bstable`` on the one-row-per-variable problem whose
    worst-case system is ``M x + F |x| = g``."""
    problem = gave_problem(M, F, g, np.ones(len(g)) if y is None else y)
    value, x_star, _ = worst_case_bstable(problem, tuple(range(len(g))))
    return value, x_star, problem


class TestGave:
    def test_scalar_expansion(self):
        _, x, _ = _worst_of([[1.0]], [[0.5]], [3.0])
        assert np.allclose(x, [2.0], atol=1e-12)

    def test_scalar_contraction(self):
        _, x, _ = _worst_of([[1.0]], [[-0.5]], [1.0])
        assert np.allclose(x, [2.0], atol=1e-12)

    def test_negative_branch(self):
        # x + 0.5|x| = -3 forces x < 0
        value, x, _ = _worst_of([[1.0]], [[0.5]], [-3.0])
        assert np.allclose(x, [-6.0], atol=1e-12)
        assert value == pytest.approx(-6.0, abs=1e-12)

    @staticmethod
    def _assert_refused(problem, rows):
        # no certificate verifies, so no value is returned
        assert verify_b_stability(problem, rows).status is CertificateStatus.UNKNOWN
        with pytest.raises(NumericalError, match="^stability certificate is unknown"):
            worst_case_bstable(problem, rows)

    def test_ambiguous_system_is_refused(self):
        # x + 2|x| = (3, 3) has more than one solution
        self._assert_refused(
            gave_problem(np.eye(2), 2.0 * np.eye(2), [3.0, 3.0], [1.0, 1.0]), (0, 1)
        )

    def test_unverified_system_with_one_solution_is_refused(self):
        # x - D_B |x| = (-1, -1) with D_B all ones has one solution,
        # x = (-1/3, -1/3), yet its envelope holds the zero matrix
        self._assert_refused(
            gave_problem(np.eye(2), -np.ones((2, 2)), [-1.0, -1.0], [1.0, 1.0]), (0, 1)
        )

    def test_unverified_system_without_solution_is_refused(self, example1):
        # example 1's basic system at basis (0, 1) has no solution
        self._assert_refused(example1, (0, 1))

    def test_envelope_verified_by_rex_rohn_alone(self):
        # Beeck's test declines the envelope [M - 1.2 I, M + 1.2 I] and
        # the singular-value test proves it regular, so the system has
        # one solution; the certificate's gate does not contract, so
        # the worst case is still refused
        M = np.array([[1.0, 1.0], [-1.0, 1.0]])
        F = 1.2 * np.eye(2)
        envelope = IntervalMatrix(M - F, M + F)
        assert not beeck_regular(envelope).verified
        assert rex_rohn_regular(envelope).verified
        with pytest.raises(NumericalError, match="does not contract"):
            _worst_of(M, F, [1.0, 2.0])

    def test_residual_contract(self):
        rng = np.random.default_rng(71)
        seen = 0
        while seen < 30:
            M, F, g = random_gave(rng)
            problem = gave_problem(M, F, g, rng.uniform(0.5, 2.0, len(g)))
            rows = tuple(range(len(g)))
            cert = verify_b_stability(problem, rows)
            if cert.status is not CertificateStatus.VERIFIED_NONDEGENERATE:
                continue
            seen += 1
            _, x, _ = worst_case_bstable(problem, rows, certificate=cert)
            M, F, g = worst_system(problem, rows)
            residual = np.max(np.abs(M @ x + F @ np.abs(x) - g))
            assert residual <= 1e-8 * (1.0 + np.max(np.abs(g)))

    def test_agrees_with_exhaustive_enumeration(self):
        rng = np.random.default_rng(72)
        seen = 0
        while seen < 60:
            M, F, g = random_gave(rng)
            problem = gave_problem(M, F, g, rng.uniform(0.5, 2.0, len(g)))
            rows = tuple(range(len(g)))
            cert = verify_b_stability(problem, rows)
            if cert.status is not CertificateStatus.VERIFIED_NONDEGENERATE:
                continue
            seen += 1
            sols = gave_solutions(*worst_system(problem, rows))
            assert len(sols) == 1
            _, x, _ = worst_case_bstable(problem, rows, certificate=cert)
            assert np.allclose(x, sols[0], atol=1e-7)

    def test_no_size_cap_at_twenty_variables(self, fallback_calls):
        # 2**20 sign patterns, far past the orthant cap, and a wrong
        # first sign where the enclosure touches zero: the worst case
        # still takes a few square solves
        rng = np.random.default_rng(77)
        n = 20
        M = 3.0 * np.eye(n) + rng.uniform(-0.1, 0.1, (n, n))
        F = rng.uniform(0.0, 0.02, (n, n))
        target = rng.uniform(0.5, 2.0, n)
        target[0] = -1e-4
        g = M @ target + F @ np.abs(target)
        problem = gave_problem(M, F, g, rng.uniform(0.5, 2.0, n))
        rows = tuple(range(n))
        cert = verify_b_stability(problem, rows)
        assert cert.status is CertificateStatus.VERIFIED_NONDEGENERATE
        assert cert.primal_enclosure.inf[0] < 0.0 < cert.primal_enclosure.sup[0]
        value, x, witness = worst_case_bstable(problem, rows, certificate=cert)
        assert 1 < fallback_calls["solve_square"] <= 5
        assert x == pytest.approx(target, abs=1e-9)
        M, F, g = worst_system(problem, rows)
        assert np.max(np.abs(M @ x + F @ np.abs(x) - g)) <= 1e-8 * (1.0 + np.max(np.abs(g)))
        # D is zero, so the witness is one LP, though the cap counts
        # every variable
        assert witness.solve(orthant_cap=n).value == pytest.approx(value, rel=1e-9)

    def test_nonsquare_rejected(self, example4):
        # a basis must select one row per variable
        with pytest.raises(InputError, match="basis must select 2 rows"):
            worst_case_bstable(example4, (0, 1, 2))


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
