import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rlab.bounds import (ExponentQuery, anti_exponent_f, branch_boundary,
                         central_point_masses, check_rows, combine_scales_rhs, cosine_product_bound, elo_bound,
                         hoeffding_tail, kochen_stone_ratio, local_clt_approx,
                         lower_anti_floor, make_report, modular_elo_bound,
                         rademacher_point_mass, run_check,
                         walk_rows)
from rlab.errors import DomainError
from rlab.exact import (abs_tail_prob, concentration_q, convolve, summary_moments,
                        tail_prob, walk_pmf)


class TestEloBound:
    def test_small_values(self):
        assert elo_bound(1) == 0.5
        assert elo_bound(2) == 0.5
        assert elo_bound(4) == 0.375

    def test_binomial_branch_is_the_rounded_rational(self):
        for n in range(1, 1001):
            for k in {0, n // 7, n // 3, n // 2, n - 1, n}:
                want = float(Fraction(math.comb(n, k), 2**n))
                assert rademacher_point_mass(n, 2 * k - n) == want

    def test_lgamma_crossover_continuity(self):
        exact = float(Fraction(math.comb(1002, 501), 2 ** 1002))
        assert rademacher_point_mass(1002, 0) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 998, 1000, 1001, 1002, 1004, 2500])
    def test_central_point_masses_equal_one_n_calls(self, n_max):
        # both branches and the switch between 1000 and 1002, bit for bit
        masses = central_point_masses(n_max)
        want = [rademacher_point_mass(n, 0) for n in range(2, n_max + 1, 2)]
        assert masses.dtype == np.float64
        assert masses.tobytes() == np.array(want, dtype=np.float64).tobytes()

    @given(st.lists(st.integers(1, 25), min_size=1, max_size=12))
    def test_dominates_exact_window(self, steps):
        c = min(steps)
        q = concentration_q(walk_pmf(steps), 2 * c).result
        assert q <= elo_bound(len(steps)) + 1e-12

    def test_dominates_at_every_length_to_twenty(self):
        rng = np.random.default_rng(3)
        for n in range(1, 21):
            for _ in range(5):
                steps = rng.integers(1, 40, size=n).tolist()
                q = concentration_q(walk_pmf(steps), 2 * min(steps)).result
                assert q <= elo_bound(n) + 1e-12


class TestModularEloBound:
    def test_listed_values(self):
        assert modular_elo_bound(3, 8) == pytest.approx(1 / 3 + math.sqrt(2 / (8 * math.pi)))
        assert modular_elo_bound(3, 8) == pytest.approx(0.61542, abs=1e-5)
        assert modular_elo_bound(4, 100) == pytest.approx(0.57979, abs=5e-6)

    def test_even_two_is_vacuous(self):
        assert modular_elo_bound(2, 10 ** 9) > 1.0


class TestCosineProduct:
    def test_m3_single_step(self):
        assert cosine_product_bound(3, [1]) == pytest.approx(2 / 3)

    def test_parity_obstruction(self):
        for n in (1, 4, 9):
            assert cosine_product_bound(2, [1] * n) == pytest.approx(1.0)

    def test_m4_two_steps_equals_exact_max(self):
        from rlab.exact import modular_walk_pmf
        bound = cosine_product_bound(4, [1, 1])
        assert bound == pytest.approx(0.5)
        assert bound == pytest.approx(float(modular_walk_pmf([1, 1], 4).probs.max()))

    def test_shared_factor_rejected(self):
        with pytest.raises(DomainError, match="step 2"):
            cosine_product_bound(6, [1, 3])

    @pytest.mark.parametrize("steps, message", [
        # residue 3 is checked once, but the error names its first step
        ([5, 7, 9, 5, 3, 2], "step 3 (= 9) shares a factor with modulus 6"),
        ([1, 4, 3, 10], "step 2 (= 4) shares a factor with modulus 6"),
        ([1, 6], "step 2 (= 6) shares a factor with modulus 6"),
        # whichever offending step comes first is the one reported
        ([1, 3, 0.5], "step 2 (= 3) shares a factor with modulus 6"),
        ([1, 0.5, 3], "step 2 must be a positive integer, got 0.5"),
        ([1, 5, -1, 2], "step 3 must be a positive integer, got -1"),
    ])
    def test_first_offending_step_named(self, steps, message):
        with pytest.raises(DomainError) as exc:
            cosine_product_bound(6, steps)
        assert str(exc.value) == message

    @pytest.mark.parametrize("steps", [
        [5, 7, 9, 5, 3, 2], [1, 4, 3, 10], [1, 6], [1, 3, 0], [1, 0, 3], [5, 12, 0], []])
    def test_modular_elo_check_names_the_same_step(self, steps):
        with pytest.raises(DomainError) as want:
            cosine_product_bound(6, steps)
        with pytest.raises(DomainError) as got:
            run_check("modular-elo", steps, m=6)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_modular_elo_cosine_bound_is_cosine_product_bound(self, n):
        rng = np.random.default_rng(n)
        for m in range(3, 65):
            coprime = [b for b in range(1, 6 * m) if math.gcd(b, m) == 1]
            steps = rng.choice(coprime, size=n).tolist()
            rep = run_check("modular-elo", steps, m=m)
            assert rep.params["cosine_bound"] == cosine_product_bound(m, steps)

    @given(st.integers(3, 32), st.integers(1, 12), st.data())
    def test_all_ones_maximises(self, m, n, data):
        coprime = [b for b in range(1, 4 * m) if math.gcd(b, m) == 1]
        steps = [data.draw(st.sampled_from(coprime)) for _ in range(n)]
        val = cosine_product_bound(m, steps)
        top = cosine_product_bound(m, steps, all_ones=True)
        assert val <= top + 1e-12
        assert top <= modular_elo_bound(m, n) + 1e-10

    @given(st.integers(2, 64), st.data(), st.booleans())
    def test_matches_outer_product(self, m, data, all_ones):
        coprime = [b for b in range(1, 4 * m) if math.gcd(b, m) == 1]
        steps = data.draw(st.lists(st.sampled_from(coprime), min_size=1, max_size=60))
        # oracle: one |cos| row per step, multiplied down the columns
        lam = np.arange(m)
        mult = [1] * len(steps) if all_ones else steps
        want = np.prod(np.abs(np.cos(2.0 * np.pi * np.outer(mult, lam) / m)), axis=0).sum() / m
        assert cosine_product_bound(m, steps, all_ones=all_ones) == pytest.approx(want, abs=1e-12)

    def test_domination_chain_at_long_horizon(self):
        import numpy as np
        from rlab.exact import modular_walk_pmf
        rng = np.random.default_rng(17)
        for m in (17, 64):
            coprime = [b for b in range(1, 6 * m) if math.gcd(b, m) == 1]
            steps = rng.choice(coprime, size=5000).tolist()
            mx = float(modular_walk_pmf(steps, m).probs.max())
            cos = cosine_product_bound(m, steps)
            assert mx <= cos + 1e-10 <= modular_elo_bound(m, 5000) + 2e-10


class TestAntiExponent:
    def test_delta_zero_is_exactly_one(self):
        q = anti_exponent_f(ExponentQuery(1.0, 0.0, 0.01))
        assert q.f_value == 1.0 and q.exponent == 1.49 and q.branch == "small_delta"
        assert anti_exponent_f(ExponentQuery(2.0, 0.0, 0.5)).f_value == 1.0

    def test_branch_agreement_at_boundary(self):
        rng = np.random.default_rng(5)
        for alpha in rng.uniform(0.01, 4.0, size=100):
            b = branch_boundary(alpha)
            small = alpha ** 2 / ((alpha + b) * (alpha + 2 * b
                                                 + 2 * math.sqrt(b * b + alpha * b)))
            large = alpha ** 2 / ((alpha + b) * (1 + 2 * b) * (alpha + 0.5 + b))
            assert abs(small - large) < 1e-9

    def test_boundary_value_example(self):
        b = branch_boundary(1.0)
        assert b == pytest.approx((math.sqrt(2) - 1) / 2)
        q = anti_exponent_f(ExponentQuery(1.0, b, 0.01))
        assert q.f_value == pytest.approx(0.343146, abs=1e-6)

    def test_monotone_non_increasing_in_delta(self):
        for alpha in (0.3, 1.0, 2.5):
            grid = np.linspace(0.0, 5.0, 400)
            vals = [anti_exponent_f(ExponentQuery(alpha, d, 0.01)).f_value for d in grid]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(0 < v <= 1 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            anti_exponent_f(ExponentQuery(0.0, 0.0, 0.01))
        with pytest.raises(DomainError):
            anti_exponent_f(ExponentQuery(1.0, -0.1, 0.01))
        with pytest.raises(DomainError):
            anti_exponent_f(ExponentQuery(1.0, 0.0, 0.0))


class TestLowerAntiFloor:
    def test_examples(self):
        assert lower_anti_floor(14) == 3 / 64
        assert lower_anti_floor(1) == 3 / 16
        assert lower_anti_floor(10 ** 6) == 3 / 16000

    def test_dominated_by_exact_q1(self):
        q1 = concentration_q(walk_pmf([1, 2, 3]), 1).result
        assert q1 == 0.25 >= lower_anti_floor(14)
        assert concentration_q(walk_pmf([1]), 1).result == 0.5 >= lower_anti_floor(1)

    def test_non_positive_variance(self):
        with pytest.raises(DomainError):
            lower_anti_floor(0)


class TestHoeffding:
    def test_t_zero(self):
        assert hoeffding_tail(1.0, 0.0) == 1.0

    def test_two_unit_steps(self):
        pmf = walk_pmf([1, 1])
        l2 = summary_moments([1, 1]).l2_norm
        assert tail_prob(pmf, l2) == 0.25 <= hoeffding_tail(l2, 1.0)
        assert hoeffding_tail(l2, 1.0) == pytest.approx(math.exp(-0.5))

    def test_t_three(self):
        assert hoeffding_tail(2.0, 3.0) == pytest.approx(0.011109, abs=1e-6)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_rejected(self, t):
        with pytest.raises(DomainError, match="finite"):
            hoeffding_tail(1.0, t)

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=14),
           st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
    def test_dominates_exact_tail(self, steps, t):
        pmf = walk_pmf(steps)
        l2 = summary_moments(steps).l2_norm
        assert tail_prob(pmf, t * l2) <= hoeffding_tail(l2, t) + 1e-12

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=14))
    def test_paley_zygmund_floor(self, steps):
        pmf = walk_pmf(steps)
        l2 = summary_moments(steps).l2_norm
        assert abs_tail_prob(pmf, l2 / 2) >= 3 / 16 - 1e-12


class TestLocalClt:
    def test_n2_origin(self):
        approx = local_clt_approx(2, 0)
        assert approx == pytest.approx(1 / math.sqrt(math.pi), abs=1e-12)
        assert abs(0.5 - approx) == pytest.approx(0.0642, abs=1e-4)

    def test_n100_origin(self):
        approx = local_clt_approx(100, 0)
        assert approx == pytest.approx(0.0797885, abs=1e-7)
        assert rademacher_point_mass(100, 0) == pytest.approx(0.0795892, abs=1e-7)

    def test_endpoint(self):
        approx = local_clt_approx(4, 4)
        assert approx == pytest.approx(math.exp(-2) / math.sqrt(2 * math.pi), abs=1e-12)
        assert rademacher_point_mass(4, 4) == 1 / 16

    def test_parity_mismatch(self):
        with pytest.raises(DomainError):
            local_clt_approx(3, 0)
        with pytest.raises(DomainError):
            local_clt_approx(4, 6)


class TestCombineScales:
    def test_two_scale_example(self):
        A, B = walk_pmf([1]), walk_pmf([10])
        rhs = combine_scales_rhs(concentration_q(A, 1).result,
                                 concentration_q(B, 2).result,
                                 abs_tail_prob(A, 2))
        assert rhs == 0.75
        assert concentration_q(convolve(A, B), 1).result == 0.25 <= rhs

    def test_degenerate_inputs(self):
        assert combine_scales_rhs(0.0, 1.0, 0.25) == 0.25
        assert combine_scales_rhs(1.0, 1.0, 1.0) >= 1.0

    def test_range_validation(self):
        with pytest.raises(DomainError):
            combine_scales_rhs(1.5, 0.5, 0.0)


class TestKochenStone:
    def test_indicator(self):
        assert kochen_stone_ratio(0.3, 0.3) == pytest.approx(0.3)

    def test_plain_arithmetic(self):
        assert kochen_stone_ratio(2.0, 5.0) == 0.8

    def test_zero_mean_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert kochen_stone_ratio(0.0, 1.0) == 0.0
            assert caught and "nonzero mean" in str(caught[0].message)

    def test_inconsistent_moments(self):
        with pytest.raises(DomainError):
            kochen_stone_ratio(3.0, 1.0)


class TestRunCheck:
    def test_elo_on_no_steps_is_a_domain_error(self):
        with pytest.raises(DomainError, match="strictly positive steps"):
            run_check("elo", [])

    @pytest.mark.parametrize("name, params", [
        ("elo", {}), ("lower-anti", {}), ("hoeffding", {"t": 1.5}), ("paley-zygmund", {})])
    def test_one_row_of_check_rows(self, name, params):
        # run_check reports, list by list, what check_rows finds for a stack of lists
        lists = [[1, 2, 3], [5], [4, 4, 4, 4, 9], [30] * 7]
        bound, compared, satisfied = check_rows(name, walk_rows(lists), **params)
        reps = [run_check(name, steps, **params) for steps in lists]
        assert bound.tolist() == [rep.bound_value for rep in reps]
        assert compared.tolist() == [rep.compared_value for rep in reps]
        assert satisfied.tolist() == [rep.satisfied for rep in reps]


class TestBoundReport:
    def test_satisfaction_and_slack(self):
        rep = make_report("elo", {"n": 4}, 0.375, 0.25)
        assert rep.satisfied and rep.slack == pytest.approx(0.125)
        assert make_report("x", {}, 0.1, 0.2).satisfied is False
        floor = make_report("lower-anti", {}, 0.25, 0.5, floor=True)
        assert (floor.bound_value, floor.compared_value) == (0.5, 0.25)
        assert floor.satisfied and floor.slack == 0.25
        assert make_report("x", {}, 0.2, 0.1, floor=True).satisfied is False

    def test_clamped_copy(self):
        rep = make_report("modular-elo", {}, 1.2)
        assert rep.bound_value == 1.2 and rep.bound_value_clamped == 1.0
