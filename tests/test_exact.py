import hashlib
import math
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rlab.errors import ConfigurationError, DomainError, InfeasibleError
from rlab.exact import (_lattice_law, abs_tail_prob, abs_tail_rows, concentration_q,
                        concentration_rows, convolve, convolve_rows, modular_walk_pmf,
                        pmf_from_atoms, q1_profile, summary_moments, tail_prob, tail_rows,
                        walk_pmf, walk_pmf_rows)
from conftest import enumerate_signed_sums

step_lists = st.lists(st.integers(0, 12), min_size=1, max_size=12)
positive_step_lists = st.lists(st.integers(1, 12), min_size=1, max_size=12)
# mixes that keep the lattice kernel dense, sparse, or switching between them
kernel_step_lists = st.lists(
    st.one_of(st.integers(0, 3), st.integers(0, 1000),
              st.sampled_from([2**k for k in range(12)] + [3**k for k in range(9)])),
    max_size=40)

# laws whose form changes: dense -> sparse -> dense, dense -> sparse for
# good, and sparse from the first step (a 3**k law whose gcd is 1)
SWITCHING = [1, 100] + [1] * 14
POWERS_OF_THREE = [3**k for k in range(12)]
SPARSE_POWERS_OF_THREE = [3**k for k in range(4, 16)] + [1]
# laws whose dense window is full (every slot reached, no reach mask), holed by
# a step longer than the window, refilled by unit steps, or left for the sparse
# form from a full or a holed window
FULL_WINDOW_CASES = {
    "full_hole_refill_sparse": ([1, 1, 1, 10] + [1] * 6 + [1000], "fffhhhhhhfs"),
    "holed_to_sparse": ([1, 1, 1, 10, 1, 1000], "fffhhs"),
    "hole_refilled_at_once": ([1, 3, 1, 1, 1, 1, 1, 200, 1], "fhfffffss"),
    "full_to_sparse": ([1, 1, 1, 100], "fffs"),
    "sparse_to_holed": ([1, 100] + [1] * 14, "fssssshhhhhhhhhh"),
}
full_window_step_lists = st.lists(
    st.one_of(st.just(1), st.integers(1, 4), st.integers(5, 80)), min_size=1, max_size=16)
# longer laws through the same transitions, with rounded weights: the digest of
# (support, weights, q1_profile) as the mask-keeping kernel computed them, and
# the runs of forms the steps pass through
LONG_FULL_WINDOW_LAWS = [
    ([1] * 60 + [100] + [1] * 60 + [5000] + [1] * 150, "fhfsh", "b51e9d74b349a29f"),
    ([2] * 70 + [3] + [2] * 10 + [600] + [1] * 40 + [7000], "hs", "154b58614ebe94c2"),
    ([1] * 60 + [200] + [1] * 10 + [9000] + [1] * 20, "fhs", "ebba5e90db6615c2"),
]
# residue laws: many steps per residue class, up to 40 steps so that every
# reachable residue keeps a mass far above float rounding
residue_step_lists = st.lists(st.one_of(st.integers(0, 40), st.sampled_from([1, 2, 3])),
                              min_size=1, max_size=40)


def _window_forms(steps, limit=1 << 26):
    """The kernel's form after each step, seen from its weights: "s" sparse, and
    for the dense window "f" when every weight is nonzero, "h" otherwise. Right
    only while no weight underflows."""
    weights = []
    _lattice_law(steps, limit, on_step=weights.append)
    g = math.gcd(*steps) or 1
    widths = np.cumsum(steps) // g + 1
    return ["s" if w.size != width else "f" if w.all() else "h"
            for w, width in zip(weights, widths.tolist())]


def cyclic_modular_law(steps, m):
    """Oracle: the law on Z/mZ by one rotation-and-average per step."""
    probs = np.zeros(m)
    probs[0] = 1.0
    for a in steps:
        if a % m:
            probs = 0.5 * (np.roll(probs, a % m) + np.roll(probs, -(a % m)))
    return probs


def reduce_mod(pmf, m):
    """Oracle: the law on Z/mZ by folding the exact law on Z modulo m."""
    probs = np.zeros(m)
    np.add.at(probs, pmf.support % m, pmf.weights / pmf.one)
    return probs


class TestWalkPmf:
    def test_two_unit_steps(self):
        assert walk_pmf([1, 1]).as_dict() == {-2: 0.25, 0: 0.5, 2: 0.25}

    @pytest.mark.parametrize("exact, kind", [(False, float), (True, Fraction)])
    def test_as_dict_holds_python_numbers(self, exact, kind):
        law = walk_pmf([1, 2, 2], exact=exact).as_dict()
        assert law == {-5: 0.125, -3: 0.125, -1: 0.25, 1: 0.25, 3: 0.125, 5: 0.125}
        assert {(type(v), type(p)) for v, p in law.items()} == {(int, kind)}
        assert "np." not in repr(law)

    def test_first_two_block_steps(self):
        assert walk_pmf([3, 1]).as_dict() == {-4: 0.25, -2: 0.25, 2: 0.25, 4: 0.25}

    def test_zero_step_is_identity(self):
        assert walk_pmf([0]).as_dict() == {0: 1.0}
        a = walk_pmf([0, 5, 0])
        assert a.as_dict() == walk_pmf([5]).as_dict()
        assert a.steps_applied == 3

    def test_one_two_three(self):
        assert walk_pmf([1, 2, 3]).prob_at(0) == 0.25

    def test_negative_step_rejected(self):
        with pytest.raises(DomainError):
            walk_pmf([1, -2])

    def test_real_step_rejected(self):
        with pytest.raises(DomainError):
            walk_pmf([1.5])

    def test_support_cap(self, monkeypatch):
        monkeypatch.setenv("RLAB_SUPPORT_CAP", "5")
        with pytest.raises(InfeasibleError, match="step 3"):
            walk_pmf([1, 10, 100])

    def test_rational_mode_step_limit(self):
        with pytest.raises(ConfigurationError):
            walk_pmf([1] * 41, exact=True)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "rational"])
    def test_support_beyond_int64_rejected(self, exact):
        # the gcd makes this a 4-slot law, but its values need more than 64 bits
        with pytest.raises(InfeasibleError, match="overflow 64-bit"):
            walk_pmf([10**30, 3 * 10**30], exact=exact)

    @given(step_lists)
    def test_matches_enumeration_oracle(self, steps):
        values, counts = enumerate_signed_sums(steps)
        pmf = walk_pmf(steps)
        assert list(pmf.support) == list(values)
        denom = 2 ** len(steps)
        for p, c in zip(pmf.probs, counts):
            assert p == pytest.approx(c / denom, abs=1e-12)
        exact_pmf = walk_pmf(steps, exact=True)
        assert list(exact_pmf.support) == list(values)
        assert exact_pmf.probs == [Fraction(int(c), denom) for c in counts]

    def test_oracle_at_twenty_steps(self):
        rng = np.random.default_rng(20)
        steps = rng.integers(1, 60, size=20).tolist()
        values, counts = enumerate_signed_sums(steps)
        pmf = walk_pmf(steps, exact=True)
        assert list(pmf.support) == list(values)
        assert pmf.probs == [Fraction(int(c), 2 ** 20) for c in counts]

    @given(step_lists)
    def test_symmetry_normalization_parity(self, steps):
        pmf = walk_pmf(steps)
        support = list(pmf.support)
        probs = list(pmf.probs)
        assert abs(pmf.total_mass() - 1.0) < 1e-12
        assert walk_pmf(steps, exact=True).total_mass() == 1
        lookup = dict(zip(support, probs))
        for v, p in lookup.items():
            assert lookup[-v] == pytest.approx(p, abs=1e-12)
        parity = sum(steps) % 2
        assert all(v % 2 == parity for v in support)

    @given(positive_step_lists, st.randoms(use_true_random=False))
    def test_order_invariance(self, steps, rnd):
        shuffled = list(steps)
        rnd.shuffle(shuffled)
        a, b = walk_pmf(steps), walk_pmf(shuffled)
        assert list(a.support) == list(b.support)
        assert list(a.probs) == pytest.approx(list(b.probs), abs=1e-12)

    @given(kernel_step_lists)
    def test_float_and_rational_modes_agree_exactly(self, steps):
        # every probability is dyadic with at most 40 bits, so float mode is exact
        floats = walk_pmf(steps)
        rationals = walk_pmf(steps, exact=True)
        assert floats.support.tolist() == rationals.support.tolist()
        assert [float(p) for p in rationals.probs] == floats.probs.tolist()

    @pytest.mark.parametrize("steps, forms", [
        (SWITCHING, "ds" + "s" * 4 + "d" * 10),
        (POWERS_OF_THREE, "d" * 6 + "s" * 6),
        (SPARSE_POWERS_OF_THREE, "s" * 13),
    ], ids=["dense_sparse_dense", "powers_of_three", "sparse_powers_of_three"])
    def test_kernel_forms_match_oracle(self, steps, forms):
        windows = np.cumsum(steps) + 1
        sizes = []
        _lattice_law(steps, 1 << 26, on_step=lambda w: sizes.append(w.size))
        assert "".join("d" if n == w else "s" for n, w in zip(sizes, windows)) == forms
        values, counts = enumerate_signed_sums(steps)
        pmf = walk_pmf(steps)
        assert pmf.support.tolist() == values.tolist()
        assert pmf.probs.tolist() == [c / 2 ** len(steps) for c in counts.tolist()]
        assert walk_pmf(steps, exact=True).probs == [
            Fraction(c, 2 ** len(steps)) for c in counts.tolist()]
        prof = q1_profile(steps)
        assert prof == [walk_pmf(steps[:i]).max_atom() for i in range(1, len(steps) + 1)]

    @pytest.mark.parametrize("steps, forms", FULL_WINDOW_CASES.values(),
                             ids=FULL_WINDOW_CASES.keys())
    def test_full_window_forms_match_oracle(self, steps, forms):
        # "f" a dense window with every slot reached, "h" one with a hole, "s" sparse
        assert "".join(_window_forms(steps)) == forms
        self._assert_oracle(steps)

    @given(full_window_step_lists)
    def test_unit_and_long_steps_match_oracle(self, steps):
        self._assert_oracle(steps)

    @pytest.mark.parametrize("steps, runs, digest", LONG_FULL_WINDOW_LAWS)
    def test_long_full_window_laws_keep_their_arrays(self, steps, runs, digest):
        assert "".join(form for form, _ in groupby(_window_forms(steps))) == runs
        pmf, h = walk_pmf(steps), hashlib.sha256()
        for arr in (pmf.support, pmf.weights, np.array(q1_profile(steps))):
            h.update(arr.tobytes())
        assert h.hexdigest()[:16] == digest

    @staticmethod
    def _assert_oracle(steps):
        # at most 16 steps: every float weight is exact
        values, counts = enumerate_signed_sums(steps)
        n = len(steps)
        pmf, exact_pmf = walk_pmf(steps), walk_pmf(steps, exact=True)
        assert pmf.support.tolist() == exact_pmf.support.tolist() == values.tolist()
        assert pmf.probs.tolist() == [c / 2**n for c in counts.tolist()]
        assert exact_pmf.probs == [Fraction(c, 2**n) for c in counts.tolist()]
        assert q1_profile(steps) == [
            enumerate_signed_sums(steps[:i])[1].max() / 2**i for i in range(1, n + 1)]

    def test_dense_window_respects_cap(self):
        # after the step of 10 the window has 15 slots, above the cap of 12,
        # so the 10 atoms are kept sparse although they fill 2/3 of it
        sizes = []
        _lattice_law([1, 1, 1, 1, 10], 12, on_step=lambda w: sizes.append(w.size))
        assert sizes == [2, 3, 4, 5, 10]

    def test_long_switching_law(self):
        # a 2-atom cluster pair around +-1000 convolved with a 300-step binomial
        steps = [1, 1000] + [1] * 300
        pmf = walk_pmf(steps)
        want = {}
        for base in (-1001, -999, 999, 1001):
            for k in range(301):
                v = base + 2 * k - 300
                want[v] = want.get(v, 0) + math.comb(300, k)
        assert pmf.support.tolist() == sorted(want)
        assert pmf.probs.tolist() == pytest.approx(
            [want[v] / 2.0**302 for v in sorted(want)], rel=1e-12, abs=0)
        assert q1_profile(steps) == [walk_pmf(steps[:i]).max_atom()
                                     for i in range(1, len(steps) + 1)]

    def test_underflowed_atoms_stay_in_support(self):
        pmf = walk_pmf([1] * 1100)
        assert len(pmf) == 1101
        assert pmf.support.tolist() == list(range(-1100, 1101, 2))
        assert pmf.probs[0] == 0.0 and pmf.probs[-1] == 0.0
        assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_q1_profile_matches_walk_pmf(self):
        steps = [3, 1, 5, 3, 5, 0, 2, 2, 7]
        prof = q1_profile(steps)
        for i in range(1, len(steps) + 1):
            assert prof[i - 1] == pytest.approx(walk_pmf(steps[:i]).max_atom(), abs=1e-12)


class TestConcentration:
    def test_unit_window_is_max_atom(self):
        pmf = walk_pmf([1, 1])
        q = concentration_q(pmf, 1)
        assert q.result == 0.5

    def test_window_of_four(self):
        q = concentration_q(walk_pmf([1, 1]), 4)
        assert q.result == 0.75

    def test_single_atom_any_width(self):
        assert concentration_q(walk_pmf([0, 0]), 0.25).result == 1.0

    def test_argmax_window_attains_result(self):
        pmf = walk_pmf([2, 3, 3, 5])
        for r in (1.0, 2.0, 2.5, 4.0):
            q = concentration_q(pmf, r)
            mass = math.fsum(p for v, p in zip(pmf.support, pmf.probs)
                             if q.argmax_x < v <= q.argmax_x + r)
            assert mass == pytest.approx(q.result, abs=1e-12)

    def test_non_positive_width_rejected(self):
        with pytest.raises(DomainError):
            concentration_q(walk_pmf([1]), 0)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_non_finite_width_rejected(self, r):
        with pytest.raises(DomainError, match="finite"):
            concentration_q(walk_pmf([1]), r)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "rational"])
    def test_window_wider_than_int64_holds_everything(self, exact):
        pmf = walk_pmf([1, 2, 3], exact=exact)
        for r in (1e19, 1e300):
            q = concentration_q(pmf, r)
            assert q.result == 1 and type(q.result) is type(pmf.total_mass())
            assert q.argmax_x == float(-6 + math.ceil(r) - 1 - r)

    @given(positive_step_lists, st.sampled_from([0.5, 1.0, 1.5, 2.0]),
           st.sampled_from([2, 3, 4]))
    def test_window_subadditivity(self, steps, r, m):
        pmf = walk_pmf(steps)
        assert (concentration_q(pmf, m * r).result
                <= m * concentration_q(pmf, r).result + 1e-12)

    @given(positive_step_lists, st.sampled_from([0.5, 1.0, 2.0]))
    def test_oracle_brute_force_over_windows(self, steps, r):
        # oracle: every window anchored just below each support point
        pmf = walk_pmf(steps)
        support = list(pmf.support)
        probs = list(pmf.probs)
        best = 0.0
        for v in support:
            for x in (v - r, v - r / 2):
                best = max(best, math.fsum(
                    p for w, p in zip(support, probs) if x < w <= x + r))
        assert concentration_q(pmf, r).result == pytest.approx(best, abs=1e-12)

    def test_exact_mode_returns_fractions(self):
        q = concentration_q(walk_pmf([1, 2, 3], exact=True), 1)
        assert q.result == Fraction(1, 4)


class TestPrefixAndProductSandwich:
    @given(st.lists(st.integers(0, 8), min_size=2, max_size=10),
           st.integers(1, 6), st.data())
    def test_prefix_sandwich(self, steps, m, data):
        m = min(m, len(steps))
        altered = list(steps)
        for i in range(m):
            altered[i] = data.draw(st.integers(0, 8))
        r = data.draw(st.sampled_from([1.0, 2.0]))
        q = concentration_q(walk_pmf(steps), r).result
        q_alt = concentration_q(walk_pmf(altered), r).result
        factor = 2.0 ** (m + 1)
        assert q_alt / factor - 1e-12 <= q <= q_alt * factor + 1e-12

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=6),
           st.lists(st.integers(0, 6), min_size=1, max_size=6),
           st.sampled_from([0.5, 1.0, 2.0]))
    def test_product_sandwich(self, sa, sb, r):
        A, B = walk_pmf(sa), walk_pmf(sb)
        qa = concentration_q(A, r).result
        qb = concentration_q(B, r).result
        qab = concentration_q(convolve(A, B), r).result
        assert qa * qb / 2.0 - 1e-12 <= qab <= min(qa, qb) + 1e-12


class TestModular:
    def test_listed_examples(self):
        assert modular_walk_pmf([1, 1], 4).probs.tolist() == [0.5, 0.0, 0.5, 0.0]
        assert modular_walk_pmf([1], 3).probs.tolist() == [0.0, 0.5, 0.5]
        assert modular_walk_pmf([1], np.int64(3)).probs.tolist() == [0.0, 0.5, 0.5]
        assert modular_walk_pmf([2] * 9, 2).probs.tolist() == [1.0, 0.0]
        # unreachable residues are exactly 0, not the FFT's tiny values of either sign
        odd = np.random.default_rng(8).choice([1, 3, 5, 7, 9, 11], size=100).tolist()
        probs = modular_walk_pmf(odd, 8).probs
        assert probs[1::2].tolist() == [0.0] * 4
        assert np.max(np.abs(probs - cyclic_modular_law(odd, 8))) < 1e-12
        # residue 60 has mass 2**-60, below rounding: it may read 0, never < 0
        probs = modular_walk_pmf([1] * 60, 128).probs
        assert probs.min() >= 0.0 and not np.signbit(probs).any()
        assert np.max(np.abs(probs - cyclic_modular_law([1] * 60, 128))) < 1e-15
        # the reach mask at a large modulus
        steps = [1, 2, 3, 4000, 9000]
        probs = modular_walk_pmf(steps, 4099).probs
        assert probs.tolist() == cyclic_modular_law(steps, 4099).tolist()
        assert probs.tolist() == reduce_mod(walk_pmf(steps), 4099).tolist()

    def test_modulus_too_small(self):
        with pytest.raises(DomainError):
            modular_walk_pmf([1], 1)

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=20),
           st.integers(2, 64))
    def test_reduction_consistency(self, steps, m):
        direct = modular_walk_pmf(steps, m).probs
        reduced = reduce_mod(walk_pmf(steps), m)
        assert np.max(np.abs(direct - reduced)) < 1e-10

    @given(residue_step_lists, st.integers(2, 64))
    def test_spectral_consistency(self, steps, m):
        spectral = modular_walk_pmf(steps, m).probs
        for oracle in (cyclic_modular_law(steps, m), reduce_mod(walk_pmf(steps), m)):
            assert np.max(np.abs(spectral - oracle)) < 1e-12
            assert np.array_equal(spectral == 0.0, oracle == 0.0)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=15), st.integers(2, 32))
    def test_normalized(self, steps, m):
        probs = modular_walk_pmf(steps, m).probs
        assert abs(probs.sum() - 1.0) < 1e-12
        assert probs.min() >= 0.0


class TestMomentsAndTails:
    def test_sum_of_squares(self):
        m = summary_moments([1, 2, 3])
        assert m.variance == 14 and m.total == 6
        assert m.l2_norm == pytest.approx(math.sqrt(14))

    def test_empty(self):
        assert summary_moments([]).variance == 0

    def test_sqrt_block_prefix_variance_bound(self):
        from rlab.sequences import StepSequenceSpec, generate, sqrt_block_start
        k = 2
        steps = generate(StepSequenceSpec(family="sqrt_block"),
                         sqrt_block_start(2 * k) - 1)
        m = summary_moments(steps)
        # oracle: per-block sums of squares, blocks 1..3
        want = sum((4 ** j // 4) * ((2 ** j + 1) ** 2 + (2 ** j - 1) ** 2)
                   for j in range(1, 2 * k))
        assert m.variance == want == 2226
        assert m.variance <= 2 ** (8 * k)

    def test_real_steps_compensated(self):
        m = summary_moments([0.1] * 10)
        assert m.variance == pytest.approx(0.1, abs=1e-15)
        assert m.total == pytest.approx(1.0, abs=1e-15)

    def test_tail_examples(self):
        pmf = walk_pmf([1, 1])
        assert tail_prob(pmf, 2) == 0.25
        assert tail_prob(pmf, -100) == 1.0
        assert tail_prob(pmf, 100) == 0.0

    def test_abs_tail(self):
        pmf = walk_pmf([1, 1])
        assert abs_tail_prob(pmf, 2) == 0.5
        assert abs_tail_prob(pmf, 0) == 1.0
        assert abs_tail_prob(walk_pmf([1, 2]), 1.5) == 0.5

    @given(kernel_step_lists, st.data())
    def test_queries_match_enumeration_exactly(self, steps, data):
        # rational answers are the oracle's Fractions; float answers are their
        # float() exactly, since every probability here is dyadic with <= 40 bits
        values, counts = enumerate_signed_sums(steps)
        law = dict(zip(values.tolist(), counts.tolist()))
        denom = 2 ** len(steps)  # a zero step doubles every count
        rationals, floats = walk_pmf(steps, exact=True), walk_pmf(steps)

        def check(query, counted):
            want = Fraction(counted, denom)
            got = query(rationals)
            assert type(got) is Fraction and got == want
            got = query(floats)
            assert type(got) is float and got == float(want)

        for r in (0.5, 1, 1.5, 2, 3):
            # the heaviest window (x, x + r] whose lowest atom is v, first such v
            w, best, first = math.ceil(r), -1, None
            for v in law:
                x = v + w - 1 - Fraction(r)
                mass = sum(law.get(u, 0) for u in range(v, v + w) if x < u <= x + r)
                if mass > best:
                    best, first = mass, v
            check(lambda pmf: concentration_q(pmf, r).result, best)
            for pmf in (rationals, floats):
                assert concentration_q(pmf, r).argmax_x == float(first + w - 1 - Fraction(r))
        edge = max(abs(int(values[0])), abs(int(values[-1]))) + 2
        ts = [0, -1.5] + data.draw(st.lists(
            st.integers(-2 * edge, 2 * edge).map(lambda k: k / 2), min_size=1, max_size=5))
        for t in ts:
            check(lambda pmf: tail_prob(pmf, t), sum(c for v, c in law.items() if v >= t))
            check(lambda pmf: abs_tail_prob(pmf, t),
                  sum(c for v, c in law.items() if abs(v) >= t))
        hits = data.draw(st.lists(st.sampled_from(sorted(law)), min_size=1, max_size=3))
        for v in hits + [hits[0] + 1, edge, -edge]:
            check(lambda pmf: pmf.prob_at(v), law.get(v, 0))
        check(lambda pmf: pmf.max_atom(), max(law.values()))
        check(lambda pmf: pmf.total_mass(), sum(law.values()))

    @given(step_lists, st.integers(-20, 20))
    def test_tail_matches_enumeration(self, steps, t):
        values, counts = enumerate_signed_sums(steps)
        want = counts[values >= t].sum() / 2 ** len(steps)
        assert tail_prob(walk_pmf(steps), t) == pytest.approx(want, abs=1e-12)


class TestPmfConstruction:
    def test_from_atoms_validates_total(self):
        with pytest.raises(DomainError):
            pmf_from_atoms({0: 0.5, 2: 0.4})

    def test_convolve_modes_must_match(self):
        with pytest.raises(ConfigurationError):
            convolve(walk_pmf([1]), walk_pmf([1], exact=True))
        with pytest.raises(ConfigurationError):
            convolve(walk_pmf([1], exact=True), walk_pmf([1], exact=True))

    def test_convolve_matches_walk(self):
        a, b = walk_pmf([1, 2]), walk_pmf([3])
        c = convolve(a, b)
        want = walk_pmf([1, 2, 3])
        assert list(c.support) == list(want.support)
        assert list(c.probs) == pytest.approx(list(want.probs), abs=1e-12)


def convolve_by_pairs(a, b):
    """The reference convolution: one dict add per pair of atoms, A's atoms
    ascending, then B's."""
    acc = {}
    for v, p in zip(a.support, a.weights):
        for w, q in zip(b.support, b.weights):
            key = int(v) + int(w)
            acc[key] = acc.get(key, 0) + p * q
    return sorted(acc), [acc[v] for v in sorted(acc)]


def stacked_laws(rng, rows, support):
    """`rows` float laws on `support`: some single-atom, the rest with random
    atoms kept and the other slots zero."""
    weights = np.zeros((rows, support.size))
    for i, row in enumerate(weights):
        size = 1 if i % 3 == 0 else int(rng.integers(1, support.size + 1))
        keep = rng.choice(support.size, size=size, replace=False)
        row[keep] = rng.integers(1, 50, size=size)
    return weights / weights.sum(axis=1, keepdims=True)


def one_law(support, row):
    """The law of one stacked row with its zero-weight atoms dropped."""
    return pmf_from_atoms({int(v): p for v, p in zip(support, row.tolist()) if p})


class TestStackedRows:
    """Rows of laws on one shared support answer bit for bit as one call per law,
    zero-weight padding included."""

    SUPPORTS = [np.arange(-6, 7), np.array([-40, -7, -3, 0, 1, 2, 9, 30, 31, 100])]
    WIDTHS = (0.25, 0.5, 1, 1.5, 2, 2.7, 3, 5, 12.5, 1000)

    @pytest.mark.parametrize("support", SUPPORTS, ids=["grid", "holed"])
    def test_concentration_rows_equal_per_law_calls(self, support):
        laws = stacked_laws(np.random.default_rng(3), 40, support)
        for r in self.WIDTHS:
            got = concentration_rows(support, laws, r).tolist()
            want = [concentration_q(one_law(support, row), r).result for row in laws]
            assert got == want
            # the one-row case, padding kept in the support
            assert [concentration_rows(support, row, r).item() for row in laws] == want

    @pytest.mark.parametrize("support", SUPPORTS, ids=["grid", "holed"])
    def test_abs_tail_rows_equal_per_law_calls(self, support):
        laws = stacked_laws(np.random.default_rng(4), 40, support)
        for t in (0.5, 1, 2, 3.5, 7, 50, 1000):
            want = [abs_tail_prob(one_law(support, row), t) for row in laws]
            assert abs_tail_rows(support, laws, t).tolist() == want

    @pytest.mark.parametrize("a_support, b_support", [
        (SUPPORTS[0], SUPPORTS[0]), (SUPPORTS[0], SUPPORTS[1]), (SUPPORTS[1], SUPPORTS[0])],
        ids=["grid-grid", "grid-holed", "holed-grid"])
    def test_convolve_rows_equal_per_law_calls(self, a_support, b_support):
        rng = np.random.default_rng(5)
        A, B = stacked_laws(rng, 30, a_support), stacked_laws(rng, 30, b_support)
        support, rows = convolve_rows(a_support, A, b_support, B)
        sums = (a_support[:, None] + b_support).ravel().tolist()
        assert support.tolist() == sorted(set(sums))
        for a, b, got in zip(A, B, rows):
            law = convolve(one_law(a_support, a), one_law(b_support, b))
            # every reached key holds the per-law weight, every other key 0.0
            want = dict(zip(law.support.tolist(), law.weights.tolist()))
            assert dict(zip(support.tolist(), got.tolist())) == {
                v: want.get(v, 0.0) for v in support.tolist()}

    @given(st.dictionaries(st.integers(-50, 50), st.integers(1, 99), min_size=1, max_size=12),
           st.dictionaries(st.integers(-50, 50), st.integers(1, 99), min_size=1, max_size=12))
    def test_convolve_equals_pairwise_loop(self, a_atoms, b_atoms):
        a, b = (pmf_from_atoms({v: w / sum(atoms.values()) for v, w in atoms.items()})
                for atoms in (a_atoms, b_atoms))
        got = convolve(a, b)
        assert (got.support.tolist(), got.weights.tolist()) == convolve_by_pairs(a, b)

    def test_concentration_rows_take_one_width_per_row(self):
        support = self.SUPPORTS[1]
        laws = stacked_laws(np.random.default_rng(6), 40, support)
        widths = np.array([self.WIDTHS[i % len(self.WIDTHS)] for i in range(40)])
        want = [concentration_q(one_law(support, row), r).result
                for row, r in zip(laws, widths.tolist())]
        assert concentration_rows(support, laws, widths).tolist() == want
        assert concentration_rows(support, laws[:0], widths[:0]).shape == (0,)
        with pytest.raises(DomainError):
            concentration_rows(support, laws, np.where(widths > 3, 0.0, widths))

    @pytest.mark.parametrize("support", SUPPORTS, ids=["grid", "holed"])
    def test_tails_take_one_threshold_per_row(self, support):
        laws = stacked_laws(np.random.default_rng(7), 40, support)
        ts = np.linspace(-3.0, 60.0, 40)
        rows = [one_law(support, row) for row in laws]
        assert tail_rows(support, laws, ts).tolist() == [
            tail_prob(law, t) for law, t in zip(rows, ts.tolist())]
        assert abs_tail_rows(support, laws, ts).tolist() == [
            abs_tail_prob(law, t) for law, t in zip(rows, ts.tolist())]
        for t in (-1.0, 0.5, 3, 1000):
            assert tail_rows(support, laws, t).tolist() == [tail_prob(law, t) for law in rows]


# step lists for the row kernel: zero steps, lists of every length from empty,
# and steps sharing a large gcd, whose laws leave holes in the grid
row_step_lists = st.lists(
    st.tuples(st.sampled_from([1, 2, 7, 64]),
              st.lists(st.one_of(st.just(0), st.integers(0, 12)), max_size=14))
    .map(lambda scaled: [scaled[0] * a for a in scaled[1]]),
    max_size=12)


def scattered(steps, grid):
    """walk_pmf(steps) on `grid`, 0.0 off its atoms."""
    law = walk_pmf(steps)
    row = np.zeros(grid.size)
    row[law.support - grid[0]] = law.weights
    return row


class TestWalkPmfRows:
    """Each row of walk_pmf_rows is walk_pmf of its list on the grid, bit for bit."""

    def assert_rows_match(self, lists):
        grid, rows = walk_pmf_rows(lists)
        total = max((sum(steps) for steps in lists), default=0)
        assert grid.tolist() == list(range(-total, total + 1))
        assert rows.shape == (len(lists), grid.size)
        for steps, row in zip(lists, rows):
            assert row.tobytes() == scattered(steps, grid).tobytes(), steps

    @given(row_step_lists)
    def test_rows_equal_walk_pmf(self, lists):
        self.assert_rows_match(lists)

    @pytest.mark.parametrize("lists", [
        [], [[]], [[0, 0, 0]], [[0], [5]], [[5]], [[3], [1, 2, 3, 4], [], [0, 7, 0]],
        [[64, 128, 0, 64], [1]], [[1] * 60, [30] * 3], [POWERS_OF_THREE[:6], [1, 2]],
    ], ids=["no_lists", "empty", "all_zero", "zero_and_single", "single", "mixed_lengths",
            "holed", "long", "powers_of_three"])
    def test_edge_lists(self, lists):
        self.assert_rows_match(lists)

    def test_accepts_integral_values_and_rejects_others(self):
        grid, rows = walk_pmf_rows([[np.int64(2), 3.0, True]])
        assert rows[0].tobytes() == scattered([2, 3, 1], grid).tobytes()
        for bad, text in (([1, 1.5], "step 2 is not an integer"), ([2, -1], "step 2 is negative")):
            with pytest.raises(DomainError, match=text):
                walk_pmf_rows([[1], bad])

    def test_support_cap(self, monkeypatch):
        monkeypatch.setenv("RLAB_SUPPORT_CAP", "5")
        # walk_pmf raises at this cap, and so do the rows
        with pytest.raises(InfeasibleError):
            walk_pmf([1, 10, 100])
        with pytest.raises(InfeasibleError, match="exceed cap 5"):
            walk_pmf_rows([[1], [1, 10, 100]])
        # the cap bounds the whole matrix: two 3-value rows hold 6 atoms
        monkeypatch.setenv("RLAB_SUPPORT_CAP", "6")
        walk_pmf_rows([[1], [1]])
        with pytest.raises(InfeasibleError, match="3 laws on a grid of 3 values exceed cap 6"):
            walk_pmf_rows([[1], [1], [0]])

    def test_huge_steps_hit_the_cap(self):
        with pytest.raises(InfeasibleError):
            walk_pmf_rows([[10**30, 3 * 10**30]])
