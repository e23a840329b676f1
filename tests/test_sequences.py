import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from rlab.cli import main
from rlab.errors import ConfigurationError, DomainError, InfeasibleError
from rlab.sequences import (_EXACT_COUNTS_TOP, FAMILIES, StepSequenceSpec,
                            _Tabulated, check_ints_conditions, check_sparse_conditions,
                            fast_block_pairs, generate, log_power_counts,
                            log_power_ratio_bounds, log_power_ratio_window,
                            read_sequence_file, recurrence_event_window, sqrt_block_start,
                            sqrt_block_window, value_counts, write_sequence_file)


def spec(**kw):
    return StepSequenceSpec(**kw)


class TestGenerate:
    def test_power_identity(self):
        assert generate(spec(family="power", alpha=1), 3) == [1, 2, 3]

    def test_power_floor_non_integral(self):
        got = generate(spec(family="power", alpha=0.5, floor_values=True), 9)
        assert got == [int(math.floor(k ** 0.5)) for k in range(1, 10)]

    def test_power_integral_alpha_is_exact(self):
        assert generate(spec(family="power", alpha=3), 4) == [1, 8, 27, 64]

    def test_sqrt_block_listed_prefix(self):
        assert generate(spec(family="sqrt_block"), 11) == [3, 1, 5, 3, 5, 3, 5, 3, 5, 3, 9]
        assert generate(spec(family="sqrt_block"), 12)[-1] == 7

    def test_log_power_floor(self):
        assert generate(spec(family="log_power", alpha=2, floor_values=True), 3) == [0, 0, 1]

    def test_log_power_matches_direct_formula(self):
        got = generate(spec(family="log_power", alpha=1.5), 20)
        want = [math.log(k) ** 1.5 for k in range(1, 21)]
        assert got == pytest.approx(want, abs=0)

    def test_fast_increasing_offsets(self):
        # within a block the offsets are c_1 = 0, c_2 = 1, c_3 = 1 + 2^-1.5/sqrt(1+ln 2)
        got = generate(spec(family="fast_increasing", growth_fn=[0.0]), 5)
        c3 = 1.0 + 2.0 ** -1.5 / math.sqrt(1.0 + math.log(2.0))
        assert got[3] - got[2] == pytest.approx(1.0, abs=1e-15)
        assert got[4] - got[2] == pytest.approx(c3, abs=1e-12)
        assert c3 == pytest.approx(1.27172, abs=1e-4)

    def test_fast_increasing_strictly_increasing_and_above_envelope(self):
        table = [float(k) for k in range(1, 40)]
        got = generate(spec(family="fast_increasing", growth_fn=table), 30)
        assert all(b > a for a, b in zip(got, got[1:]))
        for n, a in enumerate(got, 1):
            assert a >= min(float(n), table[-1])

    def test_constant_family(self):
        assert generate(spec(family="constant", alpha=7), 4) == [7, 7, 7, 7]
        assert generate(spec(family="constant"), 2) == [1, 1]

    def test_geometric_power_of_two_below_envelope(self):
        table = [1, 2, 3, 5, 9, 17, 33]
        got = generate(spec(family="geometric", growth_fn=table), 7)
        assert got == [1, 2, 2, 4, 8, 16, 32]
        for a, f in zip(got, table):
            assert a <= f and 2 * a > f

    def test_custom_roundtrip_and_length_error(self):
        s = spec(family="custom", custom_values=(3, 1, 4.5))
        assert generate(s, 3) == [3, 1, 4.5]
        with pytest.raises(ConfigurationError):
            generate(s, 4)

    def test_missing_parameter_errors(self):
        with pytest.raises(ConfigurationError):
            generate(spec(family="power"), 3)
        with pytest.raises(ConfigurationError):
            generate(spec(family="geometric"), 3)
        with pytest.raises(ConfigurationError):
            generate(spec(family="custom"), 3)

    def test_n_must_be_positive(self):
        with pytest.raises(DomainError):
            generate(spec(family="sqrt_block"), 0)

    def test_all_families_non_negative(self):
        cases = [
            spec(family="power", alpha=0.7),
            spec(family="log_power", alpha=2, floor_values=True),
            spec(family="sqrt_block"),
            spec(family="sparse_values"),
            spec(family="geometric", growth_fn=[1, 4, 9, 16, 30, 60, 100]),
            spec(family="constant", alpha=0),
        ]
        for s in cases:
            assert all(a >= 0 for a in generate(s, 40))


@st.composite
def any_spec(draw):
    fam = draw(st.sampled_from(["power", "log_power", "sqrt_block", "sparse_values",
                                "geometric", "constant", "custom"]))
    if fam == "power":
        return spec(family="power", alpha=draw(st.sampled_from([0.5, 1, 2, 1.3])),
                    floor_values=draw(st.booleans()))
    if fam == "log_power":
        return spec(family="log_power", alpha=draw(st.sampled_from([1, 2, 2.5])),
                    floor_values=draw(st.booleans()))
    if fam == "sqrt_block":
        return spec(family="sqrt_block")
    if fam == "sparse_values":
        return spec(family="sparse_values")
    if fam == "geometric":
        k = draw(st.integers(1, 5))
        return spec(family="geometric", growth_fn=[1 + i * k for i in range(100)])
    if fam == "constant":
        return spec(family="constant", alpha=draw(st.integers(0, 5)))
    vals = draw(st.lists(st.integers(0, 9), min_size=40, max_size=60))
    return spec(family="custom", custom_values=tuple(vals))


class TestPrefixStability:
    @given(any_spec(), st.integers(1, 30), st.integers(0, 10))
    def test_shorter_is_prefix_of_longer(self, s, n, extra):
        # custom specs carry at least 40 values, so n + extra stays in range
        assert generate(s, n) == generate(s, n + extra)[:n]

    def test_fast_increasing_prefix(self):
        s = spec(family="fast_increasing", growth_fn=[1.0, 2.0, 4.0])
        assert generate(s, 9) == generate(s, 17)[:9]


class TestTabulatedSearch:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.data())
    def test_first_index_at_least_matches_linear_scan(self, raw, data):
        table = sorted(float(v) for v in raw)  # non-decreasing, repeats likely
        # halves fall below, on, between and above the entries
        target = data.draw(st.one_of(st.sampled_from(table),
                                     st.integers(-2, 16).map(lambda k: k / 2)))
        f = _Tabulated(table)
        want = next((i for i, v in enumerate(table, 1) if v >= target), None)
        if want is None:
            with pytest.raises(InfeasibleError, match="tops out"):
                f.first_index_at_least(target)
        else:
            assert f.first_index_at_least(target) == want


# the spec fields each family reads, written out apart from FAMILIES
READS = {
    "power": ("alpha", "floor_values"),
    "log_power": ("alpha", "floor_values"),
    "sqrt_block": (),
    "fast_block": ("growth_fn",),
    "fast_increasing": ("growth_fn",),
    "sparse_values": ("growth_fn",),
    "geometric": ("growth_fn",),
    "constant": ("alpha",),
    "custom": ("custom_values",),
}
# a value away from the default for every optional field
OTHER_VALUES = {"alpha": 0.5, "floor_values": True, "growth_fn": [1.0, 2.0],
                "custom_values": [1, 2]}
# one accepted spec per family, and its to_dict: the "spec" of an mc_manifest
GOLDEN = {
    "power": ({"alpha": 0.5, "floor_values": True},
              {"family": "power", "alpha": 0.5, "floor_values": True}),
    "log_power": ({"alpha": 2}, {"family": "log_power", "alpha": 2}),
    "sqrt_block": ({}, {"family": "sqrt_block"}),
    "fast_block": ({"growth_fn": [1, 2]},
                   {"family": "fast_block", "growth_fn": [1.0, 2.0]}),
    "fast_increasing": ({"growth_fn": [0]},
                        {"family": "fast_increasing", "growth_fn": [0.0]}),
    "sparse_values": ({}, {"family": "sparse_values"}),
    "geometric": ({"growth_fn": [1, 2, 4]},
                  {"family": "geometric", "growth_fn": [1.0, 2.0, 4.0]}),
    "constant": ({}, {"family": "constant"}),
    "custom": ({"custom_values": (3, 1, 4.5)},
               {"family": "custom", "custom_values": [3, 1, 4.5]}),
}
UNREAD = [(fam, name) for fam, reads in READS.items()
          for name in OTHER_VALUES if name not in reads]


class TestSpecFields:
    def test_table_lists_the_fields_each_family_reads(self):
        assert {fam: reads for fam, (_, reads) in FAMILIES.items()} == READS

    @pytest.mark.parametrize("family,name", UNREAD,
                             ids=[f"{fam}-{name}" for fam, name in UNREAD])
    def test_unread_field_rejected(self, tmp_path, capsys, family, name):
        data = {"family": family, **GOLDEN[family][0], name: OTHER_VALUES[name]}
        message = f"{family} does not read spec.{name}"
        with pytest.raises(ConfigurationError, match=message):
            StepSequenceSpec(**data)
        with pytest.raises(ConfigurationError, match=message):
            StepSequenceSpec.from_dict(data)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        assert main(["gen", "--spec", str(path), "--n", "3"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"family": "power", "alpha": math.nan},
        {"family": "power", "alpha": math.inf},
        {"family": "constant", "alpha": -math.inf},
        {"family": "geometric", "growth_fn": [1, math.inf]},
        {"family": "fast_increasing", "growth_fn": [math.nan]},
        {"family": "custom", "custom_values": [1, math.nan]},
        {"family": "custom", "custom_values": [math.inf]},
        {"family": "power", "alpha": 10**400},
        {"family": "geometric", "growth_fn": [1, 10**400]},
        {"family": "custom", "custom_values": [1, 10**400]},
    ], ids=["alpha_nan", "alpha_inf", "level_minus_inf", "growth_fn_inf",
            "growth_fn_nan", "custom_nan", "custom_inf",
            "alpha_past_float_range", "growth_fn_past_float_range",
            "custom_past_float_range"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, data):
        with pytest.raises(ConfigurationError, match="must be a finite number"):
            StepSequenceSpec.from_dict(data)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))  # NaN and Infinity, as json writes them
        assert main(["gen", "--spec", str(path), "--n", "1"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("family", sorted(GOLDEN))
    def test_golden_dict(self, family):
        fields, golden = GOLDEN[family]
        got = StepSequenceSpec(family, **fields).to_dict()
        # compared as JSON text: key order and int/float spellings count
        assert json.dumps(got) == json.dumps(golden)

    @given(any_spec(), st.sampled_from(sorted(OTHER_VALUES)))
    def test_dict_round_trip(self, s, name):
        assert StepSequenceSpec.from_dict(s.to_dict()) == s
        data = {**s.to_dict(), name: OTHER_VALUES[name]}
        if name in READS[s.family]:
            changed = StepSequenceSpec.from_dict(data)
            assert StepSequenceSpec.from_dict(changed.to_dict()) == changed
        else:
            with pytest.raises(ConfigurationError, match="does not read"):
                StepSequenceSpec.from_dict(data)


class TestSqrtBlockShape:
    def test_block_starts_closed_form(self):
        for k in range(1, 11):
            assert sqrt_block_start(k) == (4 ** k + 2) // 6
        assert [sqrt_block_start(k) for k in (1, 2, 3)] == [1, 3, 11]

    def test_envelope_to_1e6(self):
        n = 10 ** 6
        a = np.asarray(generate(spec(family="sqrt_block"), n), dtype=np.float64)
        idx = np.arange(1, n + 1, dtype=np.float64)
        assert np.all(a >= np.sqrt(idx / 2.0))
        assert np.all(a <= 3.0 * np.sqrt(idx))

    def test_block_alternation(self):
        a = generate(spec(family="sqrt_block"), sqrt_block_window(5)[1])
        for k in range(1, 6):
            start, end = sqrt_block_window(k)
            block = a[start - 1:end]
            assert len(block) == 4 ** k // 2
            assert block[::2] == [2 ** k + 1] * (len(block) // 2)
            assert block[1::2] == [2 ** k - 1] * (len(block) // 2)

    def test_recurrence_event_window_is_even_block(self):
        assert recurrence_event_window(1) == (3, 10)
        assert recurrence_event_window(2) == (43, 170)


class TestSparseValues:
    def test_block_values_are_odd_squares(self):
        a = generate(spec(family="sparse_values"), 700)
        assert set(a) <= {9, 25}
        assert a[0] == 9

    def test_parity_and_length_conditions(self):
        # reconstruct block lengths from the generated run-length structure
        s = spec(family="sparse_values")
        lengths = []
        i = 1
        total = 0
        while len(lengths) < 6:
            p_next_sq = ((2 * (i + 1) + 1) ** 2) ** 2
            total += p_next_sq + 2  # upper bound on this block
            i += 1
            lengths.append(None)
        a = generate(s, total)
        runs = []
        cur, count = a[0], 0
        for v in a:
            if v == cur:
                count += 1
            else:
                runs.append((cur, count))
                cur, count = v, 1
        for i, (value, length) in enumerate(runs[:5], 1):
            assert value == (2 * i + 1) ** 2
            assert length >= ((2 * (i + 1) + 1) ** 2) ** 2
            if i >= 2 and i % 2 == 0:
                assert length % 2 == (i // 2 + 1) % 2
            if i >= 3 and i % 2 == 1:
                assert length % 2 == ((i - 1) // 2) % 2

    def test_envelope_constrains_blocks(self):
        # f reaches 9 at index 3 and 25 at index 1000: zeros first, long 9-block
        table = [1.0] * 2 + [9.0] * 997 + [25.0, 49.0, 81.0, 121.0]
        a = generate(spec(family="sparse_values", growth_fn=table), 1000)
        assert a[:2] == [0, 0]
        assert a[2] == 9
        assert all(v == 9 for v in a[2:999])


def green_times_4h(h, y):
    """4^h sum_{j<=h} P(S_j = y)^2 for a +-1 walk S, exactly: the expected
    visits of a planar simple random walk to (0, y) within h steps, times 4^h."""
    y = abs(y)
    j, square, acc = y, 1, 0  # square = C(j, (j+y)/2)^2
    while j <= h:
        acc = (acc << 4) + square
        k = (j + y) // 2
        square = square * ((j + 1) * (j + 2)) ** 2 // ((k + 1) * (j - k + 1)) ** 2
        j += 2
    return acc << 2 * (h - (j - 2))


class TestFastBlock:
    def test_block_structure(self):
        s = spec(family="fast_block", growth_fn=[1.0])
        a = generate(s, 40)
        assert a[:2] == [2, 1]
        # remaining entries alternate r+1, r in even-length blocks
        rest = a[2:]
        r = rest[1]
        assert rest[0] == r + 1
        for i, v in enumerate(rest):
            assert v in (r, r + 1)
            assert v == (r + 1 if i % 2 == 0 else r)

    def test_growth_envelope(self):
        table = [0.5 * k for k in range(1, 200)]
        s = spec(family="fast_block", growth_fn=table)
        a = generate(s, 10)
        for n, v in enumerate(a, 1):
            assert v >= min(table[n - 1], v + 1) - v or v >= table[n - 1] - 1  # r >= ceil(f(end))
        # direct check: every entry clears f at its own index
        assert all(v >= table[n - 1] for n, v in enumerate(a, 1))

    def test_block_boundaries_at_closed_form_lengths(self):
        # f(i) = i up to 6000: each block's r is f at the block's last index
        assert fast_block_pairs(0) == 1 and fast_block_pairs(5) == 2 * 6 ** 4
        s = spec(family="fast_block", growth_fn=list(range(1, 6001)))
        a = generate(s, 5186 + 10)
        assert a[:2] == [3, 2]  # one pair, r = f(2); the steps sum to 5
        assert a[2:5186] == [5187, 5186] * 2592  # 2 * 6^4 pairs, r = f(5186)
        assert a[5186:] == [6001, 6000] * 5  # block 3 is far longer

    def test_certificate_on_exact_sums(self):
        # a block after steps summing to T starts within T of 0, and reaches 0
        # with probability >= G_h((0, y)) / G_h(0) for its start y: >= 1/70
        for T in range(1, 9):
            h = fast_block_pairs(T)
            g0 = green_times_4h(h, 0)
            assert all(70 * green_times_4h(h, y) >= g0 for y in range(T + 1)), T

    def test_long_prefix_is_stable_across_block_ends(self):
        s = spec(family="fast_block", growth_fn=[1, 2, 4, 8])
        a = generate(s, 10 ** 5)
        assert a[:4] == [3, 2, 9, 8] and a[-2:] == [9, 8]
        for n in (1, 2, 3, 5185, 5186, 5187, 10 ** 5 - 1):
            assert generate(s, n) == a[:n]


class TestValueCounts:
    def test_sqrt_block_first_ten(self):
        counts = value_counts(generate(spec(family="sqrt_block"), 10))
        assert counts.counts == {1: 1, 3: 5, 5: 4}
        assert counts.prefix_length == 10

    def test_constant(self):
        assert value_counts([7, 7, 7]).counts == {7: 3}

    def test_empty(self):
        c = value_counts([])
        assert c.counts == {} and c.prefix_length == 0

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            value_counts([1, 2.5])
        with pytest.raises(DomainError):
            value_counts([-1])

    def test_integral_floats_accepted(self):
        assert value_counts([2.0, 2.0]).counts == {2: 2}

    @given(st.lists(st.integers(0, 30), max_size=200))
    def test_counts_sum_to_prefix_length(self, seq):
        c = value_counts(seq)
        assert sum(c.counts.values()) == c.prefix_length == len(seq)


class TestIntsConditions:
    def test_uniform_million_counts(self):
        counts = value_counts([])
        counts.counts = {1: 10 ** 6, 2: 10 ** 6, 3: 10 ** 6, 4: 10 ** 6}
        counts.prefix_length = 4 * 10 ** 6
        rep = check_ints_conditions(counts, 4)
        assert rep.assump1_lhs == 2 * 10 ** 6  # gcd filter keeps 1 and 3
        assert rep.assump1_rhs == 32
        assert rep.assump1_holds

    def test_all_zero_fails_both(self):
        counts = value_counts([])
        rep = check_ints_conditions(counts, 5)
        assert not rep.assump1_holds and not rep.assump2_holds

    def test_log_squared_prefix_sides_match_scan(self):
        n_arr = np.arange(1, 10 ** 6 + 1)
        vals = np.floor(np.log(n_arr) ** 2).astype(np.int64)
        uniq, cnt = np.unique(vals, return_counts=True)
        counts = value_counts([])
        counts.counts = {int(u): int(c) for u, c in zip(uniq, cnt)}
        counts.prefix_length = 10 ** 6
        n = int(uniq.max())
        rep = check_ints_conditions(counts, n)
        # independent oracle for both left sides
        lhs1 = int(sum(c for i, c in counts.counts.items()
                       if 0 < i <= n and math.gcd(i, n) == 1))
        lhs2 = int(np.sum(vals[vals < n].astype(np.int64) ** 2))
        assert rep.assump1_lhs == lhs1
        assert rep.assump2_lhs == lhs2
        assert rep.assump1_holds  # holds at the top value for this prefix

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            check_ints_conditions(value_counts([1, 2]), 1)

    def test_counts_beyond_float_range(self):
        n = 10 ** 6
        counts = value_counts([])
        # lhs/rhs ~ 9.5e15, but 4 n^2 ln^3(n) L_n alone overflows a float
        counts.counts = {n - 1: 10 ** 320, n: 10 ** 300}
        rep = check_ints_conditions(counts, n)
        assert rep.assump2_holds and rep.assump2_rhs == math.inf
        # L_n itself beyond the float range
        counts.counts = {n - 1: 10 ** 400, n: 10 ** 380}
        assert check_ints_conditions(counts, n).assump2_holds
        # lhs/rhs ~ 1 / (4 ln^3 n): fails although the rhs is no float
        counts.counts = {n - 1: 10 ** 400, n: 10 ** 400}
        rep = check_ints_conditions(counts, n)
        assert not rep.assump2_holds and rep.assump2_rhs == math.inf


def _ceil_exp_sqrt(j):
    with mp.workdps(int(math.sqrt(j) / 2.3) + 30):
        return int(mp.ceil(mp.exp(mp.sqrt(j))))


class TestLogPowerCounts:
    def test_matches_generated_prefix(self):
        spec = StepSequenceSpec("log_power", alpha=2, floor_values=True)
        prefix = value_counts(generate(spec, 10 ** 6)).counts
        top = max(prefix)
        assert log_power_counts(top - 1).counts == {i: prefix[i] for i in range(top)}

    def test_partial_sums_are_ceilings(self):
        counts = log_power_counts(300)
        total = 0
        for j in range(302):
            assert total == _ceil_exp_sqrt(j) - 1
            total += counts.counts.get(j, 0)
        assert counts.prefix_length == _ceil_exp_sqrt(301) - 1

    def test_first_counts(self):
        # floor(ln^2 k) for k = 1, 2, 3, 4, 5, 6: 0, 0, 1, 1, 2, 3
        assert log_power_counts(2).counts == {0: 2, 1: 2, 2: 1}
        assert log_power_counts(0).prefix_length == 2

    def test_negative_top_rejected(self):
        with pytest.raises(DomainError):
            log_power_counts(-1)


def _exact_log_ratios(counts, n):
    rep = check_ints_conditions(counts, n)
    with mp.workdps(60):
        r1 = mp.log(rep.assump1_lhs) - mp.log(rep.assump1_rhs)
        r2 = (mp.log(rep.assump2_lhs) - mp.log(4 * n * n * counts.counts[n])
              - 3 * mp.log(mp.log(n)))
    return rep, r1, r2


class TestLogPowerRatioBounds:
    @pytest.fixture(scope="class")
    def counts(self):
        return log_power_counts(5000)

    def test_agrees_with_exact_checker(self, counts):
        # n <= 1000 sums exact counts only; the larger n add closed-form terms
        small = log_power_counts(1000)
        cases = [(small, n) for n in range(2, 1001)]
        cases += [(counts, n) for n in (2047, 2048, 2049, 3001, 4096, 5000)]
        for table, n in cases:
            rep, r1, r2 = _exact_log_ratios(table, n)
            b = log_power_ratio_bounds(n)
            assert b.cond1_lo <= r1 <= b.cond1_hi, n
            assert b.cond2_lo <= r2 <= b.cond2_hi, n
            assert (b.cond1_lo >= 0) == rep.assump1_holds == (b.cond1_hi >= 0), n
            assert (b.cond2_lo >= 0) == rep.assump2_holds == (b.cond2_hi >= 0), n

    def test_window_brackets_exact_ratios(self, counts):
        window = log_power_ratio_window(2, 5001)
        assert window.n.tolist() == list(range(2, 5001))
        lhs2 = counts.counts[1]
        for k, n in enumerate(range(2, 5001)):
            with mp.workdps(60):
                r2 = (mp.log(lhs2) - mp.log(4 * n * n * counts.counts[n])
                      - 3 * mp.log(mp.log(n)))
                r1_lo = mp.log(counts.counts[n - 1]) - mp.log(2 * n * n)
            assert window.cond2_lo[k] <= r2 <= window.cond2_hi[k], n
            assert window.cond1_lo[k] <= r1_lo < window.cond1_hi[k], n
            lhs2 += n * n * counts.counts[n]

    def test_wide_window_agrees_with_single_evaluations(self):
        # lhs2 grows by e^1000 over this window, far past the float range
        window = log_power_ratio_window(2, 10 ** 6)
        assert np.isfinite(window.cond2_lo).all() and np.isfinite(window.cond2_hi).all()
        for n in (2, 3, 1000, 70_000, 999_999):
            single = log_power_ratio_bounds(n)
            k = n - 2
            assert window.cond2_lo[k] <= single.cond2_hi
            assert single.cond2_lo <= window.cond2_hi[k]
        assert window.cond2_hi[-1] - window.cond2_lo[-1] < 1e-9

    def test_closed_form_matches_high_precision(self):
        # Far above the exact counts, where each ceiling moves L_i by less
        # than e^-200 relative: compare with 40-digit sums of
        # i^2 (e^sqrt(i+1) - e^sqrt(i)), scaled by e^-sqrt(n). The terms
        # below i = n - 40000 add less than e^-60 relative.
        n = 10 ** 5
        with mp.workdps(40):
            root_n = mp.sqrt(n)
            prev = mp.exp(mp.sqrt(n - 40_000) - root_n)
            lhs2 = mpf(0)
            for i in range(n - 40_000, n):
                cur = mp.exp(mp.sqrt(i + 1) - root_n)
                lhs2 += i * i * (cur - prev)
                prev = cur
            count_n = mp.exp(mp.sqrt(n + 1) - root_n) - 1
            r2 = mp.log(lhs2) - mp.log(4 * n * n * count_n) - 3 * mp.log(mp.log(n))
        single = log_power_ratio_bounds(n)
        window = log_power_ratio_window(n - 1000, n + 1)
        assert single.cond2_lo <= r2 <= single.cond2_hi
        assert window.cond2_lo[-1] <= r2 <= window.cond2_hi[-1]
        assert single.cond2_hi - single.cond2_lo < 1e-11

    def test_closed_form_zone_starts_past_ceiling_effects(self):
        assert log_power_counts(_EXACT_COUNTS_TOP).counts[_EXACT_COUNTS_TOP] > 2 ** 57

    def test_domain(self):
        with pytest.raises(DomainError):
            log_power_ratio_bounds(1)
        with pytest.raises(DomainError):
            log_power_ratio_window(1, 10)
        with pytest.raises(DomainError):
            log_power_ratio_window(10, 10)


class TestSparseConditions:
    def test_slow_construction_has_witnesses(self):
        a = generate(spec(family="sparse_values"), 700 * 10)
        counts = value_counts(a)
        rep = check_sparse_conditions(counts, epsilon=1.0)
        values = sorted(counts.counts)
        for s in values[1:]:
            assert rep.witnesses[s] is not None
        assert rep.all_hold

    def test_single_value_fails(self):
        rep = check_sparse_conditions(value_counts([7, 7, 7]), epsilon=1.0)
        assert rep.witnesses[7] is None
        assert not rep.all_hold or len(rep.witnesses) == 1

    def test_explicit_witness(self):
        counts = value_counts([])
        counts.counts = {2: 100, 10: 1}
        rep = check_sparse_conditions(counts, epsilon=1.0)
        assert rep.witnesses[10] == 2  # 100 >= 1 * 10**2

    def test_bad_epsilon(self):
        with pytest.raises(DomainError):
            check_sparse_conditions(value_counts([1]), epsilon=0.0)


class TestSequenceFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "seq.txt"
        write_sequence_file(path, [3, 1, 4.5])
        assert read_sequence_file(path) == [3, 1, 4.5]

    def test_roundtrip_keeps_large_integers_exact(self, tmp_path):
        # 2**60 + 1 has no float64 image; 10**400 overflows float64
        path = tmp_path / "seq.txt"
        big = [2**60 + 1, 10**400, 7]
        write_sequence_file(path, big)
        assert path.read_text().splitlines()[0] == "1152921504606846977"
        back = read_sequence_file(path)
        assert back == big and all(type(v) is int for v in back)
        path.write_text("1e3\n2.0\n")
        assert read_sequence_file(path) == [1000, 2]

    @pytest.mark.parametrize("line", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_step_names_its_line(self, tmp_path, line):
        path = tmp_path / "seq.txt"
        path.write_text(f"3\n1.5\n{line}\n")
        with pytest.raises(ConfigurationError, match=f"seq.txt:3: step '{line}' is not finite"):
            read_sequence_file(path)

    def test_integer_past_the_digit_limit_named(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("3\n-" + "7" * 5000 + "\n")
        with pytest.raises(ConfigurationError) as exc:
            read_sequence_file(path)
        message = str(exc.value)
        assert message.endswith("seq.txt:2: integer step -7777777777777777777... "
                                "has too many digits (5,000)")
        assert len(message) < 200 + len(str(tmp_path))

    def test_json_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"family": "sqrt_block"}')
        assert read_sequence_file(path, n=4) == [3, 1, 5, 3]
        with pytest.raises(ConfigurationError):
            read_sequence_file(path)  # spec files need a length
        path.write_text('{"family": "sqrt_bl')
        with pytest.raises(ConfigurationError, match="malformed JSON"):
            read_sequence_file(path, n=4)
        path.write_text('{"family": "power", "alpha": ' + "9" * 5000 + "}")
        with pytest.raises(ConfigurationError, match="malformed JSON"):
            read_sequence_file(path, n=4)  # more digits than int() will parse

    def test_spec_dict_roundtrip(self):
        s = spec(family="geometric", growth_fn=[1, 2, 4])
        assert StepSequenceSpec.from_dict(s.to_dict()) == s
        with pytest.raises(ConfigurationError):
            StepSequenceSpec.from_dict({"alpha": 1})
        with pytest.raises(ConfigurationError):
            StepSequenceSpec.from_dict({"family": "power", "bogus": 1})
        with pytest.raises(ConfigurationError, match="unknown sequence family"):
            StepSequenceSpec.from_dict({"family": ["power"]})  # not hashable
