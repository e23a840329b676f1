"""Report lists against their oracles, on both sides of `BULK_MIN`: the numpy
float renderer against float.__repr__, and the texts `emit_table` writes for
float, int and mixed scalar lists against json.dumps(indent=2)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rlab.numtext
from rlab.cli import _json_default, emit_table
from rlab.numtext import BULK_MIN, CHUNK, float_list_text

SEP = ",\n    "


def repr_oracle(values):
    """json's float texts: float.__repr__, and its own words for non-finite values."""
    return [float.__repr__(v) if math.isfinite(v) else json.dumps(v) for v in values]


def rendered(values, render=float_list_text):
    """The item texts of a rendered list; a list, so that pytest's report of a
    mismatch stays short."""
    return "".join(render(values, SEP)).split(SEP)


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64).tolist()


def matches_json_dumps(values):
    report = {"result": {"values": values}}
    return emit_table(report, "json") == json.dumps(report, indent=2,
                                                     default=_json_default) + "\n"


SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
FLOATS = st.one_of(st.sampled_from(SPECIALS), st.floats())


def long_list(items):
    """`items` repeated past BULK_MIN, so that a float list takes the numpy path."""
    return items * (BULK_MIN // len(items) + 1)


class TestFloats:
    @given(st.lists(FLOATS, min_size=1, max_size=60))
    def test_long_lists_match_json_dumps(self, items):
        values = long_list(items)
        assert len(values) >= BULK_MIN
        assert matches_json_dumps(values)

    @given(st.lists(FLOATS, max_size=60))
    def test_numpy_path_matches_json_dumps_at_any_length(self, values):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rlab.numtext, "BULK_MIN", 0)
            assert matches_json_dumps(values)

    def test_every_power_of_two_and_its_neighbours(self):
        powers = np.array([math.ldexp(1.0, e) for e in range(-1074, 1024)]).view(np.uint64)
        bits = np.concatenate([powers - np.uint64(1), powers, powers + np.uint64(1)])
        values = from_bits(bits) + from_bits(bits | np.uint64(1 << 63))
        assert rendered(values) == repr_oracle(values)

    def test_every_subnormal_up_to_significand_1e5(self):
        bits = np.arange(1, 10**5 + 1, dtype=np.uint64)
        values = from_bits(bits) + from_bits(bits | np.uint64(1 << 63))
        assert rendered(values) == repr_oracle(values)

    def test_layout_edges(self):
        # both sides of each switch between fixed and scientific notation,
        # and the extremes of the double range
        edges = [1e-05, 0.0001, 9999999999999998.0, 1e+16, 5e-324,
                 1.7976931348623157e+308, 2.2250738585072014e-308, 1e22, 1e23,
                 123456789012345.6, 0.1, 100.0, 1.5, 1e100, 9.999999999999999e-05]
        values = long_list(edges + [-v for v in edges] + SPECIALS)
        assert rendered(values) == repr_oracle(values)
        assert matches_json_dumps(values)

    def test_million_random_bit_patterns(self):
        bits = np.random.default_rng(20221).integers(0, 2**64, size=10**6,
                                                     dtype=np.uint64)
        values = from_bits(bits)
        assert rendered(values) == repr_oracle(values)

    def test_decimal_grid(self):
        values = [float(f"{i}e{j}") for i in range(1, 100) for j in range(-330, 309)]
        assert rendered(values) == repr_oracle(values)


class TestInts:
    """Int lists go to json's C encoder, which has no int64 limit."""
    INTS = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-2**70, 2**70))

    @given(st.lists(INTS, min_size=1, max_size=60))
    def test_long_lists_match_int_repr(self, items):
        values = long_list(items)
        assert len(values) >= BULK_MIN
        assert matches_json_dumps(values)

    def test_int64_extremes_and_chunks(self):
        rng = np.random.default_rng(5)
        values = ([-2**63, 2**63 - 1, 0, -1, 9, 10, -10**18, 10**18]
                  + rng.integers(-2**63, 2**63 - 1, size=3 * CHUNK).tolist()
                  + list(range(-999, 1000)))
        assert matches_json_dumps(values)

    @pytest.mark.parametrize("big", [2**63, -2**63 - 1, 10**40])
    def test_value_past_int64_keeps_int_repr(self, big):
        values = long_list([-2**63, 2**63 - 1, 7]) + [big]
        assert matches_json_dumps(values)
        assert matches_json_dumps(values[:BULK_MIN - 2] + [big])


class TestMixedScalars:
    SCALARS = st.one_of(st.integers(-2**70, 2**70), FLOATS, st.booleans(), st.none(),
                        st.text(max_size=4))

    @given(st.lists(SCALARS, min_size=1, max_size=60))
    def test_long_lists_match_json_dumps(self, items):
        values = long_list(items)
        assert len(values) >= BULK_MIN
        assert matches_json_dumps(values)

    def test_ints_floats_bools_and_none(self):
        rng = np.random.default_rng(11)
        values = [[-2**63, 2**64, 0.1, -0.0, math.inf, True, False, None][i]
                  for i in rng.integers(0, 8, size=2 * BULK_MIN).tolist()]
        assert matches_json_dumps(values)


class TestThreshold:
    @pytest.mark.parametrize("render, spy, item", [(float_list_text, "_float_fill", 0.25)])
    def test_lists_from_bulk_min_take_the_numpy_path(self, monkeypatch, render, spy,
                                                     item):
        calls = []
        original = getattr(rlab.numtext, spy)
        monkeypatch.setattr(rlab.numtext, spy,
                            lambda *a: calls.append(1) or original(*a))
        for n, numpy_path in ((BULK_MIN - 1, False), (BULK_MIN, True)):
            calls.clear()
            assert rendered([item] * n, render) == [repr(item)] * n
            assert bool(calls) == numpy_path
