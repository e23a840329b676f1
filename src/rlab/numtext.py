"""JSON texts of long float lists, rendered with numpy.

A float's text is CPython's `repr`: the shortest decimal that reads back as
the same double, and of those the nearest, ties to even. It is found with
Schubfach (Giulietti, "The Schubfach way to render doubles", 2020) in uint64
arithmetic, with no bignums, so one pass of numpy calls renders every
distinct value of a list. Each value's text is cut from one row of bytes by
a mask, and a list's rows are joined as bytes: no Python object is made per
item. Other lists of JSON scalars go to json's C encoder (`cli._write_json`).

Every uint64 array meets only uint64 arrays and `np.uint64` scalars, and
every int64 array only int64 arrays and Python ints, so that numpy's
promotion rules (NEP 50 or the value-based ones before it) cannot change a
result.
"""

from __future__ import annotations

import math

import numpy as np

# Below this many items a list is cheaper item by item: the numpy path costs
# about 150 calls whatever the list's length. Float lists of walk laws break
# even near 1,000 items.
BULK_MIN = 1024
# Rows rendered per numpy pass. It bounds the temporaries to about 1 MB, so
# that a long list peaks at less memory than its text did item by item.
CHUNK = 4096

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
# "0000".."9999" as uint32, each pair of pairs from the table above
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view(np.uint32).ravel()
_DIGIT0 = ord("0")
_INF = _U(0x7FF << 52)


def float_text(x: float) -> str:
    """json's spelling of a float: its repr, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _digit_chars(u, width: int):
    """ASCII digits of uint64 values below 10**width, zero-padded to `width`."""
    nl = -(-width // 8)  # limbs of 8 digits, most significant first
    quads = np.empty((nl, 2, len(u)), np.uint32)
    e8, e4 = _U(10**8), np.uint32(10**4)
    for i in range(nl - 1, -1, -1):
        q = u // e8 if i else u
        limb = (u - q * e8 if i else u).astype(np.uint32)
        quads[i, 0] = limb // e4
        quads[i, 1] = limb - quads[i, 0] * e4
        u = q
    chars = _QUADS.take(quads.reshape(2 * nl, -1)).T
    return np.ascontiguousarray(chars).view(np.uint8)[:, nl * 8 - width:]


_K_MIN, _K_MAX = -324, 292


def _flog10pow2(e):
    """floor(log10(2**e)) for |e| <= 5456721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2**e)) for |e| <= 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _g_table():
    """g = floor(10**-k * 2**-r) + 1 in [2**125, 2**126], split as g1 * 2**63 + g0."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k <= 0:
            num = 10**-k
            g = (num >> r if r >= 0 else num << -r) + 1
        else:
            g = (1 << -r) // 10**k + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


_G1, _G0 = _g_table()


def _halves(a):
    return a & _M32, a >> _U(32)


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products of uint64 arrays given as halves."""
    (a0, a1), (b0, b1) = a, b
    mid = a1 * b0 + ((a0 * b0) >> _U(32))
    mid2 = a0 * b1 + (mid & _M32)
    return a1 * b1 + (mid >> _U(32)) + (mid2 >> _U(32))


def _rop(g1, g0, cp):
    """floor(g * cp / 2**127), its lowest bit set when the division is inexact."""
    cp2 = _halves(cp)
    x1 = _mulhi(_halves(g0), cp2)
    y1 = _mulhi(_halves(g1), cp2)
    z = ((g1 * cp) >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """Shortest round-trip digits f and exponent e, value = f * 10**e.

    `bits` are the uint64 patterns of positive finite doubles. Where Java's
    Double.toString keeps two digits, Python keeps one (5e-324, not 4.9E-324):
    so the one-digit-shorter test runs from s >= 10, and subnormals are not
    scaled by 10.
    """
    t = bits & _U(2**52 - 1)
    bq = (bits >> _U(52)).astype(np.int64)
    c = t | (bq != 0).astype(np.uint64) << _U(52)
    q = np.maximum(bq, 1) - 1075
    irregular = (t == _U(0)) & (bq > 1)  # the gap below is half the gap above
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    cb = c << _U(2)
    cp = np.stack([cb - _U(2) + irregular.astype(np.uint64), cb, cb + _U(2)]) << h
    vbl, vb, vbr = _rop(_G1.take(k - _K_MIN), _G0.take(k - _K_MIN), cp)
    # an even c rounds ties to itself, so its interval is closed
    out = c & _U(1)
    lo, hi = vbl + out, vbr - out
    s = vb >> _U(2)
    # at most one multiple of 10**(k+1) lies in the interval
    sp = s // _U(10) * _U(10)
    upin = lo <= sp << _U(2)
    wpin = (sp + _U(10)) << _U(2) <= hi
    shorter = (s >= _U(10)) & (upin != wpin)
    # else one or both of s, s + 1 (times 10**k) lie in it: take the nearer
    uin = lo <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= hi
    mid = (s << _U(2)) + _U(2)
    nearer_s = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))
    f = np.where(shorter, np.where(upin, sp, sp + _U(10)),
                 np.where(np.where(uin != win, uin, nearer_s), s, s + _U(1)))
    return f, k


# A float's text is cut from one template row by a mask (column: text):
#   0: '-'  1: '0'  2: '.'  3-5: '000'  6-22: digits  23: '.'  24-40: digits
#   41: '0'  42: 'e'  43: exponent sign  44-46: exponent digits
# The digits are the value's 17 (its significant ones, then zeros); a
# non-finite value's row holds its word in their place.
_FLOAT_TEMPLATE = b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"0e+000"
_D1, _D2, _ESIGN, _EXP = 6, 24, 43, 44


def _float_cols(neg: bool, sci: bool, n: int, p: int) -> list[int]:
    """The template columns of a text of n significant digits, as `repr` lays it out.

    p is the exponent's width when `sci`, else the decimal point's place.
    """
    cols = [0] if neg else []
    d1, d2 = range(_D1, _D1 + 17), range(_D2, _D2 + 17)
    if sci:
        return (cols + [d1[0]] + ([23, *d2[1:n]] if n > 1 else []) + [42, _ESIGN]
                + [*range(_EXP + 3 - p, _EXP + 3)])
    if p <= 0:
        return cols + [1, 2, *range(_D1 + p, _D1), *d1[:n]]
    return cols + [*d1[:p], 23, *d2[p:n]] + ([41] if p >= n else [])


# ids: 34 scientific layouts (n, exponent width 2 or 3), then 340 fixed ones
# (n, decimal point -3..16); plus 374 when negative. Then NaN, Infinity and
# -Infinity, cut from the digit columns.
_NAN_ID = 748
_FLOAT_COLS = [_float_cols(neg, sci, n, p) for neg in (False, True)
               for sci, places in ((True, (2, 3)), (False, range(-3, 17)))
               for n in range(1, 18) for p in places] + [
    [*range(_D1, _D1 + 3)], [*range(_D1, _D1 + 8)], [0, *range(_D1, _D1 + 8)]]
_FLOAT_KEEP = np.zeros((len(_FLOAT_COLS), len(_FLOAT_TEMPLATE)), bool)
_FLOAT_KEEP[[i for i, cols in enumerate(_FLOAT_COLS) for _ in cols],
            [c for cols in _FLOAT_COLS for c in cols]] = True


def _float_fill(bits, text):
    """Write the digits of doubles (uint64 bit patterns) into their template
    rows `text`, and return each one's layout id."""
    magnitude = bits & _M63
    neg = (bits >> _U(63)).astype(np.intp)
    zero = magnitude == _U(0)
    finite = magnitude < _INF
    f, e = _shortest(np.where(zero | ~finite, _U(1), magnitude))
    f[zero] = _U(0)
    n17 = np.searchsorted(_POW10, f, side="right")
    x = np.where(zero, 0, e + n17 - 1)  # decimal exponent of the leading digit
    digits = _digit_chars(f * _POW10.take(17 - n17), 17)
    text[:, _D1:_D1 + 17] = digits
    text[:, _D2:_D2 + 17] = digits
    text[:, _ESIGN] = np.where(x < 0, ord("-"), ord("+"))
    ax = np.abs(x)
    text[:, _EXP:_EXP + 3] = _QUADS.take(ax).view(np.uint8).reshape(-1, 4)[:, 1:]
    # significant digits: 17 less the trailing zeros, and one for a zero
    n = np.where(zero, 1, 17 - np.argmax(digits[:, ::-1] != _DIGIT0, axis=1))
    sci = (x < -4) | (x >= 16)
    ids = neg * 374 + np.where(sci, (n - 1) * 2 + (ax >= 100),
                               34 + (n - 1) * 20 + x + 4)
    if not finite.all():
        nan = magnitude > _INF
        text[~finite, _D1:_D1 + 8] = np.frombuffer(b"Infinity", np.uint8)
        text[nan, _D1:_D1 + 3] = np.frombuffer(b"NaN", np.uint8)
        ids[~finite] = _NAN_ID + 1 + neg[~finite]
        ids[nan] = _NAN_ID
    return ids


def float_list_text(items: list, sep: str) -> list[str]:
    """`sep.join(map(float_text, items))`, as consecutive pieces.

    Walk laws repeat most probabilities (a symmetric law holds each twice), so
    each distinct value is rendered once. Values are told apart by bit
    pattern, so -0.0 and 0.0 keep their texts.
    """
    bits, where = np.unique(np.array(items, dtype=np.float64).view(np.uint64),
                            return_inverse=True)
    if len(items) < BULK_MIN:
        values = bits.view(np.float64)
        texts = list(map(float.__repr__, values.tolist()))
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = float_text(values[i])
        return [sep.join(np.array(texts, dtype=object)[where].tolist())]
    # one row per distinct value: `sep`, then the template, filled column by column
    rows = np.empty((len(bits), len(sep) + len(_FLOAT_TEMPLATE)), np.uint8)
    rows[:] = np.frombuffer(sep.encode("ascii") + _FLOAT_TEMPLATE, np.uint8)
    ids = np.empty(len(bits), np.int16)
    for i in range(0, len(bits), CHUNK):
        ids[i:i + CHUNK] = _float_fill(bits[i:i + CHUNK], rows[i:i + CHUNK, len(sep):])
    del bits  # the join needs only rows and ids: a lower peak of memory
    keep = np.concatenate([np.ones((len(_FLOAT_KEEP), len(sep)), bool), _FLOAT_KEEP], axis=1)
    texts = [rows[w][keep[ids[w]]].tobytes().decode("ascii")
             for w in (where[i:i + CHUNK] for i in range(0, len(where), CHUNK))]
    texts[0] = texts[0][len(sep):]
    return texts
