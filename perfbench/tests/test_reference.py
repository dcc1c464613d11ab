"""Tests of the benchmark's independent mpmath reference.

Run with ``python3 -m pytest perfbench/tests``.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402

P16 = ref.Format(16, 5)
T8 = ref.Format(8, 4)
MAX16 = 0x7BFF
INF16 = 0x7C00


def bits_of(fmt, x):
    """Bit pattern of a value that is exactly representable in ``fmt``."""
    f = Fraction(x)
    sign = 1 if f < 0 else 0
    f = abs(f)
    exp = -64
    man = f * (Fraction(2) ** -exp)
    assert man.denominator == 1
    out = ref.round_exact(fmt, sign, man.numerator, exp, "rne")
    for mode in ref.MODES:
        assert ref.round_exact(fmt, sign, man.numerator, exp, mode) == out
    return out


def result(fn, fmt, x):
    return dict(zip(ref.MODES, ref.correctly_rounded(fmt, fn, bits_of(fmt, x))))


@pytest.mark.parametrize("k", [-14, -3, 0, 1, 3, 15])
def test_exp2_of_integer_is_exact(k):
    assert set(result("exp2", P16, k).values()) == {bits_of(P16, 2.0 ** k)}


@pytest.mark.parametrize("k", [-24, -10, -1, 0, 1, 15])
def test_log2_of_power_of_two_is_exact(k):
    assert set(result("log2", P16, 2.0 ** k).values()) == {bits_of(P16, k)}


def test_exact_trig_and_decimal_cases():
    for mode_bits in result("cospi", P16, 0.5).values():
        assert mode_bits & 0x7FFF == 0
    assert set(result("cospi", P16, 1.0).values()) == {bits_of(P16, -1.0)}
    assert set(result("sinpi", P16, 1.5).values()) == {bits_of(P16, -1.0)}
    assert set(result("sinpi", P16, -0.5).values()) == {bits_of(P16, -1.0)}
    assert set(result("cospi", P16, -2.0).values()) == {bits_of(P16, 1.0)}
    assert set(result("log10", P16, 1000.0).values()) == {bits_of(P16, 3.0)}
    assert set(result("exp10", P16, 2.0).values()) == {bits_of(P16, 100.0)}
    assert set(result("exp", P16, 0.0).values()) == {bits_of(P16, 1.0)}


def test_log_domain_results():
    for v in result("ln", P16, -1.0).values():
        assert ref.is_nan(P16, np.array([v]))[0]
    assert set(result("log10", P16, 0.0).values()) == {0x8000 | INF16}


def test_overflow_depends_on_mode():
    r = result("exp", P16, 12.0)  # e**12 ~ 162755 > 65504
    assert r == {"rne": INF16, "rna": INF16, "rtz": MAX16, "rtp": INF16, "rtn": MAX16}
    r = result("sinh", P16, -12.0)
    neg = 0x8000
    assert r == {
        "rne": neg | INF16, "rna": neg | INF16, "rtz": neg | MAX16,
        "rtp": neg | MAX16, "rtn": neg | INF16,
    }


def test_underflow_to_subnormal():
    r = result("exp", P16, -20.0)  # ~2.1e-9, below half the least subnormal
    assert r == {"rne": 0, "rna": 0, "rtz": 0, "rtp": 1, "rtn": 0}


def test_transcendental_value_rounds_correctly():
    # e = 2.71828...: p16 neighbours 2.71875 (above) and 2.716796875.
    r = result("exp", P16, 1.0)
    up, down = bits_of(P16, 2.71875), bits_of(P16, 2.716796875)
    assert r == {"rne": up, "rna": up, "rtz": down, "rtp": up, "rtn": down}


def _brute_force(fmt, value, mode):
    """Round ``value`` by searching the sorted finite values of ``fmt``."""
    table = []
    for bits in ref.finite_bits(fmt).tolist():
        sign, man, exp = ref.decode(fmt, bits)
        v = Fraction(man) * Fraction(2) ** exp * (-1 if sign else 1)
        table.append((v, bits))
    table.sort()
    below = max((t for t in table if t[0] <= value), default=None)
    above = min((t for t in table if t[0] >= value), default=None)
    if below is not None and below[0] == value:
        return below[1]
    inf = fmt.inf_bits
    if above is None:  # beyond the largest finite value
        half_ulp = (below[0] - max(t[0] for t in table if t[0] < below[0])) / 2
        near = inf if value >= below[0] + half_ulp else below[1]
        return {"rne": near, "rna": near, "rtz": below[1], "rtp": inf, "rtn": below[1]}[mode]
    if below is None:
        near_ulp = above[0] - min(t[0] for t in table if t[0] > above[0])
        near = fmt.sign_bit | inf if value <= above[0] + near_ulp / 2 else above[1]
        return {"rne": near, "rna": near, "rtz": above[1], "rtp": above[1],
                "rtn": fmt.sign_bit | inf}[mode]
    mid = (below[0] + above[0]) / 2
    toward_zero = below if value > 0 else above
    if mode == "rtz":
        return toward_zero[1]
    if mode == "rtp":
        return above[1]
    if mode == "rtn":
        return below[1]
    if value < mid:
        return below[1]
    if value > mid:
        return above[1]
    if mode == "rna":
        return above[1] if value > 0 else below[1]
    return below[1] if ref.decode(fmt, below[1])[1] % 2 == 0 else above[1]


def test_round_exact_matches_brute_force_on_t8():
    rng = random.Random(7)
    values = []
    for bits in ref.finite_bits(T8).tolist():
        sign, man, exp = ref.decode(T8, bits)
        # Midpoints and quarter points between neighbours, and beyond.
        for num in (1, 2, 3, 4, 5, 7):
            values.append((sign, 4 * man + num, exp - 2))
    for _ in range(300):
        values.append((rng.randrange(2), rng.randrange(1, 1 << 20), rng.randrange(-30, 0)))
    for sign, man, exp in values:
        v = Fraction(man) * Fraction(2) ** exp * (-1 if sign else 1)
        for mode in ref.MODES:
            got = ref.round_exact(T8, sign, man, exp, mode)
            want = _brute_force(T8, v, mode)
            if got & 0x7F == 0 and want & 0x7F == 0:
                continue  # zeros compare by value
            assert got == want, (sign, man, exp, mode)


def test_planted_wrong_bit_is_reported():
    fmt = ref.FAMILIES["tiny"][1]
    table = ref.build_table(fmt, "exp10")
    inputs = ref.finite_bits(fmt)
    want = table[inputs, ref.MODES.index("rtp")].astype(np.int64)
    got = want.copy()
    assert ref.same_results(fmt, got, want).all()
    planted = len(got) // 3
    got[planted] ^= 1 << 2
    assert np.flatnonzero(~ref.same_results(fmt, got, want)).tolist() == [planted]


def test_zeros_compare_by_value_and_nans_by_class():
    fmt = P16
    want = np.array([0x0000, 0x7E00, 0x3C00])
    got = np.array([0x8000, 0x7C01, 0x3C00])
    assert ref.same_results(fmt, got, want).all()
    assert not ref.same_results(fmt, np.array([INF16]), np.array([0x7E00]))[0]
