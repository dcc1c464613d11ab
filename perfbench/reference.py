"""Correctly rounded reference results computed with mpmath.

This module shares no code with ``repro``: formats, decoding, exact
rounding and the precision loop are re-derived here so that the
benchmark checks the program against something it did not compute.

For one ``(function, format)`` pair the reference is a table indexed by
the input's bit pattern, holding the correctly rounded result's bit
pattern in each of the five IEEE rounding modes (``MODES`` order).
Rows of non-finite inputs are unused.

How a result is found:

* inputs where the exact result is a dyadic rational (``exp2`` of an
  integer, ``log2`` of a power of two, ``cospi`` of a half-integer, ...)
  take that exact value, since a precision loop can never settle on a
  value that sits on a rounding boundary;
* domain errors follow IEEE: ``log`` of a negative is NaN, of a zero is
  ``-inf``;
* every other result is transcendental: mpmath evaluates it with guard
  bits, the value is widened to an interval of ``2**-wp`` relative
  width, and the precision ``wp`` doubles until both ends of the
  interval round to the same format value in every mode, and a second
  evaluation at twice that precision agrees.

Tables are cached as ``.npz`` files under ``perfbench/.refcache`` (not
committed).  Rebuild them with::

    python3 perfbench/reference.py --rebuild
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import mpmath
import numpy as np

MODES = ("rne", "rna", "rtz", "rtp", "rtn")
FUNCTIONS = (
    "ln", "log2", "log10", "exp", "exp2", "exp10",
    "sinh", "cosh", "sinpi", "cospi",
)
CACHE_DIR = Path(__file__).resolve().parent / ".refcache"
#: Bumped whenever the table layout or the algorithm changes, so stale
#: caches are rebuilt instead of trusted.
CACHE_VERSION = 1
_MAX_PREC = 1 << 14


class Format(NamedTuple):
    """A binary interchange-style format with ``total`` bits, ``ebits``
    of them exponent; ``total - ebits - 1`` stored mantissa bits."""

    total: int
    ebits: int

    @property
    def prec(self) -> int:
        return self.total - self.ebits

    @property
    def bias(self) -> int:
        return (1 << (self.ebits - 1)) - 1

    @property
    def emin(self) -> int:
        return 1 - self.bias

    @property
    def emax(self) -> int:
        return self.bias

    @property
    def sign_bit(self) -> int:
        return 1 << (self.total - 1)

    @property
    def inf_bits(self) -> int:
        return ((1 << self.ebits) - 1) << (self.prec - 1)

    @property
    def nan_bits(self) -> int:
        return self.inf_bits | (1 << (self.prec - 2))

    @property
    def max_bits(self) -> int:
        return self.inf_bits - 1


#: The progressive families the benchmark generates or serves.
FAMILIES: Dict[str, Tuple[Format, ...]] = {
    "tiny": (Format(8, 4), Format(10, 4)),
    "mini": (Format(12, 5), Format(14, 5), Format(16, 5)),
}


# ----------------------------------------------------------------------
# Bit patterns
# ----------------------------------------------------------------------
def decode(fmt: Format, bits: int) -> Optional[Tuple[int, int, int]]:
    """``(sign, man, exp)`` with value ``(-1)**sign * man * 2**exp``, or
    None for infinities and NaNs."""
    sign = bits >> (fmt.total - 1)
    biased = (bits >> (fmt.prec - 1)) & ((1 << fmt.ebits) - 1)
    frac = bits & ((1 << (fmt.prec - 1)) - 1)
    if biased == (1 << fmt.ebits) - 1:
        return None
    if biased == 0:
        return sign, frac, fmt.emin - (fmt.prec - 1)
    return sign, frac | (1 << (fmt.prec - 1)), biased - fmt.bias - (fmt.prec - 1)


def finite_bits(fmt: Format) -> np.ndarray:
    """Every finite bit pattern of ``fmt`` (both zeros included)."""
    mags = np.arange(fmt.max_bits + 1, dtype=np.int64)
    return np.concatenate([mags, mags | fmt.sign_bit])


def to_doubles(fmt: Format, bits: np.ndarray) -> np.ndarray:
    """The values of finite bit patterns as float64 (always exact)."""
    bits = np.asarray(bits, dtype=np.int64)
    biased = (bits >> (fmt.prec - 1)) & ((1 << fmt.ebits) - 1)
    frac = bits & ((1 << (fmt.prec - 1)) - 1)
    man = np.where(biased == 0, frac, frac | (1 << (fmt.prec - 1)))
    exp = np.where(biased == 0, fmt.emin, biased - fmt.bias) - (fmt.prec - 1)
    mag = np.ldexp(man.astype(np.float64), exp.astype(np.int32))
    return np.where(bits & fmt.sign_bit, -mag, mag)


def is_nan(fmt: Format, bits: np.ndarray) -> np.ndarray:
    mag = np.asarray(bits, dtype=np.int64) & (fmt.sign_bit - 1)
    return mag > fmt.inf_bits


def same_results(fmt: Format, got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Elementwise: equal bits, both zeros (compared by value, as the
    program's verify does) or both NaN."""
    got = np.asarray(got, dtype=np.int64)
    want = np.asarray(want, dtype=np.int64)
    mag = fmt.sign_bit - 1
    return (
        (got == want)
        | (((got & mag) == 0) & ((want & mag) == 0))
        | (is_nan(fmt, got) & is_nan(fmt, want))
    )


# ----------------------------------------------------------------------
# Exact rounding
# ----------------------------------------------------------------------
def round_exact(fmt: Format, sign: int, man: int, exp: int, mode: str) -> int:
    """Bit pattern of ``(-1)**sign * man * 2**exp`` rounded to ``fmt``.

    ``man >= 0``.  Handles subnormals, the carry into the next binade and
    per-mode overflow: the nearest modes overflow to infinity when the
    value rounded with an unbounded exponent exceeds the largest finite
    value; directed modes overflow to infinity only when rounding away
    from zero, and otherwise stop at the largest finite value.
    """
    signed = sign << (fmt.total - 1)
    if man == 0:
        return signed
    p = fmt.prec
    e = exp + man.bit_length() - 1
    qe = max(e, fmt.emin) - (p - 1)
    shift = qe - exp
    if shift <= 0:
        sig, inexact, up = man << -shift, False, False
    else:
        sig = man >> shift
        rem = man & ((1 << shift) - 1)
        half = 1 << (shift - 1)
        inexact = rem != 0
        if mode == "rne":
            up = rem > half or (rem == half and sig & 1 == 1)
        elif mode == "rna":
            up = rem >= half
        elif mode == "rtz":
            up = False
        elif mode == "rtp":
            up = inexact and sign == 0
        elif mode == "rtn":
            up = inexact and sign == 1
        else:
            raise ValueError(f"unknown rounding mode {mode!r}")
    sig += up
    if sig == 1 << p:
        sig >>= 1
        qe += 1
    if sig >= 1 << (p - 1) and qe + (p - 1) > fmt.emax:
        away = mode in ("rne", "rna") or (mode == "rtp" and sign == 0) or (
            mode == "rtn" and sign == 1
        )
        return signed | (fmt.inf_bits if away else fmt.max_bits)
    if sig < 1 << (p - 1):
        return signed | sig  # subnormal or zero
    biased = qe + (p - 1) + fmt.bias
    return signed | (biased << (p - 1)) | (sig - (1 << (p - 1)))


def round_all(fmt: Format, sign: int, man: int, exp: int) -> Tuple[int, ...]:
    return tuple(round_exact(fmt, sign, man, exp, m) for m in MODES)


# ----------------------------------------------------------------------
# Exact special cases
# ----------------------------------------------------------------------
def _is_integer(man: int, exp: int) -> bool:
    return exp >= 0 or man % (1 << -exp) == 0


def _integer(sign: int, man: int, exp: int) -> int:
    v = man << exp if exp >= 0 else man >> -exp
    return -v if sign else v


def _dyadic(value: int) -> Tuple[int, int, int]:
    return (1 if value < 0 else 0), abs(value), 0


def exact_result(fn: str, sign: int, man: int, exp: int):
    """``(sign, man, exp)`` of f(x) when it is a dyadic rational, the
    strings ``"nan"``/``"-inf"`` for IEEE domain results, else None."""
    zero = man == 0
    if fn in ("ln", "log2", "log10"):
        if zero:
            return "-inf"
        if sign:
            return "nan"
        if fn == "log2":
            if man & (man - 1):
                return None
            return _dyadic(exp + man.bit_length() - 1)
        if not _is_integer(man, exp):
            return None
        x = _integer(0, man, exp)
        k = 0
        if fn == "log10":
            while x % 10 == 0:
                x //= 10
                k += 1
        return _dyadic(k) if x == 1 else None
    if zero:
        return (sign, 0, 0) if fn in ("sinh", "sinpi") else (0, 1, 0)
    if fn == "exp2" and _is_integer(man, exp):
        return 0, 1, _integer(sign, man, exp)
    if fn == "exp10" and _is_integer(man, exp) and not sign:
        # Every format here overflows long before 10**4096.
        return 0, 10 ** min(_integer(0, man, exp), 4096), 0
    if fn in ("sinpi", "cospi") and _is_integer(man, exp + 1):
        # 2x is an integer n2, so the result is 0 or +-1.
        n2 = _integer(sign, man, exp + 1)
        if (n2 % 2 == 0) == (fn == "sinpi"):
            return 0, 0, 0
        # sinpi(m + 1/2) = cospi(m) = (-1)**m with m = floor(x).
        return _dyadic(1 if (n2 // 2) % 2 == 0 else -1)
    return None


# ----------------------------------------------------------------------
# The precision loop
# ----------------------------------------------------------------------
_MPMATH = {
    "ln": mpmath.log,
    "log2": lambda x: mpmath.log(x, 2),
    "log10": mpmath.log10,
    "exp": mpmath.exp,
    "exp2": lambda x: mpmath.power(2, x),
    "exp10": lambda x: mpmath.power(10, x),
    "sinh": mpmath.sinh,
    "cosh": mpmath.cosh,
    "sinpi": mpmath.sinpi,
    "cospi": mpmath.cospi,
}


def _rounded_at(fmt: Format, fn: str, x_mpf, guard: int, wp: int):
    """The five roundings of f(x) evaluated with ``wp + guard`` bits, or
    None when the ``2**-wp``-wide interval around it straddles a rounding
    boundary in some mode."""
    with mpmath.workprec(wp + guard):
        y = _MPMATH[fn](x_mpf)
    ysign, yman, yexp, ybc = y._mpf_
    if yman == 0:
        raise ArithmeticError(f"{fn}({x_mpf}) evaluated to an inexact zero")
    # Relative half-width 2**-wp: err = 2**(yexp + ybc - wp).
    err_exp = yexp + ybc - wp
    base = min(yexp, err_exp)
    mid = yman << (yexp - base)
    err = 1 << (err_exp - base)
    lo = round_all(fmt, ysign, mid - err, base)
    hi = round_all(fmt, ysign, mid + err, base)
    return lo if lo == hi else None


def correctly_rounded(fmt: Format, fn: str, bits: int) -> Tuple[int, ...]:
    """The five correctly rounded result bit patterns of f at the
    finite input ``bits`` of ``fmt``."""
    parts = decode(fmt, bits)
    if parts is None:
        raise ValueError(f"input {bits:#x} is not finite")
    sign, man, exp = parts
    exact = exact_result(fn, sign, man, exp)
    if exact == "nan":
        return (fmt.nan_bits,) * len(MODES)
    if exact == "-inf":
        return (fmt.sign_bit | fmt.inf_bits,) * len(MODES)
    if exact is not None:
        return round_all(fmt, *exact)
    x = mpmath.mpf((-man if sign else man, exp))
    # Guard bits cover mpmath's own error, including cancellation near a
    # zero of f or near x = 1 for the logarithms and argument growth for
    # large |x|.
    mag = abs(int(mpmath.mag(x)))
    guard = 32 + mag
    wp = 2 * fmt.prec + 16
    while wp <= _MAX_PREC:
        first = _rounded_at(fmt, fn, x, guard, wp)
        if first is not None and first == _rounded_at(fmt, fn, x, guard, 2 * wp):
            return first
        wp *= 2
    raise ArithmeticError(f"{fn} at {bits:#x}: no stable rounding by {_MAX_PREC} bits")


def build_table(fmt: Format, fn: str) -> np.ndarray:
    """``(2**total, len(MODES))`` uint16 results, indexed by input bits."""
    table = np.zeros((1 << fmt.total, len(MODES)), dtype=np.uint16)
    for bits in finite_bits(fmt).tolist():
        table[bits] = correctly_rounded(fmt, fn, bits)
    return table


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
_LOADED: Dict[Tuple[str, str], List[np.ndarray]] = {}


def cache_path(family: str, fn: str, directory: Path = CACHE_DIR) -> Path:
    return directory / f"{family}_{fn}.v{CACHE_VERSION}.npz"


def tables(family: str, fn: str, directory: Path = CACHE_DIR) -> List[np.ndarray]:
    """Per-level reference tables, built and cached on first use."""
    key = (family, fn)
    if key in _LOADED:
        return _LOADED[key]
    path = cache_path(family, fn, directory)
    fmts = FAMILIES[family]
    if path.exists():
        with np.load(path) as npz:
            levels = [npz[f"level{i}"] for i in range(len(fmts))]
    else:
        levels = [build_table(fmt, fn) for fmt in fmts]
        directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        with open(tmp, "wb") as f:
            np.savez_compressed(f, **{f"level{i}": t for i, t in enumerate(levels)})
        os.replace(tmp, path)
    _LOADED[key] = levels
    return levels


def ensure(pairs: Iterable[Tuple[str, str]], log=None) -> None:
    """Build every missing ``(family, fn)`` table."""
    for family, fn in pairs:
        if not cache_path(family, fn).exists() and log is not None:
            log(f"building mpmath reference for {family} {fn}")
        tables(family, fn)


def expected(family: str, fn: str, level: int, mode: str, bits: np.ndarray) -> np.ndarray:
    """Reference result bits for input ``bits`` (int64 array)."""
    table = tables(family, fn)[level]
    return table[np.asarray(bits, dtype=np.int64), MODES.index(mode)].astype(np.int64)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rebuild", action="store_true", help="rebuild every cached table")
    args = ap.parse_args(argv)
    for family, fn in ALL_PAIRS:
        path = cache_path(family, fn)
        if args.rebuild and path.exists():
            path.unlink()
        t0 = time.perf_counter()
        tables(family, fn)
        print(f"{path.name}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0


#: Everything the workloads check against.
ALL_PAIRS = [("mini", fn) for fn in FUNCTIONS] + [("tiny", "exp10")]

if __name__ == "__main__":
    sys.exit(main())
