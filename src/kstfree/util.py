"""Shared exact-arithmetic helpers and budget plumbing.

Everything here is deliberately boring: integer root floors, rational
formatting, and the exception type raised when an enumeration would blow
past a configured cap.  No floats leak into exact quantities; the decimal
formatter exists only for statistics blocks.
"""
from __future__ import annotations

from fractions import Fraction

DEFAULT_SUBSET_BUDGET = 100_000
DEFAULT_POINT_BUDGET = 3_000_000


class BudgetExceeded(RuntimeError):
    """An enumeration or search would exceed its configured budget."""


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, exactly."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    # bisection; bounds are cheap and overflow-free
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def floor_scaled_power(c: Fraction, q: int, num: int, den: int) -> int:
    """Exact floor(c * q**(num/den)) for c >= 0, q >= 1, den >= 1.

    With R = c.numerator**den * q**num, an integer x >= 0 is at most
    c * q**(num/den) iff (x * c.denominator)**den <= R, iff
    x * c.denominator <= iroot(R, den).
    """
    if c < 0 or q < 1 or den < 1 or num < 0:
        raise ValueError("floor_scaled_power out of domain")
    return iroot(c.numerator**den * q**num, den) // c.denominator


def frac_json(x) -> object:
    """Exact quantity -> JSON value: int stays int, Fraction becomes 'p/q'."""
    if isinstance(x, bool):
        raise TypeError("bool is not an exact quantity")
    if isinstance(x, int):
        return x
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_frac(s) -> Fraction:
    """Inverse of frac_json for strings and ints."""
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        if "e" in s.lower():
            # Fraction("1e100000000") would build a 10^8-digit integer
            raise ValueError("%r: exponent notation is not accepted" % (s,))
        try:
            return Fraction(s.replace(" ", ""))
        except ZeroDivisionError:
            raise ValueError("%r has a zero denominator" % (s,)) from None
    raise ValueError("expected int or 'p/q' string, got %r" % (s,))


def dec12(x: float) -> str:
    """Statistics-block decimal string with 12 digits after the point."""
    return "%.12f" % float(x)
