"""Exact rationals: reading them, enumerating them, and choosing them in a gap.

Three pieces of machinery, all exact:

* ``exact_rational``: the one reader that turns a raw value into a
  ``Fraction``.  It accepts a ``Fraction`` (returned as the same object),
  an ``int`` that is not a ``bool``, and a string ``Fraction`` parses with
  a nonzero denominator and no exponent (an exponent spells a huge integer
  in a few characters); everything else reads as ``None``, and each
  caller raises its own error.  ``as_probability`` reads a colour rate
  through it.
* ``nth_rational`` / ``rational_index``: the breadth-first walk of the
  Calkin-Wilf tree, whose root is 1/1 and where a/b has the left child
  a/(a+b) and the right child (a+b)/b: a bijection between positive
  integers and positive rationals.  Index 1 is 1/1; the left child of
  index i is 2i, the right child 2i+1.
* ``rational_between``: the simplest rational strictly inside an open
  interval, skipping a finite forbidden set.  Used wherever a fresh label
  has to be invented deterministically.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import Container, Optional

from .errors import ValidationError


def exact_rational(value: object) -> Optional[Fraction]:
    """A Fraction read from a Fraction (the same object), an int that is not
    a bool, or a string without an exponent that Fraction parses with a
    nonzero denominator; None for any other value."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if "e" in value or "E" in value:  # "1e100000000" spells a huge integer
            return None
    elif isinstance(value, bool) or not isinstance(value, int):
        return None
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):  # "a/b", "1/0"
        return None


def as_probability(p: object) -> Fraction:
    """Exact probability in (0, 1).  A finite float converts by its exact
    binary value (0.5 is exactly 1/2); prefer Fraction or strings elsewhere.

    Refused with ``prob/range``, all with one message: a ``bool``, NaN and
    the infinities, a string that is not a rational (``"abc"``, ``"1/0"``),
    any other type, and every rational outside (0, 1)."""
    if isinstance(p, float) and isfinite(p):
        p = Fraction(p)
    q = exact_rational(p)
    if q is None or not 0 < q < 1:
        raise ValidationError("prob/range", "probability must lie strictly between 0 and 1")
    return q


def nth_rational(i: int) -> Fraction:
    """Return the i-th positive rational (1-based) in Calkin-Wilf order."""
    if i < 1:
        raise ValueError("index must be >= 1")
    num, den = 1, 1
    # Binary digits of i below the leading bit: 0 = left child, 1 = right.
    for bit in bin(i)[3:]:
        if bit == "0":
            den += num
        else:
            num += den
    return Fraction(num, den)


def rational_index(q: Fraction) -> int:
    """Inverse of :func:`nth_rational`."""
    if q <= 0:
        raise ValueError("only positive rationals are enumerated")
    num, den = q.numerator, q.denominator
    bits = []
    while (num, den) != (1, 1):
        if num > den:
            bits.append("1")
            num -= den
        else:
            bits.append("0")
            den -= num
    i = 1
    for bit in reversed(bits):
        i = 2 * i + (1 if bit == "1" else 0)
    return i


def simplest_between(lo: Fraction, hi: Optional[Fraction]) -> Fraction:
    """Simplest positive rational q with lo < q < hi (hi=None meaning no
    upper bound): the first mediant of the Stern-Brocot walk from 0/1 .. 1/0
    that lands inside.  Each run of same-direction steps is taken at once by
    floor division, so the walk costs one step per continued-fraction term."""
    if hi is not None and (lo >= hi or hi <= 0):
        raise ValueError("empty interval")
    # No upper bound walks like hi = 1/0.  Every mediant is positive, so a
    # negative lo never moves the walk right.
    p, q = lo.numerator, lo.denominator
    s, t = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    ln, ld = 0, 1
    rn, rd = 1, 0
    while True:
        mn, md = ln + rn, ld + rd
        if mn * q <= p * md:
            # Right while the left end stays <= lo; rn/rd > lo keeps k >= 1.
            k = (p * ld - q * ln) // (q * rn - p * rd)
            ln, ld = ln + k * rn, ld + k * rd
        elif mn * t >= s * md:
            # Left while the right end stays >= hi; ln/ld < hi keeps k >= 1.
            k = (t * rn - s * rd) // (s * ld - t * ln)
            rn, rd = rn + k * ln, rd + k * ld
        else:
            return Fraction(mn, md)


def rational_between(
    lo: Fraction, hi: Optional[Fraction], forbidden: Container[Fraction] = ()
) -> Fraction:
    """A rational strictly inside (lo, hi) not in ``forbidden``.

    Deterministic: repeatedly takes the simplest rational in the remaining
    sub-interval above the last collision.  Terminates because the forbidden
    collection is finite and every retry strictly raises the lower bound.
    ``forbidden`` is only probed with ``in``, never copied.
    """
    cur_lo = lo
    while True:
        q = simplest_between(cur_lo, hi)
        if q not in forbidden:
            return q
        cur_lo = q
