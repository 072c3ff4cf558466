"""Exact rational parsing, formatting and dyadic log helpers.

All file formats write rationals as ``"p/q"`` strings so that output is
byte-deterministic across platforms.  Terminal output uses the compact
form (``3`` instead of ``3/1``).
"""
from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


class RationalFormatError(ValueError):
    pass


def parse_rational(text: str | int) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a plain int into an exact Fraction."""
    if isinstance(text, bool):
        raise RationalFormatError(f"expected rational string, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str) or not _RATIONAL.match(text.strip()):
        raise RationalFormatError(f"expected p/q form, got {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise RationalFormatError(f"zero denominator in {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Strict ``p/q`` form, denominator kept even when it is 1."""
    return f"{x.numerator}/{x.denominator}"


def exact_log2(x: Fraction) -> int | None:
    """Return k with x == 2**k, or None when x is not a power of two."""
    if x <= 0:
        return None
    n, d = x.numerator, x.denominator
    if n == 1:
        return -(d.bit_length() - 1) if d & (d - 1) == 0 else None
    if d == 1:
        return n.bit_length() - 1 if n & (n - 1) == 0 else None
    return None


def floor_log2(x: Fraction) -> int:
    """Largest k with 2**k <= x; x must be positive."""
    if x <= 0:
        raise ValueError("floor_log2 needs a positive argument")
    k = x.numerator.bit_length() - x.denominator.bit_length()
    # bit-length estimate can be off by one in either direction
    while Fraction(2) ** k > x:
        k -= 1
    while Fraction(2) ** (k + 1) <= x:
        k += 1
    return k
