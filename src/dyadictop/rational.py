"""Exact rational parsing, formatting and dyadic log helpers.

All file formats write rationals as ``"p/q"`` strings so that output is
byte-deterministic across platforms.  Terminal output uses the compact
form (``3`` instead of ``3/1``).
"""
from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


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
    return Fraction(*parse_ratio(text))


def parse_ratio(text: str) -> tuple[int, int]:
    """The integers (p, q) of a ``"p/q"`` or ``"p"`` string as written, not
    reduced; q is 1 when absent and never 0."""
    m = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise RationalFormatError(f"expected p/q form, got {text!r}")
    p, q = m.groups()
    q = int(q) if q else 1
    if not q:
        raise RationalFormatError(f"zero denominator in {text!r}")
    return int(p), q


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
