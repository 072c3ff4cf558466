"""Integer cut positions: the interval part of a set, over a denominator.

Over a denominator ``den`` a value v sits at the even position 2·v·den and
the open gap after it at the odd position 2·v·den + 1.  A set's interval
part is the increasing list of positions where its membership flips,
starting outside, so a cut p stands for the value (p >> 1) / den: an even
cut flips membership at the value itself, an odd one just after it.  A
span starting at an even cut has a closed lower end, one ending at an odd
cut a closed upper end, and a span is the range of positions [start, end).
Raw ranges, which may overlap, become cuts through ``union``; cut lists
combine through the two-cursor ``merge``.  The same lists, read as
indices, are the switch points of a tail rule.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction


def position(x: Fraction, den: int) -> int:
    """The position of x, which den must place."""
    return 2 * x.numerator * (den // x.denominator)


def place(x: Fraction, den: int) -> tuple[int, bool]:
    """(position of x, whether den places x): off the grid, x sits in the
    open gap that holds it."""
    q, r = divmod(x.numerator * den, x.denominator)
    return 2 * q + (r != 0), r == 0


def inside(cuts, p: int) -> bool:
    return bisect_right(cuts, p) % 2 == 1


def rescale(cuts, m: int):
    """The same cuts over den·m: a value's position scales by m and an open
    end stays one step past it."""
    if m == 1:
        return cuts
    m2 = 2 * m
    return [(p >> 1) * m2 + (p & 1) for p in cuts]


def reduced(den: int, cuts) -> tuple[int, tuple[int, ...]]:
    """The canonical (den, cuts): den divided by every common factor of
    itself and the cut values."""
    if not cuts:
        return 1, ()
    g = den
    for p in cuts:
        g = math.gcd(g, p >> 1)
        if g == 1:
            return den, tuple(cuts)
    return den // g, tuple((p >> 1) // g * 2 + (p & 1) for p in cuts)


def union(ranges) -> list[int]:
    """The cuts of a union of nonempty position ranges [start, end), which
    may overlap or touch: one sort and one pass, each range extending the
    last one when it starts at or before its end."""
    out: list[int] = []
    for a, e in sorted(ranges):
        if out and a <= out[-1]:
            if e > out[-1]:
                out[-1] = e
        else:
            out += (a, e)
    return out


# truth tables of the binary operations, indexed by 2·(in a) + (in b)
OR = (False, True, True, True)
AND = (False, False, False, True)
AND_NOT = (False, False, True, False)


def merge(a, b, table) -> list[int]:
    """Where ``table`` flips, from false, over two increasing cut lists.

    Two cursors walk the lists; an operand is inside when an odd number of
    its cuts lie at or before the current position, and the state indexes
    ``table`` as 2·(a inside) + (b inside).  While one cursor stays put,
    the other's cuts before it either all flip the result or none does, so
    the cursor jumps over that run with one bisect and copies it whole or
    not at all.
    """
    out = []
    i = j = state = 0
    na, nb = len(a), len(b)
    while i < na or j < nb:
        if j == nb or (i < na and a[i] < b[j]):
            k = na if j == nb else bisect_left(a, b[j], i + 1)
            if table[state] != table[state ^ 2]:
                out += a[i:k]
            state ^= 2 * ((k - i) & 1)
            i = k
        elif i == na or b[j] < a[i]:
            k = nb if i == na else bisect_left(b, a[i], j + 1)
            if table[state] != table[state ^ 1]:
                out += b[j:k]
            state ^= (k - j) & 1
            j = k
        else:
            if table[state] != table[state ^ 3]:
                out.append(a[i])
            state ^= 3
            i += 1
            j += 1
    return out


def common(den_a: int, a, den_b: int, b):
    """(den, a, b): two operands' cuts over one denominator, rescaled only
    when theirs differ."""
    if den_a == den_b:
        return den_a, a, b
    den = math.lcm(den_a, den_b)
    return den, rescale(a, den // den_a), rescale(b, den // den_b)


def combine(den_a: int, a, den_b: int, b, table) -> tuple[int, tuple[int, ...]]:
    """The canonical (den, cuts) of two operands' cuts combined by table."""
    den, a, b = common(den_a, a, den_b, b)
    return reduced(den, merge(a, b, table))
