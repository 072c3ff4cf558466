"""The window geometry of the construction in ``Fraction`` arithmetic.

These are the versions the library used before its kernel windows, seeds
and probes moved onto integer positions; they stay here as references for
``test_grid_reference``.  ``used`` is a set of values, the marks of the
atom table as Fractions.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

from dyadictop import Span, SymbolicSet
from dyadictop.cuts import place
from dyadictop.space import GeometricSequence, Interval, Space


def _pick_between(anchor: Fraction, limit: Fraction, used) -> Fraction:
    """A fresh value strictly between anchor and limit, halving towards anchor."""
    t = (anchor + limit) / 2
    while t in used:
        t = (anchor + t) / 2
    return t


def _interpolate_window(kernel: Space, core: SymbolicSet, hull: SymbolicSet,
                        used) -> SymbolicSet:
    """Regular open V with cl core ⊆ V ⊆ cl V ⊆ hull, fresh boundary values."""
    (c,) = core.spans
    (h,) = hull.spans
    lo, lo_in = c.lo, c.lo_in
    hi, hi_in = c.hi, c.hi_in
    if not lo_in:
        lo = _pick_between(h.lo, c.lo, used)
    if not hi_in:
        hi = _pick_between(h.hi, c.hi, used)
    return SymbolicSet(kernel, (Span(lo, lo_in, hi, hi_in),))


def _middle_third(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The ends of the open middle third of (lo, hi)."""
    third = (hi - lo) / 3
    return lo + third, hi - third


def dist_to_spans(x: Fraction, spans) -> Fraction | None:
    """Distance from x to the closure of a span union; None when empty."""
    if not spans:
        return None
    best = None
    for sp in spans:
        if sp.lo <= x <= sp.hi:
            return Fraction(0)
        d = min(abs(x - sp.lo), abs(x - sp.hi))
        best = d if best is None or d < best else best
    return best


def nearer_spans(x: Fraction, first, second) -> int | None:
    """0 or 1 for the span union whose closure is nearer x, ties going to
    the first; None when both are empty."""
    d0, d1 = dist_to_spans(x, first), dist_to_spans(x, second)
    if d0 is None:
        return None if d1 is None else 1
    return 0 if d1 is None or d0 <= d1 else 1


def sample_points(space: Space, count: int, rng: random.Random,
                  member_depth: int) -> list[Fraction]:
    """Deterministic pseudo-random points of the space, duplicates dropped."""
    prims = space.primitives
    out: list[Fraction] = []
    seen: set[Fraction] = set()
    if not prims:
        return out
    for _ in range(4 * count):
        if len(out) >= count:
            break
        p = prims[rng.randrange(len(prims))]
        if isinstance(p, Interval):
            x = p.lo + (p.hi - p.lo) * Fraction(rng.randint(0, 2 ** 20), 2 ** 20)
        elif isinstance(p, GeometricSequence):
            x = p.limit + p.offset * Fraction(1, 2 ** rng.randint(1, member_depth))
        else:
            x = p.value
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def extremes(table) -> list[tuple[int, Fraction, Fraction, bool]]:
    """(bit, first, last, limit) for each isolated point and each nonempty
    sequence run of a ``WordTable``, as values."""
    first = len(table.bounds) + 1
    out = [(b, p.value, p.value, False)
           for b, p in enumerate(table.space.isolated_points(), first)]
    for s, switches, n in zip(table.space.sequences(), table.switches, table.runs):
        starts = [1, *switches]
        member = (lambda k, s=s: s.limit + s.offset * Fraction(1, 2 ** k))
        out += [(n + r, member(a), member(e - 1), False)
                for r, (a, e) in enumerate(zip(starts, switches)) if a < e]
        out.append((n + len(switches), member(starts[-1]), s.limit, True))
    return out


def inner(table, lo: Fraction, hi: Fraction) -> int:
    """``WordTable.inner`` with the extremes as values: the interval runs
    from the first position past lo's up to hi's, found with two bisects,
    and each atom of ``extremes`` whose first and last values lie inside,
    a limit in the closed range."""
    bounds = table.bounds
    start = bisect_left(bounds, place(lo, table.den)[0] + 1) + 1
    stop = bisect_right(bounds, place(hi, table.den)[0])
    m = (1 << stop) - (1 << start) if start < stop else 0
    for bit, a, b, limit in extremes(table):
        if lo < a < hi and (lo <= b <= hi if limit else lo < b < hi):
            m |= 1 << bit
    return m
