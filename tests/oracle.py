"""Brute-force topology oracle, independent of the symbolic set algebra.

Decisions reduce to membership probes: between consecutive critical values
a set's interval part is constant, so one representative per gap settles
closure questions there, and membership at a few very deep sequence members
settles accumulation at a limit (tail selections are eventually constant,
and every generator in this suite keeps its tail data well below the probe
depth).  Nothing here touches closure/interior/regularization on the
symbolic side.
"""
from __future__ import annotations

import random
from fractions import Fraction

from dyadictop import Space, Span, SymbolicSet, TailRule, format_rational

KDEEP = 40


def critical_values(space: Space, sets) -> set[Fraction]:
    crit: set[Fraction] = set()
    for iv in space.intervals():
        crit |= {iv.lo, iv.hi}
    for p in space.isolated_points():
        crit.add(p.value)
    for seq in space.sequences():
        if space.contains(seq.limit):
            crit.add(seq.limit)
    for s in sets:
        for sp in s.spans:
            crit |= {sp.lo, sp.hi}
        crit |= set(s.points)
        for j, rule in enumerate(s.tails):
            seq = space.sequences()[j]
            ks = set(rule.exceptions)
            if rule.start is not None:
                ks.add(rule.start)
            crit |= {seq.member(k) for k in ks}
    return crit


def o_closure(space: Space, pred, crit, x: Fraction) -> bool:
    if pred(x):
        return True
    for iv in space.intervals():
        if iv.lo <= x <= iv.hi:
            vals = sorted(v for v in crit | {x, iv.lo, iv.hi}
                          if iv.lo <= v <= iv.hi)
            i = vals.index(x)
            if i > 0 and pred((vals[i - 1] + x) / 2):
                return True
            if i + 1 < len(vals) and pred((x + vals[i + 1]) / 2):
                return True
    for seq in space.sequences():
        if seq.limit == x:
            if all(pred(seq.member(k)) for k in range(KDEEP, KDEEP + 3)):
                return True
    return False


def o_interior(space: Space, pred, crit, x: Fraction) -> bool:
    return pred(x) and not o_closure(space, lambda y: not pred(y), crit, x)


def o_regularization(space: Space, pred, crit, x: Fraction) -> bool:
    pred_cl = lambda y: o_closure(space, pred, crit, y)
    return pred_cl(x) and not o_closure(
        space, lambda y: not pred_cl(y), crit, x)


def o_boundary(space: Space, pred, crit, x: Fraction) -> bool:
    return o_closure(space, pred, crit, x) and \
        o_closure(space, lambda y: not pred(y), crit, x)


def witnesses(space: Space, crit) -> list[Fraction]:
    """Critical values in the space, gap midpoints, members, limits."""
    out: set[Fraction] = set()
    for v in crit:
        if space.contains(v):
            out.add(v)
    for iv in space.intervals():
        vals = sorted(v for v in crit | {iv.lo, iv.hi} if iv.lo <= v <= iv.hi)
        out |= {(a + b) / 2 for a, b in zip(vals, vals[1:])}
    for seq in space.sequences():
        out |= {seq.member(k) for k in (1, 2, 3, 7, 11, KDEEP)}
        if space.contains(seq.limit):
            out.add(seq.limit)
    return sorted(out)


_GRID = 72  # denominator mixing powers of 2 and 3, collision rich


def random_set(space: Space, rng: random.Random) -> SymbolicSet:
    blocks = []
    for iv in space.intervals():
        for _ in range(rng.randint(0, 2)):
            a = iv.lo + (iv.hi - iv.lo) * Fraction(rng.randint(0, _GRID), _GRID)
            b = iv.lo + (iv.hi - iv.lo) * Fraction(rng.randint(0, _GRID), _GRID)
            if a > b:
                a, b = b, a
            if a < b:
                blocks.append((a, rng.random() < 0.5, b, rng.random() < 0.5))
    base = SymbolicSet.region(space, blocks)
    pts = frozenset(p.value for p in space.isolated_points()
                    if rng.random() < 0.5)
    tails = []
    for _ in space.sequences():
        roll = rng.random()
        if roll < 0.3:
            tails.append(TailRule())
        elif roll < 0.6:
            ks = rng.sample(range(1, 11), rng.randint(1, 4))
            tails.append(TailRule(exceptions=frozenset(ks)))
        else:
            start = rng.randint(1, 8)
            exc = frozenset(k for k in range(1, start) if rng.random() < 0.3)
            tails.append(TailRule(start=start, exceptions=exc))
    extra = SymbolicSet(space, (), pts, tuple(tails))
    return base.union(extra)


# -- spans, brute force ------------------------------------------------------

def o_spans(space: Space, lists, fn) -> tuple[Span, ...]:
    """Canonical spans of the pointwise combination ``fn`` of span lists.

    Probes every endpoint inside each ambient interval and the midpoint of
    every gap between consecutive ones, then glues the pieces that are in.
    """
    def inside(x):
        return fn(*[any(sp.contains(x) for sp in spans) for spans in lists])

    out = []
    for iv in space.intervals():
        vals = sorted({iv.lo, iv.hi} | {v for spans in lists for sp in spans
                                        for v in (sp.lo, sp.hi) if iv.lo <= v <= iv.hi})
        # pieces in order: (lo, lo_in, hi, hi_in, in the result)
        pieces = [(vals[0], True, vals[0], True, inside(vals[0]))]
        for a, b in zip(vals, vals[1:]):
            pieces.append((a, False, b, False, inside((a + b) / 2)))
            pieces.append((b, True, b, True, inside(b)))
        run = None
        for lo, lo_in, hi, hi_in, keep in pieces + [(None, None, None, None, False)]:
            if keep:
                run = [lo, lo_in, hi, hi_in] if run is None else run[:2] + [hi, hi_in]
            elif run is not None:
                out.append(Span(*run))
                run = None
    return tuple(out)


def raw_spans(space: Space, rng: random.Random) -> list[Span]:
    """Unsorted spans on a quarter grid that overlap, touch, degenerate and
    reach past and between the ambient intervals."""
    ivs = space.intervals()
    lo = min(iv.lo for iv in ivs) - 1
    hi = max(iv.hi for iv in ivs) + 1
    grid = [lo + Fraction(k, 4) for k in range(int((hi - lo) * 4) + 1)]
    out: list[Span] = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if out and roll < 0.2:  # touching the end of an earlier span
            prev = rng.choice(out)
            b = rng.choice([v for v in grid if v >= prev.hi])
            out.append(Span(prev.hi, rng.random() < 0.5, b, True) if b > prev.hi
                       else Span(b, True, b, True))
        elif out and roll < 0.3:  # a copy of an earlier span
            out.append(rng.choice(out))
        elif roll < 0.45:  # degenerate
            v = rng.choice(grid)
            out.append(Span(v, True, v, True))
        else:
            a, b = sorted(rng.sample(grid, 2))
            out.append(Span(a, rng.random() < 0.5, b, rng.random() < 0.5))
    return out


# -- resolution greedy, recomputed from scratch ------------------------------

def o_cell(sb, word: str) -> SymbolicSet:
    """S(word) as a plain chain of intersections, one per filled digit."""
    cell = SymbolicSet.whole(sb.space)
    for idx, ch in enumerate(word):
        if ch != "_":
            cell = cell.intersection(sb.pairs[idx][int(ch)])
    return cell


def o_resolution(sb, epsilon: Fraction, probes, limit: int) -> tuple[list, list]:
    """(counterexamples, witnesses) of the greedy resolution check.

    The forced word of each probe comes from membership in each side; its
    entries are then tried left to right, and one is dropped whenever the
    cell of the word without it still fits the ball.  Every cell is
    intersected again from the whole space.
    """
    counterexamples, witnesses = [], []
    width = len(sb.pairs)
    for x in probes:
        word = "".join(next((str(d) for d in (0, 1) if sb.pairs[i][d].membership(x)), "_")
                       for i in range(width))
        ball = SymbolicSet.ball(sb.space, x, epsilon)
        cell = o_cell(sb, word)
        if not cell.subset_of(ball):
            if len(counterexamples) < limit:
                stray = cell.difference(ball).sample_point()
                counterexamples.append({
                    "point": format_rational(x), "word": word,
                    "escapes_at": format_rational(stray) if stray is not None else None,
                })
            continue
        for idx in range(width):
            if word[idx] == "_":
                continue
            shorter = word[:idx] + "_" + word[idx + 1:]
            if o_cell(sb, shorter).subset_of(ball):
                word = shorter
        witnesses.append({"point": format_rational(x), "word": word})
    return counterexamples, witnesses
