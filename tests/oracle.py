"""Brute-force topology oracle, independent of the symbolic set algebra.

Decisions reduce to membership probes: between consecutive critical values
a set's interval part is constant, so one representative per gap settles
closure questions there, and membership at a few very deep sequence members
settles accumulation at a limit (tail selections are eventually constant,
and every generator in this suite keeps its tail data well below the probe
depth).  The probes never touch closure/interior/regularization on the
symbolic side.  The word-by-word references at the end (properness,
resolution, independence) do build cells with the symbolic intersections
and closures, which the probes test; what they stand in for is the checks'
own shortcuts: the properness check's pieces and walk over the atom masks,
the resolution check's suffix cell masks and inner ball masks, and the
independence walk's atom masks.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

from dyadictop import Space, SymbolicSet, TailRule, format_rational, kernel_set

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
        for sp in spans_of(s):
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
            tails.append(TailRule.of(None, ks))
        else:
            start = rng.randint(1, 8)
            exc = frozenset(k for k in range(1, start) if rng.random() < 0.3)
            tails.append(TailRule.of(start, exc))
    extra = SymbolicSet(space, pts, tuple(tails))
    return base.union(extra)


# -- tail rules, index by index ---------------------------------------------

def o_tail(bound: int, pred, infinite: bool) -> tuple[int | None, frozenset[int]]:
    """(start, exceptions) of the index set ``pred`` selects, which is
    constant beyond ``bound``: all k >= start, with start as low as it
    goes, plus the selected indices below it."""
    if not infinite:
        return None, frozenset(k for k in range(1, bound + 1) if pred(k))
    start = bound + 1
    while start > 1 and pred(start - 1):
        start -= 1
    return start, frozenset(k for k in range(1, start) if pred(k))


def o_selected(start: int | None, exceptions, k: int) -> bool:
    """Index k under "all k >= start" with each exception flipped."""
    return (start is not None and k >= start) != (k in exceptions)


def o_tail_binary(a, b, fn) -> tuple[int | None, frozenset[int]]:
    """(start, exceptions) of ``fn`` applied index by index to two
    (start, exceptions) rules."""
    bound = max([s or 1 for s, _ in (a, b)] + [e + 1 for _, exc in (a, b) for e in exc])
    return o_tail(bound, lambda k: fn(o_selected(*a, k), o_selected(*b, k)),
                  fn(a[0] is not None, b[0] is not None))


def random_tail(rng: random.Random, top: int) -> tuple[int | None, frozenset[int]]:
    """(start, exceptions) with start up to ``top``, exceptions on both sides
    of it and next to it, and runs of neighbouring indices."""
    start = rng.choice([None, rng.randint(1, top)])
    exc = set(rng.sample(range(1, top + 20), rng.randint(0, 5)))
    if start is not None and rng.random() < 0.5:
        exc |= {max(1, start + rng.randint(-2, 2))}
    for e in list(exc):
        if rng.random() < 0.3:
            exc.add(e + 1)
    return start, frozenset(exc)


# -- spans, brute force ------------------------------------------------------

class Span(namedtuple("Span", "lo lo_in hi hi_in")):
    """A span of the real line in Fractions, each end closed or open: the
    block shape ``SymbolicSet.region`` takes."""
    __slots__ = ()

    def contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi or (x == self.lo and self.lo_in) or \
            (x == self.hi and self.hi_in)

    def render(self) -> str:
        return (f"{'[' if self.lo_in else '('}{format_rational(self.lo)},"
                f"{format_rational(self.hi)}{']' if self.hi_in else ')'}")


def spans_of(s: SymbolicSet) -> tuple[Span, ...]:
    """The set's interval part as Spans, read off its cut pairs over its
    denominator: an even start is a closed lower end, an odd end a closed
    upper end."""
    return tuple(Span(Fraction(a >> 1, s.den), not a & 1, Fraction(e >> 1, s.den), bool(e & 1))
                 for a, e in s.spans)


def span_set(space: Space, spans, points=(), tails=()) -> SymbolicSet:
    """The union of the spans, which may overlap, clipped to the space's
    intervals, with the isolated ``points`` and the tail rules ``tails``."""
    clipped = SymbolicSet.region(space, spans).intersection(kernel_set(space))
    return clipped.union(SymbolicSet(space, points, tails))


def o_inside(lists, fn, x: Fraction) -> bool:
    """``fn`` of whether each span list holds x, span by span."""
    return fn(*[any(sp.contains(x) for sp in spans) for spans in lists])


def o_member(space: Space, lists, fn, x: Fraction) -> bool:
    """Membership of x in the interval part that ``fn`` makes of span lists."""
    return any(iv.lo <= x <= iv.hi for iv in space.intervals()) and o_inside(lists, fn, x)


def o_spans(space: Space, lists, fn) -> tuple[Span, ...]:
    """Canonical spans of the pointwise combination ``fn`` of span lists.

    Probes every endpoint inside each ambient interval and the midpoint of
    every gap between consecutive ones, then glues the pieces that are in.
    """
    def inside(x):
        return o_inside(lists, fn, x)

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


def raw_spans(space: Space, rng: random.Random, dens=(4,)) -> list[Span]:
    """Unsorted spans on a grid of 1/d steps for each d in ``dens`` (a
    quarter grid by default) that overlap, touch, degenerate and reach past
    and between the ambient intervals."""
    ivs = space.intervals()
    lo = min(iv.lo for iv in ivs) - 1
    hi = max(iv.hi for iv in ivs) + 1
    grid = sorted({lo + Fraction(k, d) for d in dens for k in range(int((hi - lo) * d) + 1)})
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


# -- properness, word by word ------------------------------------------------

def o_improper_depth(sb, depth: int) -> int | None:
    """The least d <= depth such that some word over the first d pairs has
    cl S(word) != S̄(word), or None when there is none.

    Brute force over the words, one more pair at a time.  Two words with
    the same S(word) and S̄(word) extend alike, so each such pair is kept
    once.
    """
    whole = SymbolicSet.whole(sb.space)
    cells = {(whole, whole)}
    for d in range(min(depth, len(sb.pairs))):
        sides = [(side, side.closure()) for side in sb.pairs[d]]
        new = {(s.intersection(side), sbar.intersection(cl))
               for s, sbar in cells for side, cl in sides}
        if any(s.closure() != sbar for s, sbar in new):
            return d + 1
        cells |= new
    return None


def o_proper(sb, depth: int, limit: int) -> dict:
    """The ``to_dict`` of the report ``check_proper`` gives: every word over
    the first min(depth, pairs) pairs in canonical order, S(word) and
    S̄(word) cut by each digit's side and its closure, once per shared
    prefix.  A word fails when cl S(word) != S̄(word), its witness the
    ``sample_point`` of the difference.  The first ``limit`` failing words
    are listed, and the walk stops at the next one."""
    eff = max(0, min(depth, len(sb.pairs)))
    sides = [[(side, side.closure()) for side in pair] for pair in sb.pairs[:eff]]

    def walk(idx, word, s, sbar):
        if idx == eff:
            yield word, s, sbar
            return
        yield from walk(idx + 1, word + "_", s, sbar)
        for digit, (side, cl) in enumerate(sides[idx]):
            yield from walk(idx + 1, word + str(digit),
                            s.intersection(side), sbar.intersection(cl))

    whole = SymbolicSet.whole(sb.space)
    counterexamples, checked = [], 0
    for word, s, sbar in walk(0, "", whole, whole):
        checked += 1
        cls = s.closure()
        if cls != sbar:
            if len(counterexamples) == limit:
                break
            witness = format_rational(sbar.difference(cls).sample_point())
            counterexamples.append({"word": word, "witness": witness})
    return {"property": "proper", "depth": eff, "passed": not counterexamples,
            "counterexamples": counterexamples,
            "stats": {"words_checked": checked, "depth_requested": depth}}


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


# -- independence, word by word ----------------------------------------------

def o_independent(sb, depth: int, limit: int) -> dict:
    """The ``to_dict`` of the report ``check_independent`` gives: every word
    over the first min(depth, pairs) pairs in canonical order, each cell
    intersected afresh by ``o_cell``.  The first ``limit`` words with an
    empty cell are listed, and the walk stops at the next one."""
    eff = max(0, min(depth, len(sb.pairs)))
    counterexamples, checked = [], 0
    for digits in itertools.product("_01", repeat=eff):
        checked += 1
        word = "".join(digits)
        if o_cell(sb, word).is_empty:
            if len(counterexamples) == limit:
                break
            counterexamples.append({"word": word})
    return {"property": "independent", "depth": eff, "passed": not counterexamples,
            "counterexamples": counterexamples,
            "stats": {"words_checked": checked, "depth_requested": depth}}


# -- the kernel stage, with every cell a set -----------------------------------

def chunk_set(space: Space, chunk) -> SymbolicSet:
    """The open interval (a/d, b/d) of a trace's chunk (d, a, b), as a set."""
    d, a, b = chunk
    return span_set(space, [Span(Fraction(a, d), False, Fraction(b, d), False)])


def _o_chunk(g: SymbolicSet) -> tuple[int, int, int]:
    """The chunk (d, a, b) of a one-span open set: d the lcm of its ends'
    denominators, which puts (a/d, b/d) in lowest terms."""
    (sp,) = spans_of(g)
    d = math.lcm(sp.lo.denominator, sp.hi.denominator)
    return d, int(sp.lo * d), int(sp.hi * d)


def _o_middle_third(cell: SymbolicSet, used, avoid: bool) -> SymbolicSet:
    """Open middle third of the cell's first span in ``spans`` order."""
    sp = spans_of(cell)[0]
    width = sp.hi - sp.lo
    g1, g2 = sp.lo + width / 3, sp.hi - width / 3
    if avoid:
        while g1 in used:
            g1 = (sp.lo + g1) / 2
        while g2 in used:
            g2 = (sp.hi + g2) / 2
    return span_set(cell.space, [Span(g1, False, g2, False)])


def _o_split(cells, s0, s1) -> dict:
    """The next level's cells: each cell cut by either side of the new pair."""
    return {w + d: cell.intersection(side)
            for w, cell in cells.items() for d, side in (("0", s0), ("1", s1))}


def _o_classify(cells, v, cl_v) -> tuple[tuple[str, ...], tuple[str, ...]]:
    a_words, b_words = [], []
    for w in sorted(cells):
        if cells[w].subset_of(v):
            a_words.append(w)
        elif cells[w].intersection(cl_v).is_empty:
            b_words.append(w)
    return tuple(a_words), tuple(b_words)


def _o_window_probes(core: SymbolicSet, values) -> list[Fraction]:
    (sp,) = spans_of(core)
    vals = sorted({sp.lo, sp.hi} | {v for v in values if sp.lo <= v <= sp.hi})
    mids = [(u + w) / 2 for u, w in zip(vals, vals[1:])]
    return [m for m in mids if core.membership(m)]


def o_kernel_stage(kernel, levels: int, seeds, match_dim: bool = False):
    """(pairs, traces) of ``build_independent_subbase`` on a nonempty perfect
    kernel with enough seeds, or the ``ConstructionError`` it raises, with
    each cell S(w) and each intersection of the closures of w's sides kept
    as a set and cut by the new pair's sides every level.

    Each level checks, in this order: the zero side regular open, the one
    side its exterior, each chunk's closure inside its cell and short of
    it, and then, word by word in canonical order, each new cell nonempty
    and its closure the intersection of its sides' closures.  A window
    probe's word comes from membership in each side, and its cell must lie
    in the hull.  Window marks are the boundary points of every zero side
    so far, as values.  Each chunk is a set here, and goes into the trace
    as the build keeps it, (d, a, b) for the interval (a/d, b/d).
    """
    import fraction_reference
    from dyadictop.construct import ConstructionError, StepTrace, _assemble

    whole = SymbolicSet.whole(kernel)
    used: set[Fraction] = set()
    pairs, traces = [], []
    cells = {"": whole}
    cl_cells = {"": whole}
    for n in range(levels):
        entry = seeds.entries[n]
        v = fraction_reference._interpolate_window(kernel, entry.core, entry.hull, used)
        cl_v = v.closure()
        a_words, b_words = _o_classify(cells, v, cl_v)
        g = {w: _o_middle_third(cells[w], used, match_dim) for w in a_words + b_words}
        g_a, g_b = SymbolicSet.empty(kernel), SymbolicSet.empty(kernel)
        for w in a_words:
            g_a = g_a.union(g[w])
        for w in b_words:
            g_b = g_b.union(g[w])
        s0, s1 = _assemble(whole, v, cl_v, g_a, g_b)
        trace = StepTrace(n, v, a_words, b_words,
                          tuple(sorted((w, _o_chunk(c)) for w, c in g.items())), s0, s1, entry)

        def fail(condition, **details):
            raise ConstructionError(condition, n, {**details, "trace": trace.to_dict()})

        if not s0.is_regular_open:
            fail("zero-side-not-regular-open")
        if s1 != s0.exterior():
            fail("exterior-identity")
        for w in a_words + b_words:
            cl_g = g[w].closure()
            if g[w].is_empty or not g[w].is_regular_open or not cl_g.subset_of(cells[w]) \
                    or cells[w].difference(cl_g).is_empty:
                fail("g-inside-cell", word=w)
        children = _o_split(cells, s0, s1)
        cl_children = _o_split(cl_cells, s0.closure(), s1.closure())
        for w, child in children.items():
            if child.is_empty:
                fail("cells-nonempty", word=w[:-1])
            if child.closure() != cl_children[w]:
                fail("closure-product-identity", word=w[:-1])
        used = used | set(s0.boundary().as_finite_points() or ())
        pairs.append((s0, s1))
        for x in _o_window_probes(entry.core, used):
            word = "".join("0" if a.membership(x) else "1" if b.membership(x) else "_"
                           for a, b in pairs)
            if word in children and not children[word].subset_of(entry.hull):
                fail("seed-window-containment", probe=format_rational(x))
        traces.append(trace)
        cells, cl_cells = children, cl_children
    return pairs, traces
