"""Inductive construction of independent and proper dyadic subbases.

The pipeline runs in three stages:

1. on the perfect kernel, one pair per level from a shrinking window seed
   (core inside hull); the new zero side is the interpolated window V with
   small open intervals, the chunks G(word), swapped between the cells
   that V swallows (class A) and the cells clear of cl V (class B);
2. each kernel pair is extended, as soon as it is made, to a half-clopen
   pair on the full space by pushing V through the half-clopen extension
   lemma into its seed's hull_star; off the kernel the zero side is V* and
   the one side the exterior of V*, since every chunk G's closure lies
   inside one kernel component, away from the scattered part;
3. the scattered part is finished off with clopen pairs.

Every level is validated exactly before the construction moves on, window
containment on the kernel in stage 1 and off it in stage 2, where the
restriction to the kernel pair and the half-clopen boundaries hold by
construction; there is no backtracking, a violated condition aborts with
the offending trace.

Stages 1 and 2 read each level's cells off ``WordTable.rows`` of the
kernel pairs made so far, a fresh table per level.  An atom's row has bit
2i + d set when side d of pair i holds it, and neither bit at a point of
pair i's boundary, so the 2^n cells are rows, not sets: a row with one
bit of each pair is a nonempty cell, and a kernel atom whose row lacks a
pair is a mark.  The classes, the chunks' runs, the cell checks and the
word of each window probe are read off the rows, and V, cl V, the hull
and the probes are placed among the table's bounds by binary search.  A
row becomes a ``01`` word only for the trace and for an error's witness.

The window geometry works on integer positions.  Seed windows are cuts
over the kernel's denominator times a power of two; V's fresh ends and
the window probes are values over a den that places the table and the
seed's core and hull, times a power of two.
A chunk is no set but three integers (d, a, b), the open interval
(a/d, b/d) in lowest terms.  A ``Fraction`` is made only for a
``ConstructionError`` witness, for a value written to JSON and for the
build's epsilon; the sample points of the checks are Fractions, each made
once from integers.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product

from .checks import (CheckReport, check_dyadic, check_independent, check_proper,
                     degree_report, resolution_check)
from .cuts import inside, place, position, reduced, rescale
from .lemmas import _assign_cluster, cluster_set, half_clopen_extension
from .rational import format_rational
from .sets import SymbolicSet, _literal, embed, kernel_set
from .space import GeometricSequence, Interval, Space, cb_kernel, scatter_clusters
from .subbase import DyadicSubbase, WordTable


class ConstructionError(ValueError):
    def __init__(self, condition: str, level: int, details: dict | None = None):
        self.condition = condition
        self.level = level
        self.details = details or {}
        super().__init__(f"construction failed at level {level}: {condition}")


# -- seeds ----------------------------------------------------------------

@dataclass(frozen=True)
class SeedEntry:
    core: SymbolicSet       # window interior, over the kernel description
    hull: SymbolicSet       # slightly fattened window, cl core inside
    hull_star: SymbolicSet  # open set of the full space tracing back to hull


@dataclass(frozen=True)
class SeedFamily:
    space: Space
    entries: tuple[SeedEntry, ...]

    def validate(self) -> list[str]:
        out = []
        kernelS = kernel_set(self.space)
        for n, e in enumerate(self.entries):
            if e.core.is_empty:
                out.append(f"seed {n}: core is empty")
                continue
            cl_core = e.core.closure()
            if e.core != cl_core.interior():
                out.append(f"seed {n}: core is not regular open in the kernel")
            if not e.hull.is_regular_open:
                out.append(f"seed {n}: hull is not regular open in the kernel")
            if not cl_core.subset_of(e.hull):
                out.append(f"seed {n}: hull does not swallow the closed core")
            if e.hull_star.space != self.space:
                out.append(f"seed {n}: hull_star lives in the wrong space")
                continue
            if not e.hull_star.is_open:
                out.append(f"seed {n}: hull_star is not open")
            if e.hull_star.intersection(kernelS) != embed(e.hull, self.space):
                out.append(f"seed {n}: hull_star does not trace back to hull")
        return out

    @cached_property
    def _cover_table(self) -> tuple:
        """(den, rows): per entry with a nonempty core, its core's cuts
        and the numerators of its hull_star's closure bounds, all over one
        denominator den.  A core lives on the kernel, which has intervals
        only, so its cuts are the whole of it."""
        live = [(e.core, e.hull_star.closure_bounds()) for e in self.entries if e.core.cuts]
        den = math.lcm(*(c.den for c, _ in live), *(x.denominator for _, b in live for x in b))
        return den, tuple((rescale(c.cuts, den // c.den),
                           lo.numerator * (den // lo.denominator),
                           hi.numerator * (den // hi.denominator))
                          for c, (lo, hi) in live)

    def cover_radius(self, x: Fraction) -> tuple[int, int] | None:
        """(r, d) for the radius r / d of the tightest hull_star among
        windows whose core holds x, or None when no core does: integers
        over the table's denominator times x's."""
        den, rows = self._cover_table
        d = x.denominator
        xs = x.numerator * den  # x over den·d
        p = place(x, den)[0]
        best = None
        for cuts, lo, hi in rows:
            if inside(cuts, p):
                r = max(xs - lo * d, hi * d - xs)
                if best is None or r < best:
                    best = r
        return None if best is None else (best, den * d)


def auto_seeds(space: Space, levels: int, match_dim: bool = False) -> SeedFamily:
    """Breadth-first dyadic windows over the kernel components.

    Window n gets margin 2**-(n+3) of its component's length, clipped to
    the component; the full-space hull absorbs a scattered cluster when the
    cluster anchors inside the hull (forced, openness at the limit) or sits
    no farther from the hull than from the rest of the kernel.  In
    ``match_dim`` mode a lone window on two or more components is half a
    component, since a whole component's pair has no boundary (degree 0).

    Every window end and margin is an integer value over the kernel's den
    times 2**(levels + 2), so core and hull are made straight from their
    cuts, closed at a component's end and open elsewhere.
    """
    kernel = cb_kernel(space).kernel
    comps = kernel.intervals()
    entries: list[SeedEntry] = []
    if comps and levels > 0:
        shift = levels + 2
        den = kernel._grid[0] << shift
        ends = [(position(c.lo, den) >> 1, position(c.hi, den) >> 1) for c in comps]
        windows = []
        j = 1 if match_dim and levels == 1 and len(comps) > 1 else 0
        while len(windows) < levels:
            for lo, hi in ends:
                step = (hi - lo) >> j
                windows += [(lo, hi, lo + step * i, lo + step * (i + 1)) for i in range(2 ** j)]
            j += 1

        def window(lo, hi, a, b):
            cuts = (2 * a + (a != lo), 2 * b + (b == hi))
            return SymbolicSet._canonical(kernel, *reduced(den, cuts), frozenset(), ())

        clusters = scatter_clusters(space)
        for n, (lo, hi, a, b) in enumerate(windows[:levels]):
            margin = (hi - lo) >> (n + 3)
            core = window(lo, hi, a, b)
            hull = window(lo, hi, max(a - margin, lo), min(b + margin, hi))
            hull_star = embed(hull, space)
            if clusters:
                rest = kernel_set(space).difference(hull_star)
                for cluster in clusters:
                    if _assign_cluster(cluster, hull, rest) == 0:
                        hull_star = hull_star.union(cluster_set(space, cluster))
            entries.append(SeedEntry(core, hull, hull_star))
    family = SeedFamily(space, tuple(entries))
    bad = family.validate()
    if bad:
        raise ConstructionError("seed-family-invalid", -1, {"violations": bad})
    return family


# -- step traces ----------------------------------------------------------

@dataclass(frozen=True)
class StepTrace:
    level: int
    v: SymbolicSet
    a_words: tuple[str, ...]
    b_words: tuple[str, ...]
    g: tuple[tuple[str, tuple[int, int, int]], ...]  # (word, chunk (d, a, b))
    s0: SymbolicSet
    s1: SymbolicSet
    seed: SeedEntry  # the window the level was built from
    v_star: SymbolicSet | None = None
    s0_star: SymbolicSet | None = None
    s1_star: SymbolicSet | None = None

    def to_dict(self) -> dict:
        g = {}
        for w, (den, a, b) in self.g:
            x, y = math.gcd(a, den), math.gcd(b, den)
            g[w] = {"intervals": [_literal(a // x, den // x, False, b // y, den // y, False)]}
        d = {
            "level": self.level,
            "v": self.v.to_dict(),
            "a": list(self.a_words),
            "b": list(self.b_words),
            "g": g,
            "pair": {"zero": self.s0.to_dict(), "one": self.s1.to_dict()},
        }
        if self.v_star is not None:
            d["v_star"] = self.v_star.to_dict()
            # each starred chunk is its kernel chunk, embedded as it stands
            d["g_star"] = g
            d["pair_star"] = {"zero": self.s0_star.to_dict(),
                              "one": self.s1_star.to_dict()}
        return d


# -- the cells of a level ------------------------------------------------

def _word(row: int, n: int) -> str:
    """The word of a row with one of the two bits of each of n pairs:
    digit i is 1 when bit 2i + 1 is set."""
    return format(row, f"0{2 * n}b")[-2::-2]


def _cells(table: WordTable, n: int) -> tuple[dict[int, int], list[int]]:
    """(full, marks) on the word table of the kernel's first n pairs.
    ``full`` maps the row of each nonempty cell, one bit of each pair, to
    its first atom in ``intervals()`` order; ``marks`` lists in order the
    kernel's atoms whose rows lack both bits of a pair, each a point on
    that pair's boundary.  Off the kernel a row is 0, as at a boundary
    point or as every row before the first pair, so only the atoms of the
    kernel's intervals are read."""
    rows, bounds, den = table.rows, table.bounds, table.den
    spans = [(bisect_right(bounds, position(iv.lo, den)),
              bisect_right(bounds, position(iv.hi, den) + 1)) for iv in table.space.intervals()]
    full = {}
    for i, j in reversed(spans):
        full.update(zip(reversed(rows[i:j]), range(j - 1, i - 1, -1)))
    every = (4 ** n - 1) // 3  # the zero bit of each pair
    lack = {w for w in full if every & ~(w | w >> 1)}
    marks = sorted(chain.from_iterable(compress(range(i, j), map(lack.__contains__, rows[i:j]))
                                       for i, j in spans))
    for w in lack:
        del full[w]
    return full, marks


def _atom(table: WordTable, p: int, den: int) -> tuple[int, bool]:
    """(r, starts): the table's atom r holds position p over den, and
    starts tells whether its range starts at p.  p's value is placed on
    the table's grid, in the gap that holds it when the grid misses it."""
    q, rem = divmod((p >> 1) * table.den, den)
    c = 2 * q + (rem != 0 or p & 1)
    r = bisect_right(table.bounds, c)
    return r, not rem and table.bounds[r - 1] == c


def _span(table: WordTable, s: SymbolicSet) -> tuple[int, int, int, int]:
    """(i, j, k, l) for a set of one span: the table's atoms i to j - 1
    lie inside it, and atoms k to l - 1 meet it."""
    lo, hi = s.cuts
    (a, at_a), (b, at_b) = _atom(table, lo, s.den), _atom(table, hi, s.den)
    return a + (not at_a), b, a, b + (not at_b)


# -- windows and chunks --------------------------------------------------

def _pick_between(anchor: int, limit: int, marks) -> tuple[int, int]:
    """(t, d) for a fresh value t / (den·d) strictly between anchor and
    limit, values over a den that places them: their midpoint, moved
    towards anchor, halving the distance, until its position over den is
    none of ``marks``."""
    anchor, t, d = 2 * anchor, anchor + limit, 2
    while not t % d and t // d * 2 in marks:
        anchor, t, d = 2 * anchor, anchor + t, 2 * d
    return t, d


def _interpolate_window(kernel: Space, core: SymbolicSet, hull: SymbolicSet,
                        grid) -> SymbolicSet:
    """Regular open V with cl core ⊆ V ⊆ cl V ⊆ hull, fresh boundary
    values: each open end of the core moves to a value off the marks
    between it and the hull's end.  ``grid`` is (den, marks): den places
    core and hull, one span each, and marks holds the marks' positions
    over den.  An end (t, d, bit) is the value t / (den·d), d a power of
    two, and the bit its cut's parity."""
    den, marks = grid
    c0, c1 = rescale(core.cuts, den // core.den)
    h0, h1 = rescale(hull.cuts, den // hull.den)
    lo = (c0 >> 1, 1, 0) if not c0 & 1 else (*_pick_between(h0 >> 1, c0 >> 1, marks), 1)
    hi = (c1 >> 1, 1, 1) if c1 & 1 else (*_pick_between(h1 >> 1, c1 >> 1, marks), 0)
    m = max(lo[1], hi[1])
    cuts = tuple(2 * t * (m // d) + bit for t, d, bit in (lo, hi))
    return SymbolicSet._canonical(kernel, *reduced(den * m, cuts), frozenset(), ())


def _middle_third(lo: int, hi: int, den: int) -> tuple[int, int, int]:
    """The chunk (d, a, b) of the open middle third of (lo, hi), values
    over den of a range inside the kernel: the interval (a/d, b/d) in
    lowest terms."""
    d, a, b = 3 * den, 2 * lo + hi, lo + 2 * hi
    g = math.gcd(d, a, b)
    return d // g, a // g, b // g


def _probes(table: WordTable, marks, core: SymbolicSet) -> list[tuple[int, int, int]]:
    """(t, d, row) for each probe of a window core: its value t / d and
    its atom's row in the table.  The probes are the midpoints between
    consecutive marks inside the core, its ends counted as marks.  With
    its ends at the even positions u and w over a den that places the core
    and the table, a probe sits at position (u + w) / 2."""
    den = math.lcm(table.den, core.den)
    lo, hi = ((c >> 1) * 2 * (den // core.den) for c in core.cuts)
    (a, _), (b, _) = _atom(table, lo, den), _atom(table, hi, den)
    m = den // table.den
    inner = marks[bisect_right(marks, a):bisect_left(marks, b)]
    ends = [lo, *(table.bounds[r - 1] * m for r in inner), hi]
    return [(u + w, 4 * den, table.rows[_atom(table, (u + w) >> 1, den)[0]])
            for u, w in zip(ends, ends[1:])]


def _check_window(probes, trace, escapes, condition) -> None:
    """Raise ``condition`` at the first probe of the trace's window core
    whose row is one of ``escapes``, the rows of the cells that leave the
    hull; a probe's value is made only for the witness."""
    for t, d, row in probes:
        if row in escapes:
            raise ConstructionError(condition, trace.level,
                                    {"probe": format_rational(Fraction(t, d)),
                                     "trace": trace.to_dict()})


# -- kernel stage ---------------------------------------------------------

def _union(kernel: Space, chunks) -> SymbolicSet:
    """The union of disjoint chunks (d, a, b) inside the kernel: their cuts
    2a + 1 and 2b over the lcm of the d, in one sort."""
    chunks = list(chunks)
    den = math.lcm(1, *(d for d, _, _ in chunks))
    cuts = sorted(c for d, a, b in chunks for c in (2 * den // d * a + 1, 2 * den // d * b))
    return SymbolicSet._canonical(kernel, *reduced(den, cuts), frozenset(), ())


def _assemble(whole, v, cl_v, g_a, g_b) -> tuple[SymbolicSet, SymbolicSet]:
    """The pair: V and the exterior of V, with the union G_A of class A's
    chunks swapped out of V and the union G_B of class B's chunks in."""
    return (v.difference(g_a.closure()).union(g_b),
            whole.difference(cl_v).difference(g_b.closure()).union(g_a))


def _classify(table: WordTable, full, v, cl_v) -> tuple[set[int], set[int]]:
    """Rows of the cells inside V (class A: no atom of the kernel outside
    V's) and of those clear of cl V (class B: no atom among cl V's).  An
    atom off the kernel has row 0, the row of the one cell before the
    first pair, so only the kernel's atoms, between its edges, count
    against class A."""
    rows, bounds = table.rows, table.bounds
    i, j, _, _ = _span(table, v)
    _, _, k, l = _span(table, cl_v)
    edges = [bisect_right(bounds, e) for e in table.edges]
    outside = set()
    for a, e in zip(edges[::2], edges[1::2]):  # the kernel's atoms a to e - 1
        outside.update(rows[a:min(e, i)], rows[max(a, j):e])
    return full.keys() & set(rows[i:j]) - outside, full.keys() - set(rows[k:l])


def _entries(seeds: SeedFamily, levels: int) -> tuple[SeedEntry, ...]:
    """The seed entries of the first ``levels`` levels."""
    if len(seeds.entries) < levels:
        raise ConstructionError("not-enough-seeds", -1,
                                {"have": len(seeds.entries), "need": levels})
    return seeds.entries[:levels]


def _kernel_level(table: WordTable, full, marks, whole, n: int,
                  entry: SeedEntry) -> StepTrace:
    """Pair n on the kernel from the seed entry and the cells of the table
    of the pairs before it, with each chunk checked against its run."""
    kernel = table.space
    if len(entry.core.cuts) != 2 or len(entry.hull.cuts) != 2:
        raise ConstructionError("seed-window-not-one-span", n,
                                {"window": {"core": entry.core.to_dict(),
                                            "hull": entry.hull.to_dict()}})
    den, bounds = math.lcm(table.den, entry.core.den, entry.hull.den), table.bounds
    m = den // table.den
    v = _interpolate_window(kernel, entry.core, entry.hull,
                            (den, {bounds[r - 1] * m for r in marks}))
    cl_v = v.closure()
    a_rows, b_rows = _classify(table, full, v, cl_v)
    words = {w: _word(w, n) for w in a_rows | b_rows}
    runs = {words[w]: (bounds[full[w] - 1] >> 1, bounds[full[w]] >> 1) for w in words}
    a_words, b_words = (tuple(sorted(words[w] for w in c)) for c in (a_rows, b_rows))
    g = {w: _middle_third(*runs[w], table.den) for w in runs}
    s0, s1 = _assemble(whole, v, cl_v, _union(kernel, (g[w] for w in a_words)),
                       _union(kernel, (g[w] for w in b_words)))
    trace = StepTrace(n, v, a_words, b_words, tuple(sorted(g.items())), s0, s1, entry)
    _validate_pair(trace, runs)
    return trace


def _kernel_levels(kernel: Space, entries):
    """Yield, level by level, the validated trace of each pair on the
    kernel and the probes of its window core.  Each level reads its cells
    off a fresh table of the pairs before it, and is checked on the table
    with its own pair added, which places the probes."""
    whole, pairs = SymbolicSet.whole(kernel), ()
    table = DyadicSubbase(kernel, pairs).word_table
    full, marks = _cells(table, 0)
    for n, entry in enumerate(entries):
        trace = _kernel_level(table, full, marks, whole, n, entry)
        pairs += ((trace.s0, trace.s1),)
        table = DyadicSubbase(kernel, pairs).word_table
        full, marks = _cells(table, n + 1)
        _validate_cells(table, full, marks, trace)
        probes = _probes(table, marks, entry.core)
        i, j, _, _ = _span(table, entry.hull)
        _check_window(probes, trace, full.keys() & {*table.rows[:i], *table.rows[j:]},
                      "seed-window-containment")
        yield trace, probes


def build_independent_subbase(kernel: Space, levels: int,
                              seeds: SeedFamily | None = None,
                              match_dim: bool = False):
    """Pairs on a nonempty perfect space, one per level.

    Each level reads its cells off the word table of the pairs made so far
    (``_kernel_levels``).  Validated at every level: the one side is the
    exterior of the zero side, each chunk lies inside its cell, every full
    cell is nonempty, closures distribute over every full cell, and window
    cores resolve into their hulls.  Returns the subbase together with the
    per-level traces.
    """
    if any(not isinstance(p, Interval) for p in kernel.primitives):
        raise ConstructionError("kernel-not-perfect", -1)
    if levels == 0:
        return DyadicSubbase(kernel, ()), []
    if not kernel.intervals():
        raise ConstructionError("kernel-empty", -1)
    if seeds is None:
        seeds = auto_seeds(kernel, levels, match_dim)
    traces = [t for t, _ in _kernel_levels(kernel, _entries(seeds, levels))]
    return DyadicSubbase(kernel, tuple((t.s0, t.s1) for t in traces)), traces


def _validate_pair(trace, runs) -> None:
    """The new pair is a dyadic pair, and each chunk's closure lies inside
    the run (lo, hi) of its cell's atoms it was cut from.  A chunk is the
    middle third of its run, whose closure lies strictly inside the run
    exactly when lo < hi."""
    n = trace.level
    cl = trace.s0.closure()
    if trace.s0 != cl.interior():
        raise ConstructionError("zero-side-not-regular-open", n,
                                {"trace": trace.to_dict()})
    if trace.s1 != cl.complement():
        raise ConstructionError("exterior-identity", n, {"trace": trace.to_dict()})
    for w in trace.a_words + trace.b_words:
        lo, hi = runs[w]
        if lo >= hi:
            raise ConstructionError("g-inside-cell", n,
                                    {"word": w, "trace": trace.to_dict()})


def _validate_cells(table: WordTable, full, marks, trace) -> None:
    """Every new cell is nonempty, and cl S(w) is the intersection of the
    closures of w's sides for every new word w, reported at the first word
    in canonical order that fails either.

    The previous level holds the identity for the shorter words, and the
    new sides are open, so it can fail only at a boundary point x of the
    new pair, a mark whose row lacks both of the pair's bits.  The sides
    are regular open, so the atoms either side of x, both on the kernel,
    hold every side that meets x's pieces, and their rows are full.  A
    word fails at x exactly when each of its digits is one of theirs there
    and it is neither; one exists when the two differ before the last
    digit.  Words are made only for a failure.
    """
    n, rows = trace.level, table.rows
    bad = []
    if len(full) < 2 ** (n + 1):
        words = {_word(w, n + 1) for w in full}
        bad.append(next(w for w in map("".join, product("01", repeat=n + 1))
                        if w not in words))
    before = (1 << 2 * n) - 1  # the bits of the earlier pairs
    for r in marks:
        left, right = rows[r - 1], rows[r + 1]
        if not rows[r] >> 2 * n & 3 and left in full and right in full and (left ^ right) & before:
            left, right = _word(left, n + 1), _word(right, n + 1)
            choices = [sorted({a, b}) for a, b in zip(left, right)]
            bad.append(next(w for w in map("".join, product(*choices))
                            if w not in (left, right)))
    if bad:
        w = min(bad)
        raise ConstructionError(
            "closure-product-identity" if w in {_word(r, n + 1) for r in full}
            else "cells-nonempty", n, {"word": w[:-1], "trace": trace.to_dict()})


# -- starred stage --------------------------------------------------------

def extend_to_proper(space: Space, levels: int, seeds: SeedFamily):
    """Kernel pairs and the half-clopen pairs on the full space restricting to them.

    Each level makes pair n off the word table of the kernel pairs before
    it, as ``build_independent_subbase`` does, then lifts its window V
    through the half-clopen extension lemma into the seed's hull_star and
    forms ``s0* = s0 ∪ (V* ∩ S)`` and ``s1* = s1 ∪ (S − cl V*)``, S the
    scattered part.  No chunk reaches S, since each chunk's closure lies inside one
    kernel component, and on the kernel K, V* is V (the lemma raises
    otherwise).  After the kernel pair's checks, each level checks that the
    seed's hull lies on K and inside its hull_star, which lies on the full
    space; that the starred one side is the exterior of the starred zero
    side; and that window cores resolve into hull_stars off K.  Not
    checked, as both hold by construction: the sides restrict to s0 and
    s1, since S misses K; and they are half-clopen, since the lemma raises
    unless V* is open with ∂V* ⊆ K, so (K closed) each point of V* ∩ S or
    S − cl V* is interior to its side.  A window probe lies on K, where its
    starred word is its row in the table of the pairs through n; only the
    nonempty scattered parts of the starred cells are built as sets, keyed
    by the same rows.

    Nor is cl V* ∩ K = cl V checked: the exterior check covers it.  Take x
    in K ∩ cl V* − cl V.  As V* ∩ K = V, x lies in cl(V* ∩ S) ⊆ cl s0*, so
    x is a limit of points of S, not interior to a component of K.  Each
    chunk's closure lies strictly inside its run, inside one component, so
    x is not in cl G_B, and x lies in s1 ⊆ s1*: s1* is not X − cl s0*.

    Returns the kernel subbase, the starred subbase and the starred traces.
    """
    kernel = cb_kernel(space).kernel
    if not kernel.intervals():
        raise ConstructionError("kernel-empty", -1)

    scattered = SymbolicSet.whole(space).difference(kernel_set(space))
    cells: dict[int, SymbolicSet] = {0: scattered}  # the starred cells' scattered parts, by row
    traces: list[StepTrace] = []

    for tr, probes in _kernel_levels(kernel, _entries(seeds, levels)):
        n, entry = tr.level, tr.seed
        if entry.hull.space != kernel or entry.hull_star.space != space \
                or not embed(entry.hull, space).subset_of(entry.hull_star):
            raise ConstructionError("trace-seed-mismatch", n)
        v_star = half_clopen_extension(space, tr.v, entry.hull_star)
        inside, outside = v_star.intersection(scattered), scattered.difference(v_star.closure())
        s0s, s1s = embed(tr.s0, space).union(inside), embed(tr.s1, space).union(outside)

        tr = replace(tr, v_star=v_star, s0_star=s0s, s1_star=s1s)
        cl = s0s.closure()
        if s0s != cl.interior() or s1s != cl.complement():
            raise ConstructionError("starred-exterior-identity", n,
                                    {"trace": tr.to_dict()})
        cells = {w | 1 << 2 * n + d: c for w, cell in cells.items()
                 for d, side in enumerate((inside, outside))
                 if not (c := cell.intersection(side)).is_empty}
        _check_window(probes, tr,
                      {w for w, c in cells.items() if not c.subset_of(entry.hull_star)},
                      "starred-window-containment")
        traces.append(tr)
    return (DyadicSubbase(kernel, tuple((t.s0, t.s1) for t in traces)),
            DyadicSubbase(space, tuple((t.s0_star, t.s1_star) for t in traces)), traces)


# -- scattered stage ------------------------------------------------------

def scattered_clopen_base(space: Space, tail_depth: int) -> list[SymbolicSet]:
    """Clopen sets separating the scattered part down to the given depth.

    Member and free-point singletons, limit-plus-tail sets around scattered
    limits, and plain tails of sequences whose limit is outside the space.
    Sequences converging into the kernel get singletons only: their tails
    pick up the limit under closure, so no tail of theirs is clopen.
    """
    clusters = scatter_clusters(space)
    sets: list[SymbolicSet] = []
    for c in sorted((c for c in clusters if c.kind == "free"),
                    key=lambda c: c.anchor):
        sets.append(SymbolicSet.singleton(space, c.anchor))
    # a member that is the limit of another sequence is not open; the sets
    # of the cluster it anchors separate it instead
    anchors = {atom for c in clusters for atom in c.member_atoms}
    for j, s in enumerate(space.sequences()):
        for k in range(1, tail_depth + 1):
            if (j, k) not in anchors:
                sets.append(SymbolicSet.singleton(space, s.member(k)))
    # a scattered limit belongs to the space and takes all of its tails
    # along; an outside limit does not, so each of its tails is cut alone
    parts = sorted((c for c in clusters if c.kind == "scattered"),
                   key=lambda c: c.anchor)
    parts += [replace(c, tails=(t,)) for c in clusters if c.kind == "outside"
              for t in sorted(c.tails)]
    for c in parts:
        for depth in range(1, tail_depth + 1):
            sets.append(cluster_set(space, c, from_index=depth))
    out = list(dict.fromkeys(sets))
    for h in out:
        if not h.boundary().is_empty:
            raise ConstructionError("clopen-base-not-clopen", -1,
                                    {"set": h.to_dict()})
    return out


# -- orchestration --------------------------------------------------------

PROBE_COUNT = 12       # sample points of the degree and resolution checks
INDEPENDENT_DEPTH = 4  # word depth of the independence check on the kernel


@dataclass(frozen=True)
class BuildResult:
    space: Space
    subbase: DyadicSubbase
    kernel_subbase: DyadicSubbase
    traces: tuple[StepTrace, ...]
    seeds: SeedFamily
    clopen_count: int
    reports: tuple[CheckReport, ...]
    epsilon: Fraction
    degree_mode: str
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self, include_traces: bool = False) -> dict:
        d = self.subbase.to_dict()
        d["degree_mode"] = self.degree_mode
        d["kernel_levels"] = len(self.kernel_subbase)
        d["clopen_count"] = self.clopen_count
        d["epsilon"] = format_rational(self.epsilon)
        d["seed"] = self.seed
        d["checks"] = [r.to_dict() for r in self.reports]
        if include_traces:
            d["traces"] = [t.to_dict() for t in self.traces]
        return d


def sample_points(space: Space, count: int, rng: random.Random,
                  member_depth: int) -> list[Fraction]:
    """Deterministic pseudo-random points of the space, duplicates dropped.
    An interval point lo + (hi - lo)·r/2**20 is one Fraction made from
    integers, and duplicates are told apart by numerator and denominator."""
    prims = space.primitives
    out: list[Fraction] = []
    seen: set[tuple[int, int]] = set()
    if not prims:
        return out
    for _ in range(4 * count):
        if len(out) >= count:
            break
        p = prims[rng.randrange(len(prims))]
        if isinstance(p, Interval):
            a, b, c, d = p.lo.numerator, p.lo.denominator, p.hi.numerator, p.hi.denominator
            r = rng.randint(0, 2 ** 20)
            x = Fraction((a * d << 20) + (c * b - a * d) * r, b * d << 20)
        elif isinstance(p, GeometricSequence):
            x = p.member(rng.randint(1, member_depth))
        else:
            x = p.value
        key = x.numerator, x.denominator
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


def _larger(r: tuple[int, int], s: tuple[int, int]) -> tuple[int, int]:
    """The larger of two ratios (numerator, positive denominator)."""
    return s if s[0] * r[1] > r[0] * s[1] else r


def _default_epsilon(space: Space, seeds: SeedFamily, kernel_probes,
                     tail_depth: int) -> Fraction:
    """The resolution the build actually achieves, with a little headroom:
    the largest cover radius of the probes, the diameter of the space for a
    probe no core holds, plus the largest sequence offset over
    2**tail_depth, times 17/16.  Ratios are compared as integer pairs, and
    the one Fraction made is the result."""
    base = (0, 1)
    for x in kernel_probes:
        r = seeds.cover_radius(x)
        if r is None:
            bounds = SymbolicSet.whole(space).closure_bounds()
            diam = bounds[1] - bounds[0]
            r = diam.numerator, diam.denominator
        base = _larger(base, r)
    residue = (0, 1)
    for s in space.sequences():
        residue = _larger(residue, (abs(s.offset.numerator), s.offset.denominator << tail_depth))
    (b, bd), (r, rd) = base, residue
    num = b * rd + r * bd
    return Fraction(17 * num, 16 * bd * rd) if num > 0 else Fraction(1)


def build_proper_subbase(space: Space, levels: int,
                         degree_mode: str = "unconstrained", depth: int = 6,
                         epsilon: Fraction | None = None,
                         probe_seed: int = 0) -> BuildResult:
    """Full pipeline: kernel stage, starred stage, clopen stage, checks.

    The clopen stage separates sequence members up to index ``levels + 2``.
    The report bundle always runs the dyadic and properness checks on the
    assembled subbase, independence to depth ``INDEPENDENT_DEPTH`` on the
    kernel part, the degree survey on ``PROBE_COUNT`` sample points, and
    the resolution probe at ``epsilon`` (achieved resolution when not
    given).  ``match_dim`` mode differs only in its seeds: a lone window
    on two or more components is half a component.  It expects degree sup
    1 on a space with a kernel, which only a window pair's boundary gives,
    so it refuses such a space at ``levels`` 0.  In either mode V's
    fresh ends are moved off the marks, the points of earlier boundaries,
    and no chunk end is one: each chunk is the middle third of its cell's
    first atom in the word table of the pairs before it, which holds no
    mark, since a mark's row lacks both bits of a pair and so belongs to
    no cell.  The traces hold each
    chunk as (word, (d, a, b)), the interval (a/d, b/d) in lowest terms.
    """
    if degree_mode not in ("unconstrained", "match_dim"):
        raise ConstructionError("unknown-degree-mode", -1, {"mode": degree_mode})
    kernel = cb_kernel(space).kernel
    tail_depth = levels + 2
    match = degree_mode == "match_dim"
    if match and levels == 0 and kernel.intervals():
        raise ConstructionError("match-dim-without-levels", -1)

    if kernel.intervals() and levels > 0:
        seeds = auto_seeds(space, levels, match)
        kernel_sb, star_sb, traces = extend_to_proper(space, levels, seeds)
    else:
        seeds, traces = SeedFamily(space, ()), []
        kernel_sb, star_sb = DyadicSubbase(kernel, ()), DyadicSubbase(space, ())
    clopen = scattered_clopen_base(space, tail_depth)
    pairs = star_sb.pairs + tuple((h, h.exterior()) for h in clopen)
    sb = DyadicSubbase(space, pairs)

    rng = random.Random(probe_seed)
    probes = sample_points(space, PROBE_COUNT, rng, member_depth=tail_depth)
    kernel_probes = [x for x in probes if kernel.contains(x)]
    scattered_probes = [x for x in probes if not kernel.contains(x)]
    free = [x for x in kernel_probes
            if len(sb.forced_word(x).entries) == len(pairs)]
    resolution_probes = free + scattered_probes
    if epsilon is None:
        epsilon = _default_epsilon(space, seeds, free, tail_depth)

    expected_sup = None
    if match:
        expected_sup = 1 if kernel.intervals() else 0
    reports = [check_dyadic(sb), check_proper(sb, depth)]
    if kernel.intervals() and len(kernel_sb) > 0:
        reports.append(check_independent(kernel_sb, INDEPENDENT_DEPTH))
    reports.append(degree_report(sb, len(pairs), probes,
                                 expected_sup=expected_sup, seed=probe_seed))
    reports.append(resolution_check(sb, epsilon, resolution_probes,
                                    seed=probe_seed))
    return BuildResult(space, sb, kernel_sb, tuple(traces), seeds,
                       len(clopen), tuple(reports), epsilon, degree_mode,
                       probe_seed)
