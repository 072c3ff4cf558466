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

Stages 1 and 2 share one table of kernel atoms (``_Atoms``) that every
level cuts at its new sets and splits by its pair.  Each atom carries the
word of its cell, so the 2^n cells are labels, not sets: the classes, the
chunks' runs, the cell checks and the word of each window probe are read
off the labels, and the window marks are the table's boundary points.

The window geometry works on integer positions.  Seed windows are cuts
over the kernel's denominator times a power of two; V's fresh ends and
the window probes are values over the table's den times a power of two.
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
from itertools import product

from .checks import (CheckReport, check_dyadic, check_independent, check_proper,
                     degree_report, resolution_check)
from .cuts import inside, place, position, reduced, rescale
from .lemmas import _assign_cluster, cluster_set, half_clopen_extension
from .rational import format_rational
from .sets import SymbolicSet, _literal, embed, kernel_set
from .space import GeometricSequence, Interval, Space, cb_kernel, scatter_clusters
from .subbase import DyadicSubbase


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
    def hull_bounds(self) -> tuple:
        """Each entry's hull_star closure bounds, in entry order, computed
        once per family."""
        return tuple(e.hull_star.closure_bounds() for e in self.entries)

    @cached_property
    def _cover_table(self) -> tuple:
        """(den, rows): per entry with a nonempty core, its core's cuts
        and the numerators of its ``hull_bounds``, all over one
        denominator den.  A core lives on the kernel, which has intervals
        only, so its cuts are the whole of it."""
        live = [(e.core, b) for e, b in zip(self.entries, self.hull_bounds) if e.core.cuts]
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


# -- the kernel's atoms ---------------------------------------------------

class _Atoms:
    """The kernel cut into atoms, each labelled with the word of its cell.

    ``bounds`` are the cuts, over ``den``, of the kernel's intervals and of
    every set added so far, so each of those sets holds an atom whole or
    misses it: atom r is the run of positions from ``bounds[r - 1]`` up to
    ``bounds[r]``.  ``labels[r]`` is None off the kernel, else the atom's
    word over the pairs split so far, with ``_`` for a pair that holds it
    on neither side.  The cell S(w) of a word w without ``_`` is the union
    of the atoms labelled w, and ``words`` are the words of the nonempty
    cells.  ``marks`` are the sorted positions of the points on a pair's
    boundary, the atoms labelled with a ``_``.
    """

    def __init__(self, kernel: Space):
        ivs = kernel_set(kernel)
        self.space, self.den, self.bounds, self.marks = kernel, ivs.den, list(ivs.cuts), []
        self.labels = [None if r % 2 == 0 else "" for r in range(len(ivs.cuts) + 1)]
        self.words = {""}

    def marked(self, t: int, d: int) -> bool:
        """Whether the value t / (den·d) is a marked value."""
        q, r = divmod(t, d)
        i = bisect_left(self.marks, 2 * q)
        return not r and self.marks[i:i + 1] == [2 * q]

    def runs(self, s: SymbolicSet) -> list[tuple[int, int]]:
        """The atoms of each span of s, whose cuts the table holds, as index ranges."""
        cuts, bounds = rescale(s.cuts, self.den // s.den), self.bounds
        return [(bisect_right(bounds, a), bisect_right(bounds, e))
                for a, e in zip(cuts[::2], cuts[1::2])]

    def refine(self, *dens: int) -> None:
        """Take the lcm of den and dens as the table's den, rescaling the
        bounds and the marks."""
        den = math.lcm(self.den, *dens)
        if den != self.den:
            m = den // self.den
            self.bounds = rescale(self.bounds, m)
            self.marks = [p * m for p in self.marks]
            self.den = den

    def add(self, *sets: SymbolicSet) -> None:
        """Cut the atoms at the cuts of the sets; each piece keeps its label."""
        self.refine(*(s.den for s in sets))
        den, bounds, labels = self.den, self.bounds, self.labels
        nb, nl, i = [], [], 0
        for c in sorted({c for s in sets for c in rescale(s.cuts, den // s.den)}):
            r = bisect_left(bounds, c, i)
            if bounds[r:r + 1] != [c]:
                nb += bounds[i:r]
                nb.append(c)
                nl += labels[i:r + 1]  # atom r, cut at c, ends there and restarts
                i = r
        self.bounds, self.labels = nb + bounds[i:], nl + labels[i:]

    def split(self, s0: SymbolicSet, s1: SymbolicSet) -> list[int]:
        """Cut the atoms at the pair's cuts, and append to each label the
        digit of the side that holds the atom, or ``_`` on the kernel where
        neither does, at a point of the pair's boundary, which joins the
        marks.  Returns the atoms of those points."""
        self.add(s0, s1)
        labels = self.labels
        new = [None if w is None else w + "_" for w in labels]
        for digit, side in (("0", s0), ("1", s1)):
            for i, j in self.runs(side):
                new[i:j] = [w + digit for w in labels[i:j]]
        residue = [r for r, w in enumerate(new) if w is not None and w[-1] == "_"]
        self.labels = new
        self.words = {w for w in set(new) if w is not None and "_" not in w}
        self.marks = sorted({*self.marks, *(self.bounds[r - 1] for r in residue)})
        return residue

    def first_runs(self, words) -> dict[str, tuple[int, int]]:
        """The ends of each word's first run of atoms, in ``intervals()``
        order, as values over den."""
        first, bounds, labels, den = {}, self.bounds, self.labels, self.den
        for iv in reversed(self.space.intervals()):
            i = bisect_right(bounds, position(iv.lo, den))
            j = bisect_right(bounds, position(iv.hi, den) + 1)
            first.update(zip(reversed(labels[i:j]), range(j - 1, i - 1, -1)))
        out = {}
        for w in words:
            r = e = first[w]
            while labels[e + 1] == w:
                e += 1
            out[w] = bounds[r - 1] >> 1, bounds[e] >> 1
        return out


# -- windows and chunks --------------------------------------------------

def _pick_between(anchor: int, limit: int, table: _Atoms) -> tuple[int, int]:
    """(t, d) for a fresh value t / (den·d) strictly between anchor and
    limit, values over the table's den: their midpoint, moved towards
    anchor, halving the distance, until it is not a marked value."""
    anchor, t, d = 2 * anchor, anchor + limit, 2
    while table.marked(t, d):
        anchor, t, d = 2 * anchor, anchor + t, 2 * d
    return t, d


def _interpolate_window(kernel: Space, core: SymbolicSet, hull: SymbolicSet,
                        table: _Atoms) -> SymbolicSet:
    """Regular open V with cl core ⊆ V ⊆ cl V ⊆ hull, fresh boundary
    values: each open end of the core moves to a value off the table's
    marks between it and the hull's end.  Core and hull are one span each,
    over denominators that divide the table's.  An end (t, d, bit) is the
    value t / (den·d), d a power of two, and the bit its cut's parity."""
    den = table.den
    c0, c1 = rescale(core.cuts, den // core.den)
    h0, h1 = rescale(hull.cuts, den // hull.den)
    lo = (c0 >> 1, 1, 0) if not c0 & 1 else (*_pick_between(h0 >> 1, c0 >> 1, table), 1)
    hi = (c1 >> 1, 1, 1) if c1 & 1 else (*_pick_between(h1 >> 1, c1 >> 1, table), 0)
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


def _check_window(table: _Atoms, trace, escapes, condition) -> None:
    """Raise ``condition`` at the first probe of the trace's window core whose
    word, its atom's label, is one of ``escapes``: the words of the cells
    that leave the hull.  The probes are the midpoints between consecutive
    marks inside the core, its ends counted as marks.  With its ends at
    the even positions u and w over the table's den, which places the
    core, a probe sits at position (u + w) / 2, and its value is made only
    for the witness."""
    core, marks, den = trace.seed.core, table.marks, table.den
    lo, hi = ((c >> 1) * 2 * (den // core.den) for c in core.cuts)
    ends = [lo, *marks[bisect_right(marks, lo):bisect_left(marks, hi)], hi]
    for u, w in zip(ends, ends[1:]):
        if table.labels[bisect_right(table.bounds, (u + w) >> 1)] in escapes:
            raise ConstructionError(condition, trace.level,
                                    {"probe": format_rational(Fraction(u + w, 4 * den)),
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


def _classify(table: _Atoms, v, cl_v) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Words of the cells inside V (class A: no atom outside V's) and of
    those clear of cl V (class B: no atom among cl V's)."""
    labels = table.labels
    ((i, j),), ((k, m),) = table.runs(v), table.runs(cl_v)
    a_words = table.words.intersection(labels[i:j]).difference(labels[:i], labels[j:])
    b_words = table.words.difference(labels[k:m])
    return tuple(sorted(a_words)), tuple(sorted(b_words))


def _entries(seeds: SeedFamily, levels: int) -> tuple[SeedEntry, ...]:
    """The seed entries of the first ``levels`` levels."""
    if len(seeds.entries) < levels:
        raise ConstructionError("not-enough-seeds", -1,
                                {"have": len(seeds.entries), "need": levels})
    return seeds.entries[:levels]


def _kernel_level(table: _Atoms, whole: SymbolicSet, n: int, entry: SeedEntry) -> StepTrace:
    """Pair n on the table's kernel from the seed entry, validated, with the
    table cut at V, cl V, the hull and the pair, and split by the pair."""
    kernel = table.space
    if len(entry.core.cuts) != 2 or len(entry.hull.cuts) != 2:
        raise ConstructionError("seed-window-not-one-span", n,
                                {"window": {"core": entry.core.to_dict(),
                                            "hull": entry.hull.to_dict()}})
    table.refine(entry.core.den, entry.hull.den)
    v = _interpolate_window(kernel, entry.core, entry.hull, table)
    cl_v = v.closure()
    table.add(v, cl_v, entry.hull)
    a_words, b_words = _classify(table, v, cl_v)
    runs = table.first_runs(a_words + b_words)
    g = {w: _middle_third(*runs[w], table.den) for w in runs}
    s0, s1 = _assemble(whole, v, cl_v, _union(kernel, (g[w] for w in a_words)),
                       _union(kernel, (g[w] for w in b_words)))
    trace = StepTrace(n, v, a_words, b_words, tuple(sorted(g.items())), s0, s1, entry)
    _validate_pair(trace, runs)
    _validate_cells(table, table.split(s0, s1), trace)
    ((i, j),) = table.runs(entry.hull)
    _check_window(table, trace,
                  table.words.intersection(table.labels[:i] + table.labels[j:]),
                  "seed-window-containment")
    return trace


def build_independent_subbase(kernel: Space, levels: int,
                              seeds: SeedFamily | None = None,
                              match_dim: bool = False):
    """Pairs on a nonempty perfect space, one per level.

    The cells are labels on one table of atoms (``_Atoms``) that each level
    cuts at V, cl V, the hull and the new pair, and splits by the pair.
    Validated at every level: the one side is the exterior of the zero
    side, each chunk lies inside its cell, every full cell is nonempty,
    closures distribute over every full cell, and window cores resolve into
    their hulls.  Returns the subbase together with the per-level traces.
    """
    if any(not isinstance(p, Interval) for p in kernel.primitives):
        raise ConstructionError("kernel-not-perfect", -1)
    if levels == 0:
        return DyadicSubbase(kernel, ()), []
    if not kernel.intervals():
        raise ConstructionError("kernel-empty", -1)
    if seeds is None:
        seeds = auto_seeds(kernel, levels, match_dim)
    whole, table = SymbolicSet.whole(kernel), _Atoms(kernel)
    traces = [_kernel_level(table, whole, n, entry)
              for n, entry in enumerate(_entries(seeds, levels))]
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


def _validate_cells(table: _Atoms, residue, trace) -> None:
    """Every new cell is nonempty, and cl S(w) is the intersection of the
    closures of w's sides for every new word w, reported at the first word
    in canonical order that fails either.

    The previous level holds the identity for the shorter words, and the
    new sides are open, so it can fail only at a boundary point x of the
    new pair, an atom of ``residue``.  The sides are regular open, so the
    atoms either side of x, both on the kernel, hold every side that meets
    x's pieces, and their labels are full words.  A word fails at x exactly
    when each of its digits is one of theirs there and it is neither; one
    exists when the two differ before the last digit.
    """
    n, labels, words = trace.level, table.labels, table.words
    bad = []
    if len(words) < 2 ** (n + 1):
        bad.append(next(w for w in map("".join, product("01", repeat=n + 1))
                        if w not in words))
    for k in residue:
        left, right = labels[k - 1], labels[k + 1]
        if left in words and right in words and left[:-1] != right[:-1]:
            choices = [sorted({a, b}) for a, b in zip(left, right)]
            bad.append(next(w for w in map("".join, product(*choices))
                            if w not in (left, right)))
    if bad:
        w = min(bad)
        raise ConstructionError(
            "closure-product-identity" if w in words else "cells-nonempty", n,
            {"word": w[:-1], "trace": trace.to_dict()})


# -- starred stage --------------------------------------------------------

def extend_to_proper(space: Space, levels: int, seeds: SeedFamily):
    """Kernel pairs and the half-clopen pairs on the full space restricting to them.

    Each level makes pair n on one kernel atom table (``_Atoms``), as
    ``build_independent_subbase`` does, then lifts its window V through the
    half-clopen extension lemma into the seed's hull_star and forms
    ``s0* = s0 ∪ (V* ∩ S)`` and ``s1* = s1 ∪ (S − cl V*)``, S the scattered
    part.  No chunk reaches S, since each chunk's closure lies inside one
    kernel component, and on the kernel K, V* is V (the lemma raises
    otherwise).  After the kernel pair's checks, each level checks that the
    seed's hull lies on K and inside its hull_star, which lies on the full
    space; that the starred one side is the exterior of the starred zero
    side; and that window cores resolve into hull_stars off K.  Not
    checked, as both hold by construction: the sides restrict to s0 and
    s1, since S misses K; and they are half-clopen, since the lemma raises
    unless V* is open with ∂V* ⊆ K, so (K closed) each point of V* ∩ S or
    S − cl V* is interior to its side.  A window probe lies on K, where its
    starred word is its label in the table; only the nonempty scattered
    parts of the starred cells are built as sets.

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
    whole, table = SymbolicSet.whole(kernel), _Atoms(kernel)
    cells: dict[str, SymbolicSet] = {"": scattered}  # the starred cells' scattered parts
    traces: list[StepTrace] = []

    for n, entry in enumerate(_entries(seeds, levels)):
        tr = _kernel_level(table, whole, n, entry)
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
        cells = {w + d: c for w, cell in cells.items()
                 for d, side in (("0", inside), ("1", outside))
                 if not (c := cell.intersection(side)).is_empty}
        _check_window(table, tr,
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
    out: list[SymbolicSet] = []
    for h in sets:
        if h in out:
            continue
        if not h.boundary().is_empty:
            raise ConstructionError("clopen-base-not-clopen", -1,
                                    {"set": h.to_dict()})
        out.append(h)
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
    on two or more components is half a component.  In either mode V's
    fresh ends are moved off the marks, the points of earlier boundaries,
    and no chunk end is one: each chunk is the middle third of the first
    run of its cell's atoms, which holds no mark, since a mark's atom is
    labelled with a ``_`` and so belongs to no cell.  The traces hold each
    chunk as (word, (d, a, b)), the interval (a/d, b/d) in lowest terms.
    """
    if degree_mode not in ("unconstrained", "match_dim"):
        raise ConstructionError("unknown-degree-mode", -1, {"mode": degree_mode})
    kernel = cb_kernel(space).kernel
    tail_depth = levels + 2
    match = degree_mode == "match_dim"

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
