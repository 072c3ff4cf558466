"""Inductive construction of independent and proper dyadic subbases.

The pipeline runs in three stages:

1. on the perfect kernel, one pair per level from a shrinking window seed
   (core inside hull); the new zero side is the interpolated window V with
   small regular open chunks G(word) swapped between the cells that V
   swallows (class A) and the cells clear of cl V (class B);
2. each kernel trace is extended to a half-clopen pair on the full space
   by pushing V through the half-clopen extension lemma into the hull_star
   of the seed the trace carries, once per level; off the kernel the zero
   side is V* and the one side the exterior of V*, since every chunk G's
   closure lies inside one kernel component, away from the scattered part;
3. the scattered part is finished off with clopen pairs.

Every level is validated exactly before the construction moves on, window
containment on the kernel in stage 1 and off it in stage 2, where the
restriction to the kernel pair and the half-clopen boundaries hold by
construction; there is no backtracking, a violated condition aborts with
the offending trace.

Stages 1 and 2 each keep one table of kernel atoms (``_Atoms``) that every
level cuts at its new sets and splits by its pair.  Each atom carries the
word of its cell, so the 2^n cells are labels, not sets: the classes, the
chunks' runs, the cell checks and the word of each window probe are read
off the labels, and the window marks are the table's boundary points.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from .checks import (CheckReport, check_dyadic, check_independent, check_proper,
                     degree_report, resolution_check)
from .cuts import place, position, reduced, rescale
from .lemmas import _assign_cluster, cluster_set, half_clopen_extension
from .rational import format_rational
from .sets import Span, SymbolicSet, embed, kernel_set
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
            if not e.core.is_regular_open:
                out.append(f"seed {n}: core is not regular open in the kernel")
            if not e.hull.is_regular_open:
                out.append(f"seed {n}: hull is not regular open in the kernel")
            if not e.core.closure().subset_of(e.hull):
                out.append(f"seed {n}: hull does not swallow the closed core")
            if e.hull_star.space != self.space:
                out.append(f"seed {n}: hull_star lives in the wrong space")
                continue
            if not e.hull_star.is_open:
                out.append(f"seed {n}: hull_star is not open")
            if e.hull_star.intersection(kernelS) != embed(e.hull, self.space):
                out.append(f"seed {n}: hull_star does not trace back to hull")
        return out

    def cover_radius(self, x: Fraction) -> Fraction | None:
        """Radius of the tightest hull_star among windows whose core holds x."""
        best = None
        for e in self.entries:
            if not e.core.membership(x):
                continue
            bounds = e.hull_star.closure_bounds()
            r = max(x - bounds[0], bounds[1] - x)
            if best is None or r < best:
                best = r
        return best


def auto_seeds(space: Space, levels: int, match_dim: bool = False) -> SeedFamily:
    """Breadth-first dyadic windows over the kernel components.

    Window n gets margin 2**-(n+3) of its component's length, clipped to
    the component; the full-space hull absorbs a scattered cluster when the
    cluster anchors inside the hull (forced, openness at the limit) or sits
    no farther from the hull than from the rest of the kernel.  In
    ``match_dim`` mode a lone window on two or more components is half a
    component, since a whole component's pair has no boundary (degree 0).
    """
    kernel = cb_kernel(space).kernel
    comps = kernel.intervals()
    entries: list[SeedEntry] = []
    if comps and levels > 0:
        windows = []
        j = 1 if match_dim and levels == 1 and len(comps) > 1 else 0
        while len(windows) < levels:
            for comp in comps:
                step = (comp.hi - comp.lo) / 2 ** j
                for i in range(2 ** j):
                    windows.append((comp, comp.lo + step * i, comp.lo + step * (i + 1)))
            j += 1
        clusters = scatter_clusters(space)
        for n, (comp, a, b) in enumerate(windows[:levels]):
            core = SymbolicSet.region(kernel, [(a, a == comp.lo, b, b == comp.hi)])
            margin = (comp.hi - comp.lo) / 2 ** (n + 3)
            lo, hi = max(a - margin, comp.lo), min(b + margin, comp.hi)
            hull = SymbolicSet.region(kernel, [(lo, lo == comp.lo, hi, hi == comp.hi)])
            hull_star = embed(hull, space)
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
    g: tuple[tuple[str, SymbolicSet], ...]
    s0: SymbolicSet
    s1: SymbolicSet
    seed: SeedEntry  # the window the level was built from
    v_star: SymbolicSet | None = None
    s0_star: SymbolicSet | None = None
    s1_star: SymbolicSet | None = None

    def to_dict(self) -> dict:
        d = {
            "level": self.level,
            "v": self.v.to_dict(),
            "a": list(self.a_words),
            "b": list(self.b_words),
            "g": {w: s.to_dict() for w, s in self.g},
            "pair": {"zero": self.s0.to_dict(), "one": self.s1.to_dict()},
        }
        if self.v_star is not None:
            d["v_star"] = self.v_star.to_dict()
            # each starred chunk is its kernel chunk, embedded as it stands
            d["g_star"] = {w: s.to_dict() for w, s in self.g}
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

    def __contains__(self, x: Fraction) -> bool:
        """Whether x is a marked value."""
        p, on_grid = place(x, self.den)
        i = bisect_left(self.marks, p)
        return on_grid and self.marks[i:i + 1] == [p]

    def runs(self, s: SymbolicSet) -> list[tuple[int, int]]:
        """The atoms of each span of s, whose cuts the table holds, as index ranges."""
        cuts, bounds = rescale(s.cuts, self.den // s.den), self.bounds
        return [(bisect_right(bounds, a), bisect_right(bounds, e))
                for a, e in zip(cuts[::2], cuts[1::2])]

    def add(self, *sets: SymbolicSet) -> None:
        """Cut the atoms at the cuts of the sets; each piece keeps its label."""
        den = math.lcm(self.den, *(s.den for s in sets))
        if den != self.den:
            self.bounds = rescale(self.bounds, den // self.den)
            self.marks = [p * (den // self.den) for p in self.marks]
            self.den = den
        bounds, labels = self.bounds, self.labels
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

    def first_runs(self, words) -> dict[str, tuple[Fraction, Fraction]]:
        """The ends of each word's first run of atoms, in ``intervals()`` order."""
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
            out[w] = Fraction(bounds[r - 1] >> 1, den), Fraction(bounds[e] >> 1, den)
        return out


# -- windows and chunks --------------------------------------------------

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


def _middle_third(kernel: Space, lo: Fraction, hi: Fraction, used,
                  avoid: bool) -> SymbolicSet:
    """The open middle third of (lo, hi), a range inside the kernel, each
    end moved off the used values towards its own end of the range when
    ``avoid`` is set."""
    third = (hi - lo) / 3
    g1, g2 = lo + third, hi - third
    if avoid:
        while g1 in used:
            g1 = (lo + g1) / 2
        while g2 in used:
            g2 = (hi + g2) / 2
    den = math.lcm(g1.denominator, g2.denominator)
    return SymbolicSet._canonical(kernel, den, (position(g1, den) + 1, position(g2, den)),
                                  frozenset(), ())


def _check_window(table: _Atoms, trace, escapes, condition) -> None:
    """Raise ``condition`` at the first probe of the trace's window core whose
    word, its atom's label, is one of ``escapes``: the words of the cells
    that leave the hull.  The probes are the midpoints between consecutive
    marks inside the core, its ends counted as marks."""
    (sp,) = trace.seed.core.spans
    marks, den = table.marks, table.den
    inner = marks[bisect_right(marks, place(sp.lo, den)[0]):
                  bisect_left(marks, place(sp.hi, den)[0])]
    d = math.lcm(den, sp.lo.denominator, sp.hi.denominator)
    ends = [position(sp.lo, d), *(p * (d // den) for p in inner), position(sp.hi, d)]
    for x in (Fraction(u + w, 4 * d) for u, w in zip(ends, ends[1:])):
        if table.labels[bisect_right(table.bounds, place(x, den)[0])] in escapes:
            raise ConstructionError(condition, trace.level,
                                    {"probe": format_rational(x),
                                     "trace": trace.to_dict()})


# -- kernel stage ---------------------------------------------------------

def _union(kernel: Space, chunks) -> SymbolicSet:
    """The union of disjoint one-span sets inside the kernel, in one sort."""
    chunks = list(chunks)
    den = math.lcm(1, *(g.den for g in chunks))
    return SymbolicSet._canonical(kernel, *reduced(den, sorted(
        c for g in chunks for c in rescale(g.cuts, den // g.den))), frozenset(), ())


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
    if len(seeds.entries) < levels:
        raise ConstructionError("not-enough-seeds", -1,
                                {"have": len(seeds.entries), "need": levels})

    whole = SymbolicSet.whole(kernel)
    table = _Atoms(kernel)
    pairs: list[tuple[SymbolicSet, SymbolicSet]] = []
    traces: list[StepTrace] = []

    for n in range(levels):
        entry = seeds.entries[n]
        v = _interpolate_window(kernel, entry.core, entry.hull, table)
        cl_v = v.closure()
        table.add(v, cl_v, entry.hull)
        a_words, b_words = _classify(table, v, cl_v)
        runs = table.first_runs(a_words + b_words)
        g = {w: _middle_third(kernel, *runs[w], table, match_dim) for w in runs}
        s0, s1 = _assemble(whole, v, cl_v, _union(kernel, (g[w] for w in a_words)),
                           _union(kernel, (g[w] for w in b_words)))
        trace = StepTrace(n, v, a_words, b_words, tuple(sorted(g.items())), s0, s1, entry)
        _validate_pair(trace, g, runs)
        _validate_cells(table, table.split(s0, s1), trace)
        pairs.append((s0, s1))
        ((i, j),) = table.runs(entry.hull)
        _check_window(table, trace,
                      table.words.intersection(table.labels[:i] + table.labels[j:]),
                      "seed-window-containment")
        traces.append(trace)
    return DyadicSubbase(kernel, tuple(pairs)), traces


def _validate_pair(trace, g, runs) -> None:
    """The new pair is a dyadic pair, and each chunk's closure lies inside
    the run of its cell's atoms it was cut from."""
    n = trace.level
    if not trace.s0.is_regular_open:
        raise ConstructionError("zero-side-not-regular-open", n,
                                {"trace": trace.to_dict()})
    if trace.s1 != trace.s0.exterior():
        raise ConstructionError("exterior-identity", n, {"trace": trace.to_dict()})
    for w in trace.a_words + trace.b_words:
        (lo, hi), bounds = runs[w], g[w].closure_bounds()
        if bounds is None or not lo < bounds[0] < bounds[1] < hi:
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

def extend_to_proper(space: Space, traces):
    """Half-clopen pairs on the full space restricting to the traces' kernel pairs.

    Lifts each level's window V through the half-clopen extension lemma
    into the hull_star of the seed its trace carries, once per level, and
    forms the starred pair from the kernel pair and the scattered part S:
    ``s0* = s0 ∪ (V* ∩ S)`` and ``s1* = s1 ∪ (S − cl V*)``.  This is the
    class-by-class assembly over the full space: each chunk's closure lies
    inside one kernel component, so no chunk reaches S, and on the kernel
    V* is V (the lemma's postcondition) and cl V* is cl V (checked here as
    closure tightness).  Validated at every level: the starred one side is
    the exterior of the starred zero side, and window cores resolve into
    starred hulls off the kernel (the kernel stage checked the kernel side
    against the hull).  Not checked, as both hold for any trace on the
    kernel K, forged or not: the sides restrict to s0 and s1, since S
    misses K; and they are half-clopen, since the lemma raises unless V* is
    open with ∂V* ⊆ K, so (K closed) each point of V* ∩ S or S − cl V* is
    interior to its side, and cl s0* ∩ S ⊆ V* ∩ S, cl s1* ∩ S ⊆ S − cl V*.
    A window probe lies on the kernel, where its starred word is its kernel
    word, so it is read off a kernel atom table (``_Atoms``) split by the
    traces' pairs; only the few nonempty scattered parts of the starred
    cells are built as sets.

    A trace's pair and window core are trusted to be the kernel stage's
    own: nothing here ties them to that stage's output, so a pair or core
    changed after it goes unseen.  What is checked again of each trace is
    its space (its sets live on the kernel), its level (trace n is level
    n) and its seed (the hull lies on the kernel, the starred hull on the
    full space, and the one inside the other).
    """
    kernel = cb_kernel(space).kernel
    if not kernel.intervals():
        raise ConstructionError("kernel-empty", -1)

    kernelS = kernel_set(space)
    scattered = SymbolicSet.whole(space).difference(kernelS)
    star_pairs: list[tuple[SymbolicSet, SymbolicSet]] = []
    out_traces: list[StepTrace] = []
    cells: dict[str, SymbolicSet] = {"": scattered}  # the starred cells' scattered parts
    table = _Atoms(kernel)

    for n, tr in enumerate(traces):
        if {tr.v.space, tr.s0.space, tr.s1.space} != {kernel}:
            raise ConstructionError("kernel-mismatch", n)
        if tr.level != n:
            raise ConstructionError("trace-pair-mismatch", n)
        entry = tr.seed
        if entry is None or entry.hull.space != kernel or entry.hull_star.space != space \
                or not embed(entry.hull, space).subset_of(entry.hull_star):
            raise ConstructionError("trace-seed-mismatch", n)
        v_star = half_clopen_extension(space, tr.v, entry.hull_star)
        cl_v_star = v_star.closure()
        if cl_v_star.intersection(kernelS) != embed(tr.v.closure(), space):
            raise ConstructionError("starred-closure-tightness", n,
                                    {"trace": tr.to_dict()})
        inside, outside = v_star.intersection(scattered), scattered.difference(cl_v_star)
        s0s, s1s = embed(tr.s0, space).union(inside), embed(tr.s1, space).union(outside)

        new_tr = replace(tr, v_star=v_star, s0_star=s0s, s1_star=s1s)
        if not s0s.is_regular_open or s1s != s0s.exterior():
            raise ConstructionError("starred-exterior-identity", n,
                                    {"trace": new_tr.to_dict()})
        table.split(tr.s0, tr.s1)
        cells = {w + d: c for w, cell in cells.items()
                 for d, side in (("0", inside), ("1", outside))
                 if not (c := cell.intersection(side)).is_empty}
        star_pairs.append((s0s, s1s))
        _check_window(table, new_tr,
                      {w for w, c in cells.items() if not c.subset_of(entry.hull_star)},
                      "starred-window-containment")

        out_traces.append(new_tr)
    return DyadicSubbase(space, tuple(star_pairs)), out_traces


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
            x = p.member(rng.randint(1, member_depth))
        else:
            x = p.value
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def _default_epsilon(space: Space, seeds: SeedFamily, kernel_probes,
                     tail_depth: int) -> Fraction:
    """The resolution the build actually achieves, with a little headroom."""
    radii = []
    diam = Fraction(0)
    bounds = SymbolicSet.whole(space).closure_bounds()
    if bounds is not None:
        diam = bounds[1] - bounds[0]
    for x in kernel_probes:
        r = seeds.cover_radius(x)
        radii.append(r if r is not None else diam)
    base = max(radii, default=Fraction(0))
    residue = max((abs(s.offset) / 2 ** tail_depth for s in space.sequences()),
                  default=Fraction(0))
    eps = (base + residue) * Fraction(17, 16)
    if eps <= 0:
        eps = Fraction(1)
    return eps


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
    given).  ``match_dim`` mode keeps chunk boundaries off each other so
    the degree never exceeds one on a space with a nonempty kernel.
    """
    if degree_mode not in ("unconstrained", "match_dim"):
        raise ConstructionError("unknown-degree-mode", -1, {"mode": degree_mode})
    kernel = cb_kernel(space).kernel
    tail_depth = levels + 2
    match = degree_mode == "match_dim"

    if kernel.intervals() and levels > 0:
        seeds = auto_seeds(space, levels, match)
        kernel_sb, traces = build_independent_subbase(
            kernel, levels, seeds=seeds, match_dim=match)
        star_sb, traces = extend_to_proper(space, traces)
        star_pairs = star_sb.pairs
    else:
        seeds = SeedFamily(space, ())
        kernel_sb, traces = DyadicSubbase(kernel, ()), []
        star_pairs = ()
    clopen = scattered_clopen_base(space, tail_depth)
    pairs = tuple(star_pairs) + tuple((h, h.exterior()) for h in clopen)
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
