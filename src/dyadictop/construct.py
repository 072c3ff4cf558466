"""Inductive construction of independent and proper dyadic subbases.

The pipeline runs in three stages:

1. on the perfect kernel, one pair per level from a shrinking window seed
   (core inside hull); the new zero side is the interpolated window V with
   small regular open chunks G(word) swapped between the cells that V
   swallows (class A) and the cells clear of cl V (class B);
2. each kernel pair is extended to a half-clopen pair on the full space by
   pushing V through the half-clopen extension lemma, once per level; each
   chunk G is its own lift, embedded as it stands, since its closure lies
   inside one kernel component, away from the scattered part;
3. the scattered part is finished off with clopen pairs.

Every level is validated exactly before the construction moves on; there
is no backtracking, a violated condition aborts with the offending trace.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .checks import (CheckReport, check_dyadic, check_independent, check_proper,
                     degree_report, resolution_check)
from .lemmas import _assign_cluster, cluster_set, half_clopen_extension
from .rational import format_rational
from .sets import Span, SymbolicSet, embed, kernel_set, restrict
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
    v_star: SymbolicSet | None = None
    g_star: tuple[tuple[str, SymbolicSet], ...] = ()
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
            d["g_star"] = {w: s.to_dict() for w, s in self.g_star}
            d["pair_star"] = {"zero": self.s0_star.to_dict(),
                              "one": self.s1_star.to_dict()}
        return d


# -- windows and chunks --------------------------------------------------

def _pick_between(anchor: Fraction, limit: Fraction, used: set[Fraction]) -> Fraction:
    """A fresh value strictly between anchor and limit, halving towards anchor."""
    t = (anchor + limit) / 2
    while t in used:
        t = (anchor + t) / 2
    return t


def _interpolate_window(kernel: Space, core: SymbolicSet, hull: SymbolicSet,
                        used: set[Fraction]) -> SymbolicSet:
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


def _middle_third(cell: SymbolicSet, used: set[Fraction], avoid: bool) -> SymbolicSet:
    """Nonempty regular open G with cl G inside the cell's leftmost component."""
    sp = cell.spans[0]
    width = sp.hi - sp.lo
    g1 = sp.lo + width / 3
    g2 = sp.hi - width / 3
    if avoid:
        while g1 in used:
            g1 = (sp.lo + g1) / 2
        while g2 in used:
            g2 = (sp.hi + g2) / 2
    return SymbolicSet(cell.space, (Span(g1, False, g2, False),))


def _window_probes(core: SymbolicSet, values) -> list[Fraction]:
    """Midpoints between consecutive marked values inside the window core."""
    (sp,) = core.spans
    vals = sorted({sp.lo, sp.hi} | {v for v in values if sp.lo <= v <= sp.hi})
    mids = [(u + w) / 2 for u, w in zip(vals, vals[1:])]
    return [m for m in mids if core.membership(m)]


# -- one level, shared by the kernel and starred stages -------------------

def _union_all(sets, space: Space) -> SymbolicSet:
    """The union of the sets, joined in pairs so each cut is copied log-many times."""
    sets = list(sets) or [SymbolicSet.empty(space)]
    while len(sets) > 1:
        sets = [a.union(b) for a, b in zip(sets[::2], sets[1::2])] + sets[len(sets) & ~1:]
    return sets[0]


def _assemble(whole, v, cl_v, g_a, g_b) -> tuple[SymbolicSet, SymbolicSet]:
    """The pair: V and the exterior of V, with the union G_A of class A's
    chunks swapped out of V and the union G_B of class B's chunks in."""
    return (v.difference(g_a.closure()).union(g_b),
            whole.difference(cl_v).difference(g_b.closure()).union(g_a))


def _split(cells, s0, s1) -> dict[str, SymbolicSet]:
    """The next level's cells: each cell cut by either side of the new pair."""
    return {w + d: cell.intersection(side)
            for w, cell in cells.items() for d, side in (("0", s0), ("1", s1))}


def _check_window(children, pairs, core, hull, marks, condition, trace) -> None:
    """Raise ``condition`` unless every probe of the window core that lies
    off the boundaries of the pairs so far falls in a new cell inside the
    hull; the probe's forced word names that cell."""
    for x in _window_probes(core, marks):
        loc = hull.space.locate(x)
        word = "".join("0" if s0._holds(loc, x) else "1" if s1._holds(loc, x) else "_"
                       for s0, s1 in pairs)
        if "_" not in word and not children[word].subset_of(hull):
            raise ConstructionError(condition, trace.level,
                                    {"probe": format_rational(x),
                                     "trace": trace.to_dict()})


# -- kernel stage ---------------------------------------------------------

def _classify(cells, v, cl_v) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Words of the cells inside V (class A) and of those clear of cl V (class B)."""
    a_words, b_words = [], []
    for w in sorted(cells):
        if cells[w].subset_of(v):
            a_words.append(w)
        elif cells[w].intersection(cl_v).is_empty:
            b_words.append(w)
    return tuple(a_words), tuple(b_words)


def build_independent_subbase(kernel: Space, levels: int,
                              seeds: SeedFamily | None = None,
                              match_dim: bool = False):
    """Pairs on a nonempty perfect space, one per level.

    Validated at every level: the one side is the exterior of the zero
    side, closures distribute over every full cell, every full cell is
    nonempty, and window cores resolve into their hulls.  Returns the
    subbase together with the per-level traces.
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
    used: set[Fraction] = set()
    pairs: list[tuple[SymbolicSet, SymbolicSet]] = []
    traces: list[StepTrace] = []
    # each cell and the intersection of its sides' closures
    cells: dict[str, SymbolicSet] = {"": whole}
    cl_cells: dict[str, SymbolicSet] = {"": whole}

    for n in range(levels):
        entry = seeds.entries[n]
        v = _interpolate_window(kernel, entry.core, entry.hull, used)
        cl_v = v.closure()
        a_words, b_words = _classify(cells, v, cl_v)
        g = {w: _middle_third(cells[w], used, match_dim) for w in a_words + b_words}
        s0, s1 = _assemble(whole, v, cl_v, _union_all((g[w] for w in a_words), kernel),
                           _union_all((g[w] for w in b_words), kernel))
        trace = StepTrace(n, v, a_words, b_words, tuple(sorted(g.items())), s0, s1)
        children = _split(cells, s0, s1)
        cl_children = _split(cl_cells, s0.closure(), s1.closure())
        _validate_kernel_level(cells, children, cl_children, trace)
        marks = used | set(s0.boundary().as_finite_points() or ())
        pairs.append((s0, s1))
        _check_window(children, pairs, entry.core, entry.hull, marks,
                      "seed-window-containment", trace)
        traces.append(trace)
        cells, cl_cells, used = children, cl_children, marks
    return DyadicSubbase(kernel, tuple(pairs)), traces


def _validate_kernel_level(cells, children, cl_children, trace):
    n = trace.level
    g = dict(trace.g)
    if not trace.s0.is_regular_open:
        raise ConstructionError("zero-side-not-regular-open", n,
                                {"trace": trace.to_dict()})
    if trace.s1 != trace.s0.exterior():
        raise ConstructionError("exterior-identity", n, {"trace": trace.to_dict()})
    for w in trace.a_words + trace.b_words:
        cell = cells[w]
        gw = g[w]
        if gw.is_empty or not gw.is_regular_open \
                or not gw.closure().subset_of(cell) \
                or cell.difference(gw.closure()).is_empty:
            raise ConstructionError("g-inside-cell", n,
                                    {"word": w, "trace": trace.to_dict()})
    for w, child in children.items():
        if child.is_empty:
            raise ConstructionError("cells-nonempty", n,
                                    {"word": w[:-1], "trace": trace.to_dict()})
        if child.closure() != cl_children[w]:
            raise ConstructionError("closure-product-identity", n,
                                    {"word": w[:-1], "trace": trace.to_dict()})


# -- starred stage --------------------------------------------------------

def extend_to_proper(space: Space, kernel_sb: DyadicSubbase, traces,
                     seeds: SeedFamily):
    """Half-clopen pairs on the full space restricting to the kernel pairs.

    Lifts each level's window V through the half-clopen extension lemma,
    the one lemma call of the level, and swaps each recorded class's
    chunks G in or out of it as they stand, embedded in the full space.
    An embedded chunk is its own lift: its closure lies inside a kernel
    component, so no sequence converges into it and every scattered point
    is nearer to the component's ends than to the chunk.  Validated at
    every level, which covers the chunks too: the starred one side is the
    exterior of the starred zero side, both sides restrict to the kernel
    pair, boundaries stay inside the kernel, and window cores resolve into
    starred hulls.
    """
    kernel = cb_kernel(space).kernel
    if kernel_sb.space != kernel:
        raise ConstructionError("kernel-mismatch", -1)
    if not kernel.intervals():
        raise ConstructionError("kernel-empty", -1)
    if len(traces) != len(kernel_sb.pairs) or len(seeds.entries) < len(traces):
        raise ConstructionError("trace-seed-mismatch", -1)

    kernelS = kernel_set(space)
    whole = SymbolicSet.whole(space)
    star_pairs: list[tuple[SymbolicSet, SymbolicSet]] = []
    out_traces: list[StepTrace] = []
    star_cells: dict[str, SymbolicSet] = {"": whole}
    used: set[Fraction] = set()

    for n, tr in enumerate(traces):
        s0, s1 = kernel_sb.pairs[n]
        if tr.s0 != s0 or tr.s1 != s1 or tr.level != n:
            raise ConstructionError("trace-pair-mismatch", n)
        g = dict(tr.g)
        # a class word names a cell of this level and carries a chunk
        missing = set(tr.a_words + tr.b_words).difference(g.keys() & star_cells.keys())
        if missing:
            raise ConstructionError("trace-missing-g", n, {"word": min(missing)})

        entry = seeds.entries[n]
        v_star = half_clopen_extension(space, tr.v, entry.hull_star)
        cl_v_star = v_star.closure()
        if cl_v_star.intersection(kernelS) != embed(tr.v.closure(), space):
            raise ConstructionError("starred-closure-tightness", n,
                                    {"trace": tr.to_dict()})
        g_star = {w: embed(g[w], space) for w in tr.a_words + tr.b_words}
        s0s, s1s = _assemble(whole, v_star, cl_v_star,
                             _union_all((g_star[w] for w in tr.a_words), space),
                             _union_all((g_star[w] for w in tr.b_words), space))

        new_tr = replace(tr, v_star=v_star, g_star=tuple(sorted(g_star.items())),
                         s0_star=s0s, s1_star=s1s)
        if not s0s.is_regular_open or s1s != s0s.exterior():
            raise ConstructionError("starred-exterior-identity", n,
                                    {"trace": new_tr.to_dict()})
        if restrict(s0s, kernel) != s0 or restrict(s1s, kernel) != s1:
            raise ConstructionError("restriction-identity", n,
                                    {"trace": new_tr.to_dict()})
        if not s0s.boundary().subset_of(kernelS) \
                or not s1s.boundary().subset_of(kernelS):
            raise ConstructionError("starred-half-clopen", n,
                                    {"trace": new_tr.to_dict()})
        marks = used | set(s0.boundary().as_finite_points() or ())
        star_cells = _split(star_cells, s0s, s1s)
        star_pairs.append((s0s, s1s))
        _check_window(star_cells, star_pairs, entry.core, entry.hull_star, marks,
                      "starred-window-containment", new_tr)

        out_traces.append(new_tr)
        used = marks
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
        star_sb, traces = extend_to_proper(space, kernel_sb, traces, seeds)
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
