"""The starred stage's window check, against whole full-space starred cells.

The reference cuts the full-space starred cells level by level, as
``test_class_lift._starred_levels`` does, and tests the cell of every
window probe whose word the starred pairs force against the seed's
hull_star.  The build's verdict must match it: a pass, or the condition,
level and probe of its first failure.  The inputs are the corpus at levels
1-8 and three ``spacegen`` seeds at levels 1-4, each built with the seeds
of its degree mode, and forged seeds: one level's hull_star replaced by the
embedded hull plus a subset of the scattered clusters.  At every level the
reference also asserts the two facts the starred stage holds by
construction and does not check: the starred pair restricts to the kernel
pair, and its boundaries lie in the kernel.
"""
import functools
from dataclasses import replace
from itertools import chain, combinations

import pytest

from dyadictop import (ConstructionError, SeedFamily, SymbolicSet, auto_seeds,
                       build_independent_subbase, cb_kernel, embed,
                       extend_to_proper, half_clopen_extension, kernel_set,
                       restrict, scatter_clusters)
from dyadictop.corpus import CORPUS
from dyadictop.lemmas import cluster_set
from dyadictop.rational import format_rational

from oracle import spans_of
from spacegen import random_spaces

MODES = ("unconstrained", "match_dim")
SCATTERED = ("interval-points", "interval-sequence", "two-intervals-point")


def _has_kernel(space):
    return bool(cb_kernel(space).kernel.intervals())


def _draws(seed):
    return [(f"{seed}.{i}", s) for i, s in enumerate(random_spaces(seed, 50))
            if _has_kernel(s)]


def _builds():
    for name, make in CORPUS.items():
        if _has_kernel(make()):
            yield from ((name, make(), mode, n) for mode in MODES for n in range(1, 9))
    for seed in (7, 99, 20131018):
        for name, space in _draws(seed):
            yield from ((name, space, mode, n) for mode in MODES for n in range(1, 5))


BUILDS = list(_builds())


def _kernel_run(space, mode, levels):
    """The kernel stage's subbase and traces, and the seed entries they used."""
    match_dim = mode == "match_dim"
    seeds = auto_seeds(space, levels, match_dim)
    ksb, traces = build_independent_subbase(cb_kernel(space).kernel, levels,
                                            seeds=seeds, match_dim=match_dim)
    return ksb, traces, seeds.entries


def _lift(space, entries):
    """The build's two stages with the given seed entries."""
    return extend_to_proper(space, len(entries), SeedFamily(space, tuple(entries)))


def _verdict(space, entries):
    try:
        _lift(space, entries)
    except ConstructionError as err:
        return err.condition, err.level, err.details.get("probe")
    return None


def _probes(core, marks):
    (sp,) = spans_of(core)
    vals = sorted({sp.lo, sp.hi} | {v for v in marks if sp.lo <= v <= sp.hi})
    return [m for m in ((u + w) / 2 for u, w in zip(vals, vals[1:]))
            if core.membership(m)]


def _reference(space, traces, entries):
    """The first probe whose whole starred cell leaves its hull_star.

    Each level's pair is asserted to restrict to the kernel pair and to
    keep its boundary inside the kernel, whatever the seed."""
    whole, on_kernel = SymbolicSet.whole(space), kernel_set(space)
    scattered = whole.difference(on_kernel)
    cells = {"": whole}
    pairs, marks = [], set()
    for tr, entry in zip(traces, entries):
        v_star = half_clopen_extension(space, tr.v, entry.hull_star)
        s0s = embed(tr.s0, space).union(v_star.intersection(scattered))
        s1s = embed(tr.s1, space).union(scattered.difference(v_star.closure()))
        assert restrict(s0s, tr.s0.space) == tr.s0
        assert restrict(s1s, tr.s1.space) == tr.s1
        assert s0s.boundary().subset_of(on_kernel)
        assert s1s.boundary().subset_of(on_kernel)
        pairs.append((s0s, s1s))
        cells = {w + d: c.intersection(side) for w, c in cells.items()
                 for d, side in (("0", s0s), ("1", s1s))}
        marks |= set(tr.s0.boundary().as_finite_points() or ())
        for x in _probes(entry.core, marks):
            word = "".join("0" if a.membership(x) else "1" if b.membership(x) else "_"
                           for a, b in pairs)
            if "_" not in word and not cells[word].subset_of(entry.hull_star):
                return "starred-window-containment", tr.level, format_rational(x)
    return None


@pytest.mark.parametrize("name,space,mode,levels", BUILDS,
                         ids=[f"{b[0]}-{b[2]}-L{b[3]}" for b in BUILDS])
def test_window_verdict_matches_full_cells(name, space, mode, levels):
    ksb, traces, entries = _kernel_run(space, mode, levels)
    lifted_ksb, _, lifted = _lift(space, entries)
    # the build makes its kernel pairs with the kernel stage's own step
    assert lifted_ksb == ksb
    fields = ("v", "a_words", "b_words", "g", "s0", "s1")
    assert [[getattr(tr, f) for f in fields] for tr in lifted] == \
        [[getattr(tr, f) for f in fields] for tr in traces]
    assert _reference(space, traces, entries) is None


def _forgeries(space, entries, n):
    """Seed entries with level n's hull_star swapped for its embedded hull
    plus each subset of the scattered clusters, where that makes a valid
    seed."""
    clusters = [cluster_set(space, c) for c in scatter_clusters(space)]
    hull = embed(entries[n].hull, space)
    for part in chain.from_iterable(combinations(clusters, k)
                                    for k in range(len(clusters) + 1)):
        hull_star = hull
        for c in part:
            hull_star = hull_star.union(c)
        forged = list(entries)
        forged[n] = replace(entries[n], hull_star=hull_star)
        if SeedFamily(space, tuple(forged)).validate() == []:
            yield forged


FORGED = [(name, space) for name, space in
          [(n, CORPUS[n]()) for n in SCATTERED] + _draws(7)
          if scatter_clusters(space)]


@functools.cache
def _forged_verdicts(name):
    """(mode, levels, forged level, build verdict, reference verdict) for
    every forgery on the named space at levels 2-4."""
    space = dict(FORGED)[name]
    out = []
    for mode in MODES:
        for levels in (2, 3, 4):
            _, traces, entries = _kernel_run(space, mode, levels)
            for n in range(levels):
                for forged in _forgeries(space, entries, n):
                    out.append((mode, levels, n, _verdict(space, forged),
                                _reference(space, traces, forged)))
    return out


@pytest.mark.parametrize("name", [f[0] for f in FORGED])
def test_forged_hull_star_verdict_matches_full_cells(name):
    for mode, levels, n, got, want in _forged_verdicts(name):
        assert got == want, (mode, levels, n)


def test_forgeries_reach_the_window_check():
    # 616 of the 2,198 forgeries leave a probe's starred cell outside its
    # hull_star, so the verdicts above are not all passes
    fails = [v for name, _ in FORGED for v in _forged_verdicts(name) if v[4]]
    assert len(fails) >= 600
