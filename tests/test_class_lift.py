"""Each starred chunk is its own embedding, and each side is formed in one pass.

A chunk's closure lies inside one kernel component, so no sequence
converges into it and every scattered point is nearer to the component's
ends than to the chunk: its half-clopen extension inside its window (its
starred cell within V* for class A, clear of cl V* for class B) is the
chunk itself, embedded in the full space.  Likewise each side of a pair is
V (or the exterior of V) with one class's chunk closures taken out and the
other class's chunks put in, in any order.  Over the full space, with the
embedded chunks, that assembly is the reference for the starred pair the
build forms from the kernel pair and the scattered part of V*.  Both facts
are checked here, the lemma being the reference for the first and the
sequential form for the second, on every class-level of the corpus at
levels 1-6 in both degree modes, of ``rank2_space`` likewise, and of two
seeded draws of random spaces at levels 1-3, each built with the seeds of
its degree mode.  On the same levels each starred pair restricts to its
kernel pair and keeps its boundary inside the kernel, and cl V* meets the
kernel in cl V, which the starred stage holds by construction and does not
check: a V* forged to break the last fails the starred exterior check.
"""
from functools import reduce

import pytest

from dyadictop import (ConstructionError, SymbolicSet, auto_seeds, build_proper_subbase,
                       cb_kernel, construct, embed, extend_to_proper,
                       half_clopen_extension, kernel_set, restrict)
from dyadictop.corpus import CORPUS
from dyadictop.lemmas import check_half_clopen, cluster_set
from dyadictop.space import scatter_clusters

from oracle import chunk_set
from spacegen import rank2_space, random_spaces

MODES = ("unconstrained", "match_dim")


def _cases():
    for name, make in [*CORPUS.items(), ("rank2", rank2_space)]:
        yield from ((f"{name}-{mode}-L{n}", make(), mode, n)
                    for mode in MODES for n in range(1, 7))
    for seed in (20131018, 7):
        for i, space in enumerate(random_spaces(seed, 50)):
            yield from ((f"{seed}.{i}-{mode}-L{n}", space, mode, n)
                        for mode in MODES for n in (1, 2, 3))


CASES = [c for c in _cases() if cb_kernel(c[1]).kernel.intervals()]


def _union(sets, space):
    return reduce(SymbolicSet.union, sets, SymbolicSet.empty(space))


def _starred_levels(space, levels, mode):
    """Each starred trace of the build, with the starred cells it cut."""
    match_dim = mode == "match_dim"
    _, _, star = extend_to_proper(space, levels, auto_seeds(space, levels, match_dim))
    cells = {"": SymbolicSet.whole(space)}
    for tr in star:
        yield tr, cells
        cells = {w + d: c.intersection(side) for w, c in cells.items()
                 for d, side in (("0", tr.s0_star), ("1", tr.s1_star))}


def _sequential(whole, v, g, a_words, b_words):
    s0 = v
    for w in a_words:
        s0 = s0.difference(g[w].closure())
    for w in b_words:
        s0 = s0.union(g[w])
    s1 = whole.difference(v.closure())
    for w in b_words:
        s1 = s1.difference(g[w].closure())
    for w in a_words:
        s1 = s1.union(g[w])
    return s0, s1


def _one_pass(whole, v, g, a_words, b_words):
    g_a = _union((g[w] for w in a_words), v.space)
    g_b = _union((g[w] for w in b_words), v.space)
    return (v.difference(g_a.closure()).union(g_b),
            whole.difference(v.closure()).difference(g_b.closure()).union(g_a))


def test_cases_cover_both_sources():
    assert sum(1 for c in CASES if c[0][0].isdigit()) >= 400
    assert sum(1 for c in CASES if not c[0][0].isdigit()) == 48 + 12


@pytest.mark.parametrize("name,space,mode,levels", CASES, ids=[c[0] for c in CASES])
def test_class_lift_and_one_pass_sides(name, space, mode, levels):
    kernel = cb_kernel(space).kernel
    kernel_whole, on_kernel = SymbolicSet.whole(kernel), kernel_set(space)
    whole = SymbolicSet.whole(space)
    for tr, cells in _starred_levels(space, levels, mode):
        assert restrict(tr.s0_star, kernel) == tr.s0
        assert restrict(tr.s1_star, kernel) == tr.s1
        assert tr.s0_star.boundary().subset_of(on_kernel)
        assert tr.s1_star.boundary().subset_of(on_kernel)
        cl_v_star = tr.v_star.closure()
        assert cl_v_star.intersection(on_kernel) == embed(tr.v.closure(), space)
        kernel_chunks = {w: chunk_set(kernel, c) for w, c in tr.g}
        g = {w: embed(s, space) for w, s in kernel_chunks.items()}
        for words, window in (
                (tr.a_words, lambda c: tr.v_star.intersection(c)),
                (tr.b_words, lambda c: c.difference(cl_v_star))):
            for w in words:
                lift = half_clopen_extension(space, g[w], window(cells[w]))
                assert lift == g[w], w
                assert check_half_clopen(space, g[w], window(cells[w]), lift) == [], w
        for sides, ambient, v, chunks in (
                ((tr.s0, tr.s1), kernel_whole, tr.v, kernel_chunks),
                ((tr.s0_star, tr.s1_star), whole, tr.v_star, g)):
            assert _sequential(ambient, v, chunks, tr.a_words, tr.b_words) == sides
            assert _one_pass(ambient, v, chunks, tr.a_words, tr.b_words) == sides


@pytest.mark.parametrize("name", [n for n in CORPUS if n != "converging-sequence"])
def test_lemma_runs_once_per_level(name, monkeypatch):
    # V alone, whatever the number of chunks
    calls = []

    def counted(*args):
        calls.append(1)
        return half_clopen_extension(*args)
    monkeypatch.setattr(construct, "half_clopen_extension", counted)
    result = build_proper_subbase(CORPUS[name](), 6, depth=2)
    assert result.passed
    assert sum(len(dict(tr.g)) for tr in result.traces) > 6
    assert len(calls) == 6


def _forged_extension(space, u, w):
    # V* with every cluster on a kernel limit outside cl U added: still
    # open, on the kernel still U, but its closure takes in those limits
    v = half_clopen_extension(space, u, w)
    cl_u = embed(u, space).closure()
    for c in scatter_clusters(space):
        if c.kind == "kernel" and not cl_u.membership(c.anchor):
            v = v.union(cluster_set(space, c))
    return v


@pytest.mark.parametrize("name", ["interval-sequence", "rank2"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("levels", range(2, 7))
def test_forged_closure_fails_the_exterior_check(name, mode, levels, monkeypatch):
    space = CORPUS[name]() if name in CORPUS else rank2_space()
    monkeypatch.setattr(construct, "half_clopen_extension", _forged_extension)
    with pytest.raises(ConstructionError) as err:
        build_proper_subbase(space, levels, mode)
    assert (err.value.condition, err.value.level) == ("starred-exterior-identity", 1)
