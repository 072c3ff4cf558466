"""The kernel stage on its atom table, against the set-algebra reference.

``oracle.o_kernel_stage`` keeps every cell and every intersection of
closures as a set, level by level.  The build must give the same pairs and
the same traces, or raise the same condition at the same level with the
same details: its probe or word, and its trace.  The inputs are the corpus
at levels 1-8 and three ``spacegen`` seeds at levels 1-4, each in both
degree modes, kernels listed right to left, the equidistant point of fault
F1 in both listings, and a forged seed family whose class-B cell spans two
components.  Two mutants of shared helpers make levels fail, so that the
failing conditions are compared too.  The narrow and wide seeds of
``test_construct.test_window_containment_names_its_probe`` are compared
there, and the forged hull_stars of ``test_starred_window`` change only the
starred stage, whose verdict that module checks against whole starred
cells.
"""
from fractions import Fraction as F
from itertools import product

import pytest

from dyadictop import (ConstructionError, SymbolicSet, auto_seeds,
                       build_independent_subbase, build_proper_subbase, cb_kernel,
                       embed)
from dyadictop import construct
from dyadictop.construct import SeedEntry, SeedFamily
from dyadictop.corpus import CORPUS
from dyadictop.space import Interval, IsolatedPoint, Space

import fraction_reference
from oracle import Span, chunk_set, o_kernel_stage, span_set, spans_of
from spacegen import random_spaces

MODES = ("unconstrained", "match_dim")

RIGHT_TO_LEFT = {
    "[3,4] u [0,1]": Space((Interval(F(3), F(4)), Interval(F(0), F(1)))),
    "[3,4] u {9/4} u [0,1]": Space((Interval(F(3), F(4)), IsolatedPoint(F(9, 4)),
                                    Interval(F(0), F(1)))),
}
F1 = {
    "[0,1] u {2} u [3,4]": Space((Interval(F(0), F(1)), IsolatedPoint(F(2)),
                                  Interval(F(3), F(4)))),
    "[3,4] u {2} u [0,1]": Space((Interval(F(3), F(4)), IsolatedPoint(F(2)),
                                  Interval(F(0), F(1)))),
}


def _has_kernel(space):
    return bool(cb_kernel(space).kernel.intervals())


def _cases():
    for name, make in CORPUS.items():
        if _has_kernel(make()):
            yield from ((name, make(), mode, n) for mode in MODES for n in range(1, 9))
    for seed in (7, 99, 20131018):
        for i, space in enumerate(random_spaces(seed, 50)):
            if _has_kernel(space):
                yield from ((f"{seed}.{i}", space, mode, n)
                            for mode in MODES for n in range(1, 5))
    for name, space in RIGHT_TO_LEFT.items():
        yield from ((name, space, mode, n) for mode in MODES for n in range(1, 9))
    for name, space in F1.items():
        yield from ((name, space, mode, 9) for mode in MODES)


CASES = list(_cases())


def _build(kernel, levels, seeds, match_dim):
    sb, traces = build_independent_subbase(kernel, levels, seeds=seeds, match_dim=match_dim)
    return sb.pairs, traces


def _outcome(stage, *args):
    try:
        pairs, traces = stage(*args)
    except ConstructionError as err:
        return err.condition, err.level, err.details
    return tuple(pairs), traces


def _assert_same(*args):
    assert _outcome(_build, *args) == _outcome(o_kernel_stage, *args)


@pytest.mark.parametrize("name,space,mode,levels", CASES,
                         ids=[f"{c[0]}-{c[2]}-L{c[3]}" for c in CASES])
def test_kernel_stage_matches_reference(name, space, mode, levels):
    match_dim = mode == "match_dim"
    _assert_same(cb_kernel(space).kernel, levels, auto_seeds(space, levels, match_dim),
                 match_dim)


def _window(space, comp, lo, hi, n):
    """The seed of level n on [lo, hi] inside comp, with the margin of
    ``auto_seeds`` and a hull_star that takes in nothing more."""
    kernel = cb_kernel(space).kernel
    core = SymbolicSet.region(kernel, [(lo, lo == comp.lo, hi, hi == comp.hi)])
    margin = (comp.hi - comp.lo) / 2 ** (n + 3)
    a, b = max(lo - margin, comp.lo), min(hi + margin, comp.hi)
    hull = SymbolicSet.region(kernel, [(a, a == comp.lo, b, b == comp.hi)])
    return SeedEntry(core, hull, embed(hull, space))


def test_first_run_in_intervals_order_matches_reference():
    # the first two windows lie in [6,7], so at level 1 the cell [3,4] u [0,1]
    # is clear of cl V, and its chunk is cut from its first span in
    # intervals() order, on [3,4], not from its lowest, on [0,1]
    space = Space((Interval(F(3), F(4)), Interval(F(0), F(1)), Interval(F(6), F(7))))
    c3, c0, c6 = space.intervals()
    windows = [(c6, F(6), F(7)), (c6, F(6), F(13, 2)), (c3, F(3), F(4)), (c0, F(0), F(1))]
    seeds = SeedFamily(space, tuple(_window(space, *w, n) for n, w in enumerate(windows)))
    assert seeds.validate() == []
    kernel = cb_kernel(space).kernel
    for match_dim in (False, True):
        _assert_same(kernel, 4, seeds, match_dim)
    _, traces = build_independent_subbase(kernel, 2, seeds=seeds)
    assert traces[1].b_words == ("1",)
    assert dict(traces[1].g)["1"] == (3, 10, 11)
    assert chunk_set(kernel, dict(traces[1].g)["1"]).render() == "(10/3,11/3)"


def _window_from_a_third(kernel, core, hull, used):
    # V from a third of the way along the core: its lower end can land on
    # an earlier level's boundary point
    (c,) = spans_of(core)
    return span_set(kernel, [Span(c.lo + (c.hi - c.lo) / 3, False, c.hi, c.hi_in)])


def _without_class_b(whole, v, cl_v, g_a, g_b):
    # no chunk of class B moves into V, so a class B cell has no zero child
    s0 = v.difference(g_a.closure())
    return s0, s0.exterior()


@pytest.mark.parametrize("helper,mutant,conditions", [
    ("_interpolate_window", _window_from_a_third,
     {"closure-product-identity", "seed-window-containment"}),
    ("_assemble", _without_class_b, {"cells-nonempty"}),
], ids=["window-from-a-third", "without-class-b"])
def test_failing_levels_match_reference(monkeypatch, helper, mutant, conditions):
    # the build calls the helper through the construct module and the
    # reference through its own, or, for the window, through the Fraction
    # version it keeps; the mutant replaces both, so it breaks both alike
    # and the failures must agree
    monkeypatch.setattr(construct, helper, mutant)
    if hasattr(fraction_reference, helper):
        monkeypatch.setattr(fraction_reference, helper, mutant)
    seen = set()
    for name, make in CORPUS.items():
        space = make()
        if not _has_kernel(space):
            continue
        for mode, levels in product(MODES, (2, 4, 6)):
            match_dim = mode == "match_dim"
            args = (cb_kernel(space).kernel, levels, auto_seeds(space, levels, match_dim),
                    match_dim)
            got = _outcome(_build, *args)
            assert got == _outcome(o_kernel_stage, *args), (name, mode, levels)
            seen.add(got[0])
    assert conditions <= seen


@pytest.mark.parametrize("name", list(RIGHT_TO_LEFT))
@pytest.mark.parametrize("mode", MODES)
def test_right_to_left_kernels_build(name, mode):
    # intervals() order puts [3,4] first, so a cell's first span in that
    # order is not its lowest
    for levels in range(1, 9):
        assert build_proper_subbase(RIGHT_TO_LEFT[name], levels, mode).passed


# F1 at depth: the point 2 is as far from [0,1] as from [3,4]
F1_FAULT = {"[0,1] u {2} u [3,4]": (9, 8, "49709/93312"),
            "[3,4] u {2} u [0,1]": (8, 7, "7741/2304")}


@pytest.mark.parametrize("name", list(F1))
@pytest.mark.parametrize("mode", MODES)
def test_equidistant_point_fails_at_depth(name, mode):
    # the starred stage refuses the first level whose window probe's starred
    # cell leaves its hull_star; pinned so that a fix shows as a change here
    levels, level, probe = F1_FAULT[name]
    with pytest.raises(ConstructionError) as err:
        build_proper_subbase(F1[name], levels, mode)
    assert (err.value.condition, err.value.level) == ("starred-window-containment", level)
    assert err.value.details["probe"] == probe


@pytest.mark.xfail(strict=True, raises=ConstructionError,
                   reason="F1 at depth: starred-window-containment on an "
                          "equidistant point (ROADMAP item 7)")
@pytest.mark.parametrize("name", list(F1))
@pytest.mark.parametrize("mode", MODES)
def test_equidistant_point_builds_at_depth(name, mode):
    levels, _, _ = F1_FAULT[name]
    assert build_proper_subbase(F1[name], levels, mode).passed


@pytest.mark.parametrize("mode", MODES)
def test_point_off_the_midpoint_builds(mode):
    # 9/4 lies nearer [3,4] than [0,1], so no tie is broken
    space = Space((Interval(F(0), F(1)), IsolatedPoint(F(9, 4)), Interval(F(3), F(4))))
    for levels in range(1, 11):
        assert build_proper_subbase(space, levels, mode).passed
