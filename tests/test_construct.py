import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from dyadictop import (ConstructionError, DyadicSubbase, SymbolicSet,
                       auto_seeds, build_independent_subbase,
                       build_proper_subbase, cb_kernel, check_independent,
                       check_proper, embed, extend_to_proper, kernel_set,
                       restrict, scattered_clopen_base)
from dyadictop import construct, lemmas
from dyadictop.construct import sample_points
from dyadictop.corpus import (CORPUS, converging_sequence_space,
                              interval_points_space, interval_sequence_space,
                              interval_space, two_intervals_point_space)
from dyadictop.space import GeometricSequence, Interval, IsolatedPoint, Space

from oracle import chunk_set, o_kernel_stage
from spacegen import random_spaces


# -- seeds ----------------------------------------------------------------

def test_auto_seeds_windows_shrink():
    fam = auto_seeds(interval_space(), 4)
    assert len(fam.entries) == 4
    assert fam.validate() == []
    assert fam.entries[0].core.render() == "[0/1,1/1]"
    assert fam.entries[1].core.render() == "[0/1,1/2)"
    assert fam.entries[2].core.render() == "(1/2,1/1]"
    assert fam.entries[3].core.render() == "[0/1,1/4)"


def test_auto_seeds_breadth_first_over_components():
    fam = auto_seeds(two_intervals_point_space(), 4)
    cores = [e.core.render() for e in fam.entries]
    assert cores == ["[0/1,1/1]", "[2/1,3/1]", "[0/1,1/2)", "(1/2,1/1]"]


def test_auto_seeds_hull_star_absorbs_near_clusters():
    fam = auto_seeds(interval_points_space(), 4)
    # the whole-kernel window swallows both far points
    assert fam.entries[0].hull_star.membership(F(2))
    # the [0,1/2] window leaves them to the other side
    assert not fam.entries[1].hull_star.membership(F(2))


def test_auto_seeds_cover_radius():
    fam = auto_seeds(interval_space(), 4)
    r = fam.cover_radius(F(1, 8))
    assert r is not None and F(*r) < F(1, 2)
    assert fam.cover_radius(F(7)) is None


def _cover_radius_in_fractions(fam, x):
    """The reference for ``cover_radius``: core membership, then the
    radius in ``Fraction`` arithmetic."""
    best = None
    for e, (lo, hi) in zip(fam.entries, fam.hull_bounds):
        if e.core.membership(x):
            r = max(x - lo, hi - x)
            best = r if best is None or r < best else best
    return best


def test_cover_radius_matches_the_fraction_version():
    """The seed families of the corpus and of seeded draws, their
    primitives also listed in reverse, in both modes: every core end and
    kernel end, the values just beside them, and a grid in 24ths with an
    off-grid value in each step."""
    spaces = [mk() for mk in CORPUS.values()] + random_spaces(28, 16)
    spaces += [Space(tuple(reversed(sp.primitives))) for sp in spaces]
    tiny = F(1, 2 ** 30)
    tried = covered = 0
    for sp in spaces:
        kernel = cb_kernel(sp).kernel
        if not kernel.intervals():
            continue
        for match_dim in (False, True):
            fam = auto_seeds(sp, 5, match_dim)
            ends = {v for e in fam.entries for s in e.core.spans for v in (s.lo, s.hi)}
            ends |= {v for iv in kernel.intervals() for v in (iv.lo, iv.hi)}
            values = {v + d for v in ends for d in (-tiny, 0, tiny)}
            lo, hi = min(ends), max(ends)
            values |= {lo + (hi - lo) * F(k, 24) + d for k in range(-2, 27) for d in (0, F(1, 97))}
            for x in values:
                r = fam.cover_radius(x)
                r = None if r is None else F(*r)
                assert r == _cover_radius_in_fractions(fam, x), (sp.render(), x)
                tried += 1
                covered += r is not None
    assert 0 < covered < tried


# -- kernel stage ---------------------------------------------------------

def test_build_independent_interval_level_zero():
    kernel = cb_kernel(interval_space()).kernel
    sb, traces = build_independent_subbase(kernel, 1)
    (tr,) = traces
    assert tr.a_words == ("",)
    assert tr.b_words == ()
    assert dict(tr.g)[""] == (3, 1, 2)
    assert chunk_set(kernel, dict(tr.g)[""]).render() == "(1/3,2/3)"
    assert tr.s0.render() == "[0/1,1/3) u (2/3,1/1]"
    assert tr.s1.render() == "(1/3,2/3)"


def test_build_independent_two_components_level_zero():
    kernel = cb_kernel(two_intervals_point_space()).kernel
    sb, traces = build_independent_subbase(kernel, 2)
    assert traces[0].a_words == () and traces[0].b_words == ()
    assert traces[0].s0.render() == "[0/1,1/1]"
    assert traces[0].s1.render() == "[2/1,3/1]"
    # level one: cell "1" fits in the window around [2,3], cell "0" clears it
    assert traces[1].a_words == ("1",)
    assert traces[1].b_words == ("0",)


def test_build_independent_passes_checks():
    kernel = cb_kernel(interval_space()).kernel
    sb, _ = build_independent_subbase(kernel, 4)
    assert check_proper(sb, 4).passed
    assert check_independent(sb, 4).passed


def test_build_independent_rejects_imperfect_space():
    with pytest.raises(ConstructionError) as err:
        build_independent_subbase(interval_points_space(), 2)
    assert err.value.condition == "kernel-not-perfect"


def test_build_independent_needs_enough_seeds():
    kernel = cb_kernel(interval_space()).kernel
    fam = auto_seeds(kernel, 2)
    with pytest.raises(ConstructionError) as err:
        build_independent_subbase(kernel, 4, seeds=fam)
    assert err.value.condition == "not-enough-seeds"


def test_build_independent_empty_levels():
    kernel = cb_kernel(interval_space()).kernel
    sb, traces = build_independent_subbase(kernel, 0)
    assert len(sb) == 0 and traces == []


# -- starred stage --------------------------------------------------------

def test_extend_interval_points_worked_example():
    sp = interval_points_space()
    _, star, traces = extend_to_proper(sp, 2, auto_seeds(sp, 2))
    s0s, s1s = star.pairs[0]
    assert s0s.render() == "[0/1,1/3) u (2/3,1/1] u {2} u {3}"
    assert s1s.render() == "(1/3,2/3)"
    assert traces[0].v_star == SymbolicSet.whole(sp)


def _with_entry(seeds, n, **fields):
    """The seed family with entry n's fields replaced."""
    entries = list(seeds.entries)
    entries[n] = replace(entries[n], **fields)
    return construct.SeedFamily(seeds.space, tuple(entries))


def test_extend_restricts_to_kernel_pairs():
    for name in ("interval-points", "interval-sequence", "two-intervals-point"):
        sp = CORPUS[name]()
        kernel = cb_kernel(sp).kernel
        seeds = auto_seeds(sp, 3)
        ksb, _ = build_independent_subbase(kernel, 3, seeds=seeds)
        _, star, _ = extend_to_proper(sp, 3, seeds)
        assert [(restrict(a, kernel), restrict(b, kernel))
                for a, b in star.pairs] == list(ksb.pairs)
        kernelS = kernel_set(sp)
        for s0s, s1s in star.pairs:
            assert s0s.boundary().subset_of(kernelS)
            assert s1s.boundary().subset_of(kernelS)
            assert s1s == s0s.exterior()


@pytest.mark.parametrize("forge,level", [
    # a family made on the kernel alone seeds its hull_stars over the kernel
    ("unseeded-run", 0),
    ("hull-star-misses-hull", 1),
])
def test_extend_names_a_seed_mismatch(forge, level):
    sp = interval_points_space()
    if forge == "unseeded-run":
        seeds = auto_seeds(cb_kernel(sp).kernel, 3)
    else:
        seeds = auto_seeds(sp, 3)
        seeds = _with_entry(seeds, 1, hull_star=embed(seeds.entries[1].core, sp))
    with pytest.raises(ConstructionError) as err:
        extend_to_proper(sp, 3, seeds)
    assert (err.value.condition, err.value.level) == ("trace-seed-mismatch", level)


@pytest.mark.parametrize("name,n,narrow_probe,wide_probe", [
    ("interval-sequence", 1, "1/6", "1/6"),
    ("two-intervals-point", 2, "1/6", "377/768"),
], ids=["interval-sequence", "two-intervals-point"])
def test_window_containment_names_its_probe(name, n, narrow_probe, wide_probe):
    # seeds that auto_seeds would refuse stop the kernel stage at its window
    # check: a hull narrower than its core, or a core wider than its hull
    sp = CORPUS[name]()
    kernel = cb_kernel(sp).kernel
    seeds = auto_seeds(sp, 3)
    entry = seeds.entries[n]
    (c,) = entry.core.spans
    (h,) = entry.hull.spans
    comp = next(iv for iv in kernel.intervals() if iv.lo <= c.lo <= iv.hi)
    narrow = SymbolicSet.region(kernel, [(c.lo, c.lo_in, (c.lo + c.hi) / 2, False)])
    wide = SymbolicSet.region(kernel, [(c.lo, c.lo_in, (h.hi + comp.hi) / 2, False)])
    for fields, probe in (({"hull": narrow}, narrow_probe), ({"core": wide}, wide_probe)):
        entries = list(seeds.entries)
        entries[n] = replace(entry, **fields)
        family = construct.SeedFamily(sp, tuple(entries))
        with pytest.raises(ConstructionError) as err:
            build_independent_subbase(kernel, 3, seeds=family)
        assert (err.value.condition, err.value.level) == ("seed-window-containment", n)
        assert err.value.details["probe"] == probe
        assert err.value.details["trace"]["level"] == n
        # the set-algebra kernel level refuses the same probe with the same trace
        with pytest.raises(ConstructionError) as ref:
            o_kernel_stage(kernel, 3, family)
        assert (ref.value.condition, ref.value.level, ref.value.details) == \
            (err.value.condition, err.value.level, err.value.details)


@pytest.mark.parametrize("name,n,probe", [
    ("interval-points", 0, "1/2"),
    ("two-intervals-point", 1, "5/2"),
])
def test_starred_window_containment_names_its_probe(name, n, probe):
    # a seed whose hull_star is its embedded hull alone leaves the
    # scattered points of the probe's starred cell outside
    sp = CORPUS[name]()
    seeds = auto_seeds(sp, 3)
    seeds = _with_entry(seeds, n, hull_star=embed(seeds.entries[n].hull, sp))
    with pytest.raises(ConstructionError) as err:
        extend_to_proper(sp, 3, seeds)
    assert (err.value.condition, err.value.level) == ("starred-window-containment", n)
    assert err.value.details["probe"] == probe
    assert "pair_star" in err.value.details["trace"]


def test_first_failing_level_stops_the_build():
    # level 1's hull_star is its embedded hull, which fails the starred
    # window check; level 2's hull is the first half of its core, which its
    # hull_star already holds, and fails the kernel one.  The build lifts
    # each pair as it is made, so level 1's failure is the one reported,
    # though it is a later stage's
    sp = two_intervals_point_space()
    kernel = cb_kernel(sp).kernel
    seeds = auto_seeds(sp, 3)
    seeds = _with_entry(seeds, 1, hull_star=embed(seeds.entries[1].hull, sp))
    (c,) = seeds.entries[2].core.spans
    narrow = SymbolicSet.region(kernel, [(c.lo, c.lo_in, (c.lo + c.hi) / 2, False)])
    seeds = _with_entry(seeds, 2, hull=narrow)
    with pytest.raises(ConstructionError) as err:
        extend_to_proper(sp, 3, seeds)
    assert (err.value.condition, err.value.level, err.value.details["probe"]) == \
        ("starred-window-containment", 1, "5/2")
    # the kernel stage alone reaches level 2 and fails there
    with pytest.raises(ConstructionError) as err:
        build_independent_subbase(kernel, 3, seeds=seeds)
    assert (err.value.condition, err.value.level, err.value.details["probe"]) == \
        ("seed-window-containment", 2, "1/6")


def test_build_reaches_each_timed_stage(monkeypatch):
    # the benchmark times the stages by wrapping these module attributes,
    # so a build must call each of them through its module's name; the
    # lift builds its set in one pass, so the separation is never called
    calls = {}
    for mod, name in ((construct, "auto_seeds"),
                      (construct, "extend_to_proper"),
                      (construct, "scattered_clopen_base"),
                      (construct, "half_clopen_extension"),
                      (lemmas, "separate_open_pair")):
        calls[name] = 0

        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    build_proper_subbase(interval_points_space(), 2)
    assert calls.pop("separate_open_pair") == 0
    assert all(calls.values()), calls


# -- scattered stage ------------------------------------------------------

def test_clopen_base_counts():
    assert len(scattered_clopen_base(interval_space(), 3)) == 0
    assert len(scattered_clopen_base(interval_points_space(), 3)) == 2
    # members only: the tail would pull in the kernel endpoint 1
    assert len(scattered_clopen_base(interval_sequence_space(), 3)) == 3
    # member singletons plus limit-anchored tails
    assert len(scattered_clopen_base(converging_sequence_space(), 3)) == 6


def test_clopen_base_sets_are_clopen():
    for mk in CORPUS.values():
        for h in scattered_clopen_base(mk(), 5):
            assert h.boundary().is_empty


def test_clopen_base_tail_sets_shrink():
    sets = scattered_clopen_base(converging_sequence_space(), 3)
    tails = [s for s in sets if not s.points or F(0) in s.points]
    tails = [s for s in tails if s.points == frozenset({F(0)})]
    assert len(tails) == 3
    for bigger, smaller in zip(tails, tails[1:]):
        assert smaller.subset_of(bigger)


def test_clopen_base_outside_limit_tails():
    sp = Space((IsolatedPoint(F(0)), GeometricSequence(F(1, 3), F(1, 3), True)))
    sets = scattered_clopen_base(sp, 2)
    # singleton {0}, two member singletons, two plain tails
    assert len(sets) == 5
    for s in sets:
        assert s.boundary().is_empty


# -- orchestration --------------------------------------------------------

def test_build_proper_all_corpus_passes():
    for name, mk in CORPUS.items():
        res = build_proper_subbase(mk(), 3, depth=4)
        assert res.passed, name


def test_build_proper_empty_kernel_is_all_clopen():
    res = build_proper_subbase(converging_sequence_space(), 3)
    assert len(res.kernel_subbase) == 0
    assert res.clopen_count == len(res.subbase)
    for h, ext in res.subbase.pairs:
        assert h.boundary().is_empty


def test_build_proper_match_dim_degree():
    res = build_proper_subbase(interval_sequence_space(), 3,
                               degree_mode="match_dim")
    deg = [r for r in res.reports if r.prop == "degree"][0]
    assert deg.stats["degree_sup"] == 1
    assert deg.stats["boundaries_pairwise_disjoint"] is True


@pytest.mark.parametrize("space, levels", [
    # a free point as far from one kernel component as from the other
    (Space((Interval(F(0), F(1)), IsolatedPoint(F(2)), Interval(F(3), F(4)))), 2),
    # a window margin wider than the gap to the next component
    (Space((Interval(F(0), F(4)), Interval(F(17, 4), F(5)))), 1),
    # a margin wide enough to take in the whole next component
    (Space((Interval(F(5, 4), F(37, 4)), Interval(F(39, 4), F(41, 4)))), 1),
], ids=["tie", "close-components", "swallowed-component"])
def test_build_proper_seed_geometries(space, levels):
    assert build_proper_subbase(space, levels).passed


@pytest.mark.parametrize("mode", ["unconstrained", "match_dim"])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_build_proper_member_anchored_cluster(levels, mode):
    # the second sequence converges to 11/2, the first member of the first
    space = Space((Interval(F(0), F(1)), IsolatedPoint(F(5)),
                   GeometricSequence(F(5), F(1)),
                   GeometricSequence(F(11, 2), F(1, 8))))
    res = build_proper_subbase(space, levels, degree_mode=mode)
    assert [r.prop for r in res.reports if r.passed] == \
        ["dyadic", "proper", "independent", "degree", "resolution"]


@pytest.mark.parametrize("name", [n for n in CORPUS if n != "converging-sequence"])
def test_match_dim_at_level_zero_needs_a_window_pair(name):
    # with a kernel, degree sup 1 needs a kernel pair's boundary
    with pytest.raises(ConstructionError) as err:
        build_proper_subbase(CORPUS[name](), 0, degree_mode="match_dim")
    assert (err.value.condition, err.value.level, err.value.details) == \
        ("match-dim-without-levels", -1, {})
    assert build_proper_subbase(CORPUS[name](), 0).passed


@pytest.mark.parametrize("mode", ["unconstrained", "match_dim"])
def test_level_zero_without_a_kernel_builds(mode):
    res = build_proper_subbase(converging_sequence_space(), 0, degree_mode=mode)
    assert res.passed and len(res.kernel_subbase) == 0


def test_checks_make_their_own_word_tables(monkeypatch):
    # every table a level reads its cells off is the construction's own:
    # none of them is the table of a subbase that a report's check reads
    built, checked = [], []
    real_cells = construct._cells

    def cells(table, n):
        built.append(table)
        return real_cells(table, n)
    monkeypatch.setattr(construct, "_cells", cells)
    for name in ("check_dyadic", "check_proper", "check_independent",
                 "degree_report", "resolution_check"):
        def check(sb, *args, _real=getattr(construct, name), **kwargs):
            report = _real(sb, *args, **kwargs)
            checked.append(sb.__dict__.get("word_table"))
            return report
        monkeypatch.setattr(construct, name, check)
    res = build_proper_subbase(interval_sequence_space(), 4)
    assert res.passed and len(built) == 5 and len(checked) == 5
    assert all(t is not None for t in checked[:2])
    assert not {id(t) for t in checked} & {id(t) for t in built}


def test_values_off_the_table_grid_fall_in_their_gap():
    # [0,1] cut at the mark 1/2 into the atoms [0,1/2), {1/2} and (1/2,1]
    # over the table's den 2; positions over a finer den land in the atom
    # that holds their value, and start it only on its bound
    space = interval_space()
    zero = SymbolicSet.region(space, [(F(0), True, F(1, 2), False)])
    table = DyadicSubbase.from_zero_sides(space, [zero]).word_table
    assert (table.den, table.bounds) == (2, [0, 2, 3, 5])
    assert construct._atom(table, 4, 4) == (2, True)  # 1/2
    assert construct._atom(table, 5, 4) == (3, True)  # just past 1/2
    assert construct._atom(table, 10, 8) == (3, False)  # 5/8
    assert construct._atom(table, 6, 8) == (1, False)  # 3/8
    window = SymbolicSet.region(space, [(F(1, 4), False, F(5, 8), False)])
    assert construct._span(table, window) == (2, 3, 1, 4)


def test_build_proper_rejects_unknown_mode():
    with pytest.raises(ConstructionError):
        build_proper_subbase(interval_space(), 2, degree_mode="fancy")


def test_build_proper_deterministic():
    a = build_proper_subbase(interval_points_space(), 3, depth=3)
    b = build_proper_subbase(interval_points_space(), 3, depth=3)
    assert json.dumps(a.to_dict(include_traces=True)) == \
        json.dumps(b.to_dict(include_traces=True))


def test_build_result_json_reloads_as_subbase():
    res = build_proper_subbase(interval_points_space(), 2, depth=3)
    again = DyadicSubbase.from_dict(json.loads(json.dumps(res.to_dict())))
    assert again == res.subbase


def test_sample_points_deterministic_and_in_space():
    sp = interval_sequence_space()
    pts = sample_points(sp, 15, random.Random(5), member_depth=6)
    assert pts == sample_points(sp, 15, random.Random(5), member_depth=6)
    assert all(sp.contains(x) for x in pts)
    assert len(set(pts)) == len(pts)
