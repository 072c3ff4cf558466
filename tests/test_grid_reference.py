"""The construction's window geometry on integer positions, against the
``Fraction`` versions it replaced (``fraction_reference``).

Every call that a build makes to ``_pick_between``, ``_interpolate_window``,
``_middle_third``, ``sets.nearer`` (through ``lemmas``), ``sample_points``
and ``WordTable.inner`` is compared with its reference on the same inputs
as values: the corpus at levels 1-6 and ``spacegen`` draws at levels 1-4,
each in both degree modes, and the equidistant point of fault F1 in both
listings at levels 1-10, where the nearer-side rule breaks ties.  On the
same builds, no mark lies strictly inside the first atom of a cell, the
range a chunk is cut from, in any word table a level reads (a mark's row
lacks both bits of a pair, so it is no cell's), so ``_middle_third``
never has to move an end off the marks.  A
two-span seed window is a named condition, and a build and the CLI never
read ``SymbolicSet.spans``.
"""
import json
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest

import fraction_reference as ref
from dyadictop import (ConstructionError, SymbolicSet, build_independent_subbase,
                       build_proper_subbase, cb_kernel, embed, extend_to_proper)
from dyadictop import construct, lemmas
from dyadictop.cli import main
from dyadictop.construct import SeedEntry, SeedFamily
from dyadictop.corpus import CORPUS
from dyadictop.space import Interval, IsolatedPoint, Space
from dyadictop.subbase import WordTable

from oracle import spans_of
from spacegen import random_spaces

MODES = ("unconstrained", "match_dim")
F1 = (Space((Interval(F(0), F(1)), IsolatedPoint(F(2)), Interval(F(3), F(4)))),
      Space((Interval(F(3), F(4)), IsolatedPoint(F(2)), Interval(F(0), F(1)))))


def _cases():
    for name, make in CORPUS.items():
        yield from ((name, make(), mode, n) for mode in MODES for n in range(1, 7))
    for seed in (7, 99, 20131018):
        for i, space in enumerate(random_spaces(seed, 50)):
            yield from ((f"{seed}.{i}", space, mode, n) for mode in MODES for n in range(1, 5))
    for i, space in enumerate(F1):
        yield from ((f"F1.{i}", space, mode, n) for mode in MODES for n in range(1, 11))


CASES = list(_cases())


def _used(den, marks):
    """Mark positions over den as values, the ``used`` set of the
    references."""
    return {F(p >> 1, den) for p in marks}


class Spies:
    """Wrappers that compare each call with its reference and count calls,
    ties of the nearer-side rule among them."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(
            ("pick", "window", "third", "cells", "nearer", "sample", "inner"), 0)
        self.ties = 0
        self.real = {}
        inner = self.inner

        def table_inner(table, lo, hi):
            return inner(table, lo, hi)
        for owner, name, spy in [
                (construct, "_pick_between", self.pick),
                (construct, "_interpolate_window", self.window),
                (construct, "_middle_third", self.third),
                (construct, "_cells", self.cells), (lemmas, "nearer", self.nearer),
                (construct, "sample_points", self.sample), (WordTable, "inner", table_inner)]:
            self.real[name] = getattr(owner, name)
            monkeypatch.setattr(owner, name, spy)

    def pick(self, anchor, limit, marks):
        # positions over some den, compared as values over 1: the midpoints
        # and the halving scale with den alike
        t, d = self.real["_pick_between"](anchor, limit, marks)
        assert F(t, d) == ref._pick_between(F(anchor), F(limit), _used(1, marks))
        self.calls["pick"] += 1
        return t, d

    def window(self, kernel, core, hull, grid):
        got = self.real["_interpolate_window"](kernel, core, hull, grid)
        assert got == ref._interpolate_window(kernel, core, hull, _used(*grid))
        self.calls["window"] += 1
        return got

    def third(self, lo, hi, den):
        got = self.real["_middle_third"](lo, hi, den)
        d, a, b = got
        assert math.gcd(d, a, b) == 1
        assert (F(a, d), F(b, d)) == ref._middle_third(F(lo, den), F(hi, den))
        self.calls["third"] += 1
        return got

    def cells(self, table, n):
        got = full, marks = self.real["_cells"](table, n)
        bounds = table.bounds
        at = [bounds[r - 1] for r in marks]  # the marks' positions
        for r in full.values():  # a cell's first atom, the run of its chunk
            lo, hi = bounds[r - 1] >> 1, bounds[r] >> 1
            assert bisect_right(at, 2 * lo) == bisect_left(at, 2 * hi), (lo, hi)
        self.calls["cells"] += 1
        return got

    def nearer(self, x, first, second):
        got = self.real["nearer"](x, first, second)
        a, b = spans_of(first), spans_of(second)
        assert got == ref.nearer_spans(x, a, b)
        d0, d1 = ref.dist_to_spans(x, a), ref.dist_to_spans(x, b)
        self.ties += d0 is not None and d0 == d1
        self.calls["nearer"] += 1
        return got

    def sample(self, space, count, rng, member_depth):
        again = random.Random()
        again.setstate(rng.getstate())
        got = self.real["sample_points"](space, count, rng, member_depth)
        assert got == ref.sample_points(space, count, again, member_depth)
        assert rng.getstate() == again.getstate()
        self.calls["sample"] += 1
        return got

    def inner(self, table, lo, hi):
        got = self.real["inner"](table, lo, hi)
        assert got == ref.inner(table, lo, hi)
        self.calls["inner"] += 1
        return got


def _build(space, levels, mode):
    try:
        build_proper_subbase(space, levels, mode)
    except ConstructionError:
        pass  # as F1 at depth, pinned in test_kernel_reference


@pytest.mark.parametrize("name,space,mode,levels", CASES,
                         ids=[f"{c[0]}-{c[2]}-L{c[3]}" for c in CASES])
def test_build_calls_match_fraction_reference(monkeypatch, name, space, mode, levels):
    Spies(monkeypatch)
    _build(space, levels, mode)


def test_every_helper_is_compared(monkeypatch):
    spies = Spies(monkeypatch)
    for name, space, mode, levels in CASES[::7]:
        _build(space, levels, mode)
    assert all(spies.calls.values()), spies.calls


@pytest.mark.parametrize("mode", MODES)
def test_equidistant_anchor_ties_match_reference(monkeypatch, mode):
    # 2 lies as far from [0,1] as from [3,4]: the whole-component hulls tie
    spies = Spies(monkeypatch)
    for space in F1:
        for levels in range(1, 11):
            _build(space, levels, mode)
    assert spies.ties > 0


def test_nearer_on_cuts_matches_reference():
    # every anchor at a sixteenth against every pair of the spaces' sets
    # drawn on quarters, ties and anchors inside a span among them
    space = Space((Interval(F(0), F(1)), Interval(F(2), F(3))))
    ends = [F(k, 4) for k in range(13)]
    rng = random.Random(30)
    sets = [SymbolicSet.empty(space)]
    for _ in range(40):
        lo, hi = sorted(rng.sample(ends, 2))
        sets.append(SymbolicSet.region(space, [(lo, rng.random() < .5, hi, rng.random() < .5)]))
    for a in sets[::3]:
        for b in sets[1::3]:
            for x in (F(k, 16) for k in range(-8, 57)):
                assert lemmas.nearer(x, a, b) == ref.nearer_spans(x, spans_of(a), spans_of(b))


# -- seeds of more than one span -------------------------------------------

def _two_span_seeds():
    space = Space((Interval(F(0), F(1)), Interval(F(2), F(3))))
    kernel = cb_kernel(space).kernel
    core = SymbolicSet.region(kernel, [(F(1, 4), False, F(1, 2), False),
                                       (F(9, 4), False, F(5, 2), False)])
    hull = SymbolicSet.region(kernel, [(F(1, 8), False, F(5, 8), False),
                                       (F(17, 8), False, F(21, 8), False)])
    seeds = SeedFamily(space, (SeedEntry(core, hull, embed(hull, space)),))
    return space, kernel, seeds


def test_two_span_seed_is_valid():
    assert _two_span_seeds()[2].validate() == []


@pytest.mark.parametrize("entry_point", ["build_independent_subbase", "extend_to_proper"])
def test_two_span_seed_window_is_named(entry_point):
    space, kernel, seeds = _two_span_seeds()
    with pytest.raises(ConstructionError) as err:
        if entry_point == "build_independent_subbase":
            build_independent_subbase(kernel, 1, seeds=seeds)
        else:
            extend_to_proper(space, 1, seeds)
    e = seeds.entries[0]
    assert (err.value.condition, err.value.level) == ("seed-window-not-one-span", 0)
    assert err.value.details == {"window": {"core": e.core.to_dict(), "hull": e.hull.to_dict()}}
    assert err.value.details["window"]["core"]["intervals"] == ["(1/4,1/2)", "(9/4,5/2)"]


def test_one_span_core_in_a_two_span_hull_is_named():
    space, kernel, seeds = _two_span_seeds()
    e = seeds.entries[0]
    one = SymbolicSet.region(kernel, [(F(1, 4), False, F(1, 2), False)])
    family = SeedFamily(space, (SeedEntry(one, e.hull, e.hull_star),))
    assert family.validate() == []
    with pytest.raises(ConstructionError) as err:
        build_independent_subbase(kernel, 1, seeds=family)
    assert (err.value.condition, err.value.level) == ("seed-window-not-one-span", 0)


# -- no span reads ---------------------------------------------------------

def _no_spans(monkeypatch):
    def spans(self):
        raise AssertionError("SymbolicSet.spans read")
    monkeypatch.setattr(SymbolicSet, "spans", property(spans))


@pytest.mark.parametrize("name", list(CORPUS))
def test_build_reads_no_spans(monkeypatch, name):
    space = CORPUS[name]()
    _no_spans(monkeypatch)
    for mode in MODES:
        assert build_proper_subbase(space, 4, mode).passed


def test_cli_build_and_check_read_no_spans(monkeypatch, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(CORPUS["interval-sequence"]().to_dict()))
    built = tmp_path / "subbase.json"
    _no_spans(monkeypatch)
    assert main(["build", str(path), "--levels", "4", "--depth", "3",
                 "--format", "json"]) == 0
    built.write_text(capsys.readouterr().out)
    assert main(["check", str(built), "--depth", "3"]) == 0
    assert main(["check", str(path), "--levels", "3", "--depth", "3"]) == 0
