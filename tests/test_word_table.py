"""Point words and cells of a subbase, against its sides one by one.

``forced_word`` must give, pair by pair, the side whose ``membership``
holds the point, ``degree_report``, which reads each pair's residue off the
side masks, the residue sizes, degree sup and disjointness of the set
algebra's residues, ``decode_word`` the cell ``oracle.o_cell`` intersects
from the whole space, and ``check_independent``, which walks the sides'
atom masks, the report of ``oracle.o_independent``.  The subbases are the
corpus builds at levels 1-8 and the builds at levels 1-4 of the valid
spaces among the first 25 draws of three ``spacegen`` seeds, in both
degree modes, the Gray subbase and the broken fixture of ``tests/data``,
each also reloaded through ``DyadicSubbase.from_dict``, which must give
it back with byte-identical JSON.  The points are
every cut value of a side and interval end, the midpoint of each gap
between consecutive ones and the first multiple of 1/3, 1/5 and 1/7 inside
it, the isolated points, the members 1 to levels + 6 and the limit of each
sequence, and points outside the space.  A side's mask must also meet
``WordTable.pieces`` at exactly the points ``oracle.o_closure`` puts in
the side's closure, on the builds of each corpus space and of
``spacegen.rank2_space``.
"""
import functools
import itertools
import json
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from dyadictop import (DyadicSubbase, SubbaseError, SymbolicSet, TernaryWord,
                       build_proper_subbase, check_independent, decode_word,
                       degree_report, encode_point, load_subbase)
from dyadictop.checks import MAX_COUNTEREXAMPLES
from dyadictop.corpus import CORPUS, gray_pairs, interval_space

from oracle import critical_values, o_cell, o_closure, o_independent, random_set
from spacegen import random_spaces, rank2_space

MODES = ("unconstrained", "match_dim")
SEEDS = (7, 99, 20131018)
BAD = pathlib.Path(__file__).parent / "data" / "bad_subbase.json"


@functools.cache
def _draws(seed):
    return random_spaces(seed, 25)


def _cases():
    for name in CORPUS:
        yield from (f"{name}-{mode}" for mode in MODES)
    for seed in SEEDS:
        yield from (f"{seed}.{i}-{mode}" for i in range(len(_draws(seed))) for mode in MODES)
    yield from ("gray", "bad-subbase")


@functools.cache
def _subbases(case):
    """(levels, subbase) for each subbase of a case."""
    if case == "gray":
        return [(5, DyadicSubbase.from_zero_sides(interval_space(), gray_pairs(interval_space(), 5)))]
    if case == "bad-subbase":
        sb = load_subbase(str(BAD))
        return [(len(sb), sb)]
    name, mode = case.rsplit("-", 1)
    if name in CORPUS:
        space, top = CORPUS[name](), 8
    else:
        seed, i = name.split(".")
        space, top = _draws(int(seed))[int(i)], 4
    return [(n, build_proper_subbase(space, n, degree_mode=mode, depth=1).subbase)
            for n in range(1, top + 1)]


def _points(sb, levels):
    space = sb.space
    sides = [side for pair in sb.pairs for side in pair]
    ends = {v for iv in space.intervals() for v in (iv.lo, iv.hi)}
    vals = sorted(ends | {F(p >> 1, side.den) for side in sides for p in side.cuts})
    pts = set(vals)
    for u, w in zip(vals, vals[1:]):
        pts.add((u + w) / 2)
        # the first third, fifth and seventh past u, where the gap holds one
        pts |= {v for v in (F(math.floor(u * d) + 1, d) for d in (3, 5, 7)) if v < w}
    pts |= {p.value for p in space.isolated_points()}
    for s in space.sequences():
        members = [s.member(k) for k in range(1, levels + 7)]
        pts |= set(members) | {s.limit}
        # between two members lies outside the space, unless an interval holds it
        pts |= {(u + w) / 2 for u, w in zip(members, members[1:])}
    return sorted(pts | {min(pts) - 1, max(pts) + 1})


def _membership_word(sb, x):
    entries = []
    for idx, (zero, one) in enumerate(sb.pairs):
        if zero.membership(x):
            entries.append((idx, 0))
        elif one.membership(x):
            entries.append((idx, 1))
    return tuple(entries)


def _prefix(entries, width):
    return tuple(e for e in entries if e[0] < width)


def _with_reloaded(case):
    for levels, sb in _subbases(case):
        yield levels, sb, DyadicSubbase.from_dict(sb.to_dict())


@pytest.mark.parametrize("case", list(_cases()))
def test_a_subbase_file_loads_back_byte_identical(case):
    """Loading a subbase's JSON gives the same subbase, whose JSON is the
    same text."""
    for _, sb in _subbases(case):
        text = json.dumps(sb.to_dict())
        back = DyadicSubbase.from_dict(json.loads(text))
        assert back == sb and json.dumps(back.to_dict()) == text


@pytest.mark.parametrize("case", list(_cases()))
def test_forced_word_matches_membership(case):
    for levels, *subbases in _with_reloaded(case):
        n = len(subbases[0])
        for x in _points(subbases[0], levels):
            want = _membership_word(subbases[0], x)
            inside = subbases[0].space.contains(x)
            assert inside or not want, x
            for sb in subbases:
                full = sb.forced_word(x)
                assert full.entries == want, x
                for width in sorted({0, 1, n // 2, n}):
                    assert sb.forced_word(x, width).entries == _prefix(want, width), (x, width)
                assert sb.forced_word(x) == full, x
                if inside:
                    assert encode_point(sb, x).word == full, x
                    assert encode_point(sb, x, n // 2).word.entries == _prefix(want, n // 2), x
        # the residues, the points with a bottom digit, by set algebra
        whole = SymbolicSet.whole(subbases[0].space)
        residues = [whole.difference(a.union(b)).as_finite_points()
                    for a, b in subbases[0].pairs]
        sup = max(Counter(x for r in residues for x in r or ()).values(), default=0)
        for sb in subbases:
            rep = degree_report(sb, n)
            assert rep.stats["boundary_sizes"] == [len(r or ()) for r in residues]
            assert rep.stats["degree_sup"] == sup
            assert rep.stats["boundaries_pairwise_disjoint"] == (sup <= 1)
            assert [c["index"] for c in rep.counterexamples] == \
                [i for i, r in enumerate(residues) if r is None]


@pytest.mark.parametrize("case", list(_cases()))
def test_decode_word_matches_the_chain_of_intersections(case):
    rng = random.Random(20131018)
    for levels, *subbases in _with_reloaded(case):
        n = len(subbases[0])
        words = [TernaryWord()]
        words += [TernaryWord(((idx, d),)) for idx in range(n) for d in (0, 1)]
        words += [TernaryWord.from_string("".join(rng.choice("01_") for _ in range(n)))
                  for _ in range(5)]
        words += [subbases[0].forced_word(x) for x in _points(subbases[0], levels)[::10]]
        for word in words:
            want = o_cell(subbases[0], word.to_string(n))
            for sb in subbases:
                assert decode_word(sb, word) == want, word


def test_the_memo_keeps_one_word_per_atom():
    levels, built = _subbases("interval-sequence-unconstrained")[-1]
    sb = DyadicSubbase.from_dict(built.to_dict())
    table = sb.word_table
    assert not table.words
    for i in range(5000):
        encode_point(sb, F(2 * i + 1, 10000))
    assert len(table.words) <= len(table.bounds) + 1
    for x in _points(sb, levels):
        sb.forced_word(x)
    atoms = (len(table.bounds) + 1 + len(sb.space.isolated_points())
             + sum(len(switches) + 1 for switches in table.switches))
    assert len(table.words) <= atoms


@pytest.mark.parametrize("case", list(_cases()))
def test_independent_report_matches_the_walk(case):
    for _, sb in _subbases(case):
        for depth in range(7):
            want = o_independent(sb, depth, MAX_COUNTEREXAMPLES)
            assert check_independent(sb, depth).to_dict() == want, depth


def _late_words(sb, levels, rng):
    """Words naming only the second half of the pairs: each point's forced
    word cut to those pairs, and random digits there."""
    n = len(sb)
    late = [TernaryWord(tuple(e for e in sb.forced_word(x).entries if e[0] >= n // 2))
            for x in _points(sb, levels)[::7]]
    late += [TernaryWord.from_string("_" * (n // 2) + "".join(
        rng.choice("01_") for _ in range(n - n // 2))) for _ in range(5)]
    return late


@pytest.mark.parametrize("name", list(CORPUS))
def test_decode_on_a_fresh_and_a_filled_table(name):
    """The same cells whether decoding builds the table or encodes filled
    it first, for every two-digit word, words naming only late pairs and
    forced words; the cells met include tail-only ones on the spaces with
    sequences, and point-only ones on those with a point no sequence
    converges to."""
    rng = random.Random(19)
    levels, built = _subbases(f"{name}-unconstrained")[3]
    n = len(built)
    points = [x for x in _points(built, levels) if built.space.contains(x)]
    words = [TernaryWord(((i, a), (j, b))) for i in range(n) for j in range(i + 1, n)
             for a in (0, 1) for b in (0, 1)]
    words += _late_words(built, levels, rng) + [built.forced_word(x) for x in points]
    want = [o_cell(built, w.to_string(n)) for w in words]
    fresh = DyadicSubbase.from_dict(built.to_dict())
    filled = DyadicSubbase.from_dict(built.to_dict())
    for x in points:
        encode_point(filled, x)
    assert "word_table" not in fresh.__dict__ and filled.word_table.words
    for sb in (fresh, filled):
        assert [decode_word(sb, w) for w in words] == want
    kinds = {("cuts" if c.cuts else "") + ("points" if c.points else "")
             + ("tails" if any(c.tails) else "") for c in want}
    space = built.space
    limits = {s.limit for s in space.sequences()}
    assert "points" in kinds or all(p.value in limits for p in space.isolated_points())
    assert "tails" in kinds or not space.sequences()


@pytest.mark.parametrize("name", list(CORPUS))
def test_decode_sides_that_are_not_exteriors(name):
    """Seeded random pairs through ``from_pairs``, neither side the other's
    exterior nor regular open, decoded on every two- and three-digit word
    and words naming only late pairs."""
    rng = random.Random(name)
    space = CORPUS[name]()
    sb = DyadicSubbase.from_pairs(space, [(random_set(space, rng), random_set(space, rng))
                                          for _ in range(5)])
    words = [TernaryWord.from_string(w) for w in
             ("".join(ds) for ds in itertools.product("_01", repeat=5))
             if 2 <= len(w.replace("_", "")) <= 3]
    words += _late_words(sb, 5, rng)
    for w in words:
        assert decode_word(sb, w) == o_cell(sb, w.to_string(5)), w


def test_decode_with_a_one_side_that_is_not_the_exterior():
    x1 = interval_space()
    zero = SymbolicSet.region(x1, [(F(0), True, F(1, 2), False)])
    one = SymbolicSet.region(x1, [(F(1, 4), False, F(1), True)])
    gray = gray_pairs(x1, 2)
    sb = DyadicSubbase.from_pairs(x1, [(zero, one), (gray[1], gray[1].exterior())])
    for text in ("00", "01", "10", "11"):
        assert decode_word(sb, TernaryWord.from_string(text)) == o_cell(sb, text), text
    # the one side (1/4,1] overlaps the zero side [0,1/2)
    assert decode_word(sb, TernaryWord.from_string("11")).render() == "(1/4,3/4)"
    # and a point both hold takes the zero digit
    assert sb.forced_word(F(3, 8)).entries[0] == (0, 0)


def test_an_index_out_of_range_raises_before_the_table_is_built():
    _, built = _subbases("interval-sequence-unconstrained")[3]
    sb = DyadicSubbase.from_dict(built.to_dict())
    with pytest.raises(SubbaseError, match="word uses index"):
        decode_word(sb, TernaryWord(((0, 0), (len(sb), 1))))
    assert "word_table" not in sb.__dict__
    assert decode_word(sb, TernaryWord()) == SymbolicSet.whole(sb.space)
    assert "word_table" not in sb.__dict__


def test_masks_are_built_only_for_the_sides_words_name():
    """Decoding on a fresh load builds the masks of the sides its words
    name and no others.  Encoding reads every side's mask, and its memo
    keeps one word per atom bit of the points encoded."""
    _, built = _subbases("interval-sequence-unconstrained")[-1]
    sb = DyadicSubbase.from_dict(built.to_dict())
    decode_word(sb, TernaryWord(((1, 0),)))
    assert "word_table" not in sb.__dict__
    decode_word(sb, TernaryWord(((1, 0), (4, 1))))
    decode_word(sb, TernaryWord(((1, 0), (6, 0))))
    table = sb.word_table
    assert sorted(table.masks) == [2, 9, 12]
    points = [x for x in _points(sb, 8)[::5] if sb.space.contains(x)]
    for x in points:
        sb.forced_word(x)
    assert sorted(table.masks) == list(range(2 * len(sb)))
    assert set(table.words) == {table.atom(sb.space.locate(x), x) for x in points}
    assert all(0 <= b < table.nbits for b in table.words)


@pytest.mark.parametrize("name", list(CORPUS) + ["rank2"])
def test_pieces_meet_a_side_exactly_where_its_closure_holds_the_point(name):
    """For the builds at levels 1-4 and five seeded pairs of random sides,
    every critical point x and side i: ``mask(i) & pieces(x)`` is not 0
    exactly when ``oracle.o_closure`` puts x in the side's closure.  The
    points are those of ``_points`` inside the space: every cut value,
    point and limit, and points off the grid between cut values."""
    rng = random.Random(name)
    space = rank2_space() if name == "rank2" else CORPUS[name]()
    subbases = [build_proper_subbase(space, levels, depth=1).subbase for levels in range(1, 5)]
    subbases.append(DyadicSubbase.from_pairs(space, [(random_set(space, rng), random_set(space, rng))
                                                     for _ in range(5)]))
    met = 0
    for sb in subbases:
        table = sb.word_table
        sides = table.sides
        for x in [x for x in _points(sb, 1) if space.contains(x)]:
            pieces = table.pieces(x)
            assert pieces & ~table.whole == 0, x  # pieces lie in the space
            for i, side in enumerate(sides):
                want = o_closure(space, side.membership, critical_values(space, [side]), x)
                assert (table.mask(i) & pieces != 0) == want, (x, i)
                met += want and not side.membership(x)
    assert met
