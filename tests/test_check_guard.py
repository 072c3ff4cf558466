"""The properness, independence, degree and dyadic checks against
references that share none of their shortcuts.

``check_proper`` decides from per-atom side rows, ``check_independent``
from the 2^d words without ⊥, ``degree_report`` from bit-sliced counts
over the residue masks and ``check_dyadic`` from the atoms each side's
closure touches; ``oracle.o_proper`` and ``oracle.o_independent`` walk
every word on sets, ``_reference_degree`` takes each residue through
``WordTable.cell`` and ``as_finite_points``, and ``_reference_dyadic``
takes each zero side's closure, interior and complement.
"""
import random
from fractions import Fraction as F

import pytest

from dyadictop import (DyadicSubbase, GeometricSequence, IsolatedPoint, Space, SymbolicSet,
                       TailRule, TernaryWord, build_proper_subbase, check_dyadic,
                       check_independent, check_proper, degree_report)
from dyadictop.checks import MAX_COUNTEREXAMPLES
from dyadictop.corpus import (CORPUS, converging_sequence_space, gray_pairs,
                              interval_sequence_space, interval_space)
from dyadictop.rational import format_rational
from dyadictop.sets import kernel_set

from oracle import o_cell, o_independent, o_proper, random_set
from spacegen import random_spaces, rank2_space

X1 = interval_space()


def _random_subbases(seed: int, count: int, most: int):
    """``count`` subbases of 1 to ``most`` pairs, each zero side a seeded
    random set regularized, the one side its exterior, over the valid
    ``spacegen`` draws of the same seed."""
    rng = random.Random(seed)
    spaces = random_spaces(seed, 80)
    for _ in range(count):
        space = rng.choice(spaces)
        zeros = [random_set(space, rng).regularization() for _ in range(rng.randint(1, most))]
        yield DyadicSubbase.from_pairs(space, [(a, a.exterior()) for a in zeros])


def test_proper_and_independent_match_the_oracles_at_every_depth():
    draws = improper = dependent = 0
    for sb in _random_subbases(31, 150, 6):
        for depth in range(len(sb.pairs) + 1):
            want = o_proper(sb, depth, MAX_COUNTEREXAMPLES)
            assert check_proper(sb, depth).to_dict() == want, (sb.to_dict(), depth)
            want_ind = o_independent(sb, depth, MAX_COUNTEREXAMPLES)
            assert check_independent(sb, depth).to_dict() == want_ind, (sb.to_dict(), depth)
            draws += 1
            improper += not want["passed"]
            dependent += not want_ind["passed"]
    # about 18% improper and half as many passing as failing independence
    assert draws == 700 and improper == 129 and dependent == 336


def _gray_with(pairs, at):
    """The Gray pairs of [0,1] with ``pairs`` put in at the indices ``at``."""
    out = list(DyadicSubbase.from_zero_sides(X1, gray_pairs(X1, 10 - len(pairs))).pairs)
    for i, pair in sorted(zip(at, pairs)):
        out.insert(i, pair)
    return DyadicSubbase.from_pairs(X1, out)


def test_one_empty_word_without_bottom_at_depth_10():
    """Nine Gray pairs and a tenth whose zero side misses the closure of
    the cell of 0^9, whose one side is X: only the word 0^10 is empty, so
    the walk that lists it runs through all 3^10 words."""
    whole = SymbolicSet.whole(X1)
    gray = DyadicSubbase.from_zero_sides(X1, gray_pairs(X1, 9))
    first = gray.sigma_sets(TernaryWord(tuple((i, 0) for i in range(9))))
    sb = DyadicSubbase.from_pairs(X1, gray.pairs + ((whole.difference(first.closure()), whole),))
    assert check_independent(sb, 10).to_dict() == {
        "property": "independent", "depth": 10, "passed": False,
        "counterexamples": [{"word": "0" * 10}],
        "stats": {"words_checked": 3 ** 10, "depth_requested": 10}}
    assert o_cell(sb, "0" * 10).is_empty
    assert not o_cell(sb, "0" * 9 + "1").is_empty
    assert check_independent(sb, 9).to_dict() == o_independent(sb, 9, MAX_COUNTEREXAMPLES)


@pytest.mark.parametrize("at", [(8, 9), (0, 9)])
def test_a_boundary_point_shared_by_two_pairs_at_depth_10(at):
    """Eight Gray pairs and two pairs that both end at 1/3, one the other
    reversed: a word with the same digit at both fails at 1/3 when the
    other digits' sides hold 1/3 in their closures.  With the shared pairs
    first and last the walk meets 3^9 words before the first failure."""
    left = SymbolicSet.region(X1, [(F(0), True, F(1, 3), False)])
    sb = _gray_with([(left, left.exterior()), (left.exterior(), left)], at)
    got = check_proper(sb, 10)
    assert got.to_dict() == o_proper(sb, 10, MAX_COUNTEREXAMPLES)
    assert {c["witness"] for c in got.counterexamples} == {"1/3"}
    assert got.stats["words_checked"] > (3 ** 9 if at == (0, 9) else 500)
    assert check_proper(sb, 9).passed
    assert degree_report(sb, 10, (), expected_sup=1).counterexamples[1:] == (
        {"point": "1/3", "indices": list(at), "reason": "boundary point shared by several pairs"},)


# -- the degree survey ----------------------------------------------------

def _reference_degree(sb, depth, probes=(), expected_sup=None, seed=None):
    """The ``to_dict`` of ``degree_report`` with every residue made as a set
    by ``WordTable.cell`` and listed by ``as_finite_points``, and each point
    counted in a dict of values."""
    eff = max(0, min(depth, len(sb.pairs)))
    table = sb.word_table
    residues, non_finite = [], []
    for idx in range(eff):
        held = table.mask(2 * idx) | table.mask(2 * idx + 1)
        pts = table.cell(table.whole & ~held).as_finite_points()
        if pts is None:
            non_finite.append(idx)
            pts = ()
        residues.append(pts)
    multiplicity = {}
    for idx, pts in enumerate(residues):
        for p in pts:
            multiplicity.setdefault(p, []).append(idx)
    sup = max((len(v) for v in multiplicity.values()), default=0)
    clashes = sorted(p for p, v in multiplicity.items() if len(v) > 1)
    counterexamples = [{"index": idx, "reason": "residue is infinite"} for idx in non_finite]
    if expected_sup is not None and sup != expected_sup:
        counterexamples.append({"reason": "degree sup mismatch",
                                "expected": expected_sup, "actual": sup})
        counterexamples += [{"point": format_rational(p), "indices": multiplicity[p],
                             "reason": "boundary point shared by several pairs"}
                            for p in clashes[:MAX_COUNTEREXAMPLES]]
    out = {"property": "degree", "depth": eff, "passed": not counterexamples,
           "counterexamples": counterexamples,
           "stats": {"degree_sup": sup, "boundaries_pairwise_disjoint": not clashes,
                     "boundary_sizes": [len(pts) for pts in residues],
                     "probe_degrees": [{"point": format_rational(x),
                                        "degree": eff - len(sb.forced_word(x, eff).entries)}
                                       for x in probes],
                     "depth_requested": depth}}
    if seed is not None:
        out["seed"] = seed
    return out


def _doubled(sb):
    """The subbase followed by its own pairs again: every boundary point
    is on two pairs."""
    return DyadicSubbase.from_pairs(sb.space, sb.pairs + sb.pairs)


def _degree_cases():
    builds = [build_proper_subbase(mk(), levels, mode, depth=1).subbase
              for mk in CORPUS.values() for levels in (1, 3, 5)
              for mode in ("unconstrained", "match_dim")]
    builds += [build_proper_subbase(space, levels, mode, depth=1).subbase
               for space in [rank2_space(), *random_spaces(2013, 12)] for levels in (1, 3)
               for mode in ("unconstrained", "match_dim")]
    left = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False)])
    gap = SymbolicSet.region(X1, [(F(3, 4), False, F(1), True)])
    seq = converging_sequence_space()
    head = SymbolicSet(seq, tails=(TailRule((1, 6)),))
    # infinite residues: the interval [1/2,3/4], and the members from 6 on
    hand = [DyadicSubbase.from_pairs(X1, [(left, gap)]),
            DyadicSubbase.from_pairs(seq, [(head, SymbolicSet.singleton(seq, F(0)))])]
    return builds + [_doubled(sb) for sb in builds[::3]] + hand + list(_random_subbases(5, 40, 4))


def test_degree_matches_the_reference():
    listed = infinite = 0
    for sb in _degree_cases():
        probes = [x for x in (F(1, 3), F(1, 2), F(2), F(5, 4)) if sb.space.contains(x)]
        for depth in sorted({0, 2, len(sb.pairs)}):
            for expected in (None, 0, 1):
                want = _reference_degree(sb, depth, probes, expected, seed=7)
                got = degree_report(sb, depth, probes, expected_sup=expected, seed=7)
                assert got.to_dict() == want, (sb.to_dict(), depth, expected)
                listed += any("indices" in c for c in want["counterexamples"])
                infinite += any("index" in c for c in want["counterexamples"])
    assert listed and infinite


def test_doubled_build_lists_the_first_points_by_value():
    """Every boundary point of a doubled build is shared: the listing is
    the first 20 by value, interval points before the members above 1."""
    sb = _doubled(build_proper_subbase(interval_sequence_space(), 4, depth=1).subbase)
    got = degree_report(sb, len(sb.pairs), (), expected_sup=1)
    points = [F(c["point"]) for c in got.counterexamples if "indices" in c]
    assert len(points) == MAX_COUNTEREXAMPLES and points == sorted(points)
    assert got.to_dict() == _reference_degree(sb, len(sb.pairs), (), 1)
    assert got.stats["degree_sup"] == 2 and not got.stats["boundaries_pairwise_disjoint"]


def test_finite_tail_residue_from_index_256():
    """A pair whose zero side holds the members below 256 and from 300 on,
    and whose one side is the point 0: the residue is the 44 members from
    256 to 299, counted without making them, and the pair doubled lists
    the first 20 of them by value, the largest indices first."""
    space = converging_sequence_space()
    zero = SymbolicSet(space, tails=(TailRule((1, 256, 300)),))
    sb = DyadicSubbase.from_pairs(space, [(zero, SymbolicSet.singleton(space, F(0)))] * 2)
    once = degree_report(sb, 1, ())
    assert once.passed and once.stats["boundary_sizes"] == [44]
    assert once.to_dict() == _reference_degree(sb, 1)
    twice = degree_report(sb, 2, (), expected_sup=1)
    assert twice.to_dict() == _reference_degree(sb, 2, (), 1)
    seq = space.sequences()[0]
    assert [c["point"] for c in twice.counterexamples[1:]] == [
        format_rational(seq.member(k)) for k in range(299, 279, -1)]


def test_residue_holding_the_first_members_of_a_sequence():
    """Sides that both miss the members 1 and 2 of a sequence: the residue
    holds the run of members before the first switch of any side, which a
    cell cannot read back, and is finite."""
    space = Space((IsolatedPoint(F(3)), GeometricSequence(F(5), F(1), open_limit=True)))
    point = SymbolicSet.singleton(space, F(3))
    tail = SymbolicSet(space, tails=(TailRule((3,)),))
    sb = DyadicSubbase.from_pairs(space, [(point, tail), (tail, point)])
    got = degree_report(sb, 2, (), expected_sup=1)
    assert got.stats["boundary_sizes"] == [2, 2]
    assert got.stats["degree_sup"] == 2
    assert got.counterexamples == (
        {"reason": "degree sup mismatch", "expected": 1, "actual": 2},
        {"point": "21/4", "indices": [0, 1], "reason": "boundary point shared by several pairs"},
        {"point": "11/2", "indices": [0, 1], "reason": "boundary point shared by several pairs"})


# -- the dyadic verdict ---------------------------------------------------

def _reference_dyadic(sb):
    """The ``to_dict`` of ``check_dyadic`` from sets alone: each zero side's
    closure, its interior and its complement, pair by pair."""
    counterexamples = []
    for idx, (a, b) in enumerate(sb.pairs):
        cl = a.closure()
        reg = cl.interior()
        if reg != a:
            counterexamples.append({"index": idx, "reason": "zero side not regular open",
                                    "regularization": reg.to_dict()})
            continue
        ext = cl.complement()
        if b != ext:
            counterexamples.append({"index": idx,
                                    "reason": "one side is not the exterior of the zero side",
                                    "exterior": ext.to_dict()})
    return {"property": "dyadic", "depth": len(sb.pairs), "passed": not counterexamples,
            "counterexamples": counterexamples, "stats": {"pairs_checked": len(sb.pairs)}}


def _shared_run_space():
    """The members 2**-k, their limit 0 missing, and two sequences onto each
    of the first two members, one from either side."""
    return Space((GeometricSequence(F(0), F(1), open_limit=True),
                  GeometricSequence(F(1, 2), F(1, 64)), GeometricSequence(F(1, 2), F(-1, 64)),
                  GeometricSequence(F(1, 4), F(1, 256)), GeometricSequence(F(1, 4), F(-1, 256))))


def _near(space, a, rng):
    """A small set near the zero side a: a point of cl a − a, or else any
    point of the space, or a ball around it."""
    rim = a.closure().difference(a)
    x = rim.sample_point() if not rim.is_empty and rng.random() < 0.6 else None
    if x is None:
        x = SymbolicSet.whole(space).sample_point() if rng.random() < 0.2 else None
    if x is None:
        points = [p.value for p in space.isolated_points()]
        points += [s.member(rng.randint(1, 9)) for s in space.sequences()]
        points += [iv.lo + (iv.hi - iv.lo) * F(rng.randint(0, 8), 8) for iv in space.intervals()]
        points += [s.limit for s in space.sequences() if not s.open_limit]
        x = rng.choice(points)
    if rng.random() < 0.3 and space.intervals():
        return SymbolicSet.ball(space, x, F(1, rng.choice((8, 64))))
    return SymbolicSet.singleton(space, x)


def _dyadic_draws(seed: int, count: int):
    """``count`` subbases of 1 to 3 pairs over ``spacegen`` spaces, the rank-2
    space, an interval-free one and ``_shared_run_space``: each zero side a
    random set, mostly regularized, each one side its exterior, mostly
    changed by a small set near the zero side, or another random set."""
    rng = random.Random(seed)
    spaces = [*random_spaces(seed, 40), rank2_space(), converging_sequence_space(),
              _shared_run_space()]
    for _ in range(count):
        space = rng.choice(spaces)
        pairs = []
        for _ in range(rng.randint(1, 3)):
            a = random_set(space, rng)
            if rng.random() < 0.8:
                a = a.regularization()
            b = a.exterior()
            roll = rng.random()
            if roll < 0.25:
                b = b.union(_near(space, a, rng))
            elif roll < 0.5:
                b = b.difference(_near(space, a, rng))
            elif roll < 0.6:
                a = a.union(_near(space, a, rng))
            elif roll < 0.7:
                b = random_set(space, rng)
            pairs.append((a, b) if rng.random() < 0.9 else (b, a))
        yield DyadicSubbase.from_pairs(space, pairs)


def test_dyadic_matches_the_set_reference():
    """600 seeded draws: 1,215 pairs, 609 of them failing."""
    pairs = failing = 0
    for sb in _dyadic_draws(32, 600):
        want = _reference_dyadic(sb)
        assert check_dyadic(sb).to_dict() == want, sb.to_dict()
        pairs += len(sb.pairs)
        failing += len(want["counterexamples"])
    assert (pairs, failing) == (1215, 609)


def _tails(space, *rules):
    return SymbolicSet(space, tails=tuple(TailRule(r) for r in rules))


def _dyadic_cases():
    """(name, subbase, reason of its one pair or None when it passes)."""
    zero, one = "zero side not regular open", "one side is not the exterior of the zero side"
    half = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False)])
    split = half.union(SymbolicSet.region(X1, [(F(1, 2), False, F(1), True)]))
    xs = interval_sequence_space()
    tail = _tails(xs, (1,))  # every member; the limit 1 sits in the atom [0,1]
    rank2 = rank2_space()  # the sequence onto 3/2, the first member of the sequence onto 1
    onto = _tails(rank2, (), (), (1,))
    top = SymbolicSet.singleton(rank2, F(3, 2))
    shared = _shared_run_space()
    a = _tails(shared, (), (1,), (), (1,))
    b = _tails(shared, (3,), (), (1,), (), (1,))
    cases = [
        ("not regular open", X1, split, split.exterior(), zero),
        ("overlapping sides", X1, half, split, one),
        ("one side holds the boundary point", X1, half,
         SymbolicSet.region(X1, [(F(1, 2), True, F(1), True)]), one),
        ("a gap wider than one point", X1, half,
         SymbolicSet.region(X1, [(F(3, 4), False, F(1), True)]), one),
        ("the boundary point in neither side", X1, half, half.exterior(), None),
        ("limit held by the other side, in a wide atom", xs, tail, kernel_set(xs), one),
        ("limit held by neither side", xs, tail, tail.exterior(), None),
        ("limit a member, held by neither side", rank2, onto, onto.exterior(), zero),
        ("limit a member, held by the zero side", rank2, onto.union(top),
         onto.union(top).exterior(), None),
        ("limit a member, held by both sides", rank2, onto.union(top),
         onto.union(top).exterior().union(top), one),
        ("a run of two members, each a limit of both sides", shared, a, b, None),
        ("a run of two members, one a limit of one side", shared, a,
         _tails(shared, (3,), (), (1,)), one),
        ("the sides swapped", shared, b, a, None),
    ]
    return [pytest.param(DyadicSubbase.from_pairs(space, [(s0, s1)]), reason, id=name)
            for name, space, s0, s1, reason in cases]


@pytest.mark.parametrize("sb, reason", _dyadic_cases())
def test_dyadic_failure_shapes(sb, reason):
    got = check_dyadic(sb).to_dict()
    assert got == _reference_dyadic(sb)
    assert [c["reason"] for c in got["counterexamples"]] == ([reason] if reason else [])
