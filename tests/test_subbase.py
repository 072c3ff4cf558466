import functools
import random
from fractions import Fraction as F

import pytest

from dyadictop import (DyadicSubbase, GeometricSequence, Interval, NotRegularOpenError,
                       Space, SubbaseError, SymbolicSet, TailRule, TernaryWord, check_dyadic,
                       check_independent, check_proper, degree_report,
                       build_proper_subbase, make_pair, resolution_check)
from dyadictop.checks import MAX_COUNTEREXAMPLES
from dyadictop.construct import sample_points
from dyadictop.corpus import (CORPUS, converging_sequence_space, gray_pairs,
                              interval_sequence_space, interval_space)

from oracle import o_improper_depth, o_independent, o_proper, o_resolution, random_set
from spacegen import random_spaces, rank2_space

X1 = interval_space()
GRAY = DyadicSubbase.from_zero_sides(X1, gray_pairs(X1, 3))


def broken_subbase():
    """Two pairs whose zero sides meet head on at 1/2; not proper, not
    independent: the word 00 selects the empty cell with closure {1/2}."""
    left = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False)])
    right = SymbolicSet.region(X1, [(F(1, 2), False, F(1), True)])
    return DyadicSubbase.from_pairs(
        X1, [(left, left.exterior()), (right, right.exterior())])


# -- pair construction ----------------------------------------------------

def test_make_pair_accepts_regular_open():
    zero, one = make_pair(X1, SymbolicSet.region(X1, [(F(0), True, F(1, 2), False)]))
    assert one.render() == "(1/2,1/1]"


def test_make_pair_rejects_with_hint():
    bad = SymbolicSet.region(X1, [(F(0), False, F(1, 2), False)])
    with pytest.raises(NotRegularOpenError) as err:
        make_pair(X1, bad)
    assert err.value.hint.render() == "[0/1,1/2)"


# -- sigma sets -----------------------------------------------------------

def test_sigma_sets_empty_word_is_whole():
    assert GRAY.sigma_sets(TernaryWord()) == SymbolicSet.whole(X1)


def test_sigma_sets_examples():
    s = GRAY.sigma_sets(TernaryWord.from_string("01"))
    assert s.render() == "(1/4,1/2)"
    assert s.closure().render() == "[1/4,1/2]"


def test_sigma_sets_antitone_in_word_extension():
    bigger = GRAY.sigma_sets(TernaryWord.from_string("0"))
    smaller = GRAY.sigma_sets(TernaryWord.from_string("00"))
    assert smaller.subset_of(bigger)


def test_sigma_sets_rejects_out_of_range_index():
    with pytest.raises(SubbaseError):
        GRAY.sigma_sets(TernaryWord(((9, 0),)))


def test_forced_word_boundary_stays_bottom():
    # 1/2 is on the boundary of the first zero side only
    assert GRAY.forced_word(F(1, 2)).to_string(3) == "_10"
    assert GRAY.forced_word(F(1, 3)).to_string(3) == "011"


# -- finite-depth checks --------------------------------------------------

def test_gray_subbase_passes_everything():
    assert check_dyadic(GRAY).passed
    assert check_proper(GRAY, 3).passed
    assert check_independent(GRAY, 3).passed


def test_depth_caps_at_pair_count():
    rep = check_proper(GRAY, 9)
    assert rep.depth == 3
    assert rep.stats["depth_requested"] == 9


def test_broken_pairs_fail_proper_with_first_word_00():
    rep = check_proper(broken_subbase(), 2)
    assert not rep.passed
    assert rep.counterexamples[0]["word"] == "00"


def test_broken_pairs_fail_independent_with_first_word_00():
    rep = check_independent(broken_subbase(), 2)
    assert not rep.passed
    assert rep.counterexamples[0]["word"] == "00"


def test_broken_pairs_counterexample_lists():
    broken = broken_subbase()
    assert check_proper(broken, 2).counterexamples == (
        {"word": "00", "witness": "1/2"}, {"word": "11", "witness": "1/2"})
    assert check_independent(broken, 2).counterexamples == (
        {"word": "00"}, {"word": "11"})
    # a Gray pair in front: the failing words then start with each digit
    sb = DyadicSubbase.from_pairs(X1, (GRAY.pairs[1],) + broken.pairs)
    assert [c["word"] for c in check_proper(sb, 3).counterexamples] == [
        "_00", "_11", "100", "111"]
    assert [c["word"] for c in check_independent(sb, 3).counterexamples] == [
        "_00", "_11", "000", "011", "100", "111"]


def _put_in_pairs(bases, rng, count):
    """Mutants of seeded choices among the bases: their first 0-5 pairs,
    with one or two random regular-open or arbitrary pairs put in."""
    mutants = []
    for _ in range(count):
        sb = rng.choice(bases)
        pairs = list(sb.pairs[:rng.randint(0, 5)])
        for _ in range(rng.randint(1, 2)):
            a = random_set(sb.space, rng)
            if rng.random() < 0.5:
                a = a.regularization()
                pair = (a, a.exterior())
            else:
                pair = (a, random_set(sb.space, rng))
            pairs.insert(rng.randint(0, len(pairs)), pair)
        mutants.append(DyadicSubbase.from_pairs(sb.space, pairs))
    return mutants


def _limits_of_two_kinds():
    """Subbases on ``rank2_space`` whose word 00 fails at two limits: the
    zero sides are the members from index 2 on of two sequences, and the
    finite set of their limits, which the tails miss."""
    space = rank2_space()
    limits = [s.limit for s in space.sequences()]  # 1, 2 and 3/2
    out = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        tails = SymbolicSet(space, (), frozenset(), tuple(
            TailRule.of(2, ()) if k in (i, j) else TailRule() for k in range(3)))
        ends = SymbolicSet.singleton(space, limits[i]).union(
            SymbolicSet.singleton(space, limits[j]))
        out.append(DyadicSubbase.from_pairs(space, [(tails, SymbolicSet.empty(space)),
                                                    (ends, SymbolicSet.empty(space))]))
    return out


def _tail_at_a_span_end():
    """A subbase on interval-sequence, proper at 1, where both zero sides
    end at 1: [0,1) and {1}, each with every member 1 + 2^-k.  The cell of
    the word 00 is the members, whose closure holds 1, so only the tail
    piece at 1 keeps the span ends from failing there."""
    space = interval_sequence_space()
    tail = SymbolicSet(space, tails=(TailRule.of(1, ()),))
    left = SymbolicSet.region(space, [(F(0), True, F(1), False)]).union(tail)
    point = SymbolicSet.singleton(space, F(1)).union(tail)
    return [DyadicSubbase.from_pairs(space, [(left, SymbolicSet.empty(space)),
                                             (point, SymbolicSet.empty(space))])]


@functools.cache
def _proper_cases():
    """The corpus builds at levels 1-4, Gray, the broken pairs and a pair
    meeting a sequence only at its limit, with 150 mutants of them; then
    the builds of ``rank2_space`` at levels 1-4 with 100 mutants of those,
    ``_limits_of_two_kinds`` and ``_tail_at_a_span_end``."""
    seq = converging_sequence_space()
    zero = SymbolicSet.singleton(seq, F(0))
    # {0} and the members 2^-k meet only in closure: the word 01 fails at 0
    at_limit = DyadicSubbase.from_pairs(seq, [(zero, zero.complement())] * 2)
    bases = [GRAY, DyadicSubbase.from_zero_sides(X1, gray_pairs(X1, 6)),
             broken_subbase(), at_limit]
    bases += [build_proper_subbase(mk(), levels, depth=1).subbase
              for levels in (1, 2, 3, 4) for mk in CORPUS.values()]
    rank2 = [build_proper_subbase(rank2_space(), levels, depth=1).subbase for levels in (1, 2, 3, 4)]
    return (bases + _put_in_pairs(bases, random.Random(8), 150)
            + rank2 + _put_in_pairs(rank2, random.Random(20), 100) + _limits_of_two_kinds()
            + _tail_at_a_span_end())


def test_the_witness_is_the_limit_sample_point_picks():
    """An interval point before an isolated point before a member."""
    assert [check_proper(sb, 2).counterexamples for sb in _limits_of_two_kinds()] == [
        ({"word": "00", "witness": "1/1"},), ({"word": "00", "witness": "1/1"},),
        ({"word": "00", "witness": "2/1"},)]


def test_proper_verdict_matches_the_walk():
    """check_proper's verdict is the brute-force walk's, at depths 1-6, on
    the cases of ``_proper_cases``."""
    failed = 0
    for sb in _proper_cases():
        first = o_improper_depth(sb, 6)
        for depth in range(1, 7):
            want = first is None or first > depth
            assert check_proper(sb, depth).passed == want, (sb.to_dict(), depth)
            failed += not want
    assert failed >= 60


def test_proper_report_matches_the_walk():
    """check_proper's whole report, counterexamples, witnesses and words
    checked, is the (S, S̄) walk's, at depths 0-6, on the cases of
    ``_proper_cases``; the witnesses met lie in an interval, at an
    isolated point and at a sequence member."""
    kinds = set()
    for sb in _proper_cases():
        for depth in range(7):
            want = o_proper(sb, depth, MAX_COUNTEREXAMPLES)
            assert check_proper(sb, depth).to_dict() == want, (sb.to_dict(), depth)
            kinds |= {sb.space.locate(F(c["witness"]))[0] for c in want["counterexamples"]}
    assert kinds == {"interval", "point", "member"}


def test_independent_report_matches_the_walk():
    """check_independent's whole report is the brute-force walk's, at depths
    0-6, on the broken pairs, zero-pair subbases, a pair on the empty
    space, where even the all-⊥ word fails, and seeded mutants of Gray,
    the broken pairs and the corpus builds: one pair's sides swapped, one
    side swapped with a side of another pair, or one side emptied."""
    nothing = SymbolicSet.empty(Space(()))
    bases = [GRAY, broken_subbase(), DyadicSubbase.from_pairs(converging_sequence_space(), []),
             DyadicSubbase.from_pairs(nothing.space, []),
             DyadicSubbase.from_pairs(nothing.space, [(nothing, nothing)])]
    bases += [build_proper_subbase(mk(), levels, depth=1).subbase
              for levels in (2, 3, 4) for mk in CORPUS.values()]
    rng = random.Random(19)
    mutants = []
    for _ in range(60):
        sb = rng.choice([b for b in bases if len(b) >= 2])
        sides = [list(pair) for pair in sb.pairs]
        i, j = rng.sample(range(len(sides)), 2)
        a, b = rng.randrange(2), rng.randrange(2)
        kind = rng.choice(("swap", "cross", "empty"))
        if kind == "swap":
            sides[i].reverse()
        elif kind == "cross":
            sides[i][a], sides[j][b] = sides[j][b], sides[i][a]
        else:
            sides[i][a] = SymbolicSet.empty(sb.space)
        mutants.append(DyadicSubbase.from_pairs(sb.space, [tuple(p) for p in sides]))
    failed = 0
    for sb in bases + mutants:
        for depth in range(7):
            want = o_independent(sb, depth, MAX_COUNTEREXAMPLES)
            assert check_independent(sb, depth).to_dict() == want, (sb.to_dict(), depth)
            failed += not want["passed"]
    assert failed >= 100


def test_check_dyadic_catches_wrong_one_side():
    zero = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False)])
    not_ext = SymbolicSet.region(X1, [(F(3, 4), False, F(1), True)])
    sb = DyadicSubbase.from_pairs(X1, [(zero, not_ext)])
    rep = check_dyadic(sb)
    assert not rep.passed
    assert rep.counterexamples[0]["index"] == 0


def test_check_dyadic_catches_non_regular_zero_side():
    zero = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False),
                                   (F(1, 2), False, F(1), True)])
    sb = DyadicSubbase.from_pairs(X1, [(zero, zero.exterior())])
    assert not check_dyadic(sb).passed


def test_check_dyadic_counterexamples_pinned():
    # a good pair, then one of each failure; the report names the regular
    # open set or the exterior the side should have been
    good = SymbolicSet.region(X1, [(F(0), True, F(1, 4), False)])
    split = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False),
                                    (F(1, 2), False, F(1), True)])
    half = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False)])
    not_ext = SymbolicSet.region(X1, [(F(3, 4), False, F(1), True)])
    sb = DyadicSubbase.from_pairs(
        X1, [(good, good.exterior()), (split, split.exterior()), (half, not_ext)])
    assert check_dyadic(sb).to_dict() == {
        "property": "dyadic", "depth": 3, "passed": False,
        "counterexamples": [
            {"index": 1, "reason": "zero side not regular open",
             "regularization": {"intervals": ["[0/1,1/1]"]}},
            {"index": 2, "reason": "one side is not the exterior of the zero side",
             "exterior": {"intervals": ["(1/2,1/1]"]}}],
        "stats": {"pairs_checked": 3}}
    # on a space with a sequence: the closure takes in the limit 1, and the
    # exterior holds every member
    xs = interval_sequence_space()
    tail = SymbolicSet.from_dict(xs, {"intervals": ["(1/2,1/1)"],
                                      "tails": [{"sequence": 0, "start": 3}]})
    upper = SymbolicSet.from_dict(xs, {"intervals": ["(1/2,1/1)"]})
    low = SymbolicSet.from_dict(xs, {"intervals": ["[0/1,1/4)"]})
    sb = DyadicSubbase.from_pairs(xs, [(tail, tail.exterior()), (upper, low)])
    assert check_dyadic(sb).to_dict() == {
        "property": "dyadic", "depth": 2, "passed": False,
        "counterexamples": [
            {"index": 0, "reason": "zero side not regular open",
             "regularization": {"intervals": ["(1/2,1/1]"],
                                "tails": [{"sequence": 0, "start": 3}]}},
            {"index": 1, "reason": "one side is not the exterior of the zero side",
             "exterior": {"intervals": ["[0/1,1/2)"],
                          "tails": [{"sequence": 0, "start": 1}]}}],
        "stats": {"pairs_checked": 2}}


# -- degree ---------------------------------------------------------------

def test_gray_degree_sup_one():
    rep = degree_report(GRAY, 3, probes=(F(1, 2), F(1, 3)))
    assert rep.passed
    assert rep.stats["degree_sup"] == 1
    assert rep.stats["boundaries_pairwise_disjoint"] is True
    assert rep.stats["probe_degrees"] == [{"point": "1/2", "degree": 1},
                                          {"point": "1/3", "degree": 0}]


def test_degree_expected_sup_mismatch_fails():
    rep = degree_report(GRAY, 3, expected_sup=0)
    assert not rep.passed


def test_degree_detects_shared_boundary():
    a = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False)])
    b = SymbolicSet.region(X1, [(F(1, 4), False, F(1, 2), False),
                                (F(3, 4), False, F(7, 8), False)])
    sb = DyadicSubbase.from_pairs(
        X1, [(a, a.exterior()), (b, b.exterior())])
    rep = degree_report(sb, 2, probes=(F(1, 2),))
    assert rep.stats["degree_sup"] == 2
    assert rep.stats["boundaries_pairwise_disjoint"] is False
    assert rep.stats["probe_degrees"] == [{"point": "1/2", "degree": 2}]


# -- resolution -----------------------------------------------------------

def test_resolution_example_passes_at_three_tenths():
    two = DyadicSubbase.from_zero_sides(X1, gray_pairs(X1, 2))
    rep = resolution_check(two, F(3, 10), probes=(F(3, 10),))
    assert rep.passed
    (witness,) = rep.stats["witnesses"]
    assert witness["word"] == "01"


def test_resolution_example_fails_at_one_hundredth():
    two = DyadicSubbase.from_zero_sides(X1, gray_pairs(X1, 2))
    rep = resolution_check(two, F(1, 100), probes=(F(3, 10),))
    assert not rep.passed
    assert rep.counterexamples[0]["point"] == "3/10"


def _edge_radii(sb, x, rng, count=2):
    """(kind, radius) for radii that put an end of the ball around x exactly
    on a side's cut value, an isolated point, a sequence member at either
    end of a side's run of members, a limit in the space and an open limit:
    up to count values of each kind, drawn by rng."""
    space = sb.space
    kinds = [
        sorted({F(p >> 1, side.den) for pair in sb.pairs for side in pair for p in side.cuts}),
        [p.value for p in space.isolated_points()],
        sorted({s.member(k) for pair in sb.pairs for side in pair
                for s, rule in zip(space.sequences(), side.tails)
                for switch in rule.switches for k in (switch - 1, switch) if k}),
        [s.limit for s in space.sequences() if not s.open_limit],
        [s.limit for s in space.sequences() if s.open_limit],
    ]
    return [(kind, abs(v - x)) for kind, values in enumerate(kinds)
            for v in rng.sample(values, min(count, len(values))) if v != x]


def lone_end_subbase():
    """[0,1] with the sequence -2^-(k+1) onto 0 from the left, and two
    pairs: (0,1/2) and its exterior, so that 0 is on the boundary and no
    side has a cut there, and the members 1 to 3, a clopen run of three."""
    space = Space((Interval(F(0), F(1)), GeometricSequence(F(0), F(-1, 2))))
    return DyadicSubbase.from_zero_sides(space, [
        SymbolicSet.region(space, [(F(0), False, F(1, 2), False)]),
        SymbolicSet(space, tails=(TailRule((1, 4)),))])


def test_resolution_matches_greedy_oracle():
    """The corpus builds at levels 2-4 and the builds at levels 1-4, in
    both degree modes, of ``spacegen.rank2_space`` and the valid spaces
    among the first 12 draws of a ``spacegen`` seed, with the Gray
    subbase, ``lone_end_subbase`` and each corpus space without pairs: a
    few radii for all probes, and for each of three probes the radii
    whose ball ends on a cut, a point, a member or a limit."""
    rng = random.Random(2013)
    subbases = [GRAY, lone_end_subbase()] + [build_proper_subbase(mk(), levels, depth=1).subbase
                                             for levels in (2, 3, 4) for mk in CORPUS.values()]
    subbases += [DyadicSubbase.from_pairs(mk(), ()) for mk in CORPUS.values()]
    subbases += [build_proper_subbase(space, levels, mode, depth=1).subbase
                 for space in [rank2_space(), *random_spaces(2013, 12)]
                 for levels in (1, 2, 3, 4) for mode in ("unconstrained", "match_dim")]
    failed, kinds = 0, set()
    for sb in subbases:
        grid = [F(k, 16) for k in range(-16, 97) if sb.space.contains(F(k, 16))]
        probes = sample_points(sb.space, 6, rng, member_depth=6)
        probes += rng.sample(grid, min(4, len(grid)))
        runs = [(epsilon, probes) for epsilon in
                (F(1, 1000), F(1, rng.choice((3, 8, 20))), F(rng.randint(1, 6), 4))]
        for x in probes[:3]:
            for kind, epsilon in _edge_radii(sb, x, rng):
                runs.append((epsilon, [x]))
                kinds.add(kind)
        for epsilon, points in runs:
            rep = resolution_check(sb, epsilon, points)
            counterexamples, witnesses = o_resolution(sb, epsilon, points,
                                                      MAX_COUNTEREXAMPLES)
            assert list(rep.counterexamples) == counterexamples
            assert rep.stats == {"probes_checked": len(points),
                                 "epsilon": f"{epsilon.numerator}/{epsilon.denominator}",
                                 "witnesses": witnesses}
            failed += bool(counterexamples)
    assert failed >= len(subbases)
    assert kinds == {0, 1, 2, 3, 4}


def test_resolution_edges_on_lone_end_match_greedy_oracle():
    """Every probe of ``lone_end_subbase`` at every radius whose ball ends
    on a value ``_edge_radii`` draws from, among them the last member of
    the run of three, the limit 0 and the end 0 that no side cuts."""
    sb = lone_end_subbase()
    probes = [sb.space.sequences()[0].member(k) for k in range(1, 7)]
    probes += [F(k, 8) for k in range(9)]
    for x in probes:
        for _, epsilon in _edge_radii(sb, x, random.Random(0), count=99):
            rep = resolution_check(sb, epsilon, [x])
            counterexamples, witnesses = o_resolution(sb, epsilon, [x], MAX_COUNTEREXAMPLES)
            assert list(rep.counterexamples) == counterexamples
            assert rep.stats["witnesses"] == witnesses


# -- serialization --------------------------------------------------------

def test_subbase_roundtrip():
    d = GRAY.to_dict()
    again = DyadicSubbase.from_dict(d)
    assert again == GRAY
    assert again.to_dict() == d


def test_from_dict_needs_shape():
    with pytest.raises(SubbaseError):
        DyadicSubbase.from_dict({"space": X1.to_dict()})
