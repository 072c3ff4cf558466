import random
from fractions import Fraction as F

import pytest

from dyadictop import (DyadicSubbase, NotRegularOpenError, SubbaseError,
                       SymbolicSet, TernaryWord, check_dyadic,
                       check_independent, check_proper, degree_report,
                       build_proper_subbase, make_pair, resolution_check)
from dyadictop.checks import MAX_COUNTEREXAMPLES
from dyadictop.construct import sample_points
from dyadictop.corpus import CORPUS, gray_pairs, interval_space

from oracle import o_resolution

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


def test_resolution_matches_greedy_oracle():
    rng = random.Random(2013)
    subbases = [GRAY] + [build_proper_subbase(mk(), levels, depth=1).subbase
                         for levels in (2, 3, 4) for mk in CORPUS.values()]
    failed = 0
    for sb in subbases:
        grid = [F(k, 16) for k in range(-16, 97) if sb.space.contains(F(k, 16))]
        probes = sample_points(sb.space, 6, rng, member_depth=6) + rng.sample(grid, 4)
        for epsilon in (F(1, 1000), F(1, rng.choice((3, 8, 20))), F(rng.randint(1, 6), 4)):
            rep = resolution_check(sb, epsilon, probes)
            counterexamples, witnesses = o_resolution(sb, epsilon, probes,
                                                      MAX_COUNTEREXAMPLES)
            assert list(rep.counterexamples) == counterexamples
            assert rep.stats == {"probes_checked": len(probes),
                                 "epsilon": f"{epsilon.numerator}/{epsilon.denominator}",
                                 "witnesses": witnesses}
            failed += bool(counterexamples)
    assert failed >= len(subbases)


# -- serialization --------------------------------------------------------

def test_subbase_roundtrip():
    d = GRAY.to_dict()
    again = DyadicSubbase.from_dict(d)
    assert again == GRAY
    assert again.to_dict() == d


def test_from_dict_needs_shape():
    with pytest.raises(SubbaseError):
        DyadicSubbase.from_dict({"space": X1.to_dict()})
