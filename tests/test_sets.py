import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadictop import (AmbientMismatchError, SetError, Span, SymbolicSet,
                       TailRule, embed, kernel_set, regular_ops, restrict)
from dyadictop.corpus import (converging_sequence_space,
                              interval_points_space, interval_sequence_space,
                              interval_space, two_intervals_point_space)
from dyadictop.sets import nearer_spans
from dyadictop.space import cb_kernel

from oracle import random_set

X1 = interval_space()
X2 = interval_points_space()
X3 = interval_sequence_space()
X4 = converging_sequence_space()
X5 = two_intervals_point_space()


# -- construction and canonical form --------------------------------------

def test_region_clips_to_space():
    s = SymbolicSet.region(X5, [(F(-1), False, F(5, 2), False)])
    assert s.render() == "[0/1,1/1] u [2/1,5/2)"


def test_region_picks_up_points_and_members():
    s = SymbolicSet.region(X2, [(F(1, 2), True, F(5, 2), True)])
    assert s.points == frozenset({F(2)})
    t = SymbolicSet.region(X3, [(F(9, 8), True, F(3, 2), True)])
    # members 1 + 2**-k with 9/8 <= m <= 3/2: k = 1, 2, 3
    assert t.tails[0] == TailRule(exceptions=frozenset({1, 2, 3}))
    u = SymbolicSet.region(X4, [(F(0), True, F(1, 16), True)])
    assert u.tails[0].infinite and u.tails[0].start == 4
    assert u.points == frozenset({F(0)})


def test_adjacent_spans_merge():
    s = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False),
                                (F(1, 2), True, F(1), True)])
    assert s == SymbolicSet.whole(X1)
    t = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False),
                                (F(1, 2), False, F(1), True)])
    assert len(t.spans) == 2  # the gap point 1/2 keeps them apart


def test_singleton_and_ball():
    assert SymbolicSet.singleton(X2, F(2)).points == frozenset({F(2)})
    b = SymbolicSet.ball(X1, F(1, 2), F(1, 4))
    assert b.render() == "(1/4,3/4)"
    with pytest.raises(SetError):
        SymbolicSet.singleton(X1, F(7))


def test_empty_and_whole():
    assert SymbolicSet.empty(X3).is_empty
    assert not SymbolicSet.whole(X3).is_empty
    assert SymbolicSet.whole(X3).membership(F(3, 2))


# -- boolean algebra ------------------------------------------------------

def test_union_intersection_difference():
    a = SymbolicSet.region(X1, [(F(0), True, F(1, 2), True)])
    b = SymbolicSet.region(X1, [(F(1, 4), True, F(3, 4), True)])
    assert a.union(b).render() == "[0/1,3/4]"
    assert a.intersection(b).render() == "[1/4,1/2]"
    assert a.difference(b).render() == "[0/1,1/4)"
    assert a.complement().render() == "(1/2,1/1]"


def test_ambient_mismatch_rejected():
    a = SymbolicSet.whole(X1)
    b = SymbolicSet.whole(X2)
    with pytest.raises(AmbientMismatchError):
        a.union(b)


def test_subset_and_compare():
    a = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False)])
    b = SymbolicSet.region(X1, [(F(0), True, F(3, 4), False)])
    c = SymbolicSet.region(X1, [(F(3, 4), True, F(1), True)])
    assert a.subset_of(b) and not b.subset_of(a)
    assert a.intersection(c).is_empty
    assert a.subset_of(a)
    d = SymbolicSet.region(X1, [(F(1, 2), False, F(1), True)])
    assert not b.subset_of(d) and not d.subset_of(b)
    assert not b.intersection(d).is_empty


def test_nearer_spans_ties_go_to_first():
    left = SymbolicSet.region(X1, [(F(0), True, F(1, 4), True)]).spans
    right = SymbolicSet.region(X1, [(F(3, 4), True, F(1), True)]).spans
    assert nearer_spans(F(1, 2), left, right) == 0
    assert nearer_spans(F(1, 2), right, left) == 0
    assert nearer_spans(F(5, 8), left, right) == 1
    assert nearer_spans(F(5, 8), (), right) == 1
    assert nearer_spans(F(5, 8), (), ()) is None


# -- topology -------------------------------------------------------------

def test_closure_of_open_span():
    s = SymbolicSet.region(X1, [(F(1, 4), False, F(1, 2), False)])
    assert s.closure().render() == "[1/4,1/2]"
    assert s.interior() == s
    assert s.boundary().as_finite_points() == (F(1, 4), F(1, 2))


def test_closure_adds_sequence_limit():
    tail = SymbolicSet(X3, (), frozenset(), (TailRule(start=3),))
    cl = tail.closure()
    assert cl.membership(F(1))
    assert cl.difference(tail).as_finite_points() == (F(1),)


def test_closure_respects_finite_tails():
    finite = SymbolicSet(X3, (), frozenset(), (TailRule(exceptions=frozenset({2, 5})),))
    assert finite.closure() == finite  # finitely many members are closed


def test_interior_strips_unaccompanied_limit():
    # [1/2,1] union the sequence: interior at 1 needs the members too
    s = SymbolicSet.region(X3, [(F(1, 2), True, F(1), True)])
    assert s.membership(F(1))
    assert not s.interior().membership(F(1))
    t = SymbolicSet.region(X3, [(F(1, 2), True, F(3, 2), True)])
    assert t.interior().membership(F(1))


def test_regular_open_examples():
    s = SymbolicSet.region(X1, [(F(0), False, F(1, 2), False)])
    # in [0,1] the left endpoint has no room, so regularization grabs it
    assert s.regularization().render() == "[0/1,1/2)"
    assert not s.is_regular_open
    assert s.regularization().is_regular_open
    punctured = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False),
                                        (F(1, 2), False, F(1), True)])
    assert punctured.regularization() == SymbolicSet.whole(X1)


def test_exterior_involution_on_gray_side():
    s = SymbolicSet.region(X1, [(F(0), True, F(1, 2), False)])
    assert s.exterior().render() == "(1/2,1/1]"
    assert s.exterior().exterior() == s


def test_isolated_points_are_clopen():
    s = SymbolicSet.singleton(X2, F(2))
    assert s.boundary().is_empty


def test_kernel_limit_tail_is_not_closed():
    member_sing = SymbolicSet.singleton(X3, F(3, 2))
    assert member_sing.boundary().is_empty
    tail = SymbolicSet(X3, (), frozenset(), (TailRule(start=1),))
    assert tail.is_open and not tail.is_closed


# -- relative operations --------------------------------------------------

def test_relative_interior_in_kernel():
    kernelS = kernel_set(X3, cb_kernel(X3).kernel)
    s = SymbolicSet.region(X3, [(F(1, 2), False, F(1), True)])
    # (1/2,1] is open in the kernel [0,1] but not in the full space,
    # where the sequence members crowd the endpoint 1 from outside
    assert s.interior_in(kernelS) == s
    assert not s.interior().membership(F(1))


def test_relative_boundary():
    kernelS = kernel_set(X3, cb_kernel(X3).kernel)
    s = SymbolicSet.region(X3, [(F(1, 4), False, F(1, 2), False)])
    assert regular_ops(kernelS, s).boundary.as_finite_points() == (F(1, 4), F(1, 2))


def test_relative_ops_require_subset():
    big = SymbolicSet.whole(X3)
    small = SymbolicSet.region(X3, [(F(0), True, F(1, 2), True)])
    with pytest.raises(SetError):
        big.closure_in(small)


def test_regular_ops_in_kernel():
    kernelS = kernel_set(X3, cb_kernel(X3).kernel)
    s = SymbolicSet.region(X3, [(F(0), False, F(1, 2), False)])
    parts = regular_ops(kernelS, s)
    assert parts.regularization.render() == "[0/1,1/2)"
    assert not parts.is_regular_open
    assert parts.exterior.render() == "(1/2,1/1]"


def test_embed_restrict_roundtrip():
    kernel = cb_kernel(X2).kernel
    u = SymbolicSet.region(kernel, [(F(0), True, F(1, 3), False)])
    up = embed(u, X2)
    assert up.space == X2
    assert restrict(up, kernel) == u


# -- serialization --------------------------------------------------------

def test_set_dict_roundtrip_byte_identical():
    rng = random.Random(7)
    for sp in (X1, X2, X3, X4, X5):
        for _ in range(25):
            s = random_set(sp, rng)
            d = s.to_dict()
            again = SymbolicSet.from_dict(sp, d)
            assert again == s
            assert json.dumps(d) == json.dumps(again.to_dict())


def test_set_dict_shape():
    s = SymbolicSet.region(X4, [(F(0), True, F(1, 4), True)])
    d = s.to_dict()
    assert "intervals" not in d  # no span part in this space
    assert d["points"] == ["0/1"]
    assert d["tails"] == [{"sequence": 0, "start": 2}]


def test_from_dict_region_semantics():
    d = {"intervals": ["[0/1,1/2)"]}
    s = SymbolicSet.from_dict(X1, d)
    assert s.render() == "[0/1,1/2)"


# -- property tests -------------------------------------------------------

SPACES = [X1, X2, X3, X4, X5]


@st.composite
def space_and_set(draw):
    sp = draw(st.sampled_from(SPACES))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return sp, random_set(sp, random.Random(seed))


@st.composite
def space_and_two_sets(draw):
    sp = draw(st.sampled_from(SPACES))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = random.Random(seed)
    return sp, random_set(sp, rng), random_set(sp, rng)


@settings(max_examples=60, deadline=None)
@given(space_and_set())
def test_closure_idempotent(pair):
    _, s = pair
    assert s.closure().closure() == s.closure()


@settings(max_examples=60, deadline=None)
@given(space_and_set())
def test_interior_idempotent(pair):
    _, s = pair
    assert s.interior().interior() == s.interior()


@settings(max_examples=60, deadline=None)
@given(space_and_two_sets())
def test_closure_distributes_over_union(triple):
    _, a, b = triple
    assert a.union(b).closure() == a.closure().union(b.closure())


@settings(max_examples=60, deadline=None)
@given(space_and_two_sets())
def test_de_morgan(triple):
    _, a, b = triple
    assert a.union(b).complement() == a.complement().intersection(b.complement())


@settings(max_examples=60, deadline=None)
@given(space_and_set())
def test_regularization_idempotent(pair):
    _, s = pair
    r = s.regularization()
    assert r.regularization() == r
    assert r.is_regular_open


@settings(max_examples=60, deadline=None)
@given(space_and_set())
def test_exterior_involution_on_regular_opens(pair):
    _, s = pair
    r = s.regularization()
    assert r.exterior().exterior() == r


@settings(max_examples=60, deadline=None)
@given(space_and_set())
def test_boundary_decomposition(pair):
    _, s = pair
    assert s.boundary() == s.closure().difference(s.interior())


@settings(max_examples=40, deadline=None)
@given(space_and_set())
def test_kernel_restriction_monotone(pair):
    sp, s = pair
    kernel = cb_kernel(sp).kernel
    if not kernel.intervals():
        return
    r = restrict(s, kernel)
    assert all(r.membership(x) == s.membership(x)
               for x in (iv.lo for iv in kernel.intervals()))
