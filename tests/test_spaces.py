import gc
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadictop
from dyadictop import (GeometricSequence, Interval, IsolatedPoint, Space,
                       SpaceError, build_proper_subbase, cb_kernel, kernel_set,
                       scatter_clusters)
from dyadictop.corpus import (CORPUS, converging_sequence_space,
                              interval_points_space, interval_sequence_space,
                              interval_space, two_intervals_point_space)
from dyadictop.rational import floor_log2
from dyadictop.sets import MAX_TAIL_INDEX
from dyadictop.space import _members_in_range

from spacegen import random_spaces, rank2_space


# -- primitives -----------------------------------------------------------

def test_interval_needs_width():
    with pytest.raises(SpaceError):
        Space((Interval(F(1), F(1)),))
    with pytest.raises(SpaceError):
        Space((Interval(F(2), F(1)),))


def test_sequence_members_and_index():
    s = GeometricSequence(F(1), F(1))
    assert s.member(1) == F(3, 2)
    assert s.member(3) == F(9, 8)
    assert s.member_index(F(9, 8)) == 3
    assert s.member_index(F(1)) is None
    assert s.member_index(F(7, 8)) is None
    neg = GeometricSequence(F(0), F(-1))
    assert neg.member(2) == F(-1, 4)
    assert neg.member_index(F(-1, 4)) == 2


def test_sequence_zero_offset_rejected():
    with pytest.raises(SpaceError):
        Space((IsolatedPoint(F(0)), GeometricSequence(F(0), F(0))))


# -- disjointness validation ----------------------------------------------

def test_overlapping_intervals_rejected():
    with pytest.raises(SpaceError):
        Space((Interval(F(0), F(1)), Interval(F(1, 2), F(2))))
    with pytest.raises(SpaceError):
        Space((Interval(F(0), F(1)), Interval(F(1), F(2))))  # touching


def test_point_inside_interval_rejected():
    with pytest.raises(SpaceError):
        Space((Interval(F(0), F(1)), IsolatedPoint(F(1, 2))))
    with pytest.raises(SpaceError):
        Space((Interval(F(0), F(1)), IsolatedPoint(F(1))))  # endpoint


def test_duplicate_points_rejected():
    with pytest.raises(SpaceError):
        Space((IsolatedPoint(F(2)), IsolatedPoint(F(2))))


def test_member_inside_interval_rejected():
    # member 3/2 + 1/2 = 2 lands in [2,3]
    with pytest.raises(SpaceError, match="members in"):
        Space((Interval(F(2), F(3)), GeometricSequence(F(3, 2), F(1), True)))


def test_member_equal_to_point_rejected():
    with pytest.raises(SpaceError):
        Space((IsolatedPoint(F(0)), IsolatedPoint(F(1, 4)),
               GeometricSequence(F(0), F(1))))


def test_sequences_sharing_members_rejected():
    # same limit, offsets differing by a power of two share all deep members
    with pytest.raises(SpaceError, match="share members"):
        Space((IsolatedPoint(F(0)), GeometricSequence(F(0), F(1)),
               GeometricSequence(F(0), F(2))))


def test_sequences_crossing_once_rejected():
    # limit 0 offset 1 has member 1/4; limit 3/16 offset 1/8 hits 1/4 too
    a = GeometricSequence(F(0), F(1))
    b = GeometricSequence(F(3, 16), F(1, 8), True)
    assert b.member(1) == F(1, 4) == a.member(2)
    with pytest.raises(SpaceError, match="share members"):
        Space((IsolatedPoint(F(0)), a, b))


def test_disjoint_sequences_accepted():
    sp = Space((IsolatedPoint(F(0)), GeometricSequence(F(0), F(1)),
                GeometricSequence(F(0), F(1, 3))))
    assert len(sp.sequences()) == 2


def test_closed_limit_must_be_in_space():
    with pytest.raises(SpaceError):
        Space((GeometricSequence(F(0), F(1)),))  # limit 0 missing
    with pytest.raises(SpaceError):
        # open_limit set although the limit is present
        Space((IsolatedPoint(F(0)), GeometricSequence(F(0), F(1), True)))


# -- point location -------------------------------------------------------

def test_locate_all_kinds():
    sp = interval_sequence_space()
    assert sp.locate(F(1, 2)) == ("interval", 0)
    assert sp.locate(F(1)) == ("interval", 0)
    assert sp.locate(F(3, 2)) == ("member", 0, 1)
    assert sp.locate(F(17, 16)) == ("member", 0, 4)
    assert sp.locate(F(7, 5)) == ("outside",)
    assert not sp.contains(F(-1))
    sp2 = interval_points_space()
    assert sp2.locate(F(2)) == ("point", 0)
    assert sp2.locate(F(3)) == ("point", 1)


def _scan_member(s, x, top=MAX_TAIL_INDEX + 8):
    """The k in 1..top with x == limit + offset·2^-k, by ``Fraction``
    arithmetic, or None; only an x between the limit and member 1 is
    tried."""
    lo, hi = sorted((s.limit, s.member(1)))
    if not lo <= x <= hi:
        return None
    return next((k for k in range(1, top + 1) if x == s.limit + s.offset * F(1, 2 ** k)), None)


def _scan_locate(space, x):
    """``Space.locate`` as a linear scan: each interval's ends compared
    with x, then each isolated point, then each sequence by
    ``_scan_member``."""
    for i, iv in enumerate(space.intervals()):
        if iv.lo <= x <= iv.hi:
            return ("interval", i)
    for i, p in enumerate(space.isolated_points()):
        if p.value == x:
            return ("point", i)
    for j, s in enumerate(space.sequences()):
        k = _scan_member(s, x)
        if k is not None:
            return ("member", j, k)
    return ("outside",)


def test_member_index_matches_the_scan():
    """Seeded sequences with positive and negative offsets and dyadic and
    non-dyadic limits and offsets: members k = 1 to past
    ``MAX_TAIL_INDEX``, each ± 2^-40, the limit, "member 0" (limit plus
    offset), the mirror images of the members on the wrong side of the
    limit, and random values near it,
    each also as an ``int`` when whole."""
    rng = random.Random(20131018)
    tiny = F(1, 2 ** 40)
    tried = hits = 0
    for _ in range(60):
        limit = F(rng.randint(-40, 40), rng.choice((1, 2, 3, 8, 12, 7, 1024)))
        offset = F(rng.randint(1, 9), rng.choice((1, 2, 4, 5, 6, 96))) * rng.choice((1, -1))
        s = GeometricSequence(limit, offset)
        ks = [1, 2, 3, rng.randint(4, 40), MAX_TAIL_INDEX - 1, MAX_TAIL_INDEX,
              MAX_TAIL_INDEX + 1, MAX_TAIL_INDEX + 7]
        values = {limit, limit + offset, limit - offset, limit + 2 * offset}
        for k in ks:
            m = s.member(k)
            values |= {m, m - tiny, m + tiny, 2 * limit - m}
        values |= {limit + offset * F(rng.randint(-64, 64), rng.choice((3, 64, 100)))
                   for _ in range(8)}
        values |= {int(v) for v in values if v.denominator == 1}
        for x in values:
            k = s.member_index(x)
            assert k == _scan_member(s, x), (s.render(), x)
            tried += 1
            hits += k is not None
        assert all(s.member_index(s.member(k)) == k for k in ks)
    assert 0 < hits < tried


def _members_in_range_in_fractions(s, lo, lo_in, hi, hi_in):
    """The index range of the members in an interval, worked out in
    ``Fraction`` powers of two: the reference for ``_members_in_range``."""
    o = s.offset
    if o < 0:
        m = GeometricSequence(-s.limit, -o, s.open_limit)
        return _members_in_range_in_fractions(m, -hi, hi_in, -lo, lo_in)
    t = hi - s.limit
    if t <= 0:
        return None
    ratio = o / t
    k = floor_log2(ratio)
    while (F(2) ** k < ratio) or (not hi_in and F(2) ** k == ratio):
        k += 1
    kmin = max(1, k)
    u = lo - s.limit
    if u <= 0:
        return (kmin, -1)
    ratio = o / u
    k = floor_log2(ratio) + 1
    while (F(2) ** k > ratio) or (not lo_in and F(2) ** k == ratio):
        k -= 1
    return None if k < kmin else (kmin, k)


_sequences = st.builds(
    GeometricSequence,
    st.builds(F, st.integers(-40, 40), st.sampled_from((1, 2, 3, 7, 8, 12, 1024))),
    st.builds(lambda n, d, sign: F(n, d) * sign, st.integers(1, 9),
              st.sampled_from((1, 2, 4, 5, 6, 96)), st.sampled_from((1, -1))))


@st.composite
def _bound(draw, s):
    """A member, the limit or its mirror member, each moved by nothing
    or by ±2^-j, or a value near the limit off the members."""
    kind = draw(st.sampled_from(("member", "limit", "mirror", "near")))
    if kind == "near":
        return s.limit + s.offset * F(draw(st.integers(-200, 200)), draw(st.sampled_from((3, 7, 64, 100))))
    k = draw(st.integers(1, 70))
    x = {"member": s.member(k), "limit": s.limit, "mirror": 2 * s.limit - s.member(k)}[kind]
    return x + F(draw(st.sampled_from((-1, 0, 0, 1))), 2 ** draw(st.integers(1, 80)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_members_in_range_matches_the_fraction_version(data):
    """Drawn sequences with either offset sign, bounds on and off members,
    open and closed ends."""
    s = data.draw(_sequences)
    lo, hi = sorted((data.draw(_bound(s)), data.draw(_bound(s))))
    lo_in, hi_in = data.draw(st.booleans()), data.draw(st.booleans())
    got = _members_in_range(s, lo, lo_in, hi, hi_in)
    assert got == _members_in_range_in_fractions(s, lo, lo_in, hi, hi_in)
    if got is not None:
        kmin, kmax = got
        ks = range(kmin, kmax + 1) if kmax != -1 else range(kmin, kmin + 8)
        for k in ks:
            x = s.member(k)
            assert (lo < x or (lo_in and lo == x)) and (x < hi or (hi_in and x == hi))


def test_members_in_range_on_member_ends():
    # [1/2, 1/8] and its open and mirrored forms, on 2^-k
    s = GeometricSequence(F(0), F(1))
    assert _members_in_range(s, F(1, 8), True, F(1, 2), True) == (1, 3)
    assert _members_in_range(s, F(1, 8), False, F(1, 2), False) == (2, 2)
    assert _members_in_range(s, F(0), False, F(1, 2), False) == (2, -1)
    assert _members_in_range(s, F(1, 7), True, F(1, 5), True) is None
    m = GeometricSequence(F(0), F(-1))
    assert _members_in_range(m, F(-1, 2), True, F(-1, 8), False) == (1, 2)
    assert _members_in_range(m, F(-1, 2), False, F(0), True) == (2, -1)


def test_locate_matches_the_scan_on_draws():
    """The valid ``spacegen`` draws of one seed, ``rank2_space`` and the
    corpus, each also with its primitives listed in reverse, so that the
    intervals come out of order: every interval end, the values just
    inside and outside it, every point, member 1 to 6 and limit, and a
    grid in 12ths with an off-grid value in each step."""
    spaces = random_spaces(5, 20) + [rank2_space()] + [mk() for mk in CORPUS.values()]
    spaces += [Space(tuple(reversed(sp.primitives))) for sp in spaces]
    tiny = F(1, 2 ** 30)
    for sp in spaces:
        values = {v + d for iv in sp.intervals() for v in (iv.lo, iv.hi)
                  for d in (-tiny, 0, tiny)}
        values |= {p.value for p in sp.isolated_points()}
        values |= {v for s in sp.sequences() for v in (s.limit, *map(s.member, range(1, 7)))}
        values |= {F(k, 12) + d for k in range(-24, 768) for d in (0, F(1, 97))}
        for x in values:
            assert sp.locate(x) == _scan_locate(sp, x), (sp.render(), x)


# -- kernel analysis ------------------------------------------------------

def test_kernel_of_plain_interval():
    rep = cb_kernel(interval_space())
    assert rep.kernel == interval_space()
    assert rep.scattered == ()
    assert rep.rank == 0


def test_kernel_of_interval_with_points():
    rep = cb_kernel(interval_points_space())
    assert rep.kernel == interval_space()
    assert [e.step for e in rep.scattered] == [1, 1]
    assert rep.rank == 1


def test_kernel_of_interval_with_sequence():
    rep = cb_kernel(interval_sequence_space())
    assert rep.kernel == interval_space()
    assert [e.step for e in rep.scattered] == [1]
    assert rep.rank == 1


def test_kernel_empty_space_rank_two():
    rep = cb_kernel(converging_sequence_space())
    assert rep.kernel.primitives == ()
    # the limit point survives one step, so the rank is 2
    assert {e.step for e in rep.scattered} == {1, 2}
    assert rep.rank == 2


def _reference_rank(sp: Space) -> int:
    """The rank by the survivors of the first derivative: 0 without a
    scattered primitive, 2 when an in-space limit is an isolated point or
    a member, and 1 otherwise."""
    if not sp.isolated_points() and not sp.sequences():
        return 0
    limits = {s.limit for s in sp.sequences() if not s.open_limit}
    return 2 if any(sp.locate(l)[0] in ("point", "member") for l in limits) else 1


def test_kernel_rank_matches_the_survivor_rule():
    spaces = [s for seed in (7, 99, 20131018) for s in random_spaces(seed, 40)]
    spaces += [rank2_space()] + [mk() for mk in CORPUS.values()]
    # rank 2 by a member alone: 5/2 is the first member of a sequence onto
    # a limit outside the space, and the limit of another
    spaces.append(Space((Interval(F(0), F(1)), GeometricSequence(F(2), F(1), open_limit=True),
                         GeometricSequence(F(5, 2), F(1, 8)))))
    spaces += [Space(tuple(reversed(sp.primitives))) for sp in spaces]
    ranks = set()
    for sp in spaces:
        rank = cb_kernel(sp).rank
        assert rank == _reference_rank(sp), sp.render()
        ranks.add(rank)
    assert ranks == {0, 1, 2}


def test_kernel_report_render():
    assert cb_kernel(interval_points_space()).render() == \
        "kernel: [0,1]; scattered: 2@1, 3@1; rank 1"


def test_kernel_report_serializes_closed_limit_sequence():
    d = cb_kernel(interval_sequence_space()).to_dict()
    kinds = [e["primitive"]["kind"] for e in d["scattered"]]
    assert kinds == ["sequence"]


# -- scatter clusters -----------------------------------------------------

def test_clusters_free_points():
    cl = scatter_clusters(interval_points_space())
    assert [(c.kind, c.anchor) for c in cl] == [("free", F(2)), ("free", F(3))]


def test_clusters_kernel_limit():
    (c,) = scatter_clusters(interval_sequence_space())
    assert c.kind == "kernel"
    assert c.anchor == F(1)
    assert c.tails == ((0, frozenset()),)


def test_clusters_scattered_limit():
    (c,) = scatter_clusters(converging_sequence_space())
    assert c.kind == "scattered"
    assert c.anchor == F(0)
    assert c.point_values == frozenset({F(0)})


def test_clusters_member_anchor():
    # second sequence converges onto a member of the first
    sp = Space((IsolatedPoint(F(0)), GeometricSequence(F(0), F(1)),
                GeometricSequence(F(1, 4), F(1, 64))))
    kinds = {c.kind for c in scatter_clusters(sp)}
    assert "scattered" in kinds
    anchored = [c for c in scatter_clusters(sp) if c.anchor == F(1, 4)]
    assert len(anchored) == 1
    assert anchored[0].member_atoms == ((0, 2),)


# -- serialization --------------------------------------------------------

def test_space_roundtrip_all_corpus():
    for mk in CORPUS.values():
        sp = mk()
        assert Space.from_dict(sp.to_dict()) == sp


def test_a_load_nothing_holds_is_not_kept():
    data = {"primitives": [{"kind": "point", "value": "13/7"}]}
    ref = weakref.ref(Space.from_dict(data))
    gc.collect()
    assert ref() is None


def test_caches_answer_a_later_load_with_its_own_space():
    data = {"primitives": [{"kind": "interval", "lo": "1/3", "hi": "2/3"},
                           {"kind": "point", "value": "7/1"}]}
    first = Space.from_dict(data)
    assert kernel_set(first).space is first
    again = Space.from_dict(json.loads(json.dumps(data)))
    assert kernel_set(again).space is again


# Run in a fresh interpreter, so that no space an earlier test made is live.
_SECOND_BUILD_EQ_CALLS = """
import json
from dyadictop import Space, build_proper_subbase
from dyadictop.corpus import interval_sequence_space

calls = 0
eq = Space.__eq__


def counted(self, other):
    global calls
    calls += 1
    return eq(self, other)


Space.__eq__ = counted


def second_build(make):
    global calls
    build_proper_subbase(make(), 4, depth=3)
    calls = 0
    build_proper_subbase(make(), 4, depth=3)
    return calls


data = interval_sequence_space().to_dict()
print(json.dumps({"load": second_build(lambda: Space.from_dict(data)),
                  "fresh": second_build(interval_sequence_space)}))
"""


def test_a_built_space_compares_no_more_than_a_loaded_one():
    src = os.path.dirname(os.path.dirname(dyadictop.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _SECOND_BUILD_EQ_CALLS], env=env,
                         capture_output=True, text=True, check=True).stdout
    calls = json.loads(out)
    assert calls["fresh"] <= calls["load"], calls


def test_a_space_built_on_is_not_kept():
    data = {"primitives": [{"kind": "interval", "lo": "1/9", "hi": "4/9"},
                           {"kind": "point", "value": "8/9"}]}
    sp = Space.from_dict(data)
    build_proper_subbase(sp, 2, depth=3)
    ref = weakref.ref(sp)
    del sp
    gc.collect()
    assert ref() is None


def test_an_interval_only_space_is_its_own_kernel():
    built = Space((Interval(F(1, 5), F(3, 5)),))
    for s in (built, Space.from_dict(built.to_dict())):
        assert cb_kernel(s).kernel is s
        assert kernel_set(s).space is s


def test_space_from_dict_rejects_unknown_kind():
    with pytest.raises(SpaceError):
        Space.from_dict({"primitives": [{"kind": "circle", "r": "1/1"}]})


def test_render_two_intervals_point():
    assert "u" in two_intervals_point_space().render()
