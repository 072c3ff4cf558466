"""Hand-computed cases for the benchmark's membership oracle.

    python3 -m pytest perfbench/test_oracle.py
"""
from __future__ import annotations

import os
import sys
from fractions import Fraction as F

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import OSet, OSpace, OSubbase, Universe, rat  # noqa: E402

UNIT = {"primitives": [{"kind": "interval", "lo": "0/1", "hi": "1/1"}]}
# [0,1] u {2} u {3 + 2^-k : k >= 1}, the limit 3 left out
MIXED = {"primitives": [
    {"kind": "interval", "lo": "0/1", "hi": "1/1"},
    {"kind": "point", "value": "2/1"},
    {"kind": "sequence", "limit": "3/1", "offset": "1/1", "open_limit": True}]}
# {0} u {2^-k : k >= 1}
CONVERGING = {"primitives": [
    {"kind": "point", "value": "0/1"},
    {"kind": "sequence", "limit": "0/1", "offset": "1/1"}]}


def spans(*texts):
    return {"intervals": list(texts)}


def subbase(space, *pairs):
    return OSubbase({"space": space,
                     "pairs": [{"zero": z, "one": o} for z, o in pairs]})


# [0,1/2) | (1/2,1] and [0,1/4) u (3/4,1] | (1/4,3/4): reflected binary
GRAY = subbase(UNIT, (spans("[0/1,1/2)"), spans("(1/2,1/1]")),
               (spans("[0/1,1/4)", "(3/4,1/1]"), spans("(1/4,3/4)")))
# the two pairs swap sides at 1/2, as in tests/data/bad_subbase.json
SWAPPED = subbase(UNIT, (spans("[0/1,1/2)"), spans("(1/2,1/1]")),
                  (spans("(1/2,1/1]"), spans("[0/1,1/2)")))


def test_rat_is_strict():
    assert rat("3/4") == F(3, 4)
    assert rat("-2") == -2
    with pytest.raises(ValueError):
        rat("0.5")


def test_locate():
    sp = OSpace(MIXED)
    assert sp.locate(F(1, 2)) == ("interval", 0)
    assert sp.locate(F(2)) == ("point",)
    assert sp.locate(F(13, 4)) == ("member", 0, 2)
    assert sp.locate(F(3)) is None
    assert sp.locate(F(5, 2)) is None


def test_tail_membership_flips_exceptions():
    sp = OSpace(MIXED)
    s = OSet(sp, {"tails": [{"sequence": 0, "start": 3, "exceptions": [1]}]})
    assert [sp.member(0, k) in s for k in (1, 2, 3, 10)] == [True, False, True, True]
    assert F(1, 2) not in s and F(2) not in s


def test_closure_of_open_span():
    sp = OSpace(UNIT)
    s = OSet(sp, spans("(0/1,1/2)"))
    u = Universe(sp, [s])
    assert u.closure_has(s, F(0)) and u.closure_has(s, F(1, 2))
    assert not u.closure_has(s, F(1))
    # int cl (0,1/2) = [0,1/2) relative to [0,1]
    assert u.interior_closure_has(s, F(0)) and u.interior_closure_has(s, F(1, 4))
    assert not u.interior_closure_has(s, F(1, 2))


def test_closure_at_a_limit():
    sp = OSpace(CONVERGING)
    tail = OSet(sp, {"tails": [{"sequence": 0, "start": 3}]})
    finite = OSet(sp, {"tails": [{"sequence": 0, "exceptions": [1, 2]}]})
    u = Universe(sp, [tail, finite])
    assert u.closure_has(tail, F(0)) and F(0) not in tail
    assert not u.closure_has(finite, F(0))


def test_regular_open_and_exterior():
    assert GRAY.dyadic_violations() == []
    # [0,1/2) u (1/2,1] is open but not regular open: int cl is all of [0,1]
    holed = subbase(UNIT, (spans("[0/1,1/2)", "(1/2,1/1]"), {}))
    assert "not regular open" in holed.dyadic_violations()[0]
    # the one side must be the exterior (1/2,1], not [1/2,1]
    closed = subbase(UNIT, (spans("[0/1,1/2)"), spans("[1/2,1/1]")))
    assert "exterior" in closed.dyadic_violations()[0]


def test_tail_without_its_limit_is_not_regular_open():
    # int cl {2^-k} = int X = X, which also holds 0
    tail = {"tails": [{"sequence": 0, "start": 1}]}
    bad = subbase(CONVERGING, (tail, {}))
    assert "not regular open" in bad.dyadic_violations()[0]
    # {0} u {2^-k : k >= 2} is clopen, its exterior is {1/2}
    good = subbase(CONVERGING, ({"points": ["0/1"], "tails": [{"sequence": 0, "start": 2}]},
                                {"tails": [{"sequence": 0, "exceptions": [1]}]}))
    assert good.dyadic_violations() == []


def test_properness():
    assert GRAY.improper_points(2) == []
    # S(00) = [0,1/2) n (1/2,1] is empty while S̄(00) = {1/2}
    assert SWAPPED.improper_points(2) == [F(1, 2)]
    assert SWAPPED.improper_points(1) == []
    assert SWAPPED.in_closure_cell("00", F(1, 2))
    assert not SWAPPED.in_cell_closure("00", F(1, 2))
    assert GRAY.in_cell_closure("01", F(1, 2))


def test_degree():
    assert GRAY.degree_sup() == (1, 0)
    assert SWAPPED.degree_sup() == (2, 1)


def test_forced_word_and_cells():
    assert GRAY.forced_word(F(1, 3)) == "01"
    assert GRAY.forced_word(F(1, 2)) == "_1"
    assert GRAY.forced_word(F(1, 4)) == "0_"
    # S(01) = (1/4,1/2): inside the open ball of radius 1/8 around 3/8 only
    assert GRAY.cell_within("01", F(3, 8), F(1, 8))
    assert not GRAY.cell_within("01", F(3, 8), F(1, 16))
    assert GRAY.same_as_cell(OSet(GRAY.space, spans("(1/4,1/2)")), "01")
    assert not GRAY.same_as_cell(OSet(GRAY.space, spans("(1/4,1/2]")), "01")
    assert GRAY.in_cell("01", F(1, 3)) and not GRAY.in_cell("01", F(1, 2))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
