import random
from fractions import Fraction as F

import pytest

from dyadictop import (SubbaseError, build_proper_subbase, decode_word,
                       encode_point)
from dyadictop.construct import sample_points
from dyadictop.corpus import CORPUS, interval_points_space, interval_space


def test_encode_interval_point():
    res = build_proper_subbase(interval_space(), 3)
    coded = encode_point(res.subbase, F(1, 3))
    # 1/3 sits on the first cut, so the first pair stays blank
    assert coded.render(ascii_bottom=True)[0] == "_"
    assert coded.unfilled == 1
    assert coded.width == len(res.subbase)


def test_encode_respects_width():
    res = build_proper_subbase(interval_points_space(), 3)
    coded = encode_point(res.subbase, F(2), width=4)
    assert coded.width == 4
    assert coded.render().replace("_", "").isdigit()


def test_coded_points_compare_by_value():
    sb = build_proper_subbase(interval_space(), 2, depth=2).subbase
    a, b = encode_point(sb, F(1, 3)), encode_point(sb, F(1, 3))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != encode_point(sb, F(1, 3), width=1)
    assert a != encode_point(sb, F(2, 3))
    assert a != (a.point, a.word, a.width)
    assert (a.point, a.width) == (F(1, 3), len(sb))
    assert repr(a) == f"CodedPoint(point=Fraction(1, 3), word={a.word!r}, width={len(sb)})"


def test_decode_contains_encoded_point():
    for mk in CORPUS.values():
        sp = mk()
        res = build_proper_subbase(sp, 3)
        rng = random.Random(11)
        for x in sample_points(sp, 10, rng, member_depth=5):
            for width in (1, 2, len(res.subbase)):
                coded = encode_point(res.subbase, x, width=width)
                cell = decode_word(res.subbase, coded.word)
                assert cell.membership(x)


def test_unfilled_matches_membership_count():
    res = build_proper_subbase(interval_points_space(), 3)
    sb = res.subbase
    for x in (F(0), F(1, 3), F(1, 2), F(2)):
        coded = encode_point(sb, x)
        blank = sum(1 for i in range(len(sb))
                    if not sb.pairs[i][0].membership(x)
                    and not sb.pairs[i][1].membership(x))
        assert coded.unfilled == blank


def test_render_uses_bottom_sign():
    res = build_proper_subbase(interval_space(), 2)
    coded = encode_point(res.subbase, F(1, 3))
    assert "⊥" in coded.render()
    assert "_" in coded.render(ascii_bottom=True)


def test_encode_rejects_outside_point():
    res = build_proper_subbase(interval_space(), 2)
    with pytest.raises(SubbaseError):
        encode_point(res.subbase, F(7))


def test_encode_rejects_excess_width():
    res = build_proper_subbase(interval_space(), 2)
    with pytest.raises(SubbaseError):
        encode_point(res.subbase, F(1, 2), width=len(res.subbase) + 1)


def test_encode_rejects_negative_width():
    res = build_proper_subbase(interval_space(), 2)
    with pytest.raises(SubbaseError):
        encode_point(res.subbase, F(1, 2), width=-1)
