from fractions import Fraction

import pytest

from dyadictop import RationalFormatError, exact_log2, format_rational, parse_rational
from dyadictop.rational import floor_log2


def test_parse_fraction_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(3) == Fraction(3)


def test_parse_rejects_junk():
    for bad in ("", "1/0", "a/b", "1.5", "1/2/3", None):
        with pytest.raises(RationalFormatError):
            parse_rational(bad)


def test_format_always_fraction_shaped():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(-2, 8)) == "-1/4"


def test_format_parse_roundtrip():
    for x in (Fraction(0), Fraction(17, 16), Fraction(-5, 3), Fraction(1, 2 ** 30)):
        assert parse_rational(format_rational(x)) == x


def test_exact_log2():
    assert exact_log2(Fraction(8)) == 3
    assert exact_log2(Fraction(1, 4)) == -2
    assert exact_log2(Fraction(1)) == 0
    assert exact_log2(Fraction(3, 4)) is None
    assert exact_log2(Fraction(0)) is None
    assert exact_log2(Fraction(-2)) is None


def test_floor_log2():
    assert floor_log2(Fraction(5)) == 2
    assert floor_log2(Fraction(1, 5)) == -3
    assert floor_log2(Fraction(4)) == 2
