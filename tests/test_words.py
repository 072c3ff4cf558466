import pytest

from dyadictop import BOTTOM, TernaryWord, WordError


def test_from_string_both_alphabets():
    w = TernaryWord.from_string("0_1")
    assert w.entries == ((0, 0), (2, 1))
    assert TernaryWord.from_string(f"0{BOTTOM}1") == w


def test_entries_sorted():
    w = TernaryWord(((3, 1), (0, 0)))
    assert w.entries == ((0, 0), (3, 1))


def test_rejects_bad_digit():
    with pytest.raises(WordError):
        TernaryWord.from_string("02")
    with pytest.raises(WordError):
        TernaryWord(((0, 2),))
    with pytest.raises(WordError):
        TernaryWord(((0, 0), (0, 1)))  # duplicate index


def test_to_string_widths():
    w = TernaryWord.from_string("01")
    assert w.to_string() == "01"
    assert w.to_string(4, ascii_bottom=True) == "01__"
    assert TernaryWord.from_string("0_1").to_string(3, ascii_bottom=False) == "0⊥1"
    with pytest.raises(WordError):
        w.to_string(1)

