"""Coding points of a space by ternary words over a dyadic subbase.

A point's word records, index by index, which side of each pair holds it;
indices where the point sits on the shared boundary stay unfilled.  Decoding
a word recovers the cell of all points matching its filled digits.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .sets import SymbolicSet
from .subbase import DyadicSubbase, SubbaseError
from .words import TernaryWord


@dataclass(frozen=True)
class CodedPoint:
    point: Fraction
    word: TernaryWord
    width: int

    @property
    def unfilled(self) -> int:
        return self.width - len(self.word.entries)

    def render(self, ascii_bottom: bool = False) -> str:
        return self.word.to_string(self.width, ascii_bottom=ascii_bottom)


def encode_point(sb: DyadicSubbase, x: Fraction,
                 width: int | None = None) -> CodedPoint:
    """The word of x through the first ``width`` pairs (all pairs by default)."""
    if not sb.space.contains(x):
        raise SubbaseError(f"point {x} is not in the space")
    if width is None:
        width = len(sb)
    if width > len(sb):
        raise SubbaseError(f"width {width} exceeds the {len(sb)} pairs")
    word = sb.forced_word(x, width)
    return CodedPoint(x, word, width)


def decode_word(sb: DyadicSubbase, word: TernaryWord) -> SymbolicSet:
    """The cell of all points whose coding matches the word's filled digits."""
    return sb.sigma_sets(word)
