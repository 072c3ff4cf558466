"""Coding points of a space by ternary words over a dyadic subbase.

A point's word records, index by index, which side of each pair holds it;
indices where the point sits on the shared boundary stay unfilled.  Encoding
finds the point's atom in the subbase's ``WordTable`` with one integer
lookup (``WordTable.atom``), with no ``Fraction`` arithmetic, and reads the
atom's word off the sides' atom masks once per atom.  Decoding a word
recovers the cell of all points matching its filled digits from the
same table: the AND of the atom masks of the sides the word names, read
back as a set.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .sets import SymbolicSet
from .subbase import DyadicSubbase, SubbaseError
from .words import TernaryWord


@dataclass(slots=True, unsafe_hash=True)
class CodedPoint:
    """A point with its word through the first ``width`` pairs.

    Built on every ``encode_point``, so the dataclass is not frozen: a
    frozen dataclass's checked constructor cost more than the rest of an
    encode, while a plain slots dataclass constructs as fast as a
    hand-written class.  Equal when point, word and width are equal.
    """

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
    table = sb.word_table
    b = table.atom(x)
    if b is None:
        raise SubbaseError(f"point {x} is not in the space")
    n = len(sb)
    if width is None:
        width = n
    if width > n:
        raise SubbaseError(f"width {width} exceeds the {n} pairs")
    if width < 0:
        raise SubbaseError(f"width {width} is negative")
    return CodedPoint(x, table.word(b, width), width)


def decode_word(sb: DyadicSubbase, word: TernaryWord) -> SymbolicSet:
    """The cell of all points whose coding matches the word's filled digits."""
    return sb.sigma_sets(word)
