"""Indexed families of dyadic pairs and the sets they generate.

A dyadic pair is a regular open set together with its exterior; a finite
family of pairs generates, for each ternary word, the open cell S(word):
the intersection of the chosen sides.

A point's word, the side of each pair that holds it, comes from the
subbase's ``WordTable``, built on first use.  The table cuts the space into
atoms that every side holds whole or misses whole: the runs of interval
positions between consecutive cuts of any side, the isolated points, and
each sequence's runs of members between consecutive tail switches of any
side.  One bisect finds a point's atom, and each atom's word is worked out
the first time a point in it is asked for.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .cuts import inside, place, rescale
from .sets import SetError, SymbolicSet
from .space import Space
from .words import TernaryWord


class SubbaseError(ValueError):
    pass


class NotRegularOpenError(SubbaseError):
    """Raised by make_pair; carries the regularization as a repair hint."""

    def __init__(self, given: SymbolicSet, hint: SymbolicSet):
        self.given = given
        self.hint = hint
        super().__init__(
            f"set {given.render()} is not regular open; "
            f"its regularization is {hint.render()}")


def make_pair(space: Space, zero_side: SymbolicSet) -> tuple[SymbolicSet, SymbolicSet]:
    if zero_side.space != space:
        raise SubbaseError("pair must live in the given space")
    reg = zero_side.regularization()
    if reg != zero_side:
        raise NotRegularOpenError(zero_side, reg)
    return (zero_side, zero_side.exterior())


@dataclass(frozen=True)
class DyadicSubbase:
    space: Space
    pairs: tuple[tuple[SymbolicSet, SymbolicSet], ...]

    @classmethod
    def from_zero_sides(cls, space: Space, zero_sides) -> "DyadicSubbase":
        return cls(space, tuple(make_pair(space, s) for s in zero_sides))

    @classmethod
    def from_pairs(cls, space: Space, pairs) -> "DyadicSubbase":
        """No validation; deliberately broken fixtures load through here."""
        for a, b in pairs:
            if a.space != space or b.space != space:
                raise SubbaseError("pair members must live in the given space")
        return cls(space, tuple((a, b) for a, b in pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def sigma_sets(self, word: TernaryWord) -> SymbolicSet:
        """The cell S(word); the empty word yields X."""
        for idx, _ in word.entries:
            if idx >= len(self.pairs):
                raise SubbaseError(f"word uses index {idx}, subbase has {len(self.pairs)}")
        if not word.entries:
            return SymbolicSet.whole(self.space)
        (idx, digit), *rest = word.entries
        s = self.pairs[idx][digit]
        for idx, digit in rest:
            s = s.intersection(self.pairs[idx][digit])
        return s

    def forced_word(self, x, width: int | None = None) -> TernaryWord:
        """Digits forced by membership; boundary indices stay bottom."""
        return self.word_table.word(self.space.locate(x), x, width)

    @cached_property
    def word_table(self) -> "WordTable":
        """The table of point words; not a field, so equality, hash and
        ``to_dict`` ignore it."""
        return WordTable(self)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "space": self.space.to_dict(),
            "pairs": [{"zero": a.to_dict(), "one": b.to_dict()}
                      for a, b in self.pairs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DyadicSubbase":
        if not isinstance(data, dict) or "space" not in data or "pairs" not in data:
            raise SubbaseError('subbase JSON needs "space" and "pairs"')
        space = Space.from_dict(data["space"])
        if not isinstance(data["pairs"], list):
            raise SubbaseError('"pairs" must be a list')
        pairs = []
        for entry in data["pairs"]:
            if not isinstance(entry, dict):
                raise SubbaseError(f"pair entry {entry!r} is not an object")
            try:
                a = SymbolicSet.from_dict(space, entry["zero"])
                b = SymbolicSet.from_dict(space, entry["one"])
            except (KeyError, SetError) as exc:
                raise SubbaseError(f"bad pair entry: {exc}") from None
            pairs.append((a, b))
        return cls.from_pairs(space, pairs)


class WordTable:
    """The words of a subbase's points, one per atom, each worked out on
    first ask.

    ``den`` is the lcm of the sides' denominators and ``cuts`` each side's
    cuts rescaled to it, pair by pair; ``bounds`` is their sorted union.
    ``switches[j]`` is the sorted union of the sides' tail switches of
    sequence j.  A point's atom is keyed by ``("interval", r)``, r the run
    of bounds its position falls in, by its ``("point", i)`` location, or by
    ``("member", j, r)``, r the run of switches its index falls in.  Every
    side holds all of an atom or none of it, so ``words`` keeps at most one
    word per atom.
    """

    def __init__(self, sb: DyadicSubbase):
        self.sides = [side for pair in sb.pairs for side in pair]
        self.den = math.lcm(*(side.den for side in self.sides))
        self.cuts = [rescale(side.cuts, self.den // side.den) for side in self.sides]
        self.bounds = sorted({p for cuts in self.cuts for p in cuts})
        self.switches = [sorted({k for side in self.sides for k in side.tails[j].switches})
                         for j in range(len(sb.space.sequences()))]
        self.words: dict[tuple, TernaryWord] = {}

    def held(self, loc, x) -> list[bool]:
        """Whether each side, pair by pair, holds x, given its
        ``space.locate`` result."""
        if loc[0] == "interval":
            p = place(x, self.den)[0]
            return [inside(cuts, p) for cuts in self.cuts]
        if loc[0] == "point":
            return [x in side.points for side in self.sides]
        if loc[0] == "member":
            return [side.tails[loc[1]].selected(loc[2]) for side in self.sides]
        return [False] * len(self.sides)

    def word(self, loc, x, width: int | None = None) -> TernaryWord:
        """The word of x through the first ``width`` pairs (all by default),
        given its ``space.locate`` result; a point outside the space has
        the empty word."""
        kind = loc[0]
        if kind == "interval":
            key = (kind, bisect_right(self.bounds, place(x, self.den)[0]))
        elif kind == "member":
            key = (kind, loc[1], bisect_right(self.switches[loc[1]], loc[2]))
        elif kind == "point":
            key = loc
        else:
            return TernaryWord()
        word = self.words.get(key)
        if word is None:
            held = self.held(loc, x)
            word = self.words[key] = TernaryWord(tuple(
                (idx, 0 if zero else 1)
                for idx, (zero, one) in enumerate(zip(held[::2], held[1::2])) if zero or one))
        if width is not None and width < len(self.sides) // 2:
            entries = word.entries
            word = TernaryWord(entries[:bisect_left(entries, (width,))])
        return word


def load_subbase(path: str) -> DyadicSubbase:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SubbaseError(f"bad JSON in {path}: {exc}") from None
    return DyadicSubbase.from_dict(data)
