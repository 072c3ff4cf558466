"""Indexed families of dyadic pairs and the sets they generate.

A dyadic pair is a regular open set together with its exterior; a finite
family of pairs generates, for each ternary word, the open cell S(word):
the intersection of the chosen sides.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

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
        s = SymbolicSet.whole(self.space)
        for idx, digit in word.entries:
            if idx >= len(self.pairs):
                raise SubbaseError(f"word uses index {idx}, subbase has {len(self.pairs)}")
            s = s.intersection(self.pairs[idx][digit])
        return s

    def forced_word(self, x, width: int | None = None) -> TernaryWord:
        """Digits forced by membership; boundary indices stay bottom."""
        entries = []
        n = len(self.pairs) if width is None else min(width, len(self.pairs))
        for idx in range(n):
            if self.pairs[idx][0].membership(x):
                entries.append((idx, 0))
            elif self.pairs[idx][1].membership(x):
                entries.append((idx, 1))
        return TernaryWord(tuple(entries))

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


def load_subbase(path: str) -> DyadicSubbase:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SubbaseError(f"bad JSON in {path}: {exc}") from None
    return DyadicSubbase.from_dict(data)
