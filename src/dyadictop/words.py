"""Finite ternary words: partial maps from indices to {0, 1}.

Unset positions are the bottom digit, written ``⊥`` (ASCII ``_``).  Words
order lexicographically with ⊥ < 0 < 1 position by position, which fixes
the enumeration and counterexample-reporting order everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

BOTTOM = "⊥"


class WordError(ValueError):
    pass


@dataclass(frozen=True)
class TernaryWord:
    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        seen = set()
        for idx, digit in self.entries:
            if idx < 0 or digit not in (0, 1) or idx in seen:
                raise WordError(f"bad word entry ({idx}, {digit})")
            seen.add(idx)
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def from_string(cls, text: str) -> "TernaryWord":
        entries = []
        for i, ch in enumerate(text.strip()):
            if ch in ("0", "1"):
                entries.append((i, int(ch)))
            elif ch not in ("_", BOTTOM):
                raise WordError(f"bad word character {ch!r}")
        return cls(tuple(entries))

    def to_string(self, width: int | None = None, ascii_bottom: bool = True) -> str:
        bot = "_" if ascii_bottom else BOTTOM
        top = max([i for i, _ in self.entries], default=-1) + 1
        if width is None:
            width = top
        if top > width:
            raise WordError("word does not fit the requested width")
        chars = [bot] * width
        for i, d in self.entries:
            chars[i] = str(d)
        return "".join(chars)
