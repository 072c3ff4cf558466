"""Indexed families of dyadic pairs and the sets they generate.

A dyadic pair is a regular open set together with its exterior; a finite
family of pairs generates, for each ternary word, the open cell S(word):
the intersection of the chosen sides.

Both directions of the coding read the subbase's ``WordTable``, built on
first use.  The table cuts the space into atoms that every side holds whole
or misses whole: the runs of interval positions between consecutive cuts of
any side, the isolated points, and each sequence's runs of members between
consecutive tail switches of any side.  Which sides hold which atoms is
one atoms × sides matrix, read two ways, each built on first use: each
side's column is one integer mask over the atoms, and each interval
atom's row one integer over the sides.  One integer lookup finds a point's
atom, whose word is read off the masks the first time a point in it is
asked for; a cell S(word) is the AND of its sides' masks, read back as a
set in one pass; the dyadic check reads each pair's verdict off its two
masks and the atoms their closures touch; the properness check reads off
the rows which sides meet the pieces around a point; the resolution check
fits cells into a ball by their masks; and the construction reads each
level's cells off the rows of the pairs made so far.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from operator import xor

from .cuts import inside, place, position, reduced, rescale
from .rational import RationalFormatError
from .sets import TAIL_NONE, SetError, SymbolicSet, TailRule, kernel_set
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
        """The cell S(word), the atoms of the AND of its sides' masks; the
        empty word yields X, and a one-digit word its side."""
        entries = word.entries
        for idx, _ in entries:
            if idx >= len(self.pairs):
                raise SubbaseError(f"word uses index {idx}, subbase has {len(self.pairs)}")
        if not entries:
            return SymbolicSet.whole(self.space)
        if len(entries) == 1:
            idx, digit = entries[0]
            return self.pairs[idx][digit]
        table = self.word_table
        m = -1
        for idx, digit in entries:
            m &= table.mask(2 * idx + digit)
        return table.cell(m)

    def forced_word(self, x, width: int | None = None) -> TernaryWord:
        """Digits forced by membership; boundary indices stay bottom."""
        table = self.word_table
        return table.word(table.atom(x), width)

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
            for key in ("zero", "one"):
                if key not in entry:
                    raise SubbaseError(f"pair entry needs {key!r}")
            try:
                a = SymbolicSet.from_dict(space, entry["zero"])
                b = SymbolicSet.from_dict(space, entry["one"])
            except (SetError, RationalFormatError) as exc:
                raise SubbaseError(f"bad pair entry: {exc}") from None
            pairs.append((a, b))
        return cls.from_pairs(space, pairs)


class WordTable:
    """The atoms of a subbase, the masks of its sides over them and the
    words of its points, each worked out on first ask.

    ``sides`` lists the sides pair by pair, ``den`` is the lcm of their
    denominators and the space's, ``edges`` the cuts of the space's
    intervals rescaled to it, ``cuts`` each side's cuts rescaled to it, and
    ``bounds`` the sorted union of the sides' cuts and the edges, so each
    interval run lies in the space or misses it.
    ``switches[j]`` is the sorted union of the sides' tail switches of
    sequence j.  Every side holds all of an atom or none of it, and each
    atom is one bit: interval run r, the run of bounds a position falls in,
    is bit r, isolated point i is bit ``len(bounds) + 1 + i``, and run r of
    sequence j, the run of switches an index falls in, is bit
    ``runs[j] + r``.  ``masks`` keeps the masks built so far, by side,
    ``rows`` the row of each interval atom, and ``words`` one word per atom
    bit.  ``atom`` finds a point's bit in one integer lookup, the only path
    from a point to its atom.
    """

    def __init__(self, sb: DyadicSubbase):
        self.space = sb.space
        self.sides = [side for pair in sb.pairs for side in pair]
        ivs = kernel_set(sb.space)  # the union of the space's intervals
        self.den = math.lcm(ivs.den, *(side.den for side in self.sides))
        self.edges = rescale(ivs.cuts, self.den // ivs.den)
        self.cuts = [rescale(side.cuts, self.den // side.den) for side in self.sides]
        self.bounds = list(dict.fromkeys(sorted(chain(self.edges, *self.cuts))))
        self.switches = [sorted({k for side in self.sides for k in side.tails[j].switches})
                         for j in range(len(sb.space.sequences()))]
        self.words: dict[int, TernaryWord] = {}
        self.runs = []
        n = len(self.bounds) + 1 + len(sb.space.isolated_points())
        for switches in self.switches:
            self.runs.append(n)
            n += len(switches) + 1
        self.nbits = n
        self.masks: dict[int, int] = {}

    def atom(self, x) -> int | None:
        """The bit of x's atom, None for a point outside the space.  x's grid
        position, found once in integers, is inside the space's intervals
        when an odd number of ``edges`` lie at or before it, and one bisect
        of ``bounds`` then finds its run; ``Space.scattered`` does the rest."""
        q, r = divmod(x.numerator * self.den, x.denominator)
        p = 2 * q + (r != 0)
        if bisect_right(self.edges, p) & 1:
            return bisect_right(self.bounds, p)
        loc = self.space.scattered(x)
        if loc[0] == "point":
            return len(self.bounds) + 1 + loc[1]
        if loc[0] == "member":
            return self.runs[loc[1]] + bisect_right(self.switches[loc[1]], loc[2])
        return None

    def word(self, b: int | None, width: int | None = None) -> TernaryWord:
        """The word of atom b through the first ``width`` pairs (all by
        default): pair by pair, the side whose mask holds the atom, the zero
        side when both do.  A point outside the space, whose ``atom`` is
        None, has the empty word."""
        if b is None:
            return TernaryWord()
        word = self.words.get(b)
        if word is None:
            bit, entries = 1 << b, []
            for idx in range(len(self.sides) // 2):
                for digit in (0, 1):
                    if self.mask(2 * idx + digit) & bit:
                        entries.append((idx, digit))
                        break
            word = self.words[b] = TernaryWord(tuple(entries))
        if width is not None and width < len(self.sides) // 2:
            entries = word.entries
            word = TernaryWord(entries[:bisect_left(entries, (width,))])
        return word

    def pieces(self, x) -> int:
        """The atoms of the pieces at x, a point of the space, as a mask:
        x's own atom, the atoms of the positions either side of x's inside
        its interval when the grid places x, and the last run of each
        sequence converging to x.  A set holds all of a piece near enough
        to x or misses all of it, so a side's closure holds x exactly when
        its mask meets these bits."""
        b = self.atom(x)
        p, on_grid = place(x, self.den)
        out = self.end_pieces(p) if on_grid and b <= len(self.bounds) else 1 << b
        for s, switches, n in zip(self.space.sequences(), self.switches, self.runs):
            if s.limit == x:
                out |= 1 << (n + len(switches))
        return out

    def end_pieces(self, p: int) -> int:
        """The atoms of the pieces at the interval point at even position p
        on the grid, tails aside: its own atom and the atoms of the
        positions either side of it that lie in the space."""
        out = 1 << bisect_right(self.bounds, p)
        for q in (p - 1, p + 1):
            if inside(self.edges, q):
                out |= 1 << bisect_right(self.bounds, q)
        return out

    def mask(self, i: int) -> int:
        """The atoms side i holds, as the set bits of an integer, built on
        first ask: each cut, point end and tail switch of the side flips the
        bit of the atom it starts, and a prefix XOR fills the runs between."""
        m = self.masks.get(i)
        if m is not None:
            return m
        side, bounds = self.sides[i], self.bounds
        flips = [bisect_right(bounds, p) for p in self.cuts[i]]
        if side.points:
            first = len(bounds) + 1
            for n, p in enumerate(self.space.isolated_points(), first):
                if p.value in side.points:
                    flips += (n, n + 1)
        for rule, switches, n in zip(side.tails, self.switches, self.runs):
            flips += [n + bisect_right(switches, k) for k in rule.switches]
            if rule.infinite:
                flips.append(n + len(switches) + 1)
        bits = bytearray(self.nbits // 8 + 1)
        for b in flips:
            bits[b >> 3] ^= 1 << (b & 7)
        m = int.from_bytes(bits, "little")
        shift = 1
        while shift < self.nbits:
            m ^= m << shift
            shift <<= 1
        m &= (1 << self.nbits) - 1
        self.masks[i] = m
        return m

    @cached_property
    def rows(self) -> list[int]:
        """The row of each interval atom, bit i set when side i holds it:
        each cut of side i flips bit i at its bound, the start of an atom,
        and a prefix XOR over the bounds in order fills the runs between.
        An atom off the space's intervals, or at a boundary point of pair
        i, has neither bit 2i nor bit 2i + 1."""
        flip = dict.fromkeys(self.bounds, 0)
        for i, cuts in enumerate(self.cuts):
            bit = 1 << i
            for p in cuts:
                flip[p] ^= bit
        return list(accumulate(flip.values(), xor, initial=0))

    @cached_property
    def whole(self) -> int:
        """The atoms of the space, as a mask: the interval runs inside the
        space's intervals, whose cuts ``bounds`` holds, and the atoms of
        ``extremes``."""
        ends = [bisect_right(self.bounds, p) for p in self.edges]
        m = sum((1 << e) - (1 << a) for a, e in zip(ends[::2], ends[1::2]))
        for bit, *_ in self.extremes[1]:
            m |= 1 << bit
        return m

    @cached_property
    def extremes(self) -> tuple[int, list[tuple[int, int, int, bool]]]:
        """(den, rows), a row (bit, first, last, limit) for each isolated
        point and each nonempty sequence run, with first and last the
        positions over den of the atom's outermost values: the atom's
        values run from first to last and hold both, or, when limit is
        set, the last run's members approach its limit at ``last``
        strictly, from first on."""
        first = len(self.bounds) + 1
        out = [(b, p.value, p.value, False)
               for b, p in enumerate(self.space.isolated_points(), first)]
        for s, switches, n in zip(self.space.sequences(), self.switches, self.runs):
            starts = [1, *switches]
            out += [(n + r, s.member(a), s.member(e - 1), False)
                    for r, (a, e) in enumerate(zip(starts, switches)) if a < e]
            out.append((n + len(switches), s.member(starts[-1]), s.limit, True))
        den = math.lcm(1, *(x.denominator for _, a, b, _ in out for x in (a, b)))
        return den, [(bit, position(a, den), position(b, den), limit)
                     for bit, a, b, limit in out]

    @cached_property
    def point_atoms(self) -> tuple[int, int, list[int | None]]:
        """(finite, singles, sizes): ``finite`` masks the atoms that are
        finitely many points, the one-point interval runs [2v, 2v + 1), the
        isolated points and each sequence run before the last; ``singles``
        masks those of them that are one point outside the sequences;
        ``sizes[k]`` is the member count of sequence bit ``runs[0] + k``,
        None for a sequence's last run."""
        bounds, runs = self.bounds, self.runs
        one = "".join("1" if a + 1 == e and not a & 1 else "0"
                      for a, e in zip(reversed(bounds[:-1]), reversed(bounds[1:])))
        first = len(bounds) + 1
        singles = int(one + "0", 2) | ((1 << len(self.space.isolated_points())) - 1) << first
        sizes: list[int | None] = []
        for switches in self.switches:
            sizes += [e - a for a, e in zip([1, *switches], switches)] + [None]
        tail = sum(1 << k for k, n in enumerate(sizes) if n is not None)
        return singles | tail << runs[0] if runs else singles, singles, sizes

    def inner(self, lo: Fraction, hi: Fraction) -> int:
        """The atoms that lie wholly inside the open range (lo, hi), as a
        mask: the interval runs from the first position past lo's up to
        hi's, found with two bisects, and each atom of ``extremes`` whose
        first and last values lie inside, a limit in the closed range,
        compared as positions over the extremes' den, where lo's and hi's
        are found once."""
        bounds = self.bounds
        start = bisect_left(bounds, place(lo, self.den)[0] + 1) + 1
        stop = bisect_right(bounds, place(hi, self.den)[0])
        m = (1 << stop) - (1 << start) if start < stop else 0
        den, rows = self.extremes
        p, q = place(lo, den)[0], place(hi, den)[0]
        for bit, a, b, limit in rows:
            if p < a < q and (p <= b <= q if limit else p < b < q):
                m |= 1 << bit
        return m

    def cell(self, m: int) -> SymbolicSet:
        """The set of the atoms whose bits m sets.

        The bits where m flips, read off from the top, pair up into the
        maximal runs of set bits.  Neither end run of the interval bits nor
        the first run of a sequence is ever held, so no run crosses from
        one part of the layout into the next.  A flip at interval bit r is
        a cut at ``bounds[r - 1]``, where run r starts; a run of point bits
        holds each of its points, and a run of a sequence's bits is one
        pair of tail switches, the last one open when the run reaches the
        sequence's last run.
        """
        flips = []
        t = m ^ (m << 1)
        while t:
            b = t.bit_length() - 1
            flips.append(b)
            t ^= 1 << b
        flips.reverse()
        bounds, runs = self.bounds, self.runs
        first = len(bounds) + 1
        k = bisect_left(flips, first)
        cuts = [bounds[r - 1] for r in flips[:k]]
        points = []
        tails = [[] for _ in runs]
        for a, e in zip(flips[k::2], flips[k + 1::2]):
            if not runs or a < runs[0]:
                points += (p.value for p in self.space.isolated_points()[a - first:e - first])
            else:
                j = bisect_right(runs, a) - 1
                n, switches = runs[j], self.switches[j]
                tails[j].append(switches[a - n - 1])
                if e <= n + len(switches):
                    tails[j].append(switches[e - n - 1])
        return SymbolicSet._canonical(
            self.space, *reduced(self.den, cuts), frozenset(points),
            tuple(TailRule(tuple(sw)) if sw else TAIL_NONE for sw in tails))


def load_subbase(path: str) -> DyadicSubbase:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SubbaseError(f"bad JSON in {path}: {exc}") from None
    return DyadicSubbase.from_dict(data)
