"""Canonical symbolic subsets of a Space, with exact point-set topology.

A set is stored in three independent components:

* ``den``, ``cuts``  the interval-region trace as integer cut positions
              (module ``cuts``): the increasing positions where membership
              flips, over the smallest denominator that places them all;
              ``spans`` reads them back as disjoint sorted spans
* ``points``  the included isolated-point values
* ``tails``   one selection rule per GeometricSequence primitive, stored
              as its switch points: the increasing indices where selection
              of the members flips, starting unselected

Because the primitives are pairwise disjoint this decomposition is unique,
so structural equality of canonical forms is set equality, and every lattice
and topology operation below is exact.

``closure`` and ``interior`` each take one pass over the cuts and the
sequence limits.  The closure closes every span end and adds the limit of
each sequence the set holds infinitely often.  The interior opens every
closed span end that is not an end of its ambient interval (an even start
a becomes a + 1, an odd end e becomes e - 1, and a span left empty goes),
and removes each limit in the space, whether an interval point, an
isolated point or a member, whose tail the set does not hold cofinitely.
``subset_of`` decides from the operands without building their difference:
the points are a subset, and each tail's and the cuts' AND_NOT merge is
empty, the cuts rescaled only when the denominators differ.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

from .cuts import (AND, AND_NOT, OR, combine, common, inside, merge, place, position,
                   reduced, rescale, union)
from .rational import format_rational, parse_ratio, parse_rational
from .space import Space, _members_in_range, per_space


class SetError(ValueError):
    pass


class AmbientMismatchError(SetError):
    pass


# -- spans ----------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    lo: Fraction
    lo_in: bool
    hi: Fraction
    hi_in: bool

    def __post_init__(self):
        if self.lo > self.hi or (self.lo == self.hi and not (self.lo_in and self.hi_in)):
            raise SetError(f"bad span bounds {self.render()}")

    def contains(self, x: Fraction) -> bool:
        if self.lo < x < self.hi:
            return True
        return (x == self.lo and self.lo_in) or (x == self.hi and self.hi_in)

    def render(self) -> str:
        lo, hi = self.lo, self.hi
        return _literal(lo.numerator, lo.denominator, self.lo_in,
                        hi.numerator, hi.denominator, self.hi_in)


def _literal(p: int, q: int, lo_in, r: int, s: int, hi_in) -> str:
    """The interval literal from p/q to r/s, the integers as given."""
    return f"{'[' if lo_in else '('}{p}/{q},{r}/{s}{']' if hi_in else ')'}"


# an interval literal, each end as p/q or p with a denominator that has a
# nonzero digit, matched straight to its integers, or as the text that
# ``parse_ratio`` refuses
_LITERAL_RE = re.compile(r"\s*([\[(])\s*(([+-]?\d+)(?:/(\d*[1-9]\d*))?|[^,\s]+)\s*,"
                         r"\s*(([+-]?\d+)(?:/(\d*[1-9]\d*))?|[^\])\s]+)\s*([\])])\s*")


def _parse_literal(text: str) -> tuple[int, int, bool, int, int, bool]:
    """(p, q, lo_in, r, s, hi_in) of an interval literal from p/q to r/s, the
    integers as written, in one match; refused as a ``Span`` would refuse
    its bounds, and an end that is not p/q or has a zero denominator as
    ``parse_ratio`` refuses it."""
    m = _LITERAL_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise SetError(f"bad interval literal {text!r}")
    opening, lo, p, q, hi, r, s, closing = m.groups()
    p, q = (int(p), int(q or 1)) if p else parse_ratio(lo)
    r, s = (int(r), int(s or 1)) if r else parse_ratio(hi)
    lo_in, hi_in = opening == "[", closing == "]"
    if p * s > r * q or (p * s == r * q and not (lo_in and hi_in)):
        raise SetError(f"bad span bounds {_span(Fraction(p, q), lo_in, Fraction(r, s), hi_in).render()}")
    return p, q, lo_in, r, s, hi_in


def _covered(space: Space, lo: Fraction, lo_in: bool, hi: Fraction, hi_in: bool):
    """(values, switches): the isolated points that the real interval from
    lo to hi holds, and per sequence the tail switches of its members
    there."""
    values = [p.value for p in space.isolated_points()
              if lo < p.value < hi or (p.value == lo and lo_in) or (p.value == hi and hi_in)]
    switches = []
    for s in space.sequences():
        r = _members_in_range(s, lo, lo_in, hi, hi_in)
        switches.append(() if r is None else (r[0],) if r[1] == -1 else (r[0], r[1] + 1))
    return values, switches


@per_space
def _ambient(space: Space) -> tuple[int, tuple[int, ...]]:
    """(den, cuts) of the union of the space's intervals: the cuts that
    ``Space.locate`` bisects, reduced."""
    den, ends, _ = space._grid
    return reduced(den, ends)


def _ambient_ends(space: Space, den: int) -> set[int]:
    """The cuts of ``_ambient`` that den places, as positions over den: an
    interval's lower end at an even position, its upper end at an odd one."""
    amb_den, amb = _ambient(space)
    ends = set()
    for c in amb:
        q, r = divmod((c >> 1) * den, amb_den)
        if not r:
            ends.add(2 * q + (c & 1))
    return ends


@per_space
def _limits(space: Space) -> tuple:
    """``space.locate`` of each sequence's limit, in ``sequences()`` order."""
    return tuple(space.locate(s.limit) for s in space.sequences())


def _span(lo: Fraction, lo_in: bool, hi: Fraction, hi_in: bool) -> Span:
    """A Span whose bounds are valid already, built unchecked."""
    sp = object.__new__(Span)
    sp.__dict__.update(lo=lo, lo_in=lo_in, hi=hi, hi_in=hi_in)
    return sp


def _cut_pairs(space: Space, den: int, cuts) -> list[tuple[int, int]]:
    """The (start, end) cuts of each span, in ``intervals()`` order and
    sorted within each interval."""
    pairs = list(zip(cuts[::2], cuts[1::2]))
    order = space._grid[2]
    if any(i > j for i, j in zip(order, order[1:])):
        # no span crosses a gap between intervals, so the ambient interval
        # whose cuts hold its start holds it
        _, amb, starts = common(*_ambient(space), den, cuts[::2])
        index = {a: order[bisect_right(amb, p) >> 1] for a, p in zip(cuts[::2], starts)}
        pairs.sort(key=lambda pair: index[pair[0]])
    return pairs


def _cut_spans(space: Space, den: int, cuts) -> tuple[Span, ...]:
    """The spans of the cuts, in ``_cut_pairs`` order."""
    return tuple(_span(Fraction(a >> 1, den), a % 2 == 0, Fraction(e >> 1, den), e % 2 == 1)
                 for a, e in _cut_pairs(space, den, cuts))


def _cut_literals(space: Space, den: int, cuts) -> list[str]:
    """The interval literals of the cuts, in ``_cut_pairs`` order, each
    end written as the value c >> 1 over den reduced by one gcd."""
    out = []
    for a, e in _cut_pairs(space, den, cuts):
        x, y = a >> 1, e >> 1
        g, h = math.gcd(x, den), math.gcd(y, den)
        out.append(_literal(x // g, den // g, not a & 1, y // h, den // h, e & 1))
    return out


def _gap(x: Fraction, s: "SymbolicSet") -> tuple[int, int] | None:
    """(g, d) with g / d the distance from x to the closure of the set's
    interval part, or None when it has none.  In integers over the set's
    den times x's denominator: one bisect of x's position finds the spans
    either side of it, and x inside a span is at distance 0."""
    cuts = s.cuts
    if not cuts:
        return None
    den, xd = s.den, x.denominator
    xs = x.numerator * den  # x over den·xd
    i = bisect_right(cuts, place(x, den)[0])
    if i & 1:
        return 0, 1
    gaps = []
    if i:
        gaps.append(xs - (cuts[i - 1] >> 1) * xd)
    if i < len(cuts):
        gaps.append((cuts[i] >> 1) * xd - xs)
    return min(gaps), den * xd


def nearer(x: Fraction, first: "SymbolicSet", second: "SymbolicSet") -> int | None:
    """0 or 1 for the set whose interval part's closure is nearer x, ties
    going to the first; None when neither has an interval part."""
    d0, d1 = _gap(x, first), _gap(x, second)
    if d0 is None:
        return None if d1 is None else 1
    return 0 if d1 is None or d0[0] * d1[1] <= d1[0] * d0[1] else 1


# -- tail rules -----------------------------------------------------------

@dataclass(frozen=True)
class TailRule:
    """Canonical selection of sequence indices, stored as switch points:
    the increasing indices k >= 1 where selection flips, starting
    unselected.  With an odd count every index from the last switch on is
    selected.  JSON reads the rule as ``start`` (the last switch of an
    infinite rule, else None) plus the selected ``exceptions`` below it.
    """

    switches: tuple[int, ...] = ()

    def __post_init__(self):
        sw = tuple(self.switches)
        if any(a >= b for a, b in zip((0,) + sw, sw)):
            raise SetError(f"tail switches {sw} are not increasing from 1")
        object.__setattr__(self, "switches", sw)

    @classmethod
    def of(cls, start: int | None, exceptions) -> "TailRule":
        """All k >= start (none when start is None), with each exception
        flipped, on either side of start."""
        return cls(tuple(_switches(start, exceptions)))

    @property
    def infinite(self) -> bool:
        return len(self.switches) % 2 == 1

    @property
    def is_empty(self) -> bool:
        return not self.switches

    @property
    def start(self) -> int | None:
        return self.switches[-1] if self.infinite else None

    @property
    def exceptions(self) -> frozenset[int]:
        return frozenset(_exceptions(self.switches))

    def selected(self, k: int) -> bool:
        return inside(self.switches, k)

    def union(self, other: "TailRule") -> "TailRule":
        return _tail_binary(self, other, OR)


def _switches(start: int | None, exceptions) -> list[int]:
    """The sorted switch points of all k >= start (none when start is
    None) with each exception flipped; every index must be at least 1."""
    exceptions = set(exceptions)
    if (start is not None and start < 1) or any(e < 1 for e in exceptions):
        raise SetError("tail indices start at 1")
    flips = {start} if start is not None else set()
    for e in exceptions:
        flips.symmetric_difference_update((e, e + 1))
    return sorted(flips)


def _exceptions(sw) -> list[int]:
    """The selected indices below the last switch of an infinite rule, or
    every selected index of a finite one, increasing."""
    return [k for a, b in zip(sw[::2], sw[1::2]) for k in range(a, b)]


def _tail_binary(a: TailRule, b: TailRule, table) -> TailRule:
    if not a.switches and not b.switches:
        return TAIL_NONE
    return TailRule(tuple(merge(a.switches, b.switches, table)))


TAIL_ALL = TailRule((1,))
TAIL_NONE = TailRule()


def _tail_rule(parts) -> TailRule:
    """The union of tail rules given as switch lists, each increasing from
    1.  Their merge is too, so the rule is built unchecked."""
    sw: list[int] = []
    for part in parts:
        sw = merge(sw, part, OR) if sw else part
    if not sw:
        return TAIL_NONE
    rule = object.__new__(TailRule)
    object.__setattr__(rule, "switches", tuple(sw))
    return rule


# Largest tail index a set file may name; the builder names indices up to
# its levels + 3.  Combining rules costs nothing per index, but the members
# of a finite rule are listed whole (``exceptions``, ``as_finite_points``,
# ``to_dict``) and the member at index k has a 2^k denominator, so a start
# of 10^4 would make the checks list 10^4 such values for its complement.
MAX_TAIL_INDEX = 256


def _tail_index(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SetError(f"bad tail {what} {value!r}")
    if value > MAX_TAIL_INDEX:
        raise SetError(f"tail {what} {value} is above MAX_TAIL_INDEX = {MAX_TAIL_INDEX}")
    return value


def _json_list(data: dict, key: str) -> list:
    items = data.get(key, [])
    if not isinstance(items, list):
        raise SetError(f'"{key}" must be a list')
    return items


# -- symbolic sets --------------------------------------------------------

_set = object.__setattr__


class SymbolicSet:
    """``SymbolicSet(space, spans, points, tails)`` takes the union of the
    spans, which may overlap, as cuts (``cuts.union``), clips it to the
    ambient intervals (``_ambient``), checks the points and pads the tails
    with empty rules; the operations build their canonical results
    unchecked.  Immutable, and equal exactly when equal as sets."""

    __slots__ = ("space", "den", "cuts", "points", "tails")

    def __init__(self, space: Space, spans=(), points=frozenset(), tails=()):
        _set(self, "space", space)
        _set(self, "points", points)
        _set(self, "tails", tails)
        self.__post_init__(spans)

    def __post_init__(self, spans):
        # the one place where raw spans are clipped to the ambient intervals
        spans = tuple(spans)
        den, cuts = 1, ()
        if spans:
            den = math.lcm(*(x.denominator for sp in spans for x in (sp.lo, sp.hi)))
            raw = union([(position(sp.lo, den) + (not sp.lo_in),
                          position(sp.hi, den) + sp.hi_in) for sp in spans])
            den, cuts = combine(den, raw, *_ambient(self.space), AND)
        _set(self, "den", den)
        _set(self, "cuts", cuts)
        pts = frozenset(self.points)
        for p in pts:
            if self.space.locate(p)[0] != "point":
                raise SetError(f"{p} is not an isolated point of the space")
        _set(self, "points", pts)
        seqs = self.space.sequences()
        tails = tuple(self.tails)
        if len(tails) > len(seqs):
            raise SetError("more tail rules than sequences")
        tails = tails + (TAIL_NONE,) * (len(seqs) - len(tails))
        _set(self, "tails", tails)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.den == other.den and self.cuts == other.cuts
                and self.points == other.points and self.tails == other.tails
                and (self.space is other.space or self.space == other.space))

    def __hash__(self):
        return hash((self.space, self.den, self.cuts, self.points, self.tails))

    def __repr__(self):
        return f"SymbolicSet({self.render()})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def _canonical(cls, space: Space, den: int, cuts: tuple[int, ...],
                   points: frozenset[Fraction], tails: tuple[TailRule, ...]) -> "SymbolicSet":
        """A set from parts that are canonical already (reduced cuts inside
        the ambient intervals, isolated-point values, one rule per
        sequence), unchecked."""
        s = object.__new__(cls)
        _set(s, "space", space)
        _set(s, "den", den)
        _set(s, "cuts", cuts)
        _set(s, "points", points)
        _set(s, "tails", tails)
        return s

    @classmethod
    def empty(cls, space: Space) -> "SymbolicSet":
        return cls._canonical(space, 1, (), frozenset(), (TAIL_NONE,) * len(space.sequences()))

    @classmethod
    def whole(cls, space: Space) -> "SymbolicSet":
        return cls._canonical(
            space, *_ambient(space), frozenset(p.value for p in space.isolated_points()),
            (TAIL_ALL,) * len(space.sequences()))

    @classmethod
    def region(cls, space: Space, blocks) -> "SymbolicSet":
        """Trace of a finite union of real intervals on the space.

        ``blocks`` holds (lo, lo_in, hi, hi_in) tuples; members, isolated
        points and limits falling inside a block are picked up exactly.
        """
        spans = tuple(Span(lo, lo_in, hi, hi_in) for lo, lo_in, hi, hi_in in blocks
                      if lo < hi or (lo == hi and lo_in and hi_in))
        points, switches = set(), [[] for _ in space.sequences()]
        for sp in spans:
            values, sws = _covered(space, sp.lo, sp.lo_in, sp.hi, sp.hi_in)
            points.update(values)
            for parts, sw in zip(switches, sws):
                parts.append(sw)
        return cls(space, spans, frozenset(points), tuple(map(_tail_rule, switches)))

    @classmethod
    def ball(cls, space: Space, center: Fraction, radius: Fraction) -> "SymbolicSet":
        return cls.region(space, [(center - radius, False, center + radius, False)])

    @classmethod
    def singleton(cls, space: Space, x: Fraction) -> "SymbolicSet":
        loc = space.locate(x)
        if loc[0] == "interval":
            return cls(space, (Span(x, True, x, True),))
        if loc[0] == "point":
            return cls(space, points=frozenset({x}))
        if loc[0] == "member":
            tails = [TAIL_NONE] * len(space.sequences())
            tails[loc[1]] = TailRule.of(None, {loc[2]})
            return cls(space, tails=tuple(tails))
        raise SetError(f"{x} is not in the space")

    # -- basic queries --------------------------------------------------

    @property
    def spans(self) -> tuple[Span, ...]:
        """The interval part as disjoint spans, read from the cuts on each
        call: canonical, sorted within each interval, the intervals in
        ``intervals()`` order."""
        return _cut_spans(self.space, self.den, self.cuts)

    @property
    def is_empty(self) -> bool:
        return not self.cuts and not self.points and all(t.is_empty for t in self.tails)

    def membership(self, x: Fraction) -> bool:
        return self._holds(self.space.locate(x), x)

    def _holds(self, loc, x: Fraction) -> bool:
        """Membership of x, given its ``space.locate`` result."""
        if loc[0] == "interval":
            return inside(self.cuts, place(x, self.den)[0])
        if loc[0] == "point":
            return x in self.points
        if loc[0] == "member":
            return self.tails[loc[1]].selected(loc[2])
        return False

    def sample_point(self) -> Fraction | None:
        """Deterministic witness of nonemptiness."""
        if self.cuts:
            a, e = self.cuts[0], self.cuts[1]
            lo = Fraction(a >> 1, self.den)
            if a % 2 == 0:
                return lo
            return (lo + Fraction(e >> 1, self.den)) / 2
        if self.points:
            return min(self.points)
        for j, rule in enumerate(self.tails):
            if rule.switches:
                return self.space.sequences()[j].member(rule.switches[0])
        return None

    def as_finite_points(self) -> tuple[Fraction, ...] | None:
        """All elements when the set is finite, else None."""
        vals: list[Fraction] = []
        cuts = self.cuts
        for a, e in zip(cuts[::2], cuts[1::2]):
            if a % 2 or e != a + 1:  # not one closed point
                return None
            vals.append(Fraction(a >> 1, self.den))
        vals.extend(self.points)
        for j, rule in enumerate(self.tails):
            if rule.infinite:
                return None
            seq = self.space.sequences()[j]
            vals.extend(seq.member(k) for k in rule.exceptions)
        return tuple(sorted(vals))

    def closure_bounds(self) -> tuple[Fraction, Fraction] | None:
        """(inf, sup) of the closure, or None when empty."""
        lows: list[Fraction] = []
        highs: list[Fraction] = []
        if self.cuts:
            lows.append(Fraction(self.cuts[0] >> 1, self.den))
            highs.append(Fraction(self.cuts[-1] >> 1, self.den))
        lows.extend(self.points)
        highs.extend(self.points)
        for j, rule in enumerate(self.tails):
            if rule.is_empty:
                continue
            seq = self.space.sequences()[j]
            first = seq.member(rule.switches[0])
            ext = seq.limit if rule.infinite else seq.member(rule.switches[-1] - 1)
            lows.append(min(first, ext))
            highs.append(max(first, ext))
        if not lows:
            return None
        return (min(lows), max(highs))

    # -- lattice operations ---------------------------------------------

    def _require_same_space(self, other: "SymbolicSet") -> None:
        if self.space is not other.space and self.space != other.space:
            raise AmbientMismatchError("sets live in different spaces")

    def _binary(self, other: "SymbolicSet", table, points_op) -> "SymbolicSet":
        """The set by ``table`` on the cuts and the tails, and by the
        frozenset operation ``points_op`` on the points, which keeps each
        point's stored hash."""
        self._require_same_space(other)
        a_empty, b_empty = self.is_empty, other.is_empty
        if a_empty or b_empty:
            # table[0] is false, so the other operand or nothing is left
            if b_empty and table[2]:
                return self
            if a_empty and table[1]:
                return other
            return SymbolicSet.empty(self.space)
        den, cuts = combine(self.den, self.cuts, other.den, other.cuts, table)
        points = points_op(self.points, other.points)
        tails = tuple([_tail_binary(s, t, table) for s, t in zip(self.tails, other.tails)])
        return SymbolicSet._canonical(self.space, den, cuts, points, tails)

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        return self._binary(other, OR, frozenset.__or__)

    def intersection(self, other: "SymbolicSet") -> "SymbolicSet":
        return self._binary(other, AND, frozenset.__and__)

    def difference(self, other: "SymbolicSet") -> "SymbolicSet":
        return self._binary(other, AND_NOT, frozenset.__sub__)

    def complement(self) -> "SymbolicSet":
        return SymbolicSet.whole(self.space).difference(self)

    def subset_of(self, other: "SymbolicSet") -> bool:
        """Whether nothing is left of the set when ``other`` is taken out,
        decided from the operands without building that difference: the
        points are a subset, and each tail's and the cuts' AND_NOT merge
        is empty."""
        self._require_same_space(other)
        if not self.points <= other.points:
            return False
        if any(s.switches and merge(s.switches, t.switches, AND_NOT)
               for s, t in zip(self.tails, other.tails)):
            return False
        if not self.cuts:
            return True
        _, a, b = common(self.den, self.cuts, other.den, other.cuts)
        return not merge(a, b, AND_NOT)

    # -- topology --------------------------------------------------------

    def closure(self) -> "SymbolicSet":
        den, cuts = self.den, self.cuts
        points = set(self.points)
        tails = list(self.tails)
        limits = []
        for s, loc, rule in zip(self.space.sequences(), _limits(self.space), self.tails):
            if not rule.infinite:
                continue
            if loc[0] == "interval":
                limits.append(s.limit)
            elif loc[0] == "point":
                points.add(s.limit)
            elif loc[0] == "member":
                j2, k2 = loc[1], loc[2]
                tails[j2] = tails[j2].union(TailRule.of(None, {k2}))
        if limits:
            new = math.lcm(den, *(x.denominator for x in limits))
            cuts, den = rescale(cuts, new // den), new
        # each span takes in its end values, which joins it to a next span
        # that started just after its open end; each limit is one point
        closed = [(a & ~1, e | 1) for a, e in zip(cuts[::2], cuts[1::2])]
        closed += [(q, q + 1) for q in (position(x, den) for x in limits)]
        den, cuts = reduced(den, union(closed))
        return SymbolicSet._canonical(self.space, den, cuts, frozenset(points), tuple(tails))

    def interior(self) -> "SymbolicSet":
        """The set less the closure of its complement, in one pass: the
        complement's closure adds its span ends and the limits of the
        sequences it holds infinitely often, so a closed span end that is
        not an end of its ambient interval opens, and each limit in the
        space whose tail the set does not hold cofinitely leaves."""
        den, cuts = self.den, self.cuts
        points, tails = self.points, list(self.tails)
        if cuts:
            ends = _ambient_ends(self.space, den)
            opened = []
            for a, e in zip(cuts[::2], cuts[1::2]):
                if not a & 1 and a not in ends:
                    a += 1
                if e & 1 and e not in ends:
                    e -= 1
                if a < e:
                    opened += (a, e)
            cuts = opened
        limits = []
        for s, loc, rule in zip(self.space.sequences(), _limits(self.space), self.tails):
            if rule.infinite:
                continue
            if loc[0] == "interval":
                if inside(cuts, place(s.limit, den)[0]):
                    limits.append(s.limit)
            elif loc[0] == "point":
                points = points - {s.limit}
            elif loc[0] == "member":
                j2, k2 = loc[1], loc[2]
                tails[j2] = _tail_binary(tails[j2], TailRule((k2, k2 + 1)), AND_NOT)
        if limits:
            new = math.lcm(den, *(x.denominator for x in limits))
            removed = union([(q, q + 1) for q in (position(x, new) for x in limits)])
            cuts, den = merge(rescale(cuts, new // den), removed, AND_NOT), new
        den, cuts = reduced(den, cuts)
        return SymbolicSet._canonical(self.space, den, cuts, points, tuple(tails))

    def boundary(self) -> "SymbolicSet":
        return self.closure().difference(self.interior())

    def regularization(self) -> "SymbolicSet":
        return self.closure().interior()

    def exterior(self) -> "SymbolicSet":
        return self.closure().complement()

    @property
    def is_open(self) -> bool:
        return self == self.interior()

    @property
    def is_regular_open(self) -> bool:
        return self == self.regularization()

    # -- relative topology ------------------------------------------------

    def closure_in(self, sub: "SymbolicSet") -> "SymbolicSet":
        self._require_subset_of(sub, "closure_in")
        return self.closure().intersection(sub)

    def interior_in(self, sub: "SymbolicSet") -> "SymbolicSet":
        self._require_subset_of(sub, "interior_in")
        return sub.difference(sub.difference(self).closure())

    def _require_subset_of(self, sub: "SymbolicSet", op: str) -> None:
        self._require_same_space(sub)
        if not self.subset_of(sub):
            raise SetError(f"{op} needs the set to lie inside the subspace")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {}
        if self.cuts:
            d["intervals"] = _cut_literals(self.space, self.den, self.cuts)
        if self.points:
            d["points"] = [format_rational(p) for p in sorted(self.points)]
        tails = []
        for j, rule in enumerate(self.tails):
            sw = rule.switches
            if not sw:
                continue
            entry: dict = {"sequence": j}
            if len(sw) & 1:
                entry["start"] = sw[-1]
            exceptions = _exceptions(sw)
            if exceptions:
                entry["exceptions"] = exceptions
            tails.append(entry)
        if tails:
            d["tails"] = tails
        return d

    @classmethod
    def from_dict(cls, space: Space, data: dict) -> "SymbolicSet":
        """The set a JSON object describes, in one pass.

        Each interval literal is parsed to integers and becomes a range of
        positions over one denominator for the whole set, and one union
        clipped to the space's intervals gives the cuts.  A literal is the
        trace of a real interval, so one that leaves the space's intervals
        also takes in the isolated points and members it covers, as
        ``region`` does; one inside them covers none, since the primitives
        are disjoint.  Each point is located once and joins the cuts, the
        points or its sequence's tail.  Each tail entry becomes its switch
        list, and one rule per sequence is built from the merged lists.
        Errors come in file order: intervals, points, tails.
        """
        if not isinstance(data, dict):
            raise SetError("set JSON must be an object")
        literals = [_parse_literal(text) for text in _json_list(data, "intervals")]
        values, points, switches = [], set(), [[] for _ in space.sequences()]
        for text in _json_list(data, "points"):
            x = parse_rational(text)
            loc = space.locate(x)
            if loc[0] == "interval":
                values.append(x)
            elif loc[0] == "point":
                points.add(x)
            elif loc[0] == "member":
                switches[loc[1]].append((loc[2], loc[2] + 1))
            else:
                raise SetError(f"{x} is not in the space")
        n_seq = len(switches)
        for entry in _json_list(data, "tails"):
            if not isinstance(entry, dict):
                raise SetError(f"tail rule {entry!r} is not an object")
            j = entry.get("sequence")
            if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < n_seq:
                raise SetError(f"bad sequence index {j!r} in tail rule")
            start = entry.get("start")
            if start is not None:
                _tail_index(start, "start")
            exc = [_tail_index(e, "exception") for e in _json_list(entry, "exceptions")]
            switches[j].append(_switches(start, exc))
        den, cuts = 1, ()
        if literals or values:
            amb_den, amb = _ambient(space)
            den = math.lcm(amb_den, *(x.denominator for x in values),
                           *(d for _, q, _, _, s, _ in literals for d in (q, s)))
            amb = rescale(amb, den // amb_den)
            ranges = [(2 * p * (den // q) + (not lo_in), 2 * r * (den // s) + hi_in)
                      for p, q, lo_in, r, s, hi_in in literals]
            if space.isolated_points() or space.sequences():
                for (a, e), (p, q, lo_in, r, s, hi_in) in zip(ranges, literals):
                    i = bisect_right(amb, a)
                    if i & 1 and e <= amb[i]:
                        continue  # inside one interval
                    found, sws = _covered(space, Fraction(p, q), lo_in, Fraction(r, s), hi_in)
                    points.update(found)
                    for parts, sw in zip(switches, sws):
                        parts.append(sw)
            ranges += [(a, a + 1) for a in (position(x, den) for x in values)]
            den, cuts = reduced(den, merge(union(ranges), amb, AND))
        return cls._canonical(space, den, cuts, frozenset(points),
                              tuple(map(_tail_rule, switches)))

    def render(self) -> str:
        parts = _cut_literals(self.space, self.den, self.cuts)
        parts += [f"{{{p}}}" for p in sorted(self.points)]
        for seq, rule in zip(self.space.sequences(), self.tails):
            sw = rule.switches
            if not sw:
                continue
            listed = ",".join(map(str, _exceptions(sw)))
            if len(sw) & 1:
                bits = f"k>={sw[-1]}" + ("," + listed if listed else "")
            else:
                bits = "k=" + listed
            parts.append(f"tail({seq.render()};{bits})")
        return " u ".join(parts) if parts else "{}"


@per_space
def kernel_set(space: Space) -> SymbolicSet:
    """The perfect kernel as a subset of the full space: the union of the
    space's intervals, which ``cb_kernel`` documents is the whole kernel."""
    return SymbolicSet._canonical(space, *_ambient(space), frozenset(),
                                  (TAIL_NONE,) * len(space.sequences()))


# -- moving sets between a space and its kernel ---------------------------

def _sequence_places(sub: Space, full: Space) -> tuple[int, ...] | None:
    """The index in ``full.sequences()`` of each of sub's sequences, or
    None unless sub's primitives are all full's: worked out once per sub
    and kept on full, so the primitives are hashed once."""
    places = full._facts.setdefault(_sequence_places, {})
    if sub not in places:
        seqs = full.sequences()
        places[sub] = (tuple(seqs.index(s) for s in sub.sequences())
                       if set(sub.primitives) <= set(full.primitives) else None)
    return places[sub]


def embed(a: SymbolicSet, full: Space) -> SymbolicSet:
    """Reinterpret a set over a subspace description inside ``full``."""
    places = _sequence_places(a.space, full)
    if places is None:
        raise AmbientMismatchError("subspace primitives are not part of the full space")
    tails = [TAIL_NONE] * len(full.sequences())
    for j, k in enumerate(places):
        tails[k] = a.tails[j]
    # the subspace's intervals and isolated points are the full space's too
    return SymbolicSet._canonical(full, a.den, a.cuts, a.points, tuple(tails))


def restrict(a: SymbolicSet, sub: Space) -> SymbolicSet:
    """Trace of a set on a subspace description."""
    places = _sequence_places(sub, a.space)
    if places is None:
        raise AmbientMismatchError("subspace primitives are not part of the ambient space")
    tails = tuple(a.tails[k] for k in places)
    points = frozenset(p.value for p in sub.isolated_points() if p.value in a.points)
    return SymbolicSet._canonical(sub, *combine(a.den, a.cuts, *_ambient(sub), AND),
                                  points, tails)
