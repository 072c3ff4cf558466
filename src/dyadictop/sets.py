"""Canonical symbolic subsets of a Space, with exact point-set topology.

A set is stored in three independent components:

* ``spans``   the interval-region trace: disjoint sorted spans, each clipped
              inside one Interval primitive; singletons are degenerate spans
* ``points``  the included isolated-point values
* ``tails``   one selection rule per GeometricSequence primitive: either a
              finite index set, or a cofinite rule "all k >= start" plus
              finitely many extra indices below start

Because the primitives are pairwise disjoint this decomposition is unique,
so structural equality of canonical forms is set equality, and every lattice
and topology operation below is exact.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .rational import format_rational, parse_rational
from .space import Space, _members_in_range


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
        l = "[" if self.lo_in else "("
        r = "]" if self.hi_in else ")"
        return f"{l}{format_rational(self.lo)},{format_rational(self.hi)}{r}"


_SPAN_RE = re.compile(r"^([\[\(])\s*([^,\s]+)\s*,\s*([^\]\)\s]+)\s*([\]\)])$")


def parse_span(text: str) -> Span:
    m = _SPAN_RE.match(text.strip())
    if not m:
        raise SetError(f"bad interval literal {text!r}")
    return Span(parse_rational(m.group(2)), m.group(1) == "[",
                parse_rational(m.group(3)), m.group(4) == "]")


def _spans_contain(spans, x: Fraction) -> bool:
    return any(sp.contains(x) for sp in spans)


def _combine_spans(space: Space, lists, fn) -> tuple[Span, ...]:
    """Pointwise boolean combination, clipped to the ambient intervals.

    One left-to-right sweep over integer positions.  With den the least
    common multiple of the denominators, an endpoint x sits at the even
    position 2·x·den and the open gaps between endpoints hold odd
    positions only, so a span is a range of positions, an open end one
    step inside.  Counting the open ranges of each operand at each range
    end, in sorted order, decides every point and gap at once: no
    midpoints, no scans, and overlapping input spans need no merging.  The
    result changes only where a count does, so its ranges are maximal and
    the output is canonical: sorted, disjoint and merged within each
    ambient interval, the intervals in ``intervals()`` order.
    """
    ivs = space.intervals()
    den = math.lcm(*(x.denominator for iv in ivs for x in (iv.lo, iv.hi)),
                   *(x.denominator for spans in lists for sp in spans
                     for x in (sp.lo, sp.hi)))
    value: dict[int, Fraction] = {}

    def pos(x: Fraction) -> int:
        p = 2 * x.numerator * (den // x.denominator)
        value[p] = x
        return p

    # (position, operand, +1 where a range starts or -1 just past its end);
    # the ambient intervals count as the last operand
    events = []
    for n, spans in enumerate(lists):
        for sp in spans:
            events.append((pos(sp.lo) + (not sp.lo_in), n, 1))
            events.append((pos(sp.hi) + sp.hi_in, n, -1))
    bounds = [(pos(iv.lo), pos(iv.hi)) for iv in ivs]
    for lo, hi in bounds:
        events += [(lo, len(lists), 1), (hi + 1, len(lists), -1)]
    events.sort()
    count = [0] * (len(lists) + 1)
    ranges = []
    start = None
    for k, (p, n, step) in enumerate(events):
        count[n] += step
        if k + 1 < len(events) and events[k + 1][0] == p:
            continue
        inside = count[-1] > 0 and fn(*[c > 0 for c in count[:-1]])
        if inside and start is None:
            start = p
        elif not inside and start is not None:
            ranges.append((start, p - 1))
            start = None
    # an odd first or last position is an open end at the even one outside it
    return tuple(Span(value[a - a % 2], a % 2 == 0, value[b + b % 2], b % 2 == 0)
                 for lo, hi in bounds for a, b in ranges if lo <= a <= hi)


def dist_to_spans(x: Fraction, spans) -> Fraction | None:
    """Distance from x to the closure of a span union; None when empty."""
    if not spans:
        return None
    best = None
    for sp in spans:
        if sp.lo <= x <= sp.hi:
            return Fraction(0)
        d = min(abs(x - sp.lo), abs(x - sp.hi))
        best = d if best is None or d < best else best
    return best


def nearer_spans(x: Fraction, first, second) -> int | None:
    """0 or 1 for the span union whose closure is nearer x, ties going to
    the first; None when both are empty."""
    d0, d1 = dist_to_spans(x, first), dist_to_spans(x, second)
    if d0 is None:
        return None if d1 is None else 1
    return 0 if d1 is None or d0 <= d1 else 1


# -- tail rules -----------------------------------------------------------

@dataclass(frozen=True)
class TailRule:
    """Canonical selection of sequence indices.

    ``start is None``: exactly the finite set ``exceptions``.
    otherwise: all k >= start plus the extras in ``exceptions``, which are
    required to sit strictly below start (minimality of start).
    """

    start: int | None = None
    exceptions: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "exceptions", frozenset(self.exceptions))
        if any(e < 1 for e in self.exceptions):
            raise SetError("tail indices start at 1")
        if self.start is not None:
            if self.start < 1:
                raise SetError("tail start must be >= 1")
            if any(e >= self.start for e in self.exceptions):
                raise SetError("non-canonical tail rule (exception above start)")

    @property
    def infinite(self) -> bool:
        return self.start is not None

    @property
    def is_empty(self) -> bool:
        return self.start is None and not self.exceptions

    def selected(self, k: int) -> bool:
        if self.start is not None and k >= self.start:
            return True
        return k in self.exceptions

    def min_selected(self) -> int | None:
        if self.exceptions:
            low = min(self.exceptions)
            return low if self.start is None else min(low, self.start)
        return self.start

    def bound(self) -> int:
        vals = [e + 1 for e in self.exceptions]
        if self.start is not None:
            vals.append(self.start)
        return max(vals, default=1)


def tail_from_predicate(bound: int, pred, infinite: bool) -> TailRule:
    """Canonical rule from a membership predicate constant beyond bound."""
    if not infinite:
        return TailRule(None, frozenset(k for k in range(1, bound + 1) if pred(k)))
    start = bound + 1
    while start > 1 and pred(start - 1):
        start -= 1
    return TailRule(start, frozenset(k for k in range(1, start) if pred(k)))


def _tail_binary(a: TailRule, b: TailRule, fn) -> TailRule:
    bound = max(a.bound(), b.bound())
    return tail_from_predicate(bound, lambda k: fn(a.selected(k), b.selected(k)),
                               fn(a.infinite, b.infinite))


TAIL_ALL = TailRule(start=1)
TAIL_NONE = TailRule()


# -- symbolic sets --------------------------------------------------------

@dataclass(frozen=True)
class SymbolicSet:
    space: Space
    spans: tuple[Span, ...] = ()
    points: frozenset[Fraction] = frozenset()
    tails: tuple[TailRule, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "spans",
                           _combine_spans(self.space, [tuple(self.spans)], lambda v: v))
        pts = frozenset(self.points)
        for p in pts:
            if self.space.locate(p)[0] != "point":
                raise SetError(f"{p} is not an isolated point of the space")
        object.__setattr__(self, "points", pts)
        seqs = self.space.sequences()
        tails = tuple(self.tails)
        if len(tails) > len(seqs):
            raise SetError("more tail rules than sequences")
        tails = tails + (TAIL_NONE,) * (len(seqs) - len(tails))
        object.__setattr__(self, "tails", tails)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _canonical(cls, space: Space, spans: tuple[Span, ...],
                   points: frozenset[Fraction], tails: tuple[TailRule, ...]) -> "SymbolicSet":
        """A set from parts that are canonical already (``_combine_spans``
        output, isolated-point values, one rule per sequence), unchecked."""
        s = object.__new__(cls)
        object.__setattr__(s, "space", space)
        object.__setattr__(s, "spans", spans)
        object.__setattr__(s, "points", points)
        object.__setattr__(s, "tails", tails)
        return s

    @classmethod
    def empty(cls, space: Space) -> "SymbolicSet":
        return cls._canonical(space, (), frozenset(), (TAIL_NONE,) * len(space.sequences()))

    @classmethod
    def whole(cls, space: Space) -> "SymbolicSet":
        return cls._canonical(
            space, tuple(Span(iv.lo, True, iv.hi, True) for iv in space.intervals()),
            frozenset(p.value for p in space.isolated_points()),
            (TAIL_ALL,) * len(space.sequences()))

    @classmethod
    def region(cls, space: Space, blocks) -> "SymbolicSet":
        """Trace of a finite union of real intervals on the space.

        ``blocks`` holds (lo, lo_in, hi, hi_in) tuples; members, isolated
        points and limits falling inside a block are picked up exactly.
        """
        spans = []
        for lo, lo_in, hi, hi_in in blocks:
            if lo < hi or (lo == hi and lo_in and hi_in):
                spans.append(Span(lo, lo_in, hi, hi_in))
        blocks = [(sp.lo, sp.lo_in, sp.hi, sp.hi_in) for sp in spans]
        points = frozenset(
            p.value for p in space.isolated_points()
            if any(Span(*b).contains(p.value) for b in blocks))
        tails = []
        for s in space.sequences():
            ranges = [r for b in blocks
                      if (r := _members_in_range(s, b[0], b[1], b[2], b[3])) is not None]
            infinite = any(r[1] == -1 for r in ranges)
            bound = max([r[0] for r in ranges] + [r[1] for r in ranges if r[1] != -1],
                        default=0) + 1
            tails.append(tail_from_predicate(
                bound,
                lambda k, rs=ranges: any(a <= k and (b == -1 or k <= b) for a, b in rs),
                infinite))
        return cls(space, tuple(spans), points, tuple(tails))

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
            tails[loc[1]] = TailRule(None, frozenset({loc[2]}))
            return cls(space, tails=tuple(tails))
        raise SetError(f"{x} is not in the space")

    # -- basic queries --------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.spans and not self.points and all(t.is_empty for t in self.tails)

    def membership(self, x: Fraction) -> bool:
        loc = self.space.locate(x)
        if loc[0] == "interval":
            return _spans_contain(self.spans, x)
        if loc[0] == "point":
            return x in self.points
        if loc[0] == "member":
            return self.tails[loc[1]].selected(loc[2])
        return False

    def sample_point(self) -> Fraction | None:
        """Deterministic witness of nonemptiness."""
        if self.spans:
            sp = self.spans[0]
            if sp.lo_in:
                return sp.lo
            return (sp.lo + sp.hi) / 2
        if self.points:
            return min(self.points)
        for j, rule in enumerate(self.tails):
            k = rule.min_selected()
            if k is not None:
                return self.space.sequences()[j].member(k)
        return None

    def as_finite_points(self) -> tuple[Fraction, ...] | None:
        """All elements when the set is finite, else None."""
        vals: list[Fraction] = []
        for sp in self.spans:
            if sp.lo != sp.hi:
                return None
            vals.append(sp.lo)
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
        for sp in self.spans:
            lows.append(sp.lo)
            highs.append(sp.hi)
        lows.extend(self.points)
        highs.extend(self.points)
        for j, rule in enumerate(self.tails):
            if rule.is_empty:
                continue
            seq = self.space.sequences()[j]
            k0 = rule.min_selected()
            first = seq.member(k0)
            if rule.infinite:
                ext = seq.limit
            else:
                ext = seq.member(max(rule.exceptions))
            lows.append(min(first, ext))
            highs.append(max(first, ext))
        if not lows:
            return None
        return (min(lows), max(highs))

    # -- lattice operations ---------------------------------------------

    def _require_same_space(self, other: "SymbolicSet") -> None:
        if self.space != other.space:
            raise AmbientMismatchError("sets live in different spaces")

    def _binary(self, other: "SymbolicSet", fn) -> "SymbolicSet":
        self._require_same_space(other)
        spans = _combine_spans(self.space, [self.spans, other.spans], fn)
        points = frozenset(p.value for p in self.space.isolated_points()
                           if fn(p.value in self.points, p.value in other.points))
        tails = tuple(_tail_binary(a, b, fn) for a, b in zip(self.tails, other.tails))
        return SymbolicSet._canonical(self.space, spans, points, tails)

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        return self._binary(other, lambda a, b: a or b)

    def intersection(self, other: "SymbolicSet") -> "SymbolicSet":
        return self._binary(other, lambda a, b: a and b)

    def difference(self, other: "SymbolicSet") -> "SymbolicSet":
        return self._binary(other, lambda a, b: a and not b)

    def complement(self) -> "SymbolicSet":
        return SymbolicSet.whole(self.space).difference(self)

    def subset_of(self, other: "SymbolicSet") -> bool:
        return self.difference(other).is_empty

    # -- topology --------------------------------------------------------

    def closure(self) -> "SymbolicSet":
        spans = list(Span(sp.lo, True, sp.hi, True) for sp in self.spans)
        points = set(self.points)
        tails = list(self.tails)
        for j, s in enumerate(self.space.sequences()):
            if not self.tails[j].infinite:
                continue
            loc = self.space.locate(s.limit)
            if loc[0] == "interval":
                spans.append(Span(s.limit, True, s.limit, True))
            elif loc[0] == "point":
                points.add(s.limit)
            elif loc[0] == "member":
                j2, k2 = loc[1], loc[2]
                tails[j2] = _tail_binary(tails[j2], TailRule(None, frozenset({k2})),
                                         lambda a, b: a or b)
        return SymbolicSet(self.space, tuple(spans), frozenset(points), tuple(tails))

    def interior(self) -> "SymbolicSet":
        return self.complement().closure().complement()

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
    def is_closed(self) -> bool:
        return self == self.closure()

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
        if self.spans:
            d["intervals"] = [sp.render() for sp in self.spans]
        if self.points:
            d["points"] = [format_rational(p) for p in sorted(self.points)]
        tails = []
        for j, rule in enumerate(self.tails):
            if rule.is_empty:
                continue
            entry: dict = {"sequence": j}
            if rule.start is not None:
                entry["start"] = rule.start
            if rule.exceptions:
                entry["exceptions"] = sorted(rule.exceptions)
            tails.append(entry)
        if tails:
            d["tails"] = tails
        return d

    @classmethod
    def from_dict(cls, space: Space, data: dict) -> "SymbolicSet":
        if not isinstance(data, dict):
            raise SetError("set JSON must be an object")
        out = cls.empty(space)
        blocks = []
        for text in data.get("intervals", []):
            sp = parse_span(text)
            blocks.append((sp.lo, sp.lo_in, sp.hi, sp.hi_in))
        if blocks:
            out = out.union(cls.region(space, blocks))
        for text in data.get("points", []):
            out = out.union(cls.singleton(space, parse_rational(text)))
        n_seq = len(space.sequences())
        for entry in data.get("tails", []):
            j = entry.get("sequence")
            if not isinstance(j, int) or not 0 <= j < n_seq:
                raise SetError(f"bad sequence index {j!r} in tail rule")
            start = entry.get("start")
            exc = frozenset(entry.get("exceptions", []))
            bound = max([start or 1] + [e + 1 for e in exc])
            rule = tail_from_predicate(
                bound,
                lambda k, s=start, E=exc: ((s is not None and k >= s) != (k in E)),
                start is not None)
            tails = [TAIL_NONE] * n_seq
            tails[j] = rule
            out = out.union(cls(space, tails=tuple(tails)))
        return out

    def render(self) -> str:
        parts = [sp.render() for sp in self.spans]
        parts += [f"{{{p}}}" for p in sorted(self.points)]
        for j, rule in enumerate(self.tails):
            if rule.is_empty:
                continue
            seq = self.space.sequences()[j]
            if rule.infinite:
                bits = f"k>={rule.start}"
                if rule.exceptions:
                    bits += "," + ",".join(str(e) for e in sorted(rule.exceptions))
            else:
                bits = "k=" + ",".join(str(e) for e in sorted(rule.exceptions))
            parts.append(f"tail({seq.render()};{bits})")
        return " u ".join(parts) if parts else "{}"


# -- regular parts --------------------------------------------------------

@dataclass(frozen=True)
class RegularParts:
    interior: SymbolicSet
    regularization: SymbolicSet
    exterior: SymbolicSet
    boundary: SymbolicSet
    is_regular_open: bool


def regular_ops(sub: SymbolicSet, a: SymbolicSet) -> RegularParts:
    """Interior / regularization / exterior / boundary relative to ``sub``.

    ``sub`` must be closed in the ambient space and contain ``a``.
    """
    if not sub.is_closed:
        raise SetError("regular_ops needs a closed subspace")
    cl = a.closure_in(sub)
    inside = a.interior_in(sub)
    reg = cl.interior_in(sub)
    ext = sub.difference(cl)
    bd = cl.difference(inside)
    return RegularParts(inside, reg, ext, bd, a == reg)


def kernel_set(space: Space, kernel: Space) -> SymbolicSet:
    """The perfect kernel as a subset of the full space."""
    return SymbolicSet(space, tuple(Span(iv.lo, True, iv.hi, True)
                                    for iv in kernel.intervals()))


# -- moving sets between a space and its kernel ---------------------------

def embed(a: SymbolicSet, full: Space) -> SymbolicSet:
    """Reinterpret a set over a subspace description inside ``full``."""
    sub = a.space
    if not set(sub.primitives) <= set(full.primitives):
        raise AmbientMismatchError("subspace primitives are not part of the full space")
    fullseqs = full.sequences()
    tails = [TAIL_NONE] * len(fullseqs)
    for j, s in enumerate(sub.sequences()):
        tails[fullseqs.index(s)] = a.tails[j]
    return SymbolicSet(full, a.spans, a.points, tuple(tails))


def restrict(a: SymbolicSet, sub: Space) -> SymbolicSet:
    """Trace of a set on a subspace description."""
    if not set(sub.primitives) <= set(a.space.primitives):
        raise AmbientMismatchError("subspace primitives are not part of the ambient space")
    subseqs = sub.sequences()
    seqs = a.space.sequences()
    tails = tuple(a.tails[seqs.index(s)] for s in subseqs)
    points = frozenset(p.value for p in sub.isolated_points() if p.value in a.points)
    return SymbolicSet(sub, a.spans, points, tails)
