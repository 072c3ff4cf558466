"""Symbolic descriptions of separable metric spaces on the rational line.

A space is a finite disjoint union of primitives:

* ``Interval(lo, hi)``          the closed segment [lo, hi], lo < hi
* ``IsolatedPoint(value)``      a single point
* ``GeometricSequence(l, o)``   the set {l + o * 2**-k : k >= 1}; the limit l
                                must belong to the space unless ``open_limit``
                                marks it as deliberately missing

Pairwise disjointness of the primitives is decided exactly at load time,
which is what keeps every later operation decidable.

Facts derived from a space alone, such as its kernel, are kept on the
space itself by ``per_space``.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps

from .cuts import place, position
from .rational import exact_log2, floor_log2, format_rational, parse_rational


class SpaceError(ValueError):
    """Raised for malformed or overlapping primitive lists."""


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo >= self.hi:
            raise SpaceError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")

    def render(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class IsolatedPoint:
    value: Fraction

    def render(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class GeometricSequence:
    limit: Fraction
    offset: Fraction
    open_limit: bool = False

    def __post_init__(self):
        if self.offset == 0:
            raise SpaceError("sequence offset must be nonzero")

    def member(self, k: int) -> Fraction:
        """limit + offset / 2**k, as one Fraction made from integers."""
        l, o = self.limit, self.offset
        return Fraction((l.numerator * o.denominator << k) + o.numerator * l.denominator,
                        l.denominator * o.denominator << k)

    def member_index(self, x: Fraction) -> int | None:
        """Return k >= 1 with x == member(k), or None.  In integers: with
        x = a/b, the limit c/d and the offset e/f, exactly when N =
        (a·d − c·b)·f is not 0 and b·d·e / N is the power of two 2**k."""
        a, b = x.numerator, x.denominator
        c, d = self.limit.numerator, self.limit.denominator
        n = (a * d - c * b) * self.offset.denominator
        if not n:
            return None
        q, r = divmod(b * d * self.offset.numerator, n)
        return None if r or q < 2 or q & (q - 1) else q.bit_length() - 1

    def render(self) -> str:
        sign = "+" if self.offset > 0 else "-"
        return f"{{{self.limit}{sign}{abs(self.offset)}*2^-k}}"


Primitive = Interval | IsolatedPoint | GeometricSequence


@dataclass(frozen=True)
class Space:
    """A validated, pairwise-disjoint list of primitives."""

    primitives: tuple[Primitive, ...]

    def __post_init__(self):
        # the primitives by kind, computed once: the set algebra asks often
        for name, kind in (("_intervals", Interval), ("_points", IsolatedPoint),
                           ("_sequences", GeometricSequence)):
            object.__setattr__(self, name,
                               tuple(p for p in self.primitives if isinstance(p, kind)))
        # locate's tables: the intervals' cuts over one denominator, in
        # order of position, and each point's index by (numerator, denominator)
        ivs = self._intervals
        den = math.lcm(*(v.denominator for iv in ivs for v in (iv.lo, iv.hi)))
        order = sorted(range(len(ivs)), key=lambda i: ivs[i].lo)
        ends = [p for i in order
                for p in (position(ivs[i].lo, den), position(ivs[i].hi, den) + 1)]
        object.__setattr__(self, "_grid", (den, ends, tuple(order)))
        object.__setattr__(self, "_point_index",
                           {(p.value.numerator, p.value.denominator): i
                            for i, p in enumerate(self._points)})
        # every set hashes its space, so hash it once
        object.__setattr__(self, "_hash", hash(self.primitives))
        # not a field, so equality, hash, repr and to_dict ignore it
        object.__setattr__(self, "_facts", {})
        _validate(self)

    def __hash__(self) -> int:
        return self._hash

    # -- structural accessors -------------------------------------------

    def intervals(self) -> tuple[Interval, ...]:
        return self._intervals

    def isolated_points(self) -> tuple[IsolatedPoint, ...]:
        return self._points

    def sequences(self) -> tuple[GeometricSequence, ...]:
        return self._sequences

    # -- point queries ---------------------------------------------------

    def locate(self, x: Fraction):
        """Classify x against the space.

        Returns ("interval", i) / ("point", i) / ("member", j, k) with i an
        index into intervals()/isolated_points() and j into sequences(),
        or ("outside",) when x is not in the space.  One bisect of x's
        position among the intervals' cuts finds its interval; ``scattered``
        places the rest.
        """
        den, ends, order = self._grid
        i = bisect_right(ends, place(x, den)[0])
        if i & 1:
            return ("interval", order[i >> 1])
        return self.scattered(x)

    def scattered(self, x: Fraction):
        """``locate`` for an x no interval holds, in integers: its isolated
        point by (numerator, denominator), else its index in each sequence."""
        i = self._point_index.get((x.numerator, x.denominator))
        if i is not None:
            return ("point", i)
        for j, s in enumerate(self._sequences):
            k = s.member_index(x)
            if k is not None:
                return ("member", j, k)
        return ("outside",)

    def contains(self, x: Fraction) -> bool:
        return self.locate(x)[0] != "outside"

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "Space":
        """The space a JSON object describes."""
        if not isinstance(data, dict) or "primitives" not in data:
            raise SpaceError('space JSON needs a top-level "primitives" list')
        if not isinstance(data["primitives"], list):
            raise SpaceError('"primitives" must be a list')
        prims: list[Primitive] = []
        for entry in data["primitives"]:
            if not isinstance(entry, dict):
                raise SpaceError(f"primitive {entry!r} is not an object")
            kind = entry.get("kind")
            try:
                if kind == "interval":
                    prims.append(Interval(parse_rational(entry["lo"]),
                                          parse_rational(entry["hi"])))
                elif kind == "point":
                    prims.append(IsolatedPoint(parse_rational(entry["value"])))
                elif kind == "sequence":
                    open_limit = entry.get("open_limit", False)
                    if not isinstance(open_limit, bool):
                        raise SpaceError(f"open_limit must be true or false, got {open_limit!r}")
                    prims.append(GeometricSequence(parse_rational(entry["limit"]),
                                                   parse_rational(entry["offset"]), open_limit))
                else:
                    raise SpaceError(f"unknown primitive kind {kind!r}")
            except KeyError as exc:
                raise SpaceError(f"{kind} primitive needs {exc}") from None
        return cls(tuple(prims))

    def to_dict(self) -> dict:
        return {"primitives": [primitive_dict(p) for p in self.primitives]}

    def render(self) -> str:
        return " u ".join(p.render() for p in self.primitives) if self.primitives else "{}"


def per_space(fn):
    """``fn(space)``, worked out on the first call for each space and kept
    on that space: a fact lives exactly as long as its space, and names
    that same space, however the space was made."""
    @wraps(fn)
    def fact(space: Space):
        facts = space._facts
        if fn not in facts:
            facts[fn] = fn(space)
        return facts[fn]
    return fact


def primitive_dict(p: Primitive) -> dict:
    if isinstance(p, Interval):
        return {"kind": "interval", "lo": format_rational(p.lo),
                "hi": format_rational(p.hi)}
    if isinstance(p, IsolatedPoint):
        return {"kind": "point", "value": format_rational(p.value)}
    d = {"kind": "sequence", "limit": format_rational(p.limit),
         "offset": format_rational(p.offset)}
    if p.open_limit:
        d["open_limit"] = True
    return d


# -- load-time disjointness ----------------------------------------------

def _members_in_range(s: GeometricSequence, lo: Fraction, lo_in: bool,
                      hi: Fraction, hi_in: bool) -> tuple[int, int] | None:
    """Exact index range {k >= 1 : member(k) in the given real interval}.

    Returns (kmin, kmax); kmax == -1 encodes "all k >= kmin" (the interval
    swallows the tail).  Returns None when no member qualifies.

    In integers, as ``member_index``: with the offset o > 0 (a negative
    one mirrors x -> -x, which swaps the ends and their flags), member(k)
    = limit + o/2**k falls towards the limit, so it is at most hi exactly
    when 2**k >= n/d = o/(hi - limit), and at least lo exactly when 2**k
    <= m/e = o/(lo - limit); an open end makes the comparison strict.
    The smallest power of two at least (above) n/d is 2 to the bit length
    of ceil(n/d) - 1 (of floor(n/d)), and the largest at most (below) m/e
    is 2 to the bit length of floor(m/e) (of ceil(m/e) - 1), less one.
    """
    c, f = s.limit.numerator, s.limit.denominator
    o, od = s.offset.numerator, s.offset.denominator
    a, b = lo.numerator, lo.denominator
    r, q = hi.numerator, hi.denominator
    if o < 0:
        c, o = -c, -o
        (a, b, lo_in), (r, q, hi_in) = (-r, q, hi_in), (-a, b, lo_in)
    t = r * f - c * q  # (hi - limit)·q·f
    if t <= 0:
        return None
    n, d = o * q * f, od * t
    kmin = max(1, ((n - 1) // d if hi_in else n // d).bit_length())
    u = a * f - c * b  # (lo - limit)·b·f
    if u <= 0:
        return (kmin, -1)
    m, e = o * b * f, od * u
    kmax = (m // e if lo_in else (m - 1) // e).bit_length() - 1
    if kmax < kmin:
        return None
    return (kmin, kmax)


def _validate(space: Space) -> None:
    ivs, pts, seqs = space.intervals(), space.isolated_points(), space.sequences()

    by_lo = sorted(ivs, key=lambda iv: iv.lo)
    for a, b in zip(by_lo, by_lo[1:]):
        if b.lo <= a.hi:
            raise SpaceError(f"intervals {a.render()} and {b.render()} overlap or touch")

    seen: set[Fraction] = set()
    for p in pts:
        if p.value in seen:
            raise SpaceError(f"duplicate point {p.value}")
        seen.add(p.value)
        for iv in ivs:
            if iv.lo <= p.value <= iv.hi:
                raise SpaceError(f"point {p.value} lies in interval {iv.render()}")

    for s in seqs:
        for iv in ivs:
            if _members_in_range(s, iv.lo, True, iv.hi, True) is not None:
                raise SpaceError(f"sequence {s.render()} has members in {iv.render()}")
        for p in pts:
            if s.member_index(p.value) is not None:
                raise SpaceError(f"point {p.value} is a member of {s.render()}")

    for i, s in enumerate(seqs):
        for t in seqs[i + 1:]:
            if _sequences_collide(s, t):
                raise SpaceError(f"sequences {s.render()} and {t.render()} share members")

    # limit accounting; a sequence's own members never hit its own limit
    for s in seqs:
        inside = space.contains(s.limit)
        if s.open_limit and inside:
            raise SpaceError(f"open_limit set but {s.limit} is in the space")
        if not s.open_limit and not inside:
            raise SpaceError(
                f"limit {s.limit} of {s.render()} is outside the space "
                "(set open_limit to allow this)")


def _sequences_collide(s: GeometricSequence, t: GeometricSequence) -> bool:
    d = t.limit - s.limit
    if d == 0:
        return exact_log2(s.offset / t.offset) is not None
    # any collision needs |s.offset|/2**k >= |d|/2 or |t.offset|/2**j >= |d|/2
    for a, b in ((s, t), (t, s)):
        bound = 2 * abs(a.offset) / abs(d)
        if bound >= 2 and any(b.member_index(a.member(k)) is not None
                              for k in range(1, floor_log2(bound) + 1)):
            return True
    return False


# -- Cantor-Bendixson analysis -------------------------------------------

@dataclass(frozen=True)
class ScatteredEntry:
    primitive: Primitive
    step: int  # derivative step (1 or 2) at which the primitive vanishes


@dataclass(frozen=True)
class KernelReport:
    kernel: Space
    scattered: tuple[ScatteredEntry, ...]
    rank: int

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_dict(),
            "scattered": [{"primitive": primitive_dict(e.primitive),
                           "step": e.step} for e in self.scattered],
            "rank": self.rank,
        }

    def render(self) -> str:
        kern = " u ".join(iv.render() for iv in self.kernel.intervals()) or "{}"
        scat = ", ".join(f"{e.primitive.render()}@{e.step}" for e in self.scattered)
        line = f"kernel: {kern}"
        if scat:
            line += f"; scattered: {scat}"
        return line + f"; rank {self.rank}"


@per_space
def cb_kernel(space: Space) -> KernelReport:
    """Perfect kernel, scattered inventory and Cantor-Bendixson rank.

    The kernel is exactly the interval part: all sequence members and
    isolated points are gone after at most two derivative steps, and the
    second derivative is already a fixed point for any finite primitive
    list, so the rank never exceeds 2.  An interval-only space is its own
    kernel.
    """
    seqs = space.sequences()
    in_space_limits = {s.limit for s in seqs if not s.open_limit}

    entries: list[ScatteredEntry] = []
    survivors_outside = False
    for p in space.primitives:
        if isinstance(p, Interval):
            continue
        if isinstance(p, IsolatedPoint):
            step = 2 if p.value in in_space_limits else 1
        else:
            step = 1
            for l in in_space_limits:
                if p.member_index(l) is not None:
                    step = 2
        entries.append(ScatteredEntry(p, step))
    for l in in_space_limits:
        if space.locate(l)[0] in ("point", "member"):
            survivors_outside = True

    kernel = Space(space.intervals()) if entries else space
    if not entries:
        rank = 0
    elif survivors_outside:
        rank = 2
    else:
        rank = 1
    return KernelReport(kernel, tuple(entries), rank)


# -- scattered clusters ---------------------------------------------------

@dataclass(frozen=True)
class Cluster:
    """A clopen chunk of the scattered part that must move wholesale.

    ``anchor`` is the accumulation value the chunk clusters around (or the
    point itself for a free singleton).  ``kind`` records where the anchor
    lives: in the kernel, in the scattered part, outside the space, or
    nowhere in particular ("free").
    """

    anchor: Fraction
    kind: str  # "kernel" | "scattered" | "outside" | "free"
    point_values: frozenset[Fraction] = field(default_factory=frozenset)
    # (sequence position, exceptions pulled out as anchors of other clusters)
    tails: tuple[tuple[int, frozenset[int]], ...] = ()
    # single members anchoring this cluster: (sequence position, k)
    member_atoms: tuple[tuple[int, int], ...] = ()


@per_space
def scatter_clusters(space: Space) -> tuple[Cluster, ...]:
    seqs = space.sequences()
    anchored: dict[int, set[int]] = {j: set() for j in range(len(seqs))}
    by_limit: dict[Fraction, list[int]] = {}
    for j, s in enumerate(seqs):
        by_limit.setdefault(s.limit, []).append(j)

    plans = []  # (anchor, kind, point_values, tail seq positions, member atoms)
    for l in sorted(by_limit):
        loc = space.locate(l)
        if loc[0] == "interval":
            plans.append((l, "kernel", frozenset(), by_limit[l], ()))
        elif loc[0] == "point":
            plans.append((l, "scattered", frozenset({l}), by_limit[l], ()))
        elif loc[0] == "member":
            _, j, k = loc
            anchored[j].add(k)
            plans.append((l, "scattered", frozenset(), by_limit[l], ((j, k),)))
        else:
            plans.append((l, "outside", frozenset(), by_limit[l], ()))

    clusters = [
        Cluster(anchor, kind, pts,
                tuple((j, frozenset(anchored[j])) for j in tail_js), atoms)
        for anchor, kind, pts, tail_js, atoms in plans
    ]
    limit_values = set(by_limit)
    for p in space.isolated_points():
        if p.value not in limit_values:
            clusters.append(Cluster(p.value, "free", frozenset({p.value})))
    return tuple(clusters)
