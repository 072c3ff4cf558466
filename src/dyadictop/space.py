"""Symbolic descriptions of separable metric spaces on the rational line.

A space is a finite disjoint union of primitives:

* ``Interval(lo, hi)``          the closed segment [lo, hi], lo < hi
* ``IsolatedPoint(value)``      a single point
* ``GeometricSequence(l, o)``   the set {l + o * 2**-k : k >= 1}; the limit l
                                must belong to the space unless ``open_limit``
                                marks it as deliberately missing

Pairwise disjointness of the primitives is decided exactly at load time,
which is what keeps every later operation decidable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

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
        return self.limit + self.offset * Fraction(1, 2 ** k)

    def member_index(self, x: Fraction) -> int | None:
        """Return k >= 1 with x == member(k), or None."""
        r = x - self.limit
        if r == 0:
            return None
        q = self.offset / r
        k = exact_log2(q)
        return k if k is not None and k >= 1 else None

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
        _validate(self)

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
        or ("outside",) when x is not in the space.
        """
        for i, iv in enumerate(self.intervals()):
            if iv.lo <= x <= iv.hi:
                return ("interval", i)
        for i, p in enumerate(self.isolated_points()):
            if p.value == x:
                return ("point", i)
        for j, s in enumerate(self.sequences()):
            k = s.member_index(x)
            if k is not None:
                return ("member", j, k)
        return ("outside",)

    def contains(self, x: Fraction) -> bool:
        return self.locate(x)[0] != "outside"

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "Space":
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
                    prims.append(GeometricSequence(
                        parse_rational(entry["limit"]),
                        parse_rational(entry["offset"]),
                        bool(entry.get("open_limit", False)),
                    ))
                else:
                    raise SpaceError(f"unknown primitive kind {kind!r}")
            except KeyError as exc:
                raise SpaceError(f"{kind} primitive needs {exc}") from None
        return cls(tuple(prims))

    def to_dict(self) -> dict:
        return {"primitives": [primitive_dict(p) for p in self.primitives]}

    def render(self) -> str:
        return " u ".join(p.render() for p in self.primitives) if self.primitives else "{}"


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
    """
    o = s.offset
    if o < 0:
        # mirror through x -> -x; flags swap sides
        m = GeometricSequence(-s.limit, -o, s.open_limit)
        return _members_in_range(m, -hi, hi_in, -lo, lo_in)
    # o > 0: member(k) = limit + o/2**k strictly decreases towards the limit
    t = hi - s.limit
    if t <= 0:
        return None
    # member(k) <= hi  <=>  2**k >= o/t  (strict when hi is excluded)
    ratio = o / t
    k = floor_log2(ratio)
    while (Fraction(2) ** k < ratio) or (not hi_in and Fraction(2) ** k == ratio):
        k += 1
    kmin = max(1, k)
    u = lo - s.limit
    if u <= 0:
        return (kmin, -1)
    # member(k) >= lo  <=>  2**k <= o/u  (strict when lo is excluded)
    ratio = o / u
    if ratio <= 0:
        return None
    k = floor_log2(ratio) + 1
    while (Fraction(2) ** k > ratio) or (not lo_in and Fraction(2) ** k == ratio):
        k -= 1
    kmax = k
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
    hits = False
    # any collision needs |s.offset|/2**k >= |d|/2 or |t.offset|/2**j >= |d|/2
    for a, b in ((s, t), (t, s)):
        bound = 2 * abs(a.offset) / abs(d)
        if bound < 2:
            continue
        kmax = floor_log2(bound)
        for k in range(1, kmax + 1):
            rem = a.member(k) - b.limit
            if rem == 0:
                continue
            j = exact_log2(b.offset / rem)
            if j is not None and j >= 1:
                hits = True
    return hits


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


def cb_kernel(space: Space) -> KernelReport:
    """Perfect kernel, scattered inventory and Cantor-Bendixson rank.

    The kernel is exactly the interval part: all sequence members and
    isolated points are gone after at most two derivative steps, and the
    second derivative is already a fixed point for any finite primitive
    list, so the rank never exceeds 2.
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

    kernel = Space(space.intervals())
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


@lru_cache(maxsize=None)
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
