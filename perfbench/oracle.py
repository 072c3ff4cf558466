"""Membership oracle for dyadictop's JSON output.

The oracle reads spaces, sets and subbases as the CLI writes them and
decides every question by membership probes alone; it never calls the
library's set algebra.

A set's membership is constant on each open piece between consecutive
critical values of an interval, and a tail selection is constant beyond
its last listed index.  So the closure of a set at a point x is decided
by probing x itself, the midpoints of the pieces on either side of x, and
one member of every sequence converging to x taken beyond all tail data.
Only critical values (interval endpoints, span endpoints, in-space
limits) can be closure points that are not members.
"""
from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_SPAN = re.compile(r"^([\[\(])([^,]+),([^\]\)]+)([\]\)])$")


def rat(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL.match(text.strip()):
        raise ValueError(f"not a p/q rational: {text!r}")
    return Fraction(text.strip())


def _log2_exact(q: Fraction):
    """k with q == 2**k, else None."""
    if q <= 0:
        return None
    n, d = q.numerator, q.denominator
    if n == 1 and d & (d - 1) == 0:
        return -(d.bit_length() - 1)
    if d == 1 and n & (n - 1) == 0:
        return n.bit_length() - 1
    return None


class OSpace:
    """A space JSON object: intervals, isolated points, sequences."""

    def __init__(self, data: dict):
        self.intervals: list[tuple[Fraction, Fraction]] = []
        self.points: set[Fraction] = set()
        self.seqs: list[tuple[Fraction, Fraction, bool]] = []
        for p in data["primitives"]:
            if p["kind"] == "interval":
                self.intervals.append((rat(p["lo"]), rat(p["hi"])))
            elif p["kind"] == "point":
                self.points.add(rat(p["value"]))
            elif p["kind"] == "sequence":
                self.seqs.append((rat(p["limit"]), rat(p["offset"]),
                                  bool(p.get("open_limit", False))))
            else:
                raise ValueError(f"unknown primitive {p['kind']!r}")
        self.intervals.sort()

    def member(self, j: int, k: int) -> Fraction:
        limit, offset, _ = self.seqs[j]
        return limit + offset / 2 ** k

    def locate(self, x: Fraction):
        """("interval", i) / ("point",) / ("member", j, k) / None."""
        for i, (lo, hi) in enumerate(self.intervals):
            if lo <= x <= hi:
                return ("interval", i)
        if x in self.points:
            return ("point",)
        for j, (limit, offset, _) in enumerate(self.seqs):
            if x != limit:
                k = _log2_exact(offset / (x - limit))
                if k is not None and k >= 1:
                    return ("member", j, k)
        return None

    def in_space_limits(self) -> set[Fraction]:
        return {limit for limit, _, open_limit in self.seqs if not open_limit}


class OSet:
    """A set JSON object over a space: spans, points and tail rules."""

    def __init__(self, space: OSpace, data: dict):
        self.space = space
        self.spans = []
        for text in data.get("intervals", []):
            m = _SPAN.match(text.replace(" ", ""))
            if not m:
                raise ValueError(f"bad span literal {text!r}")
            self.spans.append((rat(m.group(2)), m.group(1) == "[",
                               rat(m.group(3)), m.group(4) == "]"))
        self.points = {rat(t) for t in data.get("points", [])}
        # sequence index -> (start or None, exceptions); selection is
        # (k >= start) xor (k in exceptions)
        self.tails = {}
        for entry in data.get("tails", []):
            self.tails[entry["sequence"]] = (entry.get("start"),
                                             frozenset(entry.get("exceptions", [])))

    def tail_bound(self) -> int:
        """Every index above this one is selected alike."""
        vals = [1]
        for start, exc in self.tails.values():
            vals.extend(exc)
            if start is not None:
                vals.append(start)
        return max(vals)

    def contains_at(self, x: Fraction, loc) -> bool:
        if loc is None:
            return False
        for lo, lo_in, hi, hi_in in self.spans:
            if lo < x < hi or (x == lo and lo_in) or (x == hi and hi_in):
                return True
        if loc[0] == "point":
            return x in self.points
        if loc[0] == "member":
            rule = self.tails.get(loc[1])
            if rule is None:
                return False
            start, exc = rule
            return (start is not None and loc[2] >= start) != (loc[2] in exc)
        return False

    def __contains__(self, x: Fraction) -> bool:
        return self.contains_at(x, self.space.locate(x))


def _intersection(sets, x: Fraction, loc) -> bool:
    return loc is not None and all(s.contains_at(x, loc) for s in sets)


class Universe:
    """Probe points deciding every question about a family of sets.

    ``crit`` are the critical values in the space, ``probes`` every point
    whose membership is checked (critical values, piece midpoints, isolated
    points, members up to the tail bound and one deep member per
    sequence), and ``dirs[x]`` the approach probes of a critical value x:
    the adjacent piece midpoints and the deep members converging to x.
    """

    def __init__(self, space: OSpace, sets, extra=()):
        self.space = space
        bound = max([s.tail_bound() for s in sets] + [1]) + 2
        limits = space.in_space_limits()
        deep = {}
        for j in range(len(space.seqs)):
            k = bound
            # a deep member must not itself be a limit of another sequence
            while space.member(j, k) in limits:
                k += 1
            deep[j] = space.member(j, k)
        self.deep = deep
        crit = set(limits) | set(space.points)
        for lo, hi in space.intervals:
            crit |= {lo, hi}
        for s in sets:
            for lo, _, hi, _ in s.spans:
                crit |= {lo, hi}
        crit |= set(extra)
        self.locs = {}
        self.crit = sorted(x for x in crit if self._loc(x) is not None)
        self.dirs = {}
        for i, (lo, hi) in enumerate(space.intervals):
            vals = [x for x in self.crit if lo <= x <= hi]
            for a, b in zip(vals, vals[1:]):
                m = (a + b) / 2
                self._loc(m)
                self.dirs.setdefault(a, []).append(m)
                self.dirs.setdefault(b, []).append(m)
        for j, (limit, _, open_limit) in enumerate(space.seqs):
            if not open_limit:
                self.dirs.setdefault(limit, []).append(deep[j])
                self._loc(deep[j])
        for x in space.points:
            self._loc(x)
        for j in range(len(space.seqs)):
            for k in range(1, bound + 1):
                self._loc(space.member(j, k))
        self.probes = sorted(x for x, loc in self.locs.items() if loc is not None)

    def _loc(self, x: Fraction):
        if x not in self.locs:
            self.locs[x] = self.space.locate(x)
        return self.locs[x]

    def has(self, s: OSet, x: Fraction) -> bool:
        return s.contains_at(x, self.locs[x])

    def closure_has(self, s: OSet, x: Fraction) -> bool:
        return self.has(s, x) or any(self.has(s, d) for d in self.dirs.get(x, ()))

    def interior_closure_has(self, s: OSet, x: Fraction) -> bool:
        return self.closure_has(s, x) and all(self.has(s, d)
                                             for d in self.dirs.get(x, ()))


# -- subbase properties -----------------------------------------------------

class OSubbase:
    """A subbase JSON object with its probe universe and membership table."""

    def __init__(self, data: dict):
        self.space = OSpace(data["space"])
        self.pairs = [(OSet(self.space, p["zero"]), OSet(self.space, p["one"]))
                      for p in data["pairs"]]
        self.universe = Universe(self.space, [s for p in self.pairs for s in p])

    def __len__(self) -> int:
        return len(self.pairs)

    def dyadic_violations(self) -> list[str]:
        """Zero sides regular open, one sides their exteriors."""
        u = self.universe
        out = []
        for i, (z, o) in enumerate(self.pairs):
            for x in u.probes:
                if u.has(z, x) != u.interior_closure_has(z, x):
                    out.append(f"pair {i}: zero side not regular open at {x}")
                    break
                if u.has(o, x) != (not u.closure_has(z, x)):
                    out.append(f"pair {i}: one side is not the exterior at {x}")
                    break
        return out

    def _masks(self, x: Fraction, depth: int):
        """Per pair and digit, the bitmask of approach probes in that side."""
        u = self.universe
        probes = [x] + u.dirs.get(x, [])
        masks = []
        for z, o in self.pairs[:depth]:
            row = []
            for side in (z, o):
                m = 0
                for bit, p in enumerate(probes):
                    if u.has(side, p):
                        m |= 1 << bit
                row.append(m)
            masks.append(row)
        return masks, (1 << len(probes)) - 1

    def improper_points(self, depth: int) -> list[Fraction]:
        """Critical values x with x in S̄(w) \\ cl S(w) for some word w.

        A word fails at x exactly when each chosen side has x in its
        closure (nonzero mask) while no single approach probe lies in all
        chosen sides (the masks AND to zero); the reachable ANDs over
        prefixes are at most 2**probes, so no word enumeration is needed.
        """
        depth = min(depth, len(self.pairs))
        bad = []
        for x in self.universe.crit:
            masks, full = self._masks(x, depth)
            reach = {full}
            for row in masks:
                reach |= {r & m for r in reach for m in row if m}
            if 0 in reach:
                bad.append(x)
        return bad

    def word_sets(self, word: str):
        """The sides a word over 0/1/_ picks, in index order."""
        if len(word) > len(self.pairs):
            raise ValueError(f"word {word!r} is longer than the subbase")
        return [self.pairs[i][int(c)] for i, c in enumerate(word) if c != "_"]

    def in_cell(self, word: str, x: Fraction) -> bool:
        return _intersection(self.word_sets(word), x, self.space.locate(x))

    def in_cell_closure(self, word: str, x: Fraction) -> bool:
        """x in cl S(word), decided by approach probes."""
        sides = self.word_sets(word)
        u = Universe(self.space, [s for p in self.pairs for s in p], extra=[x])
        return any(_intersection(sides, p, u.locs[p])
                   for p in [x] + u.dirs.get(x, []))

    def in_closure_cell(self, word: str, x: Fraction) -> bool:
        """x in S̄(word), the intersection of the chosen sides' closures."""
        sides = self.word_sets(word)
        u = Universe(self.space, [s for p in self.pairs for s in p], extra=[x])
        return all(u.closure_has(s, x) for s in sides)

    def degree_sup(self) -> tuple[int, int]:
        """(largest number of pair boundaries through one point, clashes).

        A point is on the boundary of pair i when neither side holds it;
        such points are critical values, and a boundary point found
        elsewhere makes the residue infinite (reported as -1).
        """
        u = self.universe
        crit = set(u.crit)
        sup = 0
        clashes = 0
        for x in u.probes:
            deg = sum(1 for z, o in self.pairs if not u.has(z, x) and not u.has(o, x))
            if deg and x not in crit:
                return (-1, clashes)
            sup = max(sup, deg)
            clashes += deg > 1
        return (sup, clashes)

    def forced_word(self, x: Fraction) -> str:
        loc = self.space.locate(x)
        out = []
        for z, o in self.pairs:
            out.append("0" if z.contains_at(x, loc) else
                       "1" if o.contains_at(x, loc) else "_")
        return "".join(out)

    def cell_within(self, word: str, x: Fraction, eps: Fraction) -> bool:
        """S(word) lies inside the open ball of radius eps around x."""
        sides = self.word_sets(word)
        u = Universe(self.space, [s for p in self.pairs for s in p],
                     extra=[x - eps, x + eps])
        for p in u.probes:
            if abs(p - x) >= eps and _intersection(sides, p, u.locs[p]):
                return False
        # members beyond the tail bound lie between the deep member and
        # the limit, so both ends must be inside the ball
        for j, (limit, _, _) in enumerate(self.space.seqs):
            d = u.deep[j]
            if _intersection(sides, d, u.locs[d]) and abs(limit - x) > eps:
                return False
        return True

    def same_as_cell(self, cell: OSet, word: str) -> bool:
        """cell equals S(word) at every probe of the subbase and the cell."""
        sides = self.word_sets(word)
        u = Universe(self.space, [s for p in self.pairs for s in p] + [cell])
        return all(u.has(cell, p) == _intersection(sides, p, u.locs[p])
                   for p in u.probes)
