"""Seeded inputs of the three workloads, written as the CLI's JSON files.

Everything here is plain data (JSON objects and Fractions); the library
is passed in as ``lib`` so that set-up can re-import it and time that.
"""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# The corpus spaces that have a nonempty kernel.
KERNEL_CORPUS = ("interval", "interval-points", "interval-sequence",
                 "two-intervals-point")

# Calibrated seconds of one build-levels round (four builds, their checks,
# coding and oracle) at each level, on a 2-core x86-64 sandbox under
# Python 3.11.  The workload runs the highest level at which MIN_ROUNDS
# rounds fit in the run length, so each space is timed that many times.
ROUND_SECONDS = {2: 1.9, 3: 3.3, 4: 7.4, 5: 21.0, 6: 89.0}
MIN_ROUNDS = 3
BUILD_DEPTH = 3

# Subbases built by each check-depth round, corpus space -> levels; the
# converging-sequence one has 16 pairs and an empty kernel.  Each is built
# with CHECK_BUILD_PROBES resolution probe seeds, so that these short
# builds are timed often enough; the last build's output is checked.
CHECK_BUILDS = {"converging-sequence": 6, "interval-sequence": 3}
CHECK_BUILD_PROBES = 3
# Depth of the check job on each subbase file.
CHECK_DEPTHS = {"converging-sequence": 10, "interval-sequence": 8,
                "gray": 6, "not-proper": 6}

# Known faults.  Every random-spaces round builds each from a fixed input
# (FAULTS) and from one seeded instance of its geometry (fault_space).
# F1: an isolated point at equal distance from two kernel components;
#     auto_seeds absorbs it only when strictly nearer (d_in < d_out) while
#     lemmas._assign_cluster breaks the tie with d0 <= d1.
# F2: two components closer than a hull margin, so the hull spans two
#     components and construct._interpolate_window cannot unpack its
#     single span; the ValueError escapes the CLI.
# F3: match_dim with one level on two components; the only window is a
#     whole component, so the pair has no boundary, the degree sup is 0 and
#     the build's own degree check (expecting 1) fails.
FAULTS = (
    ("F1-equidistant-point", "F1", 2, "unconstrained",
     [("interval", 0, 1), ("point", 2), ("interval", 3, 4)]),
    ("F2-close-components", "F2", 1, "unconstrained",
     [("interval", 0, 4), ("interval", Fraction(17, 4), 5)]),
    ("F3-one-window-match-dim", "F3", 1, "match_dim",
     [("interval", 0, 1), ("interval", 2, 3)]),
)
# The condition each fault fails with today; any other outcome is new.
FAULT_CONDITIONS = {"F1": "starred-window-containment", "F2": "ValueError",
                    "F3": "check-failed:degree"}

RANDOM_DEPTH = 4
MODES = ("unconstrained", "match_dim")

# The make-up of the random spaces, one per row: intervals, isolated
# points, where the sequences converge (onto an interval end, onto an
# isolated point, or onto a limit outside the space), levels, degree mode.
# The seed draws positions, gaps, lengths, offsets and order.  A fixed
# make-up keeps the cost of a round steady from seed to seed.  A draw
# with the geometry of a known fault is drawn again: each fault has a
# seeded row of its own, so every seed fails the same number of builds.
RANDOM_MAKEUP = (
    (0, 1, ("point",), 1, "match_dim"),
    (0, 2, ("point", "outside"), 3, "match_dim"),
    (1, 0, (), 1, "match_dim"),
    (1, 1, ("kernel",), 3, "unconstrained"),
    (1, 2, ("outside",), 2, "match_dim"),
    (2, 0, ("kernel",), 2, "unconstrained"),
    (2, 1, (), 2, "match_dim"),
    (2, 1, ("point",), 2, "unconstrained"),
    (2, 2, ("kernel", "point"), 1, "unconstrained"),
    (3, 0, (), 2, "unconstrained"),
    (3, 1, ("kernel",), 2, "match_dim"),
    (3, 2, ("outside",), 1, "unconstrained"),
)


def fmt(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def space_json(prims) -> dict:
    out = []
    for p in prims:
        if p[0] == "interval":
            out.append({"kind": "interval", "lo": fmt(p[1]), "hi": fmt(p[2])})
        elif p[0] == "point":
            out.append({"kind": "point", "value": fmt(p[1])})
        else:
            d = {"kind": "sequence", "limit": fmt(p[1]), "offset": fmt(p[2])}
            if p[3]:
                d["open_limit"] = True
            out.append(d)
    return {"primitives": out}


def write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def build_level(seconds: float) -> int:
    fitting = [lv for lv, t in ROUND_SECONDS.items() if MIN_ROUNDS * t <= seconds]
    return max(fitting, default=min(ROUND_SECONDS))


# -- random spaces ---------------------------------------------------------

# Gaps between neighbouring primitives, from a sixteenth (inside the hull
# margin of most components) to far apart.
GAPS = tuple(Fraction(g, 16) for g in (1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64))


def _half(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), 2)


def _offset(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), 8) * rng.choice((1, -1))


def random_candidate(rng: random.Random, n_intervals: int, n_points: int,
                     seq_kinds) -> list:
    """Primitives left to right, GAPS apart; intervals 1/2 to 8 long.

    Points and open limits sit where the gaps put them, on a grid of
    sixteenths, so close components and points at equal distance from two
    components come up as the draw has it.
    """
    items = (["interval"] * n_intervals + ["point"] * n_points
             + ["outside"] * seq_kinds.count("outside"))
    rng.shuffle(items)
    x = Fraction(rng.randint(0, 16), 4)
    prims = []
    ends = []    # (interval end, direction pointing away from the interval)
    points = []
    for i, kind in enumerate(items):
        if i:
            x += rng.choice(GAPS)
        if kind == "interval":
            lo, x = x, x + _half(rng, 1, 16)
            prims.append(("interval", lo, x))
            ends += [(lo, -1), (x, 1)]
        elif kind == "point":
            points.append(x)
            prims.append(("point", x))
        else:
            prims.append(("sequence", x, _offset(rng), True))
    for kind in seq_kinds:
        if kind == "kernel":
            end, direction = ends[rng.randrange(len(ends))]
            prims.append(("sequence", end, direction * abs(_offset(rng)), False))
        elif kind == "point":
            prims.append(("sequence", points[rng.randrange(len(points))],
                          _offset(rng), False))
    return prims


def _windows(comps, levels: int):
    """The windows of auto_seeds: whole components, then halves, ..."""
    out, j = [], 0
    while len(out) < levels:
        for lo, hi in comps:
            step = (hi - lo) / 2 ** j
            out += [(lo, hi, lo + step * i, lo + step * (i + 1)) for i in range(2 ** j)]
        j += 1
    return out[:levels]


def _dist(x: Fraction, spans) -> Fraction | None:
    return min((Fraction(0) if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
                for lo, hi in spans), default=None)


def fault_class(prims, levels: int, mode: str) -> str | None:
    """The known fault whose geometry a build has, from the benchmark's own
    model of the hulls that auto_seeds makes; None for none.

    F2: a window's hull (the window widened by 2^-(n+3) of its component's
    length on each side) meets a second component.  F1: an isolated point
    or an outside limit lies as far from a hull as from the rest of the
    kernel.  F3: match_dim at one level on two or more components.
    """
    comps = sorted((p[1], p[2]) for p in prims if p[0] == "interval")
    anchors = {p[1] for p in prims if p[0] == "point"
               or (p[0] == "sequence" and p[3])}
    tie = False
    for n, (clo, chi, a, b) in enumerate(_windows(comps, levels) if comps else ()):
        m = (chi - clo) / 2 ** (n + 3)
        hlo, hhi = a - m, b + m
        hull = [(max(lo, hlo), min(hi, hhi)) for lo, hi in comps if lo < hhi and hi > hlo]
        if len(hull) > 1:
            return "F2"
        rest = [piece for lo, hi in comps
                for piece in ((lo, min(hi, hlo)), (max(lo, hhi), hi)) if piece[0] < piece[1]]
        tie = tie or any(_dist(x, hull) == _dist(x, rest) for x in anchors if rest)
    if tie:
        return "F1"
    if mode == "match_dim" and levels == 1 and len(comps) >= 2:
        return "F3"
    return None


def fault_space(rng: random.Random, fault: str):
    """A seeded instance of a known fault's geometry: (primitives, levels, mode).

    F1: an isolated point, a point with a sequence onto it, or an outside
    limit at the middle of the gap between two components, at levels 2-3.
    F2: a second component that starts within the first one's level-0
    hull margin and reaches beyond it (a hull that takes in a whole
    component fails otherwise, see README.md).
    F3: two or three components, match_dim, one level.
    """
    lo = Fraction(rng.randint(0, 16), 4)
    hi = lo + _half(rng, 2, 16)
    if fault == "F1":
        lo2 = hi + _half(rng, 2, 12)
        mid = (hi + lo2) / 2
        anchor = rng.choice(("point", "sequence", "outside"))
        prims = [("interval", lo, hi), ("interval", lo2, lo2 + _half(rng, 1, 16))]
        if anchor == "outside":
            prims.append(("sequence", mid, _offset(rng), True))
        else:
            prims.append(("point", mid))
            if anchor == "sequence":
                prims.append(("sequence", mid, _offset(rng), False))
        return prims, rng.randint(2, 3), rng.choice(MODES)
    if fault == "F2":
        margin = (hi - lo) / 8
        lo2 = hi + margin * Fraction(rng.randint(1, 7), 8)
        return ([("interval", lo, hi), ("interval", lo2, lo2 + margin + _half(rng, 1, 16))],
                rng.randint(1, 3), rng.choice(MODES))
    prims = [("interval", lo, hi)]
    for _ in range(rng.randint(1, 2)):
        start = prims[-1][2] + _half(rng, 3, 8)
        prims.append(("interval", start, start + _half(rng, 1, 16)))
    return prims, 1, "match_dim"


def _valid(lib, data: dict) -> bool:
    try:
        lib.Space.from_dict(data)
    except lib.SpaceError:
        return False
    return True


def random_spaces(seed: int, lib) -> list[dict]:
    """One space per row of RANDOM_MAKEUP, validated by the library's Space
    and free of known fault geometry, then one seeded space per known fault."""
    rng = random.Random(seed)
    out = []
    for n_iv, n_pts, seq_kinds, levels, mode in RANDOM_MAKEUP:
        while True:
            prims = random_candidate(rng, n_iv, n_pts, seq_kinds)
            data = space_json(prims)
            if fault_class(prims, levels, mode) is None and _valid(lib, data):
                break
        out.append({"name": f"random-{len(out)}", "space": data, "levels": levels,
                    "mode": mode, "fault": None, "probe_seed": rng.randrange(1000)})
    for fault in FAULT_CONDITIONS:
        while True:
            prims, levels, mode = fault_space(rng, fault)
            data = space_json(prims)
            if fault_class(prims, levels, mode) == fault and _valid(lib, data):
                break
        out.append({"name": f"random-{fault}", "space": data, "levels": levels,
                    "mode": mode, "fault": fault, "probe_seed": rng.randrange(1000)})
    return out


def fault_inputs() -> list[dict]:
    return [{"name": name, "space": space_json(prims), "levels": levels,
             "mode": mode, "fault": fault, "probe_seed": 0}
            for name, fault, levels, mode, prims in FAULTS]


# -- check-depth subbases --------------------------------------------------

def not_proper_subbase(rng: random.Random) -> dict:
    """Two pairs on [0,1] that swap sides at c: S(00) is empty, S̄(00) = {c}."""
    c = fmt(Fraction(rng.randint(1, 15), 16))
    space = space_json([("interval", 0, 1)])
    left = {"intervals": [f"[0/1,{c})"]}
    right = {"intervals": [f"({c},1/1]"]}
    return {"space": space, "pairs": [{"zero": left, "one": right},
                                      {"zero": right, "one": left}]}


def make_check_files(lib, workdir: str, rng: random.Random) -> dict:
    """The hand-made subbase files of the check-depth workload.

    The builder-made ones (converging-sequence, interval-sequence) are
    built by each round's build jobs.
    """
    unit = lib.corpus.interval_space()
    gray = lib.DyadicSubbase.from_zero_sides(unit, lib.corpus.gray_pairs(unit, 6))
    return {
        "gray": write_json(os.path.join(workdir, "gray.json"), gray.to_dict()),
        "not-proper": write_json(os.path.join(workdir, "not-proper.json"),
                                 not_proper_subbase(rng)),
    }


# -- coding samples --------------------------------------------------------

ENCODE_SAMPLES = 1024
DECODE_SAMPLES = 64
# encoded points whose word is also decoded, to check decode(encode(x)) ∋ x
ROUND_TRIPS = 8


def sample_points(rng: random.Random, osb) -> list[Fraction]:
    """Points of the space to encode: three in four drawn from a random
    primitive, one in four a critical value, where pair boundaries lie.

    A space without critical values (only sequences with open limits)
    draws all its points from the primitives.
    """
    space = osb.space
    prims = ([("interval", lo, hi) for lo, hi in space.intervals]
             + [("point", p) for p in sorted(space.points)]
             + [("sequence", j) for j in range(len(space.seqs))])
    crit = osb.universe.crit
    out = []
    for i in range(ENCODE_SAMPLES):
        if crit and i % 4 == 3:
            out.append(crit[rng.randrange(len(crit))])
            continue
        p = prims[rng.randrange(len(prims))]
        if p[0] == "interval":
            out.append(p[1] + (p[2] - p[1]) * Fraction(rng.randint(0, 1024), 1024))
        elif p[0] == "point":
            out.append(p[1])
        else:
            out.append(space.member(p[1], rng.randint(1, 6)))
    return out


def sample_words(rng: random.Random, width: int) -> list[str]:
    """Cells of the first half of the pairs, ten at most: random digits there,
    bottom beyond, so a word's cost does not hang on which pairs it picks."""
    filled = (min(width, 10) + 1) // 2
    return ["".join(rng.choice("01") for _ in range(filled))
            for _ in range(DECODE_SAMPLES)]
