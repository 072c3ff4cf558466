"""Seeded random spaces for the build sweep.

Primitives are laid out left to right with gaps from 1/16 to 4 on a grid
of sixteenths, so components come closer than a hull margin and points
fall at equal distance from two components as the draw has it.  Sequences
converge onto an interval end, onto an isolated point, or onto a limit
outside the space.  A draw that ``Space`` refuses is not a space, and the
generator says so by returning None.  ``rank2_space`` is one fixed space
beyond the draws: a sequence converging onto a member of another.
"""
from __future__ import annotations

import random
from fractions import Fraction

from dyadictop.space import GeometricSequence, Interval, IsolatedPoint, Space, SpaceError

GAPS = tuple(Fraction(g, 16) for g in (1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64))
SEQ_KINDS = ("kernel", "point", "outside")


def _offset(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), 8) * rng.choice((1, -1))


def random_space(rng: random.Random) -> Space | None:
    """0–3 intervals (1/2 to 8 long), 0–2 isolated points and 0–2
    sequences, at least one primitive; None when the draw is invalid."""
    n_int, n_pts = rng.randint(0, 3), rng.randint(0, 2)
    kinds = [rng.choice(SEQ_KINDS) for _ in range(rng.randint(0, 2))]
    items = ["interval"] * n_int + ["point"] * n_pts + ["outside"] * kinds.count("outside")
    if not items:
        items = ["interval"]
    rng.shuffle(items)
    x = Fraction(rng.randint(0, 16), 4)
    prims, ends, points = [], [], []
    for i, kind in enumerate(items):
        if i:
            x += rng.choice(GAPS)
        if kind == "interval":
            lo, x = x, x + Fraction(rng.randint(1, 16), 2)
            prims.append(Interval(lo, x))
            ends += [(lo, -1), (x, 1)]
        elif kind == "point":
            prims.append(IsolatedPoint(x))
            points.append(x)
        else:
            prims.append(GeometricSequence(x, _offset(rng), open_limit=True))
    for kind in kinds:
        if kind == "kernel" and ends:
            end, direction = rng.choice(ends)
            prims.append(GeometricSequence(end, direction * abs(_offset(rng))))
        elif kind == "point" and points:
            prims.append(GeometricSequence(rng.choice(points), _offset(rng)))
    try:
        return Space(tuple(prims))
    except SpaceError:
        return None


def random_spaces(seed: int, count: int) -> list[Space]:
    """The valid spaces among the first ``count`` draws of a seeded stream."""
    rng = random.Random(seed)
    return [s for s in (random_space(rng) for _ in range(count)) if s is not None]


def rank2_space() -> Space:
    """[0,1] with a sequence onto its end 1, the point 2 with a sequence
    onto it, and a sequence onto 3/2, the first member of the first."""
    return Space((Interval(Fraction(0), Fraction(1)), GeometricSequence(Fraction(1), Fraction(1)),
                  IsolatedPoint(Fraction(2)), GeometricSequence(Fraction(2), Fraction(1, 2)),
                  GeometricSequence(Fraction(3, 2), Fraction(1, 16))))
