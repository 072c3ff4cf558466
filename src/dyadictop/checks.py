"""Finite-depth verification of subbase properties, with counterexamples.

Counterexamples are words met in canonical order (⊥ < 0 < 1 per position,
lower index more significant), the first ones a walk over the words finds,
so runs are reproducible byte for byte.  All checks read the atom masks
of a word table, where a cell is empty exactly when the AND of its sides'
masks is 0, and the word checks walk the words only to list the
counterexamples of a failing subbase.

``check_dyadic`` reads each pair off its two side masks, a few integer
operations per pair and one per sequence limit.  The atoms a side's
closure touches are the atom before each run of its interval atoms that
starts at an odd cut, the atom after each run that ends at an even cut,
and the limit's atom of each sequence whose last run it holds.  A pair
passes when its sides are disjoint, neither holds an atom the other
touches, and each atom in neither is one point that both touch, or a run
of members each the limit of a tail of both.  Only a failing pair is
worked on sets, for its counterexample.

``check_independent`` decides at depth d from the 2^d words without ⊥,
splitting the mask of all atoms by each pair's two side masks: one AND
per child cell, and with disjoint sides never more cells per pair than
atoms.
``check_proper`` decides per candidate point, a span end of a side or a
limit, from the rows of the few atoms around it: each row holds the sides
that hold its atom, read off the word table's ``rows``; a failing
subbase walks the words with one more bit per failing point.
``degree_report`` reads each pair's residue as one mask and its size off
popcounts and tail switches, and counts the points shared by several
residues with bit-sliced counters, a few ANDs per residue mask.
``resolution_check`` fits each probe's cells into its ball: one mask of
the atoms inside the ball per probe, and one AND per cell.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .cuts import inside, place
from .rational import format_rational
from .sets import SymbolicSet
from .subbase import DyadicSubbase
from .words import TernaryWord

MAX_COUNTEREXAMPLES = 20


@dataclass(frozen=True)
class CheckReport:
    prop: str
    depth: int
    passed: bool
    counterexamples: tuple[dict, ...] = ()
    stats: dict = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict:
        d = {
            "property": self.prop,
            "depth": self.depth,
            "passed": self.passed,
            "counterexamples": list(self.counterexamples),
            "stats": self.stats,
        }
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    def render(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        extra = ""
        if self.counterexamples:
            first = self.counterexamples[0]
            parts = [f"{k}={v}" for k, v in first.items()]
            extra = f" first counterexample: {', '.join(parts)}"
        return f"{mark} {self.prop} (depth {self.depth}){extra}"


def _effective_depth(sb: DyadicSubbase, depth: int) -> int:
    return max(0, min(depth, len(sb.pairs)))


def _walk(depth: int, sides):
    """Yield (word, mask) for all 3**depth words, each word its 0/1/_ string
    of length depth: the all-⊥ word's mask is -1, and a digit ANDs the mask
    of the word's prefix with ``sides[idx][digit]``, once per shared
    prefix."""
    def rec(idx: int, word: str, m: int):
        if idx == depth:
            yield (word, m)
            return
        yield from rec(idx + 1, word + "_", m)
        for digit in (0, 1):
            yield from rec(idx + 1, word + str(digit), m & sides[idx][digit])

    yield from rec(0, "", -1)


def _improper_points(sb: DyadicSubbase, eff: int) -> list[tuple[Fraction, int]]:
    """(x, pieces at x) for each point x where cl S(word) and S̄(word)
    differ for some word over the first eff pairs, in the order
    ``sample_point`` takes a difference's points in: interval points by
    value, then isolated points by value, then members by (sequence,
    index).

    Always cl S(word) ⊆ S̄(word), and x is in the closure of a set exactly
    when the set holds one of the pieces at x (see ``WordTable.pieces``).
    So a word fails at x when each of its digits' sides meets the pieces
    but no piece is held by all of them.  The sides can differ around x
    only where one of them has a span end or a tail converges, so only
    those points are tried.

    Each piece is an atom, and its row holds the bits of the first 2·eff
    sides that hold it: an interval atom's is the table's ``rows`` entry
    masked to those sides, and the few rows of point and sequence atoms,
    which only the limits need, are read off the masks.  Over x's
    pieces, ``every`` is the AND of their rows and
    ``some`` the OR.  A side in ``every`` holds every piece and so cannot
    make a word fail, and a side outside ``some`` cannot be chosen, so a
    word fails exactly through its partial sides, ``some & ~every``.  When
    those lie in one pair a word picks at most one of them and x is
    proper; otherwise the sets of pieces still held by every digit so far
    are stepped through the partial pairs, and a word fails there exactly
    when the empty set is reachable.  A span end is tried as its position
    on the table's grid, and only an improper one becomes a value.
    """
    space, table = sb.space, sb.word_table
    den, bounds, edges, rows = table.den, table.bounds, table.edges, table.rows
    limits = {s.limit for s in space.sequences() if not s.open_limit}
    ends = {c & ~1 for cuts in table.cuts[:2 * eff] for c in cuts}
    ends -= {place(x, den)[0] for x in limits}  # tried below, with their tails
    kept = (1 << 2 * eff) - 1  # the bits of the first 2·eff sides

    def row(b):
        if b < len(rows):
            return rows[b] & kept
        return sum((table.mask(i) >> b & 1) << i for i in range(2 * eff))

    def improper(atom_rows):
        every = some = atom_rows[0]
        for r in atom_rows[1:]:
            every &= r
            some |= r
        partial = some & ~every
        if not partial >> ((partial & -partial).bit_length() + 1 & ~1):
            return False  # no partial side past the lowest partial pair
        reach = {-1}  # every piece, before any digit
        while partial:
            s = (partial & -partial).bit_length() - 1 & ~1
            steps = [sum(1 << j for j, r in enumerate(atom_rows) if r >> i & 1)
                     for i in (s, s + 1) if partial >> i & 1]
            reach |= {m & h for m in reach for h in steps}
            partial &= ~(3 << s)
        return 0 in reach

    out = []
    for p in ends:  # the rows of the atoms of table.end_pieces(p)
        near = [row(bisect_right(bounds, q)) for q in (p - 1, p + 1) if inside(edges, q)]
        if improper([row(bisect_right(bounds, p)), *near]):
            out.append((Fraction(p >> 1, den), table.end_pieces(p)))
    for x in limits:
        pieces = rest = table.pieces(x)
        piece_rows = []
        while rest:
            piece_rows.append(row((rest & -rest).bit_length() - 1))
            rest &= rest - 1
        if improper(piece_rows):
            out.append((x, pieces))

    def order(item):
        loc = space.locate(item[0])
        return (2, *loc[1:]) if loc[0] == "member" else (int(loc[0] == "point"), item[0])
    return sorted(out, key=order)


def check_proper(sb: DyadicSubbase, depth: int) -> CheckReport:
    """cl S(word) == S̄(word) for every word up to the given depth.

    The verdict comes from ``_improper_points``; a passing report counts
    all 3**depth words as checked.  A failing subbase walks the words to
    list its first counterexamples.  Each side's walk mask is its atom
    mask with one bit above the atoms for each improper point whose pieces
    the side meets, so a word's AND keeps the points of S̄(word); the word
    fails at the first of them whose pieces the AND's atoms, the atoms of
    S(word), miss.
    """
    eff = _effective_depth(sb, depth)
    stats = {"words_checked": 3 ** eff, "depth_requested": depth}
    improper = _improper_points(sb, eff)
    if not improper:
        return CheckReport("proper", eff, True, (), stats)
    table = sb.word_table
    nbits, top = table.nbits, (1 << len(improper)) - 1

    def walk_mask(i):
        m = table.mask(i)
        return m | sum(1 << nbits + c for c, (_, pieces) in enumerate(improper) if m & pieces)

    masks = [(walk_mask(2 * idx), walk_mask(2 * idx + 1)) for idx in range(eff)]
    counterexamples = []
    checked = 0
    for word, m in _walk(eff, masks):
        checked += 1
        met = m >> nbits & top  # the improper points of S̄(word)
        while met and m & improper[(met & -met).bit_length() - 1][1]:
            met &= met - 1  # one that cl S(word) holds
        if met:
            if len(counterexamples) < MAX_COUNTEREXAMPLES:
                witness = improper[(met & -met).bit_length() - 1][0]
                counterexamples.append({"word": word, "witness": format_rational(witness)})
            else:
                break
    stats["words_checked"] = checked
    return CheckReport("proper", eff, False, tuple(counterexamples), stats)


def _full_cells_meet(masks) -> bool:
    """Whether every word without ⊥ over the pairs of ``masks`` has a
    nonempty cell: the mask of all atoms is split by each pair's two side
    masks in turn, stopping at the first empty child.  With disjoint sides
    the children are disjoint, so there are never more of them than atoms."""
    cells = [-1]
    for pair in masks:
        cells = [c & m for c in cells for m in pair]
        if not all(cells):
            return False
    return True


def check_independent(sb: DyadicSubbase, depth: int) -> CheckReport:
    """S(word) nonempty for every word up to the given depth.

    A cell only grows as digits become ⊥, so at depth d ≥ 1 every cell is
    nonempty exactly when the 2^d cells of the words without ⊥ are
    (``_full_cells_meet``); a passing report counts all 3^d words as
    checked.  Otherwise the walk ANDs the sides' atom masks in the word
    table of the first depth pairs to list the counterexamples: a word has
    a nonempty cell exactly when its mask meets the mask of all atoms.
    That reads the all-⊥ word, whose cell is X and whose walk mask is -1,
    like any other: every AND of side masks lies inside that mask, which is
    0 exactly on the empty space.
    """
    eff = _effective_depth(sb, depth)
    head = sb if eff == len(sb.pairs) else DyadicSubbase(sb.space, sb.pairs[:eff])
    table = head.word_table
    masks = [(table.mask(2 * idx), table.mask(2 * idx + 1)) for idx in range(eff)]
    if eff and _full_cells_meet(masks):
        return CheckReport("independent", eff, True, (),
                           {"words_checked": 3 ** eff, "depth_requested": depth})
    counterexamples = []
    checked = 0
    for word, m in _walk(eff, masks):
        checked += 1
        if not m & table.whole:
            if len(counterexamples) < MAX_COUNTEREXAMPLES:
                counterexamples.append({"word": word})
            else:
                break
    return CheckReport("independent", eff, not counterexamples, tuple(counterexamples),
                       {"words_checked": checked, "depth_requested": depth})


def _closure_rows(table):
    """The masks over a word table's atoms that ``check_dyadic`` reads
    closures from: (iv, odd, even, one, limits, shared).  ``iv`` masks the
    interval atoms, ``odd`` those that start at an odd cut and ``even``
    those that end at an even one; ``one`` masks the one-point atoms, the
    singles of ``WordTable.point_atoms`` and the one-member sequence runs;
    ``limits`` holds a (last run, limit atom) pair of bits for each
    sequence whose limit is in the space; and ``shared`` maps each
    sequence run of several members that holds a limit to its size and a
    (last run, member index) pair per such limit."""
    bounds, runs = table.bounds, table.runs
    iv = (1 << len(bounds) + 1) - 1
    parity = int("0" + "".join("1" if b & 1 else "0" for b in reversed(bounds)), 2)
    # atom r starts at bounds[r - 1] and ends at bounds[r]
    odd, even = parity << 1, iv >> 1 & ~parity
    _, singles, sizes = table.point_atoms
    first = runs[0] if runs else table.nbits
    one = singles | sum(1 << first + k for k, n in enumerate(sizes) if n == 1)
    limits, shared = [], {}
    for s, switches, n in zip(table.space.sequences(), table.switches, runs):
        b = table.atom(s.limit)
        if b is None:
            continue
        limits.append((n + len(switches), b))
        if b >= first and (sizes[b - first] or 0) > 1:
            _, rows = shared.setdefault(b, (sizes[b - first], []))
            rows.append((n + len(switches), table.space.scattered(s.limit)[2]))
    return iv, odd, even, one, limits, shared


def check_dyadic(sb: DyadicSubbase) -> CheckReport:
    """Each zero side regular open, each one side its exterior.

    A pair (a, b) is dyadic exactly when b = X − cl a and a = X − cl b,
    and the verdict is read off the two side masks.  A side holds whole
    atoms, and cl S adds finitely many points to S: the value before each
    span of S that starts at an odd cut, the value at each span end at an
    even cut, and the limit of each sequence whose last run S holds.  The
    atoms S touches are the atoms of those points: the atom before each
    run of S's interval atoms that starts at an odd cut, the atom after
    each run that ends at an even cut, and each such limit's atom.  So b
    misses cl a exactly when it holds no atom of a and none that a touches,
    and likewise a.  Each point in neither side must lie in both closures,
    which add finitely many points, so an atom in neither side is finite
    and each of its points is added by both: a one-point atom that both
    sides touch, or a run of several members of a sequence, each the limit
    of a sequence whose last run a holds and of one whose last run b
    holds.  The pair is dyadic exactly when all of this holds: a few
    integer operations per pair, and one per limit, on masks built once
    per table.  Only a pair found wrong goes through the set code, for its
    counterexample: the zero side's regularization when that differs from
    it, else its exterior.
    """
    table = sb.word_table
    iv, odd, even, one, limits, shared = _closure_rows(table)

    def touch(m):
        held = m & iv
        t = (held & ~(held << 1) & odd) >> 1 | (held & ~(held >> 1) & even) << 1
        for last, b in limits:
            if m >> last & 1:
                t |= 1 << b
        return t

    def covered(gap, m0, m1):
        """Whether every atom of ``gap`` is a shared run whose members are
        all limits of sequences m0 holds cofinitely, and of ones m1 does."""
        while gap:
            entry = shared.get((gap & -gap).bit_length() - 1)
            if entry is None:
                return False
            size, rows = entry
            if any(len({k for last, k in rows if m >> last & 1}) < size for m in (m0, m1)):
                return False
            gap &= gap - 1
        return True

    counterexamples = []
    for idx, (a, _) in enumerate(sb.pairs):
        m0, m1 = table.mask(2 * idx), table.mask(2 * idx + 1)
        t0, t1 = touch(m0), touch(m1)
        gap = table.whole & ~(m0 | m1 | one & t0 & t1)
        if not (m0 & m1 or t0 & m1 or t1 & m0) and covered(gap, m0, m1):
            continue
        cl = a.closure()
        reg = cl.interior()
        if reg != a:
            counterexamples.append({
                "index": idx, "reason": "zero side not regular open",
                "regularization": reg.to_dict(),
            })
        else:
            counterexamples.append({
                "index": idx, "reason": "one side is not the exterior of the zero side",
                "exterior": cl.complement().to_dict(),
            })
    return CheckReport("dyadic", len(sb.pairs), not counterexamples,
                       tuple(counterexamples), {"pairs_checked": len(sb.pairs)})


def degree_report(sb: DyadicSubbase, depth: int, probes=(),
                  expected_sup: int | None = None, seed: int | None = None) -> CheckReport:
    """Exact degree data from the finite boundary sets.

    The residue of pair n is X minus both sides, the atoms of the mask of
    the space that neither side's mask holds; its points are exactly the
    points with bottom digit at n.  A residue is finite when each of its
    atoms is (``WordTable.point_atoms``), and its size is then a popcount
    of its one-point atoms plus the member counts of its sequence runs.  Distinct
    atoms hold distinct points, so a point falls in as many residues as
    its atom: the finite residues are added into bit-sliced counters, one
    mask per binary digit of the count, from which the degree sup and the
    atoms shared by several residues are read.  Values are made only when
    shared points are listed (``_shared_points``).
    """
    eff = _effective_depth(sb, depth)
    table = sb.word_table
    finite, singles, sizes = table.point_atoms
    tail_at = table.runs[0] if table.runs else table.nbits
    residues, non_finite, boundary_sizes = [], [], []
    for idx in range(eff):
        res = table.whole & ~(table.mask(2 * idx) | table.mask(2 * idx + 1))
        if res & ~finite:
            non_finite.append(idx)
            res = 0
        size, tail = (res & singles).bit_count(), res >> tail_at
        while tail:
            size += sizes[(tail & -tail).bit_length() - 1]
            tail &= tail - 1
        residues.append(res)
        boundary_sizes.append(size)

    counts: list[int] = []  # counts[k]: the atoms whose count has bit k set
    for res in residues:
        for k, c in enumerate(counts):
            if not res:
                break
            counts[k], res = c ^ res, c & res
        if res:
            counts.append(res)
    sup, top = 0, -1
    for k in reversed(range(len(counts))):
        if top & counts[k]:
            top &= counts[k]
            sup |= 1 << k
    shared = 0
    for c in counts[1:]:
        shared |= c

    probe_degrees = [{"point": format_rational(x),
                      "degree": eff - len(sb.forced_word(x, eff).entries)}
                     for x in probes]

    counterexamples = []
    for idx in non_finite:
        counterexamples.append({"index": idx, "reason": "residue is infinite"})
    if expected_sup is not None and sup != expected_sup:
        counterexamples.append({
            "reason": "degree sup mismatch",
            "expected": expected_sup, "actual": sup,
        })
        for b, p in _shared_points(table, shared):
            counterexamples.append({
                "point": format_rational(p),
                "indices": [idx for idx, res in enumerate(residues) if res >> b & 1],
                "reason": "boundary point shared by several pairs",
            })
    stats = {
        "degree_sup": sup,
        "boundaries_pairwise_disjoint": not shared,
        "boundary_sizes": boundary_sizes,
        "probe_degrees": probe_degrees,
        "depth_requested": depth,
    }
    return CheckReport("degree", eff, not counterexamples, tuple(counterexamples),
                       stats, seed)


def _shared_points(table, shared: int) -> list[tuple[int, Fraction]]:
    """(atom bit, point) for the first ``MAX_COUNTEREXAMPLES`` points, by
    value, of the finite atoms of ``shared``.  Interval points come in the
    order of their bits, and a sequence run's members in the order of
    their indices, reversed when the offset is positive, so only the first
    ``MAX_COUNTEREXAMPLES`` of each are made as values."""
    bounds, first = table.bounds, len(table.bounds) + 1
    out = []
    low = shared & ((1 << first) - 1)
    while low and len(out) < MAX_COUNTEREXAMPLES:
        b = (low & -low).bit_length() - 1
        out.append((b, Fraction(bounds[b - 1] >> 1, table.den)))
        low &= low - 1
    rest, points = shared >> first, table.space.isolated_points()
    while rest:
        b = (rest & -rest).bit_length() - 1 + first
        rest &= rest - 1
        if b - first < len(points):
            out.append((b, points[b - first].value))
            continue
        j = bisect_right(table.runs, b) - 1
        seq, starts = table.space.sequences()[j], [1, *table.switches[j]]
        r = b - table.runs[j]
        ks = range(starts[r], starts[r + 1])
        out += [(b, seq.member(k))
                for k in islice(reversed(ks) if seq.offset > 0 else ks, MAX_COUNTEREXAMPLES)]
    return sorted(out, key=lambda item: item[1])[:MAX_COUNTEREXAMPLES]


def resolution_check(sb: DyadicSubbase, epsilon: Fraction, probes,
                     seed: int | None = None) -> CheckReport:
    """Every probe has a word with x in S(word) inside the epsilon-ball.

    Uses the digits forced by membership (the finest cell around the probe)
    and then greedily drops entries, left to right, to report a short
    witness word.  Every cell is a mask over the atoms of the word table:
    ``cells[k]`` ANDs the side masks of entries k onward into the mask of
    the space, so entry k goes when what is kept of the earlier entries,
    cut by ``cells[k + 1]``, still fits the ball.  The ball is convex, so
    an atom lies in it exactly when its outermost values do, and a cell
    fits it exactly when the cell's mask has no bit outside the ball's
    inner mask.  A failing probe's cell and ball are built as sets, for
    the point where the cell escapes the ball.
    """
    table = sb.word_table
    counterexamples = []
    witnesses = []
    for x in probes:
        word = sb.forced_word(x)
        masks = [table.mask(2 * idx + digit) for idx, digit in word.entries]
        cells = [table.whole]
        for m in reversed(masks):
            cells.append(cells[-1] & m)
        cells.reverse()
        outside = ~table.inner(x - epsilon, x + epsilon)
        if cells[0] & outside:
            if len(counterexamples) < MAX_COUNTEREXAMPLES:
                ball = SymbolicSet.ball(sb.space, x, epsilon)
                stray = sb.sigma_sets(word).difference(ball).sample_point()
                counterexamples.append({
                    "point": format_rational(x),
                    "word": word.to_string(len(sb.pairs)),
                    "escapes_at": format_rational(stray) if stray is not None else None,
                })
            continue
        kept = table.whole
        chosen = []
        for k, m in enumerate(masks):
            if kept & cells[k + 1] & outside:
                kept &= m
                chosen.append(word.entries[k])
        witnesses.append({"point": format_rational(x),
                          "word": TernaryWord(tuple(chosen)).to_string(len(sb.pairs))})
    stats = {
        "probes_checked": len(witnesses) + len(counterexamples),
        "epsilon": format_rational(epsilon),
        "witnesses": witnesses,
    }
    return CheckReport("resolution", len(sb.pairs), not counterexamples,
                       tuple(counterexamples), stats, seed)
