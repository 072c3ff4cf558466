"""Finite-depth verification of subbase properties, with counterexamples.

Counterexamples are words met in canonical order (⊥ < 0 < 1 per position,
lower index more significant), the first ones a walk over the words finds,
so runs are reproducible byte for byte.  ``check_independent`` walks every
word over the atom masks of a word table, where a cell is empty exactly
when the AND of its sides' masks is 0.  ``check_proper`` takes its verdict
from the pieces around each point where a side can change, read off the
same masks, and walks the words only to list the counterexamples of a
failing subbase: the same walk, with one more bit per failing point.
``resolution_check`` fits each probe's cells into its ball on the same
masks: one mask of the atoms inside the ball per probe, and one AND per
cell.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cuts import place, rescale
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
    those points are tried.  At each, the masks of pieces still held by
    every digit so far, shifted down to the lowest piece bit, are stepped
    through the pairs; a word fails there exactly when the empty mask is
    reachable.  A span end is tried as its position on the table's grid,
    and only an improper one becomes a value.
    """
    space, table = sb.space, sb.word_table
    den = table.den
    limits = {s.limit for s in space.sequences() if not s.open_limit}
    ends = {c & ~1 for pair in sb.pairs[:eff] for side in pair
            for c in rescale(side.cuts, den // side.den)}
    ends -= {place(x, den)[0] for x in limits}  # tried below, with their tails

    masks = [table.mask(i) for i in range(2 * eff)]

    def improper(pieces):
        low = (pieces & -pieces).bit_length() - 1
        held = [(m & pieces) >> low for m in masks]
        reach = {-1}  # every piece, before any digit
        for idx in range(eff):
            steps = [h for h in held[2 * idx:2 * idx + 2] if h]
            reach |= {m & h for m in reach for h in steps}
        return 0 in reach

    out = [(Fraction(p >> 1, den), pieces) for p in ends
           if improper(pieces := table.end_pieces(p))]
    out += [(x, pieces) for x in limits if improper(pieces := table.pieces(x))]

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


def check_independent(sb: DyadicSubbase, depth: int) -> CheckReport:
    """S(word) nonempty for every word up to the given depth.

    The walk ANDs the sides' atom masks in the word table of the first
    depth pairs: a word with a digit has a nonempty cell exactly when its
    mask is not 0, and the all-⊥ word's cell is X, its mask -1.
    """
    eff = _effective_depth(sb, depth)
    head = sb if eff == len(sb.pairs) else DyadicSubbase(sb.space, sb.pairs[:eff])
    table = head.word_table
    masks = [(table.mask(2 * idx), table.mask(2 * idx + 1)) for idx in range(eff)]
    x_empty = SymbolicSet.whole(sb.space).is_empty
    counterexamples = []
    checked = 0
    for word, m in _walk(eff, masks):
        checked += 1
        if x_empty if m == -1 else not m:
            if len(counterexamples) < MAX_COUNTEREXAMPLES:
                counterexamples.append({"word": word})
            else:
                break
    return CheckReport("independent", eff, not counterexamples, tuple(counterexamples),
                       {"words_checked": checked, "depth_requested": depth})


def check_dyadic(sb: DyadicSubbase) -> CheckReport:
    """Each zero side regular open, each one side its exterior."""
    counterexamples = []
    for idx, (a, b) in enumerate(sb.pairs):
        cl = a.closure()
        reg = cl.interior()
        if reg != a:
            counterexamples.append({
                "index": idx, "reason": "zero side not regular open",
                "regularization": reg.to_dict(),
            })
            continue
        ext = cl.complement()
        if b != ext:
            counterexamples.append({
                "index": idx, "reason": "one side is not the exterior of the zero side",
                "exterior": ext.to_dict(),
            })
    return CheckReport("dyadic", len(sb.pairs), not counterexamples,
                       tuple(counterexamples), {"pairs_checked": len(sb.pairs)})


def degree_report(sb: DyadicSubbase, depth: int, probes=(),
                  expected_sup: int | None = None, seed: int | None = None) -> CheckReport:
    """Exact degree data from the finite boundary sets.

    The residue of pair n is X minus both sides, the space's atoms that
    neither side's mask holds; its points are exactly the points with
    bottom digit at n.  The degree sup is the largest number of residues
    any single point falls in, computed exactly.
    """
    eff = _effective_depth(sb, depth)
    table = sb.word_table
    residues = []
    non_finite = []
    for idx in range(eff):
        held = table.mask(2 * idx) | table.mask(2 * idx + 1)
        pts = table.cell(table.whole & ~held).as_finite_points()
        if pts is None:
            non_finite.append(idx)
            pts = ()
        residues.append((idx, pts))

    multiplicity: dict[Fraction, list[int]] = {}
    for idx, pts in residues:
        for p in pts:
            multiplicity.setdefault(p, []).append(idx)
    sup = max((len(v) for v in multiplicity.values()), default=0)
    clashes = sorted((p for p, v in multiplicity.items() if len(v) > 1))

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
        for p in clashes[:MAX_COUNTEREXAMPLES]:
            counterexamples.append({
                "point": format_rational(p),
                "indices": multiplicity[p],
                "reason": "boundary point shared by several pairs",
            })
    stats = {
        "degree_sup": sup,
        "boundaries_pairwise_disjoint": not clashes,
        "boundary_sizes": [len(pts) for _, pts in residues],
        "probe_degrees": probe_degrees,
        "depth_requested": depth,
    }
    return CheckReport("degree", eff, not counterexamples, tuple(counterexamples),
                       stats, seed)


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
