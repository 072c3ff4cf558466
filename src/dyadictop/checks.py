"""Finite-depth verification of subbase properties, with counterexamples.

Every check walks words in canonical order (⊥ < 0 < 1 per position, lower
index more significant) and reports the first failures it meets, so runs
are reproducible byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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


def _walk_words(sb: DyadicSubbase, depth: int, want_closures: bool):
    """Yield (word, S(word), S̄(word)) for all 3**depth words, shared prefixes;
    each word is its 0/1/_ string of length depth."""
    whole = SymbolicSet.whole(sb.space)
    closures = [(p[0].closure(), p[1].closure()) for p in sb.pairs[:depth]] \
        if want_closures else None

    def rec(idx: int, word: str, s: SymbolicSet, sbar: SymbolicSet):
        if idx == depth:
            yield (word, s, sbar)
            return
        yield from rec(idx + 1, word + "_", s, sbar)
        for digit in (0, 1):
            s2 = s.intersection(sb.pairs[idx][digit])
            sbar2 = sbar.intersection(closures[idx][digit]) if want_closures else sbar
            yield from rec(idx + 1, word + str(digit), s2, sbar2)

    yield from rec(0, "", whole, whole)


def check_proper(sb: DyadicSubbase, depth: int) -> CheckReport:
    """cl S(word) == S̄(word) for every word up to the given depth."""
    eff = _effective_depth(sb, depth)
    counterexamples = []
    checked = 0
    for word, s, sbar in _walk_words(sb, eff, want_closures=True):
        checked += 1
        cls = s.closure()
        if cls != sbar:
            if len(counterexamples) < MAX_COUNTEREXAMPLES:
                witness = sbar.difference(cls).sample_point()
                counterexamples.append({
                    "word": word,
                    "witness": format_rational(witness) if witness is not None else None,
                })
            else:
                break
    return CheckReport("proper", eff, not counterexamples, tuple(counterexamples),
                       {"words_checked": checked, "depth_requested": depth})


def check_independent(sb: DyadicSubbase, depth: int) -> CheckReport:
    """S(word) nonempty for every word up to the given depth."""
    eff = _effective_depth(sb, depth)
    counterexamples = []
    checked = 0
    for word, s, _ in _walk_words(sb, eff, want_closures=False):
        checked += 1
        if s.is_empty:
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
        reg = a.regularization()
        if reg != a:
            counterexamples.append({
                "index": idx, "reason": "zero side not regular open",
                "regularization": reg.to_dict(),
            })
            continue
        if b != a.exterior():
            counterexamples.append({
                "index": idx, "reason": "one side is not the exterior of the zero side",
                "exterior": a.exterior().to_dict(),
            })
    return CheckReport("dyadic", len(sb.pairs), not counterexamples,
                       tuple(counterexamples), {"pairs_checked": len(sb.pairs)})


def degree_report(sb: DyadicSubbase, depth: int, probes=(),
                  expected_sup: int | None = None, seed: int | None = None) -> CheckReport:
    """Exact degree data from the finite boundary sets.

    The residue of pair n is X minus both sides; its points are exactly the
    points with bottom digit at n.  The degree sup is the largest number of
    residues any single point falls in, computed exactly.
    """
    eff = _effective_depth(sb, depth)
    whole = SymbolicSet.whole(sb.space)
    residues = []
    non_finite = []
    for idx in range(eff):
        a, b = sb.pairs[idx]
        res = whole.difference(a.union(b))
        pts = res.as_finite_points()
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
    witness word.  ``cells[k]`` intersects the sides of entries k onward, so
    entry k goes when what is kept of the earlier entries, cut by
    ``cells[k + 1]``, still fits the ball.
    """
    whole = SymbolicSet.whole(sb.space)
    counterexamples = []
    witnesses = []
    for x in probes:
        word = sb.forced_word(x)
        sides = [sb.pairs[idx][digit] for idx, digit in word.entries]
        cells = [whole]
        for side in reversed(sides):
            cells.append(cells[-1].intersection(side))
        cells.reverse()
        ball = SymbolicSet.ball(sb.space, x, epsilon)
        if not cells[0].subset_of(ball):
            if len(counterexamples) < MAX_COUNTEREXAMPLES:
                stray = cells[0].difference(ball).sample_point()
                counterexamples.append({
                    "point": format_rational(x),
                    "word": word.to_string(len(sb.pairs)),
                    "escapes_at": format_rational(stray) if stray is not None else None,
                })
            continue
        kept = whole
        chosen = []
        for k, side in enumerate(sides):
            if not kept.intersection(cells[k + 1]).subset_of(ball):
                kept = kept.intersection(side)
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
