"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single PASS/FAIL
line (run with -s to see them all).  Everything here re-derives its
verdict from primitives: traced constructions are reassembled from their
recorded ingredients, degrees are recounted from the residue sets, and
the set algebra is replayed against the membership oracle.
"""
import json
import pathlib
import random
import time
from fractions import Fraction as F

import pytest

from dyadictop import (DyadicSubbase, NotRegularOpenError, SymbolicSet,
                       build_proper_subbase, check_half_clopen, check_independent,
                       check_proper, check_separation, decode_word, degree_report,
                       embed, encode_point, half_clopen_extension, kernel_set,
                       make_pair, restrict, separate_open_pair)
from dyadictop.checks import CheckReport
from dyadictop.construct import sample_points
from dyadictop.corpus import CORPUS

import golden
from instances import extension_instance, separation_instance
from oracle import (chunk_set, critical_values, o_boundary, o_closure, o_interior,
                    o_regularization, random_set, witnesses)

DATA = pathlib.Path(__file__).parent / "data"
LEVELS = 4
DEPTH = 6


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def builds():
    out = {}
    for name, mk in CORPUS.items():
        t0 = time.monotonic()
        res = build_proper_subbase(mk(), LEVELS, depth=DEPTH)
        out[name] = (res, time.monotonic() - t0)
    return out


# -- criterion 1: full pipeline on the corpus -----------------------------

def test_criterion_1_pipeline(builds):
    problems = []
    slow = []
    for name, (res, elapsed) in builds.items():
        kernel = res.kernel_subbase.space
        kernelS = kernel_set(res.space)
        nwin = len(res.kernel_subbase)
        for i, (s0, s1) in enumerate(res.subbase.pairs):
            clopen = s0.boundary().is_empty and s1.boundary().is_empty
            half = (s0.is_regular_open and s1 == s0.exterior()
                    and s0.boundary().subset_of(kernelS)
                    and s1.boundary().subset_of(kernelS))
            if not (clopen or half):
                problems.append(f"{name}: pair {i} is neither clopen nor half-clopen")
        if nwin:
            restricted = DyadicSubbase(kernel, tuple(
                (restrict(a, kernel), restrict(b, kernel))
                for a, b in res.subbase.pairs[:nwin]))
            if restricted != res.kernel_subbase:
                problems.append(f"{name}: restriction misses the kernel subbase")
        for i, (s0, _) in enumerate(res.subbase.pairs[nwin:], start=nwin):
            if not s0.intersection(kernelS).is_empty:
                problems.append(f"{name}: clopen pair {i} leaks into the kernel")
        if not check_proper(res.subbase, DEPTH).passed:
            problems.append(f"{name}: properness fails at depth {DEPTH}")
        if not check_proper(res.subbase, len(res.subbase)).passed:
            problems.append(f"{name}: properness fails at all {len(res.subbase)} pairs")
        if nwin and not check_independent(res.kernel_subbase, 4).passed:
            problems.append(f"{name}: kernel subbase not independent at depth 4")
        if elapsed >= 10.0:
            slow.append(f"{name} took {elapsed:.1f}s")
    detail = (f"5 spaces built at levels {LEVELS}, all pairs half-clopen or "
              f"clopen, restrictions exact, proper at depth {DEPTH} and at "
              f"all pairs, independent at depth 4")
    _verdict(1, not problems and not slow, "; ".join(problems + slow) or detail)


def test_criterion_1_proper_at_all_pairs_beyond_a_walk():
    """The theorem at its full pair count where no walk over the words could
    finish: interval-sequence at levels 8 has 18 pairs, 3**18 words."""
    res = build_proper_subbase(CORPUS["interval-sequence"](), 8, depth=1)
    assert len(res.subbase) == 18
    rep = check_proper(res.subbase, len(res.subbase))
    assert rep.passed
    assert rep.stats["words_checked"] == 3 ** 18


def test_golden_unconstrained(builds):
    """The corpus builds of criterion 1 reproduce their golden JSON."""
    assert golden.RUNS[0] == ("unconstrained", LEVELS, DEPTH)
    for name, (res, _) in builds.items():
        want = golden.path(name, "unconstrained", LEVELS).read_text(encoding="utf-8")
        assert golden.render(res) == want, name


def test_golden_match_dim():
    mode, levels, depth = golden.RUNS[1]
    for name, mk in CORPUS.items():
        res = build_proper_subbase(mk(), levels, degree_mode=mode, depth=depth)
        want = golden.path(name, mode, levels).read_text(encoding="utf-8")
        assert golden.render(res) == want, name


def test_golden_hashes():
    """The corpus builds at levels 1-6 in both degree modes reproduce the
    sha256 of their rendering pinned in hashes.json."""
    want = json.loads(golden.HASHES.read_text(encoding="utf-8"))
    got = golden.digests()
    assert len(got) == 60
    assert got == want


# sha256, builds and failed builds of ``golden.draws_digest``
DRAWS_DIGEST = ("dfa24f5f39d3a280c6d21df9c4408ebe69845a3cc2583f3e6e65a2d40d491cf6", 1962, 14)


def test_draws_digest():
    """The draw set, corpus, ``spacegen`` and fault F1 builds with their
    errors, hashes to its pinned sha256."""
    assert golden.draws_digest() == DRAWS_DIGEST


# -- criterion 2: degree matches dimension --------------------------------

def test_criterion_2_degree():
    problems = []
    for name, mk in CORPUS.items():
        res = build_proper_subbase(mk(), LEVELS, degree_mode="match_dim",
                                   depth=3)
        want = 1 if len(res.kernel_subbase) else 0
        deg = degree_report(res.subbase, len(res.subbase))
        if deg.stats["degree_sup"] != want:
            problems.append(f"{name}: degree sup {deg.stats['degree_sup']}, "
                            f"wanted {want}")
        if not deg.stats["boundaries_pairwise_disjoint"]:
            problems.append(f"{name}: a boundary point is shared between pairs")
    _verdict(2, not problems,
             "; ".join(problems)
             or "match_dim degree sup is 1 on interval spaces, 0 on the "
                "discrete one, multiplicity 1 everywhere")


# -- criterion 3: traced step conditions, reassembled ---------------------

def _endpoint_midpoint_probes(cells, core):
    vals = set()
    for c in cells.values():
        for sp_ in c.spans:
            vals |= {sp_.lo, sp_.hi}
    vals = sorted(vals)
    probes = {(a + b) / 2 for a, b in zip(vals, vals[1:])}
    return sorted(x for x in probes if core.membership(x))


def _forced_binary(traces, upto, x, starred):
    word = ""
    for i in range(upto + 1):
        s0 = traces[i].s0_star if starred else traces[i].s0
        s1 = traces[i].s1_star if starred else traces[i].s1
        if s0.membership(x):
            word += "0"
        elif s1.membership(x):
            word += "1"
        else:
            return None
    return word


def _trace_violations(res):
    bad = []
    if not res.traces:
        return bad
    kernel = res.kernel_subbase.space
    whole_k = SymbolicSet.whole(kernel)
    whole = SymbolicSet.whole(res.space)
    cells = {"": whole_k}
    star_cells = {"": whole}
    for n, tr in enumerate(res.traces):
        entry = res.seeds.entries[n]
        if not tr.s0.is_regular_open or tr.s1 != tr.s0.exterior():
            bad.append(f"level {n}: kernel pair is not exterior-paired")
        if not tr.s0_star.is_regular_open or tr.s1_star != tr.s0_star.exterior():
            bad.append(f"level {n}: starred pair is not exterior-paired")
        cl_v = tr.v.closure()
        a = {w for w, c in cells.items() if c.subset_of(tr.v)}
        b = {w for w, c in cells.items() if c.intersection(cl_v).is_empty}
        if a != set(tr.a_words) or b != set(tr.b_words):
            bad.append(f"level {n}: recomputed A/B classes differ from the trace")
            return bad
        g = {w: chunk_set(kernel, c) for w, c in tr.g}
        gs = {w: embed(s, res.space) for w, s in g.items()}
        for w in sorted(a | b):
            gw = g.get(w)
            if gw is None or gw.is_empty or not gw.is_regular_open \
                    or not gw.closure().subset_of(cells[w]) \
                    or cells[w].difference(gw.closure()).is_empty:
                bad.append(f"level {n}: carved window at '{w}' not strictly interior")
        s0 = tr.v
        s1 = whole_k.difference(cl_v)
        for w in sorted(a):
            s0 = s0.difference(g[w].closure())
            s1 = s1.union(g[w])
        for w in sorted(b):
            s0 = s0.union(g[w])
            s1 = s1.difference(g[w].closure())
        if s0 != tr.s0 or s1 != tr.s1:
            bad.append(f"level {n}: kernel assembly identity fails")
        cl_vs = tr.v_star.closure()
        s0s = tr.v_star
        s1s = whole.difference(cl_vs)
        for w in sorted(a):
            s0s = s0s.difference(gs[w].closure())
            s1s = s1s.union(gs[w])
        for w in sorted(b):
            s0s = s0s.union(gs[w])
            s1s = s1s.difference(gs[w].closure())
        if s0s != tr.s0_star or s1s != tr.s1_star:
            bad.append(f"level {n}: starred assembly identity fails")

        cells = {w + d: cells[w].intersection(side)
                 for w in cells for d, side in (("0", tr.s0), ("1", tr.s1))}
        star_cells = {w + d: star_cells[w].intersection(side)
                      for w in star_cells
                      for d, side in (("0", tr.s0_star), ("1", tr.s1_star))}
        for w, c in cells.items():
            if c.is_empty:
                bad.append(f"level {n}: cell '{w}' is empty")
            clprod = whole_k
            for i, d in enumerate(w):
                side = (res.traces[i].s0, res.traces[i].s1)[int(d)]
                clprod = clprod.intersection(side.closure())
            if c.closure() != clprod:
                bad.append(f"level {n}: closure product fails at cell '{w}'")
        embedded_core = entry.core
        for x in _endpoint_midpoint_probes(cells, embedded_core):
            w = _forced_binary(res.traces, n, x, starred=False)
            if w is not None and not cells[w].subset_of(entry.hull):
                bad.append(f"level {n}: cell of probe {x} escapes the hull")
            ws = _forced_binary(res.traces, n, x, starred=True)
            if ws is not None and not star_cells[ws].subset_of(entry.hull_star):
                bad.append(f"level {n}: starred cell of probe {x} escapes")
    return bad


def test_criterion_3_step_conditions(builds):
    problems = []
    levels = 0
    for name, (res, _) in builds.items():
        levels += len(res.traces)
        problems += [f"{name}: {v}" for v in _trace_violations(res)]
    _verdict(3, not problems,
             "; ".join(problems[:3])
             or f"{levels} traced levels reassembled exactly, window probes "
                f"contained")


# -- criterion 4: negative controls ---------------------------------------

def test_criterion_4_negative_controls():
    problems = []
    with open(DATA / "bad_subbase.json", encoding="utf-8") as fh:
        sb = DyadicSubbase.from_dict(json.load(fh))
    prop = check_proper(sb, 2)
    indep = check_independent(sb, 2)
    if prop.passed or not prop.counterexamples \
            or prop.counterexamples[0]["word"] != "00":
        problems.append("properness check missed the head-on pair at word 00")
    if indep.passed or not indep.counterexamples \
            or indep.counterexamples[0]["word"] != "00":
        problems.append("independence check missed the empty cell at word 00")
    sp = CORPUS["interval"]()
    try:
        make_pair(sp, SymbolicSet.region(sp, ((F(0), False, F(1, 2), False),)))
        problems.append("make_pair accepted a non regular open set")
    except NotRegularOpenError as exc:
        if exc.hint.render() != "[0/1,1/2)":
            problems.append(f"wrong regularization hint: {exc.hint.render()}")
    _verdict(4, not problems,
             "; ".join(problems)
             or "broken fixture rejected at word 00 by both checks, "
               "make_pair hint is [0/1,1/2)")


# -- criterion 5: lemma instances -----------------------------------------

def test_criterion_5_lemma_instances():
    problems = []
    ran = 0
    rng = random.Random(710)
    for name, mk in CORPUS.items():
        sp = mk()
        for i in range(40):
            y, u0, u1 = separation_instance(sp, rng)
            v0, v1 = separate_open_pair(sp, y, u0, u1)
            bad = check_separation(sp, y, u0, u1, v0, v1)
            if bad:
                problems.append(f"{name} separation #{i}: {bad[0]}")
            ran += 1
    rng = random.Random(711)
    for name, mk in CORPUS.items():
        sp = mk()
        for i in range(40):
            u, w = extension_instance(sp, rng)
            v = half_clopen_extension(sp, u, w)
            bad = check_half_clopen(sp, u, w, v)
            if bad:
                problems.append(f"{name} extension #{i}: {bad[0]}")
            ran += 1
    _verdict(5, not problems and ran == 400,
             "; ".join(problems[:3])
             or "200 separation and 200 extension instances pass their "
               "postcondition checkers")


# -- criterion 6: coding roundtrip ----------------------------------------

def test_criterion_6_coding(builds):
    problems = []
    probes_run = 0
    for name, (res, _) in builds.items():
        sb = res.subbase
        whole = SymbolicSet.whole(res.space)
        residue_pts = []
        for s0, s1 in sb.pairs:
            pts = whole.difference(s0.union(s1)).as_finite_points()
            residue_pts.append(set(pts or ()))
        rng = random.Random(365)
        for x in sample_points(res.space, 100, rng, member_depth=120):
            probes_run += 1
            for width in range(1, LEVELS + 1):
                coded = encode_point(sb, x, width=width)
                if not decode_word(sb, coded.word).membership(x):
                    problems.append(f"{name}: {x} escapes its width-{width} cell")
            full = encode_point(sb, x)
            recounted = sum(1 for pts in residue_pts if x in pts)
            if full.unfilled != recounted:
                problems.append(f"{name}: {x} has {full.unfilled} blanks, "
                                f"residues say {recounted}")
    _verdict(6, not problems and probes_run == 500,
             "; ".join(problems[:3])
             or "500 probes decode into their own cells at widths 1..4, "
               "blank counts equal residue counts")


# -- criterion 7: algebra against the membership oracle -------------------

def test_criterion_7_oracle_equivalence():
    mismatches = []
    checked = 0
    ops = (("closure", lambda s: s.closure(), o_closure),
           ("interior", lambda s: s.interior(), o_interior),
           ("regularization", lambda s: s.regularization(), o_regularization),
           ("boundary", lambda s: s.boundary(), o_boundary))
    for si, (name, mk) in enumerate(CORPUS.items()):
        sp = mk()
        rng = random.Random(1200 + si)
        for i in range(200):
            s = random_set(sp, rng)
            crit = critical_values(sp, [s])
            wit = witnesses(sp, crit)
            results = [(op, fn(s), orc) for op, fn, orc in ops]
            for x in wit:
                for op, symbolic, orc in results:
                    if symbolic.membership(x) != orc(sp, s.membership, crit, x):
                        mismatches.append(f"{name} set #{i}: {op} at {x}")
            checked += 1
    _verdict(7, not mismatches and checked == 1000,
             "; ".join(mismatches[:3])
             or "1000 seeded sets agree with the membership oracle on "
               "closure, interior, regularization and boundary")
