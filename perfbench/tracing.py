"""Span tracing of dyadictop from outside, for the traced run only.

``install`` wraps public functions and methods of each module and puts
the wrappers in place of every name that refers to the originals, so the
names other modules imported (``construct`` imports the checks and
``half_clopen_extension``; ``cli`` imports ``build_proper_subbase``, the
checks and ``encode_point``) are traced too.

Recording rule: the stage modules (cli, construct, lemmas, checks,
coding) record a span for every call.  The leaf modules (sets, space,
subbase) record a span only for a call that enters the module from
another module, that is, when the innermost open span belongs to another
module; a call from inside the module stays in its caller's span.  A
``_calls`` metric counts recorded spans.

Spans (name, start, end, parent, aux) live in flat arrays and are written
out once, when the run ends.
"""
from __future__ import annotations

import json
import statistics
import sys
from array import array
from time import perf_counter

STAGE_MODULES = ("cli", "construct", "lemmas", "checks", "coding")

# (module, class or None, attribute, span name)
TARGETS = [
    ("cli", None, "main", "cli.main"),
    ("construct", None, "build_proper_subbase", "construct.build"),
    ("construct", None, "auto_seeds", "construct.seeds"),
    ("construct", None, "build_independent_subbase", "construct.kernel"),
    ("construct", None, "extend_to_proper", "construct.starred"),
    ("construct", None, "scattered_clopen_base", "construct.clopen"),
    ("lemmas", None, "half_clopen_extension", "lemmas.half_clopen"),
    ("lemmas", None, "separate_open_pair", "lemmas.separate"),
    ("checks", None, "check_dyadic", "checks.dyadic"),
    ("checks", None, "check_proper", "checks.proper"),
    ("checks", None, "check_independent", "checks.independent"),
    ("checks", None, "degree_report", "checks.degree"),
    ("checks", None, "resolution_check", "checks.resolution"),
    ("coding", None, "encode_point", "coding.encode"),
    ("coding", None, "decode_word", "coding.decode"),
    ("subbase", "DyadicSubbase", "sigma_sets", "subbase.sigma_sets"),
    ("subbase", "DyadicSubbase", "forced_word", "subbase.forced_word"),
    ("sets", "SymbolicSet", "__post_init__", "sets.new"),
    ("sets", "SymbolicSet", "union", "sets.union"),
    ("sets", "SymbolicSet", "intersection", "sets.intersection"),
    ("sets", "SymbolicSet", "difference", "sets.difference"),
    ("sets", "SymbolicSet", "subset_of", "sets.subset_of"),
    ("sets", "SymbolicSet", "membership", "sets.membership"),
    ("sets", "SymbolicSet", "closure", "sets.closure"),
    ("sets", "SymbolicSet", "interior", "sets.interior"),
    ("sets", "SymbolicSet", "regularization", "sets.regularization"),
    ("sets", "SymbolicSet", "exterior", "sets.exterior"),
    ("sets", "SymbolicSet", "boundary", "sets.boundary"),
    ("space", "Space", "locate", "space.locate"),
    ("space", "Space", "intervals", "space.intervals"),
    ("space", "Space", "sequences", "space.sequences"),
    ("space", None, "cb_kernel", "space.cb_kernel"),
    ("space", None, "scatter_clusters", "space.scatter_clusters"),
]

BINARY = ("sets.union", "sets.intersection", "sets.difference")
TOPOLOGY = ("sets.closure", "sets.interior", "sets.regularization",
            "sets.exterior", "sets.boundary")


def _is_empty(s) -> bool:
    return not s.spans and not s.points and all(t.is_empty for t in s.tails)


def _binary_aux(args, _result) -> int:
    a, b = args[0], args[1]
    return 2 * max(len(a.spans), len(b.spans)) + (_is_empty(a) or _is_empty(b))


def _proper_aux(_args, report) -> int:
    return report.stats["words_checked"]


def _build_aux(_args, result) -> int:
    return max((len(z.spans) for z, _ in result.subbase.pairs), default=0)


AUX = {name: _binary_aux for name in BINARY}
AUX["checks.proper"] = _proper_aux
AUX["construct.build"] = _build_aux


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("q")
        # (span index, module) of the open spans, innermost last
        self.stack = [(-1, "bench")]

    def _wrap(self, fn, name: str, module: str):
        nid = len(self.names)
        self.names.append(name)
        always = module in STAGE_MODULES
        aux_fn = AUX.get(name)
        stack, name_of, parent = self.stack, self.name_of, self.parent
        start, end, aux = self.start, self.end, self.aux

        def traced(*args, **kwargs):
            top = stack[-1]
            if not always and top[1] == module:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(top[0])
            start.append(0.0)
            end.append(0.0)
            aux.append(0)
            stack.append((idx, module))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if aux_fn is not None:
                aux[idx] = aux_fn(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dyadictop" or key.startswith("dyadictop."))]
        for mod_name, cls_name, attr, span in TARGETS:
            mod = sys.modules[f"dyadictop.{mod_name}"]
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self._wrap(cls.__dict__[attr], span, mod_name))
                continue
            original = getattr(mod, attr)
            traced = self._wrap(original, span, mod_name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    # -- results ---------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round (counts, times) or per run (sizes)."""
        n = len(self.start)
        names = self.names
        module = [nm.split(".")[0] for nm in names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_mod: dict[str, float] = {}
        binary = []  # (larger operand span count, empty operand, seconds)
        words = 0
        max_spans = 0
        for i in range(n):
            nm = names[self.name_of[i]]
            calls[nm] = calls.get(nm, 0) + 1
            total[nm] = total.get(nm, 0.0) + dur[i]
            mod = module[self.name_of[i]]
            self_mod[mod] = self_mod.get(mod, 0.0) + dur[i] - child[i]
            if nm in BINARY:
                binary.append((self.aux[i] >> 1, self.aux[i] & 1, dur[i]))
            elif nm == "checks.proper":
                words += self.aux[i]
            elif nm == "construct.build":
                max_spans = max(max_spans, self.aux[i])

        def c(nm):
            return calls.get(nm, 0) / rounds

        def t(*nms):
            return sum(total.get(nm, 0.0) for nm in nms) / rounds

        def bucket(lo, hi):
            ds = [d for s, _, d in binary if lo < s <= hi]
            return 1e6 * sum(ds) / len(ds) if ds else 0.0

        spans = [s for s, _, _ in binary]
        out = {
            "cli.self_s": (self_mod.get("cli", 0.0) / rounds, "s"),
            "construct.seeds_s": (t("construct.seeds"), "s"),
            "construct.kernel_s": (t("construct.kernel"), "s"),
            "construct.starred_s": (t("construct.starred"), "s"),
            "construct.clopen_s": (t("construct.clopen"), "s"),
            "construct.max_spans": (max_spans, "count"),
            "lemmas.half_clopen_calls": (c("lemmas.half_clopen"), "count"),
            "lemmas.half_clopen_s": (t("lemmas.half_clopen"), "s"),
            "lemmas.separate_calls": (c("lemmas.separate"), "count"),
            "lemmas.separate_s": (t("lemmas.separate"), "s"),
            "checks.dyadic_s": (t("checks.dyadic"), "s"),
            "checks.proper_s": (t("checks.proper"), "s"),
            "checks.independent_s": (t("checks.independent"), "s"),
            "checks.degree_s": (t("checks.degree"), "s"),
            "checks.resolution_s": (t("checks.resolution"), "s"),
            "checks.proper_words": (words / rounds, "count"),
            "subbase.sigma_sets_calls": (c("subbase.sigma_sets"), "count"),
            "subbase.sigma_sets_s": (t("subbase.sigma_sets"), "s"),
            "subbase.forced_word_calls": (c("subbase.forced_word"), "count"),
            "subbase.forced_word_s": (t("subbase.forced_word"), "s"),
            "coding.encode_s": (t("coding.encode"), "s"),
            "coding.decode_s": (t("coding.decode"), "s"),
            "sets.union_calls": (c("sets.union"), "count"),
            "sets.intersection_calls": (c("sets.intersection"), "count"),
            "sets.difference_calls": (c("sets.difference"), "count"),
            "sets.closure_calls": (c("sets.closure"), "count"),
            "sets.subset_of_calls": (c("sets.subset_of"), "count"),
            "sets.membership_calls": (c("sets.membership"), "count"),
            "sets.new_calls": (c("sets.new"), "count"),
            "sets.empty_operand_calls": (sum(e for _, e, _ in binary) / rounds, "count"),
            "sets.self_s": (self_mod.get("sets", 0.0) / rounds, "s"),
            "sets.binary_s": (t(*BINARY), "s"),
            "sets.topology_s": (t(*TOPOLOGY), "s"),
            "sets.membership_s": (t("sets.membership"), "s"),
            "sets.spans_max": (max(spans, default=0), "count"),
            "sets.spans_mean": (statistics.fmean(spans) if spans else 0.0, "count"),
            "sets.binary_us.le4": (bucket(-1, 4), "us"),
            "sets.binary_us.le16": (bucket(4, 16), "us"),
            "sets.binary_us.gt16": (bucket(16, float("inf")), "us"),
            "space.locate_calls": (c("space.locate"), "count"),
            "space.locate_s": (t("space.locate"), "s"),
            "space.cb_kernel_calls": (c("space.cb_kernel"), "count"),
            "space.intervals_calls": (c("space.intervals"), "count"),
            "space.sequences_calls": (c("space.sequences"), "count"),
            "trace.spans": (n / rounds, "count"),
        }
        return out

    def write(self, path: str, rounds: int) -> None:
        """JSON header line, then the raw arrays in header order."""
        header = {"names": self.names, "rounds": rounds, "count": len(self.start),
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"],
                             ["end", "d"], ["aux", "q"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end, self.aux):
                arr.tofile(fh)
