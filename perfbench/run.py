"""Benchmark of dyadictop: build, check and code dyadic subbases.

Run from the root of a dyadictop checkout:

    python3 perfbench/run.py --workload build-levels --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):

* build-levels   `dyadictop build` on the four corpus spaces with a kernel
* check-depth    `dyadictop check` on subbase files at high depth
* random-spaces  small builds of seeded random spaces, plus seeded and fixed
                 spaces with the geometry of the known faults F1-F3

The library is imported from ``src/`` of the current directory and driven
in process: jobs go through ``dyadictop.cli.main`` and coding through the
public library functions.  Every output is checked against the
benchmark's own membership oracle.  With ``--trace 0`` nothing is wrapped
and the last stdout line carries the end-to-end metrics; with
``--trace 1`` wrappers record spans and the line carries the per-layer
metrics.  The process is single-threaded and starts no other process.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("build-levels", "check-depth", "random-spaces")
SETUP_REPEATS = 7
# Seconds of reference_loop on the calibration machine (see README.md) at
# rest; timings are reported at this speed.
REF_SECONDS = 0.027
# A check job completes with a verdict: 0 all passed, 2 counterexamples;
# the oracle decides whether the verdict is right.
CHECK_VERDICTS = (0, 2)
_CONDITION = re.compile(r"construction failed at level -?\d+: (\S+)")


def reference_loop() -> Fraction:
    """Fixed pure-Python work with Fractions, sharing no code with dyadictop."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 2500):
        x = Fraction(i, i % 97 + 1)
        acc += x / (i + 1)
        seen[x] = acc < x
    return acc


class Clock:
    """Scales wall times to the reference speed of the machine.

    This machine's speed drifts by up to a half over tens of seconds when
    neighbours load it.  Right before each timed operation the clock times
    ``reference_loop``, which slows down alike, and scales the operation by
    REF_SECONDS over the median of the last REF_WINDOW loop times; the
    median smooths the loop's own jitter and still follows the drift.  The
    loop runs with the garbage collector paused, so that its time follows
    the machine and not the heap that dyadictop leaves alive.
    """

    REF_WINDOW = 5

    def __init__(self):
        self.ref_times: list[float] = []

    def scale(self) -> float:
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            self.ref_times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return REF_SECONDS / statistics.median(self.ref_times[-self.REF_WINDOW:])


class BenchError(Exception):
    """The benchmark cannot run here: no dyadictop sources to drive."""


# -- library loading --------------------------------------------------------

def load_library(root: str) -> SimpleNamespace:
    """Import dyadictop from ``root/src`` afresh, dropping any earlier import."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dyadictop", "__init__.py")):
        raise BenchError(f"no dyadictop package under {src}")
    for key in [k for k in sys.modules if k == "dyadictop" or k.startswith("dyadictop.")]:
        del sys.modules[key]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    pkg = importlib.import_module("dyadictop")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise BenchError(f"dyadictop imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(
        cli=importlib.import_module("dyadictop.cli"),
        corpus=importlib.import_module("dyadictop.corpus"),
        coding=importlib.import_module("dyadictop.coding"),
        Space=pkg.Space, SpaceError=pkg.SpaceError, DyadicSubbase=pkg.DyadicSubbase,
        TernaryWord=pkg.TernaryWord, load_subbase=pkg.load_subbase)


# -- bookkeeping -------------------------------------------------------------

class Run:
    """Timings, operation counts and oracle findings of one benchmark run."""

    def __init__(self, lib, workdir: str, clock: Clock):
        self.lib = lib
        self.workdir = workdir
        self.clock = clock
        # job kind -> input name -> scaled times of its jobs, one per round
        self.times = {"build": {}, "check": {}}
        # work done and scaled seconds spent on it, by kind
        self.work = dict.fromkeys(("builds", "build_s", "words", "check_s", "encoded",
                                   "encode_s", "decoded", "decode_s"), 0)
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.wrong: list[str] = []
        # digest of a checked output -> (oracle findings, oracle subbase)
        self.verified: dict[bytes, tuple] = {}

    def add(self, **amounts) -> None:
        for key, value in amounts.items():
            self.work[key] += value

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def job(self, kind: str, name: str, argv: list[str], out: str, ok_codes=(0,)):
        """One CLI job in process; the exit code, or None when it failed.

        A failure is named by the construction condition the CLI printed,
        by the checks a build reported as failed, or by the type of an
        exception that escaped the CLI.
        """
        self.attempted += 1
        err = io.StringIO()
        scale = self.clock.scale()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.lib.cli.main(argv + ["--format", "json", "--out", out])
        except Exception as exc:
            self.failures.append((name, type(exc).__name__))
            return None
        dt = (time.perf_counter() - t0) * scale
        if code in ok_codes:
            self.times[kind].setdefault(name, []).append(dt)
            self.add(**{f"{kind}_s": dt}, **({"builds": 1} if kind == "build" else {}))
            return code
        m = _CONDITION.search(err.getvalue())
        if m:
            condition = m.group(1)
        elif code == 2:
            with open(out, encoding="utf-8") as fh:
                failed = [c["property"] for c in json.load(fh)["checks"] if not c["passed"]]
            condition = "check-failed:" + ",".join(failed)
        else:
            condition = f"exit-{code}"
        self.failures.append((name, condition))
        return None

    def coding(self, name: str, sb_path: str, osb, rng: random.Random) -> None:
        """encode_point on sample points and decode_word on random words."""
        self.attempted += 1
        lib = self.lib
        points = inputs.sample_points(rng, osb)
        words = inputs.sample_words(rng, len(osb))
        try:
            sb = lib.load_subbase(sb_path)
            coded = []
            scale = self.clock.scale()
            for x in points:
                t0 = time.perf_counter()
                c = lib.coding.encode_point(sb, x)
                self.add(encode_s=(time.perf_counter() - t0) * scale)
                coded.append(c)
            cells = []
            tws = [lib.TernaryWord.from_string(w) for w in words]
            scale = self.clock.scale()
            for tw in tws:
                t0 = time.perf_counter()
                cell = lib.coding.decode_word(sb, tw)
                self.add(decode_s=(time.perf_counter() - t0) * scale)
                cells.append(cell)
            round_trip = [lib.coding.decode_word(sb, c.word)
                          for c in coded[:inputs.ROUND_TRIPS]]
        except Exception as exc:
            self.failures.append((name + ":coding", type(exc).__name__))
            return
        self.add(encoded=len(points), decoded=len(words))
        digits = [c.render(ascii_bottom=True) for c in coded]
        cells = [cell.to_dict() for cell in cells]
        round_trip = [cell.to_dict() for cell in round_trip]

        def check():
            found = []
            for x, d, back in zip(points, digits, round_trip):
                if d != osb.forced_word(x):
                    found.append(f"{name}: encode({x}) = {d}, oracle {osb.forced_word(x)}")
                if x not in oracle.OSet(osb.space, back):
                    found.append(f"{name}: decode(encode({x})) misses {x}")
            for w, cell in zip(words, cells):
                if not osb.same_as_cell(oracle.OSet(osb.space, cell), w):
                    found.append(f"{name}: decode({w}) differs from the oracle's cell")
            return found, None

        self.verify(("coding", name, points, words, digits, cells, round_trip), check)

    # -- oracle checks of CLI outputs ----------------------------------------

    def verify(self, key, check):
        """Run an oracle check once per distinct output; later rounds, which
        repeat the same operations, reuse its findings when the output is
        the same."""
        key = hashlib.sha256(repr(key).encode()).digest()
        if key not in self.verified:
            self.verified[key] = check()
        found, result = self.verified[key]
        self.wrong.extend(found)
        return result

    def verify_build(self, name: str, out_path: str, depth: int, mode: str):
        """Check a build's JSON output; returns its oracle subbase."""
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()

        def check():
            data = json.loads(text)
            osb = oracle.OSubbase(data)
            found = [f"{name}: {v}" for v in osb.dyadic_violations()]
            reports = {c["property"]: c for c in data["checks"]}
            if not all(c["passed"] for c in data["checks"]):
                found.append(f"{name}: a check of the build failed")
            bad = osb.improper_points(depth)
            if bad:
                found.append(f"{name}: not proper at depth {depth} at {bad[:3]}")
            sup, clashes = osb.degree_sup()
            if sup != reports["degree"]["stats"]["degree_sup"]:
                found.append(f"{name}: degree sup {sup} vs reported "
                             f"{reports['degree']['stats']['degree_sup']}")
            if mode == "match_dim" and (sup != (1 if osb.space.intervals else 0) or clashes):
                found.append(f"{name}: match_dim degree sup {sup}, {clashes} shared points")
            res = reports["resolution"]
            eps = oracle.rat(res["stats"]["epsilon"])
            for wit in res["stats"]["witnesses"]:
                x = oracle.rat(wit["point"])
                if not (osb.in_cell(wit["word"], x) and osb.cell_within(wit["word"], x, eps)
                        and osb.cell_within(osb.forced_word(x), x, eps)):
                    found.append(f"{name}: cell of {x} leaves its {eps}-ball")
            return found, osb

        return self.verify(("build", name, depth, mode, text), check)

    def verify_check(self, name: str, out_path: str, osb, depth: int) -> None:
        """Check a check job's verdicts against the oracle's."""
        self.add(words=3 ** min(depth, len(osb)))
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()

        def check():
            reports = {c["property"]: c for c in json.loads(text)["checks"]}
            found = []
            dyadic_ok = not osb.dyadic_violations()
            if reports["dyadic"]["passed"] != dyadic_ok:
                found.append(f"{name}: dyadic verdict {reports['dyadic']['passed']}, "
                             f"oracle {dyadic_ok}")
            proper_ok = not osb.improper_points(depth)
            proper = reports["proper"]
            if proper["passed"] != proper_ok:
                found.append(f"{name}: proper verdict {proper['passed']}, oracle {proper_ok}")
            if not proper["passed"]:
                first = proper["counterexamples"][0]
                word, x = first["word"], oracle.rat(first["witness"])
                if not (osb.in_closure_cell(word, x) and not osb.in_cell_closure(word, x)):
                    found.append(f"{name}: counterexample {word} at {x} is not in "
                                 "S̄(w) \\ cl S(w)")
            sup, _ = osb.degree_sup()
            if sup != reports["degree"]["stats"]["degree_sup"]:
                found.append(f"{name}: degree sup {sup} vs reported "
                             f"{reports['degree']['stats']['degree_sup']}")
            return found, None

        self.verify(("check", name, depth, id(osb), text), check)

    # -- one input through build, check and coding ---------------------------

    def build(self, item: dict, depth: int, probe_seed: int):
        """A build job and its oracle check; (output path, oracle subbase),
        or None when the build failed."""
        name = item["name"]
        out = self.path(f"{name}-{probe_seed}.build.json")
        if self.job("build", name, [
                "build", self.path(f"{name}.space.json"), "--levels", str(item["levels"]),
                "--depth", str(depth), "--degree-mode", item["mode"],
                "--seed", str(probe_seed)], out) is None:
            return None
        return out, self.verify_build(name, out, depth, item["mode"])

    def check(self, name: str, path: str, osb, depth: int) -> None:
        """A check job and its oracle check."""
        chk = self.path(f"{name}.check.json")
        if self.job("check", name, ["check", path, "--depth", str(depth)], chk,
                    ok_codes=CHECK_VERDICTS) is not None:
            self.verify_check(name, chk, osb, depth)

    def build_pipeline(self, item: dict, depth: int, rng: random.Random) -> None:
        built = self.build(item, depth, item["probe_seed"])
        if built is not None:
            out, osb = built
            self.check(item["name"], out, osb, depth)
            self.coding(item["name"], out, osb, rng)


# -- workloads ---------------------------------------------------------------

def setup_build_levels(lib, workdir: str, seed: int, seconds: float) -> dict:
    level = inputs.build_level(seconds)
    rng = random.Random(seed)
    items = []
    for name in inputs.KERNEL_CORPUS:
        data = lib.corpus.CORPUS[name]().to_dict()
        inputs.write_json(os.path.join(workdir, f"{name}.space.json"), data)
        items.append({"name": name, "levels": level, "mode": "unconstrained",
                      "probe_seed": rng.randrange(1000)})
    return {"items": items, "seed": seed}


def round_build_levels(run: Run, state: dict) -> None:
    rng = random.Random(f"{state['seed']}-coding")
    for item in state["items"]:
        run.build_pipeline(item, inputs.BUILD_DEPTH, rng)


def setup_check_depth(lib, workdir: str, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    files = inputs.make_check_files(lib, workdir, rng)
    items = []
    for name, levels in inputs.CHECK_BUILDS.items():
        inputs.write_json(os.path.join(workdir, f"{name}.space.json"),
                          lib.corpus.CORPUS[name]().to_dict())
        items.append({"name": name, "levels": levels, "mode": "unconstrained",
                      "probe_seeds": [rng.randrange(1000)
                                      for _ in range(inputs.CHECK_BUILD_PROBES)]})
    return {"files": files, "items": items, "seed": seed}


def round_check_depth(run: Run, state: dict) -> None:
    if "oracles" not in state:   # parsed once, after the timed set-up
        state["oracles"] = {}
        for key, path in state["files"].items():
            with open(path, encoding="utf-8") as fh:
                state["oracles"][key] = oracle.OSubbase(json.load(fh))
    rng = random.Random(f"{state['seed']}-coding")
    subbases = []
    for item in state["items"]:
        for probe_seed in item["probe_seeds"]:
            built = run.build(item, inputs.BUILD_DEPTH, probe_seed)
        if built is not None:
            subbases.append((item["name"], *built))
    subbases += [(key, state["files"][key], state["oracles"][key])
                 for key in ("gray", "not-proper")]
    for key, path, osb in subbases:
        run.check(key, path, osb, inputs.CHECK_DEPTHS[key])
        run.coding(key, path, osb, rng)


def setup_random_spaces(lib, workdir: str, seed: int, seconds: float) -> dict:
    items = inputs.random_spaces(seed, lib) + inputs.fault_inputs()
    for item in items:
        inputs.write_json(os.path.join(workdir, f"{item['name']}.space.json"),
                          item["space"])
    return {"items": items, "seed": seed}


def round_random_spaces(run: Run, state: dict) -> None:
    rng = random.Random(f"{state['seed']}-coding")
    for item in state["items"]:
        run.build_pipeline(item, inputs.RANDOM_DEPTH, rng)


# A round re-seeds its coding samples, so every round repeats the same
# operations on the same inputs.
SETUP = {"build-levels": setup_build_levels, "check-depth": setup_check_depth,
         "random-spaces": setup_random_spaces}
ROUND = {"build-levels": round_build_levels, "check-depth": round_check_depth,
         "random-spaces": round_random_spaces}


# -- driver ------------------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def typical_job_s(by_input: dict) -> float | None:
    """Mean over inputs of the median scaled time of one job on that input;
    None when no job of the kind succeeded."""
    if not by_input:
        return None
    return statistics.fmean(statistics.median(ts) for ts in by_input.values())


def rate(done: int, seconds: float) -> float | None:
    return done / seconds if seconds else None


def end_to_end(run: Run, setup_s: float) -> dict:
    w = run.work
    return {
        "setup_s": metric(setup_s, "s"),
        "build_s": metric(typical_job_s(run.times["build"]), "s"),
        "builds_per_s": metric(rate(w["builds"], w["build_s"]), "1/s"),
        "check_s": metric(typical_job_s(run.times["check"]), "s"),
        "words_per_s": metric(rate(w["words"], w["check_s"]), "words/s"),
        "encode_per_s": metric(rate(w["encoded"], w["encode_s"]), "points/s"),
        "decode_per_s": metric(rate(w["decoded"], w["decode_s"]), "words/s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MiB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dyadictop", "__init__.py")):
        raise BenchError(f"no dyadictop package under {root}/src; run from a checkout")
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, root: str, workdir: str) -> int:
    # set-up: import, inputs and files, repeated; the last one is used
    clock = Clock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        scale = clock.scale()
        t0 = time.perf_counter()
        lib = load_library(root)
        state = SETUP[args.workload](lib, workdir, args.seed, args.seconds)
        setup_times.append((time.perf_counter() - t0) * scale)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    run = Run(lib, workdir, clock)
    rounds = 0
    t_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t_start < args.seconds:
        ROUND[args.workload](run, state)
        rounds += 1
    elapsed = time.perf_counter() - t_start

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds in "
          f"{elapsed:.1f} s; attempted {run.attempted}, failed {len(run.failures)}; "
          f"reference loop median {1000 * statistics.median(clock.ref_times):.1f} ms "
          f"(times are scaled to {1000 * REF_SECONDS:.1f} ms)")
    expected = {item["name"]: inputs.FAULT_CONDITIONS[item["fault"]]
                for item in state.get("items", ()) if item.get("fault")}
    for name, cond in sorted(set(run.failures)):
        print(f"  failed: {name}: {cond}{'' if expected.get(name) == cond else ' (NEW)'}")
    for name in sorted(set(expected) - {name for name, _ in run.failures}):
        print(f"  built without the expected {expected[name]}: {name} (NEW)")
    for what in run.wrong[:20]:
        print(f"  WRONG: {what}", file=sys.stderr)

    if tracer is not None:
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.bin"), rounds)
        metrics = {k: metric(v, u) for k, (v, u) in
                   tracer.metrics(rounds).items()}
        for kind, by_input in run.times.items():
            metrics[f"trace.{kind}_s"] = metric(typical_job_s(by_input), "s")
    else:
        metrics = end_to_end(run, statistics.median(setup_times))
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}" if m["value"] is not None
              else f"  {k} unmeasured: no operation it times succeeded")
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    unmeasured = [k for k, m in metrics.items() if m["value"] is None]
    if unmeasured:
        print(f"perfbench: no successful operation to time for {', '.join(unmeasured)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
