"""Golden build outputs: corpus builds whose JSON must stay byte-identical.

Each file holds ``to_dict(include_traces=True)`` of one corpus build,
written as the CLI writes JSON.  ``hashes.json`` pins many more builds, the
corpus at every level of ``HASH_LEVELS`` in both degree modes, by the
sha256 of the same rendering.  Regenerate them only for a change that means
to alter the output:

    PYTHONPATH=src python tests/golden.py

``--draws`` writes nothing: it prints one sha256 over the draw set
(``draws``), so that two trees are compared by running it in each.
``test_acceptance.DRAWS_DIGEST`` pins that sha256 with its build and
failure counts; like the files and ``hashes.json``, the pin moves only
with a change that means to alter the output, and then to what
``--draws`` prints.
"""
import argparse
import hashlib
import json
import pathlib
from fractions import Fraction as F

from dyadictop import ConstructionError, build_proper_subbase
from dyadictop.corpus import CORPUS
from dyadictop.space import Interval, IsolatedPoint, Space

from spacegen import random_spaces

DIR = pathlib.Path(__file__).parent / "data" / "golden"
# (degree mode, levels, depth)
RUNS = (("unconstrained", 4, 6), ("match_dim", 3, 4))
HASHES = DIR / "hashes.json"
HASH_LEVELS = range(1, 7)
HASH_DEPTH = 4


def path(name: str, mode: str, levels: int) -> pathlib.Path:
    return DIR / f"{name}-{mode}-L{levels}.json"


def render(result) -> str:
    return json.dumps(result.to_dict(include_traces=True), indent=2) + "\n"


def digests() -> dict[str, str]:
    """sha256 of ``render`` for each hash-pinned build, keyed by the stem
    of its ``path``."""
    out = {}
    for name, mk in CORPUS.items():
        for mode in ("unconstrained", "match_dim"):
            for levels in HASH_LEVELS:
                res = build_proper_subbase(mk(), levels, degree_mode=mode, depth=HASH_DEPTH)
                out[path(name, mode, levels).stem] = hashlib.sha256(
                    render(res).encode("utf-8")).hexdigest()
    return out


def draws():
    """(name, space, mode, levels) of the draw set: the corpus at levels
    1-9, ``spacegen`` seeds 7, 99, 101, 102 and 20131018 at levels 1-4, and
    the equidistant point of fault F1 in both listings at levels 6-11, each
    in both degree modes."""
    f1 = [(Interval(F(0), F(1)), IsolatedPoint(F(2)), Interval(F(3), F(4))),
          (Interval(F(3), F(4)), IsolatedPoint(F(2)), Interval(F(0), F(1)))]
    spaces = [(name, mk(), range(1, 10)) for name, mk in CORPUS.items()]
    spaces += [(f"{seed}.{i}", s, range(1, 5)) for seed in (7, 99, 101, 102, 20131018)
               for i, s in enumerate(random_spaces(seed, 50))]
    spaces += [(f"F1.{i}", Space(prims), range(6, 12)) for i, prims in enumerate(f1)]
    for name, space, levels in spaces:
        for mode in ("unconstrained", "match_dim"):
            yield from ((name, space, mode, n) for n in levels)


def draws_digest() -> tuple[str, int, int]:
    """(sha256, builds, failed builds) over the draw set: each build's name,
    mode and levels, then ``render`` of its result, or for a build that
    raises the error's condition, level and details as JSON."""
    h, count, failed = hashlib.sha256(), 0, 0
    for name, space, mode, levels in draws():
        h.update(f"{name} {mode} {levels}\n".encode("utf-8"))
        try:
            text = render(build_proper_subbase(space, levels, degree_mode=mode))
        except ConstructionError as err:
            text = json.dumps([err.condition, err.level, err.details], indent=2) + "\n"
            failed += 1
        h.update(text.encode("utf-8"))
        count += 1
    return h.hexdigest(), count, failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--draws", action="store_true",
                        help="print the sha256 of the draw set and write nothing")
    if parser.parse_args().draws:
        digest, count, failed = draws_digest()
        print(f"{digest}  {count} builds, {failed} failed")
        raise SystemExit(0)
    DIR.mkdir(parents=True, exist_ok=True)
    for name, mk in CORPUS.items():
        for mode, levels, depth in RUNS:
            res = build_proper_subbase(mk(), levels, degree_mode=mode, depth=depth)
            path(name, mode, levels).write_text(render(res), encoding="utf-8")
    HASHES.write_text(json.dumps(digests(), indent=2) + "\n", encoding="utf-8")
