"""Golden build outputs: corpus builds whose JSON must stay byte-identical.

Each file holds ``to_dict(include_traces=True)`` of one corpus build,
written as the CLI writes JSON.  ``hashes.json`` pins many more builds, the
corpus at every level of ``HASH_LEVELS`` in both degree modes, by the
sha256 of the same rendering.  Regenerate them only for a change that means
to alter the output:

    PYTHONPATH=src python tests/golden.py
"""
import hashlib
import json
import pathlib

from dyadictop import build_proper_subbase
from dyadictop.corpus import CORPUS

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


if __name__ == "__main__":
    DIR.mkdir(parents=True, exist_ok=True)
    for name, mk in CORPUS.items():
        for mode, levels, depth in RUNS:
            res = build_proper_subbase(mk(), levels, degree_mode=mode, depth=depth)
            path(name, mode, levels).write_text(render(res), encoding="utf-8")
    HASHES.write_text(json.dumps(digests(), indent=2) + "\n", encoding="utf-8")
