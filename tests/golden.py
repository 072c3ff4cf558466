"""Golden build outputs: corpus builds whose JSON must stay byte-identical.

Each file holds ``to_dict(include_traces=True)`` of one corpus build,
written as the CLI writes JSON.  Regenerate them only for a change that
means to alter the output:

    PYTHONPATH=src python tests/golden.py
"""
import json
import pathlib

from dyadictop import build_proper_subbase
from dyadictop.corpus import CORPUS

DIR = pathlib.Path(__file__).parent / "data" / "golden"
# (degree mode, levels, depth)
RUNS = (("unconstrained", 4, 6), ("match_dim", 3, 4))


def path(name: str, mode: str, levels: int) -> pathlib.Path:
    return DIR / f"{name}-{mode}-L{levels}.json"


def render(result) -> str:
    return json.dumps(result.to_dict(include_traces=True), indent=2) + "\n"


if __name__ == "__main__":
    DIR.mkdir(parents=True, exist_ok=True)
    for name, mk in CORPUS.items():
        for mode, levels, depth in RUNS:
            res = build_proper_subbase(mk(), levels, degree_mode=mode, depth=depth)
            path(name, mode, levels).write_text(render(res), encoding="utf-8")
