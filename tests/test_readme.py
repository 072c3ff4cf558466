"""The README's library quick tour runs as written, and its list of
construction conditions is the one the source raises."""
import ast
import contextlib
import io
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "dyadictop"


def test_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    # the printed word is the one its comment shows
    (shown,) = re.findall(r"print\(.*\)\s+# (\S+)", code)
    assert out.getvalue() == shown + "\n"


def _strings(node):
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _raised_conditions():
    """(condition, witness keys) of each ``ConstructionError`` in the
    source.  A condition passed in as a parameter is read from the calls of
    the function that takes it."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            params = [a.arg for a in fn.args.args]
            for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
                if getattr(call.func, "id", None) != "ConstructionError":
                    continue
                first, details = call.args[0], call.args[2:3]
                keys = frozenset(k.value for d in details for k in d.keys)
                if isinstance(first, ast.Name):
                    i = params.index(first.id)
                    names = set().union(*(_strings(c.args[i]) for c in calls
                                          if getattr(c.func, "id", None) == fn.name))
                else:
                    names = _strings(first)
                assert names, (path.name, fn.name)
                out |= {(name, keys) for name in names}
    return out


def test_condition_list_matches_the_source():
    text = README.read_text(encoding="utf-8")
    start = text.index("Every construction condition, by stage")
    listed = {(m[1], frozenset(re.findall(r"`([^`]+)`", m[2])))
              for m in re.finditer(r"^  - `([a-z-]+)`(.*)$",
                                   text[start:text.index("\n## ", start)], re.M)}
    assert listed == _raised_conditions()
