"""No library module imports a name it never uses.

The scan is by ``ast``: every name an import statement binds must be read
as a name somewhere in the module.  ``__init__.py`` re-exports, so it is
left out, and so is ``from __future__ import annotations``.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dyadictop"


def unused_imports(source: str) -> list[str]:
    """The names the module's imports bind and its code never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert not {name: names for name, names in found.items() if names}


def test_the_scan_catches_a_planted_import():
    source = (SRC / "coding.py").read_text(encoding="utf-8")
    assert unused_imports(source) == []
    planted = source.replace("from fractions import Fraction\n",
                             "from fractions import Fraction\nimport heapq as hq\n"
                             "from os import path, sep\n", 1)
    assert unused_imports(planted) == ["hq", "path", "sep"]
