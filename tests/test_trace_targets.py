"""The traced benchmark run wraps the names listed in perfbench/tracing.py.

A rename or removal in the library would otherwise surface only as a
failing ``--trace 1`` run.  The list is read from the source text, so
nothing under perfbench/ runs here.
"""
import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS list in perfbench/tracing.py")


def test_trace_targets_resolve():
    targets = _targets()
    assert targets
    for mod_name, cls_name, attr, _span in targets:
        mod = importlib.import_module(f"dyadictop.{mod_name}")
        if cls_name is None:
            assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"
        else:
            # the tracer wraps the class's own attribute, not an inherited one
            cls = getattr(mod, cls_name)
            assert callable(cls.__dict__.get(attr)), f"{mod_name}.{cls_name}.{attr}"
