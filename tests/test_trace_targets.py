"""The traced benchmark run wraps the names listed in perfbench/tracing.py.

A rename or removal in the library would otherwise surface only as a
failing ``--trace 1`` run.  The list is read from the source text, so
nothing under perfbench/ runs here.  The traced run also reads
``SymbolicSet.spans`` as one entry per span of the interval part.
"""
import ast
import importlib
import pathlib

from dyadictop import SymbolicSet, build_proper_subbase
from dyadictop.corpus import CORPUS

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


def test_spans_has_one_entry_per_cut_pair():
    # the traced run reads len(s.spans) as a set's span count and
    # not s.spans as an empty interval part
    for make in CORPUS.values():
        space = make()
        sets = [side for pair in build_proper_subbase(space, 3).subbase.pairs for side in pair]
        sets += [SymbolicSet.empty(space), SymbolicSet.whole(space)]
        sets += [SymbolicSet.singleton(space, p.value) for p in space.isolated_points()[:1]]
        sets += [SymbolicSet.singleton(space, iv.lo) for iv in space.intervals()[:1]]
        for s in sets:
            assert len(s.spans) == len(s.cuts) // 2, s.render()
            assert bool(s.spans) == bool(s.cuts), s.render()
