"""Every valid random space builds at levels 1–3, in both degree modes,
with all checks passing.

The one known exception, F3, stays in the sweep as a strict xfail: in
match_dim mode at one level on two or more kernel components the only
window is a whole component, so its pair is clopen, the degree sup is 0
and the build's own degree check (expecting 1) fails.
"""
import pytest

from dyadictop import build_proper_subbase, cb_kernel

from spacegen import random_spaces

SPACES = random_spaces(20131018, 50)
MODES = ("unconstrained", "match_dim")

F3 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="F3: match_dim at one level on two or more kernel components "
           "builds a clopen pair, so the degree check fails")


def _cases():
    for i, space in enumerate(SPACES):
        components = len(cb_kernel(space).kernel.intervals())
        for mode in MODES:
            for levels in (1, 2, 3):
                f3 = mode == "match_dim" and levels == 1 and components >= 2
                yield pytest.param(space, mode, levels, id=f"{i}-{mode}-L{levels}",
                                   marks=[F3] if f3 else [])


def test_sweep_is_large_enough():
    assert len(SPACES) >= 40
    assert any(len(cb_kernel(s).kernel.intervals()) >= 2 for s in SPACES)
    assert any(s.sequences() for s in SPACES)
    assert any(not cb_kernel(s).kernel.intervals() for s in SPACES)


@pytest.mark.parametrize("space,mode,levels", _cases())
def test_random_space_builds_with_all_checks_passing(space, mode, levels):
    result = build_proper_subbase(space, levels, degree_mode=mode)
    failed = [r.prop for r in result.reports if not r.passed]
    assert not failed, f"{space.render()}: {failed}"
