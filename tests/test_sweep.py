"""Every valid random space builds at levels 1–3, in both degree modes,
with all checks passing."""
from fractions import Fraction as F

import pytest

from dyadictop import Interval, Space, build_proper_subbase, cb_kernel

from spacegen import random_spaces

SPACES = random_spaces(20131018, 50)
MODES = ("unconstrained", "match_dim")


def _cases():
    for i, space in enumerate(SPACES):
        for mode in MODES:
            for levels in (1, 2, 3):
                yield pytest.param(space, mode, levels, id=f"{i}-{mode}-L{levels}")


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


def test_one_match_dim_level_on_two_components_has_degree_one():
    # one window that is a whole component would make a clopen pair
    space = Space((Interval(F(0), F(1)), Interval(F(2), F(3))))
    result = build_proper_subbase(space, 1, degree_mode="match_dim")
    assert result.passed
    (degree,) = [r for r in result.reports if r.prop == "degree"]
    assert degree.stats["degree_sup"] == 1
