import random
from fractions import Fraction as F

import pytest

from dyadictop import (LemmaError, SubspaceError, SymbolicSet, TailRule,
                       cb_kernel, check_half_clopen, check_separation,
                       cluster_set, half_clopen_extension, kernel_set,
                       scatter_clusters, separate_open_pair)
from dyadictop.corpus import (CORPUS, interval_points_space,
                              interval_sequence_space, interval_space,
                              two_intervals_point_space)
from dyadictop.space import GeometricSequence, Interval, IsolatedPoint, Space

from instances import extension_instance, separation_instance

X2 = interval_points_space()
X3 = interval_sequence_space()
K2 = kernel_set(X2)
K3 = kernel_set(X3)


def region(space, *blocks):
    return SymbolicSet.region(space, blocks)


# -- cluster sets ---------------------------------------------------------

def test_cluster_set_kernel_limit():
    (c,) = scatter_clusters(X3)
    cs = cluster_set(X3, c)
    assert cs.membership(F(3, 2)) and cs.membership(F(1025, 1024))
    assert not cs.membership(F(1))  # the anchor itself is a kernel point


# -- separation: whole space ----------------------------------------------

def test_separation_on_whole_space_is_identity():
    y = SymbolicSet.whole(X2)
    u0 = region(X2, (F(0), True, F(1, 3), False))
    u1 = SymbolicSet.singleton(X2, F(2))
    v0, v1 = separate_open_pair(X2, y, u0, u1)
    assert (v0, v1) == (u0, u1)


# -- separation: kernel subspace ------------------------------------------

def test_separation_sends_free_points_to_nearest_side():
    u0 = region(X2, (F(0), True, F(1, 3), False))
    u1 = region(X2, (F(2, 3), False, F(1), True))
    v0, v1 = separate_open_pair(X2, K2, u0, u1)
    assert v0 == u0
    assert v1 == u1.union(region(X2, (F(2), True, F(3), True)))
    assert check_separation(X2, K2, u0, u1, v0, v1) == []


def test_separation_tie_goes_to_zero_side():
    sp = Space((Interval(F(0), F(1)), Interval(F(3), F(4)), IsolatedPoint(F(2))))
    y = kernel_set(sp)
    u0 = region(sp, (F(0), True, F(1), True))
    u1 = region(sp, (F(3), True, F(4), True))
    v0, v1 = separate_open_pair(sp, y, u0, u1)
    assert v0.membership(F(2))
    assert not v1.membership(F(2))


def test_separation_kernel_limit_follows_anchor():
    u0 = region(X3, (F(1, 2), False, F(1), True))
    u1 = region(X3, (F(0), True, F(1, 3), False))
    v0, v1 = separate_open_pair(X3, K3, u0, u1)
    assert v0.membership(F(3, 2))  # the whole tail came along
    assert v0.is_open
    assert v1 == u1
    assert check_separation(X3, K3, u0, u1, v0, v1) == []


def test_separation_kernel_limit_unassigned_when_anchor_outside():
    u0 = region(X3, (F(0), True, F(1, 4), False))
    u1 = region(X3, (F(1, 4), False, F(1, 2), False))
    v0, v1 = separate_open_pair(X3, K3, u0, u1)
    assert not v0.membership(F(3, 2)) and not v1.membership(F(3, 2))


def test_separation_rejects_bad_subspace():
    y = region(X2, (F(0), True, F(1, 2), True))
    with pytest.raises(SubspaceError):
        separate_open_pair(X2, y, SymbolicSet.empty(X2), SymbolicSet.empty(X2))


def test_separation_rejects_overlapping_inputs():
    u = region(X2, (F(0), True, F(1, 2), False))
    with pytest.raises(SubspaceError):
        separate_open_pair(X2, K2, u, u)


def test_separation_rejects_relatively_closed_input():
    u0 = region(X2, (F(1, 4), True, F(1, 2), True))  # closed chunk, not open
    with pytest.raises(SubspaceError):
        separate_open_pair(X2, K2, u0, SymbolicSet.empty(X2))


# -- half-clopen extension ------------------------------------------------

def test_extension_trivial_window():
    u = region(X2, (F(0), True, F(1, 3), False))
    v = half_clopen_extension(X2, u, SymbolicSet.whole(X2))
    assert v.intersection(K2) == u
    assert v.boundary().as_finite_points() == (F(1, 3),)
    assert check_half_clopen(X2, u, SymbolicSet.whole(X2), v) == []


def test_extension_accepts_kernel_ambient_input():
    kernel = cb_kernel(X2).kernel
    u_k = SymbolicSet.region(kernel, [(F(0), True, F(1, 3), False)])
    v = half_clopen_extension(X2, u_k, SymbolicSet.whole(X2))
    assert v.intersection(K2).render() == "[0/1,1/3)"


def test_extension_collects_forced_tail():
    u = region(X3, (F(1, 2), False, F(1), True))
    w = region(X3, (F(1, 3), False, F(9, 8), False))  # holds members k >= 4
    v = half_clopen_extension(X3, u, w)
    assert v.membership(F(1))
    assert v.membership(F(1, 1) + F(1, 32))      # member 5 kept
    assert not v.membership(F(3, 2))             # member 1 trimmed by W
    assert check_half_clopen(X3, u, w, v) == []


def test_extension_window_must_hold_relative_closure():
    u = region(X3, (F(1, 2), False, F(1), True))
    with pytest.raises(SubspaceError):
        half_clopen_extension(X3, u, u)  # misses the closure point 1/2


def test_extension_rejects_non_regular_u():
    u = region(X3, (F(0), True, F(1, 4), False), (F(1, 4), False, F(1, 2), False))
    with pytest.raises(SubspaceError):
        half_clopen_extension(X3, u, SymbolicSet.whole(X3))


def test_extension_drops_far_cluster():
    # U hugs the left end, W only fattens it a little: the far points 2, 3
    # would ride along with the separation but the window keeps them out
    sp = two_intervals_point_space()
    kernelS = kernel_set(sp)
    u = region(sp, (F(0), True, F(1), True))
    w = region(sp, (F(-1), False, F(3, 2), False))
    v = half_clopen_extension(sp, u, w)
    assert v == u
    assert not v.membership(F(5))


# -- seeded sweeps --------------------------------------------------------

def test_separation_instances_sweep():
    rng = random.Random(2024)
    for name, mk in CORPUS.items():
        sp = mk()
        for _ in range(12):
            y, u0, u1 = separation_instance(sp, rng)
            v0, v1 = separate_open_pair(sp, y, u0, u1)
            assert check_separation(sp, y, u0, u1, v0, v1) == []


def test_extension_instances_sweep():
    rng = random.Random(4048)
    for name, mk in CORPUS.items():
        sp = mk()
        for _ in range(12):
            u, w = extension_instance(sp, rng)
            v = half_clopen_extension(sp, u, w)
            assert check_half_clopen(sp, u, w, v) == []
