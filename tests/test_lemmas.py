import random
from fractions import Fraction as F

import pytest

from dyadictop import (LemmaError, SubspaceError, SymbolicSet, TailRule,
                       auto_seeds, cb_kernel, check_half_clopen, check_separation,
                       cluster_set, embed, extend_to_proper, half_clopen_extension,
                       kernel_set, lemmas, scatter_clusters, separate_open_pair)
from dyadictop.corpus import (CORPUS, interval_points_space,
                              interval_sequence_space, interval_space,
                              two_intervals_point_space)
from dyadictop.space import GeometricSequence, Interval, IsolatedPoint, Space

from instances import extension_instance, separation_instance
from spacegen import random_spaces

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


# -- the one-pass lift against the two-step composition --------------------

def _two_step_lift(space, u, w):
    """The zero side of the open separation of U from K − cl U, then the
    window trim: each cluster that leaves W dropped, or for a cluster on a
    kernel limit only its members outside W."""
    kernelS = kernel_set(space)
    if u.space != space:
        u = embed(u, space)
    v0, _ = separate_open_pair(space, kernelS, u,
                               kernelS.difference(u.closure_in(kernelS)))
    dirty = v0.difference(kernelS).difference(w)
    drop = SymbolicSet.empty(space)
    for cluster in scatter_clusters(space):
        cs = cluster_set(space, cluster)
        hit = cs.intersection(dirty)
        if not hit.is_empty:
            drop = drop.union(hit if cluster.kind == "kernel" else cs)
    return v0.difference(drop)


def test_lift_matches_the_two_step_composition_on_the_lemma_instances():
    rng = random.Random(711)  # the extension instances of criterion 5
    ran = 0
    for name, mk in CORPUS.items():
        sp = mk()
        for i in range(40):
            u, w = extension_instance(sp, rng)
            assert half_clopen_extension(sp, u, w) == _two_step_lift(sp, u, w), (name, i)
            ran += 1
    assert ran == 200


def test_lift_trims_kernel_tails_like_the_two_step_composition():
    # W holds each kernel tail from member j on only: the lift keeps the
    # tail from j, as the separation followed by the trim does
    cut = 0
    for sp in [mk() for mk in CORPUS.values()] + random_spaces(20131018, 50):
        kernelS = kernel_set(sp)
        for cluster in scatter_clusters(sp):
            if cluster.kind != "kernel":
                continue
            for delta in (F(1, 4), F(1, 16)):
                u = SymbolicSet.ball(sp, cluster.anchor, delta).intersection(kernelS)
                u = u.closure_in(kernelS).interior_in(kernelS)
                hull = SymbolicSet.ball(sp, cluster.anchor, 2 * delta).intersection(kernelS)
                for j in (1, 2, 3, 5):
                    w = hull.union(cluster_set(sp, cluster, j))
                    v = half_clopen_extension(sp, u, w)
                    assert v == _two_step_lift(sp, u, w)
                    assert v.intersection(cluster_set(sp, cluster)) == cluster_set(sp, cluster, j)
                    cut += j > 1
    assert cut >= 90


def _build_sources():
    for name, make in CORPUS.items():
        yield name, make(), range(1, 7)
    for i, space in enumerate(random_spaces(20131018, 50)):
        yield f"20131018.{i}", space, range(1, 4)


BUILD_SOURCES = [s for s in _build_sources() if cb_kernel(s[1]).kernel.intervals()]


@pytest.mark.parametrize("mode", ("unconstrained", "match_dim"))
@pytest.mark.parametrize("name,space,levels", BUILD_SOURCES,
                         ids=[s[0] for s in BUILD_SOURCES])
def test_lift_matches_the_two_step_composition_on_starred_levels(name, space, levels, mode):
    match_dim = mode == "match_dim"
    for n in levels:
        _, _, star = extend_to_proper(space, n, auto_seeds(space, n, match_dim))
        for tr in star:
            assert tr.v_star == _two_step_lift(space, tr.v, tr.seed.hull_star), (n, tr.level)


def test_lift_catches_a_cluster_on_the_wrong_side(monkeypatch):
    # the tail onto 1 must join V, whose limit 1 lies in U; sent to the
    # other side, it leaves V without a neighbourhood of 1
    assign = lemmas._assign_cluster

    def swapped(cluster, u0, u1):
        side = assign(cluster, u0, u1)
        return 1 - side if cluster.kind == "kernel" and side is not None else side
    monkeypatch.setattr(lemmas, "_assign_cluster", swapped)
    u = region(X3, (F(1, 2), False, F(1), True))
    with pytest.raises(LemmaError) as err:
        half_clopen_extension(X3, u, SymbolicSet.whole(X3))
    assert err.value.op == "half_clopen_extension"
    assert err.value.violations == ["V is not regular open"]
