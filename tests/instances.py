"""Seeded random instances for the separation and extension lemmas."""
from __future__ import annotations

import random
from fractions import Fraction

from dyadictop import (SymbolicSet, cb_kernel, cluster_set, embed, kernel_set,
                       scatter_clusters)

from oracle import random_set


def separation_instance(space, rng: random.Random):
    """(Y, U0, U1) with Y admissible and the U's disjoint relatively open."""
    kernel = cb_kernel(space).kernel
    if kernel.intervals() and rng.random() < 0.7:
        y = kernel_set(space, kernel)
    else:
        y = SymbolicSet.whole(space)
    a = random_set(space, rng).intersection(y).interior_in(y)
    room = y.difference(a.closure_in(y))
    b = room.intersection(random_set(space, rng)).interior_in(y)
    return y, a, b


def extension_instance(space, rng: random.Random):
    """(U, W) with U regular open in the kernel and W an open window in X
    containing the relative closure of U."""
    kernel = cb_kernel(space).kernel
    kernelS = kernel_set(space, kernel)
    rel_open = random_set(space, rng).intersection(kernelS).interior_in(kernelS)
    u = rel_open.closure_in(kernelS).interior_in(kernelS)
    if rng.random() < 0.2:
        return u, SymbolicSet.whole(space)
    delta = Fraction(1, rng.choice((16, 64, 256)))
    blocks = [(sp.lo - delta, False, sp.hi + delta, False)
              for sp in u.closure_in(kernelS).spans]
    hull = SymbolicSet.region(kernel, blocks) if kernel.intervals() else None
    w = SymbolicSet.empty(space) if hull is None else embed(hull, space)
    for cluster in scatter_clusters(space):
        if cluster.kind == "kernel" and hull is not None \
                and hull.membership(cluster.anchor):
            w = w.union(cluster_set(space, cluster))
        elif rng.random() < 0.4:
            w = w.union(cluster_set(space, cluster))
    return u, w
