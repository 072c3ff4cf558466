"""Open separation and half-clopen extension across the scattered part.

Both operations move material between a space and its perfect kernel.
The scattered part is handled through clusters (a limit point together
with every sequence converging to it): clusters move wholesale, which is
what keeps the outputs open and their closures under control.  Outputs
are always validated against the postconditions before being returned.
"""
from __future__ import annotations

from .sets import SymbolicSet, TAIL_NONE, TailRule, embed, kernel_set, nearer_spans
from .space import Cluster, Space, scatter_clusters


class LemmaError(ValueError):
    def __init__(self, op: str, violations: list[str]):
        self.op = op
        self.violations = violations
        super().__init__(f"{op} postcondition failure: " + "; ".join(violations))


class SubspaceError(ValueError):
    pass


def cluster_set(space: Space, cluster: Cluster, from_index: int = 1) -> SymbolicSet:
    """The cluster's scattered material as a subset of the space, its
    tails cut to the members from index ``from_index`` on."""
    tails = [TAIL_NONE] * len(space.sequences())
    for j, exc in cluster.tails:
        tails[j] = TailRule.of(from_index, {e for e in exc if e >= from_index})
    for j, k in cluster.member_atoms:
        tails[j] = tails[j].union(TailRule.of(None, {k}))
    return SymbolicSet(space, (), cluster.point_values, tuple(tails))


def _admissible_subspace(space: Space, y: SymbolicSet) -> str:
    if y == SymbolicSet.whole(space):
        return "whole"
    if y == kernel_set(space):
        return "kernel"
    raise SubspaceError(
        "separation is implemented for the whole space and the perfect kernel only")


def check_separation(space: Space, y: SymbolicSet, u0: SymbolicSet, u1: SymbolicSet,
                     v0: SymbolicSet, v1: SymbolicSet) -> list[str]:
    out = []
    if not v0.is_open:
        out.append("V0 is not open")
    if not v1.is_open:
        out.append("V1 is not open")
    if v0.intersection(y) != u0:
        out.append("V0 does not trace back to U0")
    if v1.intersection(y) != u1:
        out.append("V1 does not trace back to U1")
    if not v0.closure().intersection(v1.closure()).subset_of(y):
        out.append("closures of V0 and V1 meet outside the subspace")
    return out


def separate_open_pair(space: Space, y: SymbolicSet, u0: SymbolicSet,
                       u1: SymbolicSet) -> tuple[SymbolicSet, SymbolicSet]:
    """Extend disjoint relatively open sets to disjoint-closure opens in X.

    Preconditions: U0, U1 open in Y and disjoint.  Postconditions: each Vi
    is open in X, traces back to Ui on Y, and cl V0 ∩ cl V1 stays inside Y.
    """
    mode = _admissible_subspace(space, y)
    for name, u in (("U0", u0), ("U1", u1)):
        if not u.subset_of(y):
            raise SubspaceError(f"{name} must lie inside the subspace")
        if u.interior_in(y) != u:
            raise SubspaceError(f"{name} is not open in the subspace")
    if not u0.intersection(u1).is_empty:
        raise SubspaceError("U0 and U1 must be disjoint")

    if mode == "whole":
        v0, v1 = u0, u1
    else:
        sides = [u0, u1]
        extras = [SymbolicSet.empty(space), SymbolicSet.empty(space)]
        for cluster in scatter_clusters(space):
            side = _assign_cluster(cluster, u0, u1)
            if side is not None:
                extras[side] = extras[side].union(cluster_set(space, cluster))
        v0 = sides[0].union(extras[0])
        v1 = sides[1].union(extras[1])

    bad = check_separation(space, y, u0, u1, v0, v1)
    if bad:
        raise LemmaError("separate_open_pair", bad)
    return (v0, v1)


def _assign_cluster(cluster: Cluster, u0: SymbolicSet, u1: SymbolicSet) -> int | None:
    if cluster.kind == "kernel":
        # the limit drags its tails along; anywhere else stays unassigned,
        # anything more would thicken closures inside the kernel
        if u0.membership(cluster.anchor):
            return 0
        if u1.membership(cluster.anchor):
            return 1
        return None
    return nearer_spans(cluster.anchor, u0.spans, u1.spans)


def check_half_clopen(space: Space, u: SymbolicSet, w: SymbolicSet,
                      v: SymbolicSet) -> list[str]:
    kernel = kernel_set(space)
    out = []
    if not v.is_regular_open:
        out.append("V is not regular open")
    if not v.boundary().subset_of(kernel):
        out.append("boundary of V leaves the kernel")
    if v.intersection(kernel) != u:
        out.append("V does not trace back to U on the kernel")
    if not v.subset_of(w):
        out.append("V escapes the window W")
    return out


def half_clopen_extension(space: Space, u: SymbolicSet, w: SymbolicSet) -> SymbolicSet:
    """Extend a regular open subset of the kernel to a half-clopen set in X.

    ``u`` may live over the kernel description or over X (supported on the
    kernel); ``w`` is an open window in X containing the relative closure
    of ``u``.  The result V is regular open in X with boundary inside the
    kernel, V ∩ X♯ == U and V ⊆ W.
    """
    kernelS = kernel_set(space)
    if u.space != space:
        u = embed(u, space)
    if not u.subset_of(kernelS):
        raise SubspaceError("U must be supported on the kernel")
    cl_u = u.closure_in(kernelS)
    if cl_u.interior_in(kernelS) != u:
        raise SubspaceError("U is not regular open in the kernel")
    if not w.is_open:
        raise SubspaceError("W is not open")
    if not cl_u.subset_of(w):
        raise SubspaceError("W does not contain the relative closure of U")

    v0, _ = separate_open_pair(space, kernelS, u, kernelS.difference(cl_u))
    dirty = v0.difference(kernelS).difference(w)
    if not dirty.is_empty:
        drop = SymbolicSet.empty(space)
        for cluster in scatter_clusters(space):
            cs = cluster_set(space, cluster)
            hit = cs.intersection(dirty)
            if hit.is_empty:
                continue
            if cluster.kind == "kernel":
                # the limit sits in U ⊆ W, so only finitely many members
                # stick out; removing just those keeps V open at the limit
                if hit.as_finite_points() is None:
                    raise LemmaError("half_clopen_extension",
                                     ["infinitely many members escape the window"])
                drop = drop.union(hit)
            else:
                drop = drop.union(cs)
        v = v0.difference(drop)
    else:
        v = v0

    bad = check_half_clopen(space, u, w, v)
    if bad:
        raise LemmaError("half_clopen_extension", bad)
    return v
