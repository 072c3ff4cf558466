"""Open separation and half-clopen extension across the scattered part.

Both operations move material between a space and its perfect kernel.
The scattered part is handled through clusters (a limit point together
with every sequence converging to it): clusters move wholesale, which is
what keeps the outputs open and their closures under control.  Both give
each cluster its side by one rule (``_assign_cluster``, through
``_cluster_sides``).  Outputs are always validated against the
postconditions before being returned: the separation checks both sides,
and the extension, which builds only the side it returns, checks that
side once, by ``check_half_clopen``.
"""
from __future__ import annotations

from .sets import SymbolicSet, TAIL_NONE, TailRule, embed, kernel_set, nearer
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
    return SymbolicSet(space, cluster.point_values, tuple(tails))


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
        extras = [SymbolicSet.empty(space), SymbolicSet.empty(space)]
        for cluster, side in _cluster_sides(space, u0, u1):
            if side is not None:
                extras[side] = extras[side].union(cluster_set(space, cluster))
        v0 = u0.union(extras[0])
        v1 = u1.union(extras[1])

    bad = check_separation(space, y, u0, u1, v0, v1)
    if bad:
        raise LemmaError("separate_open_pair", bad)
    return (v0, v1)


def _assign_cluster(cluster: Cluster, u0: SymbolicSet, u1: SymbolicSet) -> int | None:
    """The side a cluster joins, 0 or 1, or None: a cluster on a kernel
    limit joins the side that holds the limit, any other the side whose
    interval part's closure is nearer its anchor, ties going to U0, with
    the distances taken on the cuts (``sets.nearer``)."""
    if cluster.kind == "kernel":
        # the limit drags its tails along; anywhere else stays unassigned,
        # anything more would thicken closures inside the kernel
        if u0.membership(cluster.anchor):
            return 0
        if u1.membership(cluster.anchor):
            return 1
        return None
    return nearer(cluster.anchor, u0, u1)


def _cluster_sides(space: Space, u0: SymbolicSet, u1: SymbolicSet):
    """Each scattered cluster of the space with the side that
    ``_assign_cluster`` gives it against U0 and U1."""
    return [(cluster, _assign_cluster(cluster, u0, u1))
            for cluster in scatter_clusters(space)]


def check_half_clopen(space: Space, u: SymbolicSet, w: SymbolicSet,
                      v: SymbolicSet) -> list[str]:
    kernel = kernel_set(space)
    cl = v.closure()
    regular = v == cl.interior()
    out = []
    if not regular:
        out.append("V is not regular open")
    # a regular open V is open, so it is its own interior
    if not cl.difference(v if regular else v.interior()).subset_of(kernel):
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

    V is the zero side of the open separation of U from U1 = K − cl_K U
    over the kernel K, trimmed by W, built in one pass: U together with
    the clusters that ``_assign_cluster`` gives U's side, less each such
    cluster that leaves W, or for a cluster on a kernel limit, less its
    members outside W.  The four preconditions are checked, and V once by
    ``check_half_clopen``, which checks ∂V ⊆ K on V itself.  None of the
    separation's own checks is run:

    - Y admissible: Y is K;
    - U0 inside Y and open there: U is regular open in K, checked above;
    - U1 inside Y and open there: it is K less a set closed in K;
    - U0 and U1 disjoint: U lies in cl_K U, which U1 misses;
    - V0 open and tracing back to U0: checked of V, regular open with
      V ∩ K == U;
    - V1 open and tracing back to U1, cl V0 ∩ cl V1 ⊆ Y: V1 is not built.
    """
    kernelS = kernel_set(space)
    if u.space != space:
        u = embed(u, space)
    if not u.subset_of(kernelS):
        raise SubspaceError("U must be supported on the kernel")
    cl_u = u.closure()  # inside K, which is closed
    u1 = kernelS.difference(cl_u)
    if kernelS.difference(u1.closure()) != u:
        raise SubspaceError("U is not regular open in the kernel")
    if not w.is_open:
        raise SubspaceError("W is not open")
    if not cl_u.subset_of(w):
        raise SubspaceError("W does not contain the relative closure of U")

    v = u
    for cluster, side in _cluster_sides(space, u, u1):
        if side != 0:
            continue
        cs = cluster_set(space, cluster)
        if cs.subset_of(w):
            v = v.union(cs)
        elif cluster.kind == "kernel":
            # the limit sits in U ⊆ W, so only finitely many members
            # stick out; removing just those keeps V open at the limit
            if cs.difference(w).as_finite_points() is None:
                raise LemmaError("half_clopen_extension",
                                 ["infinitely many members escape the window"])
            v = v.union(cs.intersection(w))

    bad = check_half_clopen(space, u, w, v)
    if bad:
        raise LemmaError("half_clopen_extension", bad)
    return v
