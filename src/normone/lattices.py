"""G-lattices: free abelian groups with an action by unimodular matrices.

Every lattice here is read off one point permutation: G acting by left
translation on the disjoint union of the coset spaces G/H_i, each taken
e_i times.  The induced permutation lattice is the span of the points; the
norm-one character lattice J is its quotient by the diagonal copy of Z
(the sum of all points), with the images of the points 1, ..., R-1 as
basis, so g acts on J by [π_g(j) = i] - [π_g(j) = 0].
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyFamily, GroupMismatch, SpecInvalid


class GLattice:
    """Z^rank with an action of a finite group by integer matrices.

    `act` stores one rank x rank matrix per group element, act[g] acting
    on column vectors.  The constructor checks only the shape.  The
    lattices of this package are built so that g -> act[g] is a
    homomorphism with act[1] = I, which makes every act[g] unimodular:
    act[g] act[g^-1] = act[1] = I.
    """

    __slots__ = ("group", "rank", "act", "label")

    def __init__(self, group, act, label=""):
        act = np.asarray(act, dtype=np.int64)
        if act.ndim != 3 or act.shape[0] != group.order or act.shape[1] != act.shape[2]:
            raise SpecInvalid("action array must be (order, rank, rank)")
        self.group = group
        self.rank = int(act.shape[1])
        self.act = act
        self.label = label

    def __repr__(self):
        return f"GLattice(rank {self.rank} over {self.group.label or self.group.order})"


def coset_table(G, H):
    """(coset representatives, element -> coset index) for left cosets gH."""
    h_elems = np.array(H.elements, dtype=np.int64)
    coset_of = np.full(G.order, -1, dtype=np.int64)
    reps = []
    for g in G.elements():
        if coset_of[g] >= 0:
            continue
        members = G.mul[g, h_elems]
        coset_of[members] = len(reps)
        reps.append(int(g))  # least element: smaller ones are already assigned
    return reps, coset_of


def _points(G, pairs):
    """perm[g, j], the point g sends point j to, on the disjoint union of
    e copies of G/H for each (H, e) in order; point j of a block is the
    coset x_j H of its `coset_table` representative x_j."""
    if not pairs:
        raise EmptyFamily("at least one subgroup is required")
    blocks, width = [], 0
    for H, e in pairs:
        if H.parent is not G:
            raise GroupMismatch("subgroup does not live in the given group")
        if int(e) != e or e < 1:
            raise SpecInvalid("multiplicities must be positive integers")
        reps, coset_of = coset_table(G, H)
        block = coset_of[G.mul[:, reps]]
        for _ in range(int(e)):
            blocks.append(block + width)
            width += len(reps)
    return np.hstack(blocks)


def induced_perm_lattice(G, H):
    """The permutation lattice on G/H, of rank (G:H): g sends the basis
    vector of the coset x_j H (`coset_table` order) to that of g x_j H."""
    perm = _points(G, [(H, 1)])
    n, r = perm.shape
    act = np.zeros((n, r, r), dtype=np.int64)
    act[np.arange(n)[:, None], perm, np.arange(r)] = 1
    return GLattice(G, act, label=f"Ind[{G.order}/{H.order}]")


def j_lattice(G, pairs):
    """Norm-one character lattice of a family (H_i, e_i) with multiplicities.

    Quotient of ⊕_i (Ind_{H_i} Z)^{e_i} by the diagonal copy of Z (the
    all-ones vector); rank is Σ e_i (G:H_i) - 1.  Its basis is the images
    of the points 1, ..., R-1 (see `_points`), on which g acts by
    act[g][i, j] = [π_g(j) = i] - [π_g(j) = 0]: point 0 is minus the sum
    of the others.
    """
    pairs = list(pairs)
    perm = _points(G, pairs)[:, 1:]
    n, r = perm.shape
    act = np.zeros((n, r, r), dtype=np.int64)
    g, j = np.nonzero(perm)
    act[g, perm[g, j] - 1, j] = 1
    g, j = np.nonzero(perm == 0)
    act[g, :, j] = -1
    names = ",".join(f"{H.order}^{int(e)}" if e > 1 else f"{H.order}" for H, e in pairs)
    return GLattice(G, act, label=f"J[{G.order}/({names})]")


def restrict(M, D):
    """The same module viewed over a subgroup (which becomes the acting group)."""
    if D.parent is not M.group:
        raise GroupMismatch("subgroup does not live in the lattice's group")
    sub, elems = D.as_group()
    act = M.act[np.array(elems, dtype=np.int64)]
    return GLattice(sub, act, label=f"{M.label}|{D.order}")
