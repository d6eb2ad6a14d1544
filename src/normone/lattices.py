"""G-lattices: free abelian groups with an action by unimodular matrices.

Induced permutation lattices are realized as left-coset permutation
modules; the norm-one character lattices are quotients of their direct
sums by the diagonal copy of Z, through the quotient map [-1 | I], whose
image of e_i (i >= 1) is a basis, so the result is a genuine torsion-free
lattice.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyFamily, GroupMismatch, SpecInvalid
from .groups import SubgroupHandle, double_cosets
from . import intmat


def _is_unimodular(M):
    M = np.asarray(M)
    if M.shape[0] != M.shape[1]:
        return False
    if M.shape[0] == 0:
        return True
    facs = intmat.invariant_factors(M)
    return len(facs) == M.shape[0] and all(d == 1 for d in facs)


class GLattice:
    """Z^rank with an action of a finite group by integer matrices.

    `act` stores one rank x rank matrix per group element.  The identity
    must act as the identity matrix; the action is verified to be a
    homomorphism on every edge (g, s) of the Cayley graph over the group's
    canonical generators, which forces it on all pairs; generator matrices
    are verified unimodular, which propagates to all elements.
    """

    __slots__ = ("group", "rank", "act", "label", "subgroup")

    def __init__(self, group, act, label="", subgroup=None, validate=True):
        act = np.asarray(act, dtype=np.int64)
        if act.ndim != 3 or act.shape[0] != group.order or act.shape[1] != act.shape[2]:
            raise SpecInvalid("action array must be (order, rank, rank)")
        self.group = group
        self.rank = int(act.shape[1])
        self.act = act
        self.label = label
        self.subgroup = subgroup
        if validate:
            self._validate()

    def _validate(self):
        G, act = self.group, self.act
        eye = np.eye(self.rank, dtype=np.int64)
        if not (act[G.identity] == eye).all():
            raise SpecInvalid("identity must act trivially")
        for s in G.gens:
            if not _is_unimodular(act[s]):
                raise SpecInvalid("generator action matrix is not unimodular")
        for s in G.gens:
            prod = act @ act[s]  # (n, r, r): g -> act[g] @ act[s]
            if not (prod == act[G.mul[:, s]]).all():
                raise SpecInvalid("action is not a homomorphism")

    def action(self, g):
        return self.act[int(g)]

    def __repr__(self):
        return f"GLattice(rank {self.rank} over {self.group.label or self.group.order})"


class LatticeMap:
    """An integer matrix commuting with the group actions of its endpoints."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, validate=True):
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.shape != (target.rank, source.rank):
            raise SpecInvalid("lattice map matrix has wrong shape")
        if source.group is not target.group:
            raise GroupMismatch("lattice map endpoints must share the group")
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate:
            left = target.act @ matrix  # (n, tr, sr)
            right = np.einsum("ij,njk->nik", matrix, source.act)
            if not (left == right).all():
                raise SpecInvalid("lattice map is not equivariant")

    def __call__(self, vec):
        return self.matrix @ np.asarray(vec)


def trivial_lattice(G, rank):
    if rank < 0:
        raise SpecInvalid("rank must be nonnegative")
    act = np.broadcast_to(np.eye(rank, dtype=np.int64), (G.order, rank, rank)).copy()
    return GLattice(G, act, label=f"Z^{rank}", validate=False)


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


def induced_perm_lattice(G, H):
    """(permutation lattice on G/H, coset labels).

    Rank is the index (G:H); each element acts by the permutation matrix of
    left translation on cosets.
    """
    if H.parent is not G:
        raise GroupMismatch("subgroup does not live in the given group")
    reps, coset_of = coset_table(G, H)
    r = len(reps)
    act = np.zeros((G.order, r, r), dtype=np.int64)
    for g in G.elements():
        for j, x in enumerate(reps):
            act[g, coset_of[G.mul[g, x]], j] = 1
    lat = GLattice(G, act, label=f"Ind[{G.order}/{H.order}]", validate=False)
    return lat, reps


def direct_sum(M, N, label=""):
    if M.group is not N.group:
        raise GroupMismatch("direct sum requires one acting group")
    n = M.group.order
    r, s = M.rank, N.rank
    act = np.zeros((n, r + s, r + s), dtype=np.int64)
    act[:, :r, :r] = M.act
    act[:, r:, r:] = N.act
    return GLattice(M.group, act, label=label or f"{M.label}+{N.label}", validate=False)


def j_lattice(G, pairs):
    """Norm-one character lattice of a family (H_i, e_i) with multiplicities.

    Quotient of ⊕_i (Ind_{H_i} Z)^{e_i} by the diagonal copy of Z (the
    all-ones vector of every block); rank is Σ e_i (G:H_i) - 1.  Returns
    the lattice and the quotient map from the direct sum.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyFamily("at least one subgroup is required")
    total = None
    for H, e in pairs:
        if H.parent is not G:
            raise GroupMismatch("subgroup does not live in the given group")
        e = int(e)
        if e < 1:
            raise SpecInvalid("multiplicities must be positive")
        ind, _ = induced_perm_lattice(G, H)
        for _ in range(e):
            total = ind if total is None else direct_sum(total, ind)
    # The quotient map q = [-1 | I] kills the all-ones vector and sends e_i
    # to f_i for i >= 1 and e_0 to -(f_1 + ... + f_{R-1}), so P f_j =
    # q(P e_j) has coefficient P[i, j] - P[0, j] on f_i.
    R = total.rank
    P = total.act
    act_j = P[:, 1:, 1:] - P[:, :1, 1:]
    names = ",".join(f"{H.order}^{e}" if e > 1 else f"{H.order}" for H, e in pairs)
    lat = GLattice(G, act_j, label=f"J[{G.order}/({names})]", validate=False)
    quotient = np.hstack([-np.ones((R - 1, 1), dtype=np.int64), np.eye(R - 1, dtype=np.int64)])
    qmap = LatticeMap(total, lat, quotient)
    return lat, qmap


def restrict(M, D):
    """The same module viewed over a subgroup (which becomes the acting group)."""
    if D.parent is not M.group:
        raise GroupMismatch("subgroup does not live in the lattice's group")
    sub, elems = D.as_group()
    act = M.act[np.array(elems, dtype=np.int64)]
    return GLattice(sub, act, label=f"{M.label}|{D.order}", subgroup=D, validate=False)


def twist(M, g):
    """Conjugate module M^g over gHg^{-1}: x acts as g^{-1}xg did on M.

    M must carry an ambient subgroup handle (as produced by `restrict`).
    """
    if M.subgroup is None:
        raise SpecInvalid("twist needs a lattice with an ambient subgroup handle")
    H = M.subgroup
    amb = H.parent
    g = int(g)
    K = H.conjugate(g)
    ginv = int(amb.inv[g])
    pos = {x: i for i, x in enumerate(H.elements)}
    act = np.zeros((K.order, M.rank, M.rank), dtype=np.int64)
    for i, y in enumerate(K.elements):
        act[i] = M.act[pos[amb.conj(ginv, y)]]
    sub, _ = K.as_group()
    return GLattice(sub, act, label=f"{M.label}^g", subgroup=K, validate=False)


def mackey_decompose(G, H, D):
    """Split restrict(Ind_H Z, D) into one coset-permutation block per
    double coset DgH, with the identification as an explicit unimodular
    equivariant map.

    Returns (summands, change_of_basis) where summands is a list of
    (representative g, D ∩ gHg^{-1} as a subgroup of G) and the map goes
    from the restricted induced lattice to the direct sum of the blocks.
    """
    ind, reps = induced_perm_lattice(G, H)
    restricted = restrict(ind, D)
    sub, d_elems = D.as_group()
    d_pos = {x: i for i, x in enumerate(d_elems)}
    hset = set(H.elements)

    summands = []
    blocks = []
    block_cosets = []  # per block: local coset table of DG / I_loc
    dc = double_cosets(G, D, H)
    cls_of = {}
    for bi, (g, cls) in enumerate(dc):
        ginv = int(G.inv[g])
        inter = tuple(sorted(x for x in D.elements if G.conj(ginv, x) in hset))
        I = SubgroupHandle(G, inter)
        I_loc = SubgroupHandle(sub, tuple(d_pos[x] for x in inter))
        blk, _ = induced_perm_lattice(sub, I_loc)
        _, coset_of = coset_table(sub, I_loc)
        summands.append((int(g), I))
        blocks.append(blk)
        block_cosets.append(coset_of)
        for x in cls:
            cls_of[x] = bi

    target = blocks[0]
    offsets = [0]
    for blk in blocks[1:]:
        offsets.append(target.rank)
        target = direct_sum(target, blk)

    # coset xH in the block of DgH maps to the coset dI where d g H = x H
    matrix = np.zeros((target.rank, restricted.rank), dtype=np.int64)
    for col, x in enumerate(reps):
        bi = cls_of[x]
        g = summands[bi][0]
        xcoset = set(G.mul[x, np.array(H.elements, dtype=np.int64)].tolist())
        d = next(dd for dd in D.elements if int(G.mul[dd, g]) in xcoset)
        row = offsets[bi] + int(block_cosets[bi][d_pos[d]])
        matrix[row, col] = 1
    cmap = LatticeMap(restricted, target, matrix)
    return summands, cmap
