"""The normalized bar complex: an independent reference for normone.cohomology.

H^1 and H^2 are the torsion of the cokernels of the bar coboundaries d^0
and d^1, of sizes (n-1) r x r and (n-1)^2 r x (n-1) r for a group of order
n and a lattice of rank r, so use it on small groups only (order <= 24).
The restriction kernel prunes the dset with a loop over the conjugates of
each kept member.  `restriction_lattice` is the per-member route that
normone.cohomology's single stacked kernel replaced: one kernel on each
member's own presentation complex and one lattice intersection per member.
`row_echelon_basis` and `numpy_smith` are the integer kernels that
normone.intmat's candidate-lattice Hermite basis and list-of-ints Smith
reduction replaced: every row through `RowEchelon`, and the same Smith
pivot rule and operations on object arrays.  `bar_table` expands a
degree-2 cocycle of normone.cohomology, given by its relator values, into
the whole n x n bar table, which `restriction_class` restricts to a
subgroup and `cocycle2_defect` checks; `close_dset` is the closed dset as
subgroup handles.
Tests only; nothing in normone imports it.
"""

from __future__ import annotations

import numpy as np

from normone import intmat
from normone.cohomology import (
    CohomologyGroup,
    ShaGroup,
    _coboundary1,
    _maxabs,
    _relator_values,
    dset_members,
)
from normone.finab import FinAb
from normone.groups import cyclic_subgroups
from normone.lattices import restrict


def _nonid(G):
    return [g for g in G.elements() if g != G.identity]


def coboundary0_matrix(M):
    """d^0: M -> C^1, m |-> (g.m - m)_g, stacked over non-identity g."""
    G, r = M.group, M.rank
    nonid = _nonid(G)
    eye = np.eye(r, dtype=np.int64)
    return np.vstack([M.act[g] - eye for g in nonid]) if nonid else np.zeros((0, r), dtype=np.int64)


def apply_coboundary1(M, x):
    """d^1 on a 1-cochain given as an (n-1, r) array (identity row omitted).

    (d^1 f)(g, h) = g.f(h) - f(gh) + f(g), returned as (n-1, n-1, r).
    """
    G, r = M.group, M.rank
    nonid = _nonid(G)
    k = len(nonid)
    xfull = np.zeros((G.order, r), dtype=x.dtype)
    xfull[nonid] = x
    acts = M.act[nonid]  # (k, r, r)
    out = np.einsum("gij,hj->ghi", acts, x)
    prod = G.mul[np.ix_(nonid, nonid)]
    out -= xfull[prod]
    out += x[:, None, :]
    return out


def coboundary1_rows(M, g, pos):
    """Dense d^1 rows for all pairs (g, h), h non-identity: ((n-1)*r, (n-1)*r).

    `pos` maps element index -> position among non-identity elements.
    """
    G, r = M.group, M.rank
    nonid = _nonid(G)
    k = len(nonid)
    rows = np.zeros((k * r, k * r), dtype=np.int64)
    gact = M.act[g]
    gi = pos[g]
    eye = np.eye(r, dtype=np.int64)
    for hi, h in enumerate(nonid):
        blk = slice(hi * r, (hi + 1) * r)
        rows[blk, hi * r : (hi + 1) * r] += gact
        gh = int(G.mul[g, h])
        if gh != G.identity:
            ghi = pos[gh]
            rows[blk, ghi * r : (ghi + 1) * r] -= eye
        rows[blk, gi * r : (gi + 1) * r] += eye
    return rows


def coboundary1_matrix(M):
    """Dense d^1: C^1 -> C^2 as ((n-1)^2 r, (n-1) r); small groups only."""
    G, r = M.group, M.rank
    nonid = _nonid(G)
    pos = {g: i for i, g in enumerate(nonid)}
    if not nonid:
        return np.zeros((0, 0), dtype=np.int64)
    return np.vstack([coboundary1_rows(M, g, pos) for g in nonid])


def cocycle2_defect(M, c):
    """Max |d^2 c| over all triples; 0 iff c is a 2-cocycle.

    c has shape (n, n, r) with identity rows/columns zero.
    """
    G = M.group
    gc = np.einsum("gij,hkj->ghki", M.act, c)  # g.c(h,k)
    t1 = c[G.mul]  # [g,h,k,:] = c(gh, k)
    t2 = c[:, G.mul]  # [g,h,k,:] = c(g, hk)
    defect = gc - t1 + t2 - c[:, :, None, :]
    return int(np.abs(defect).max()) if defect.size else 0


def bar_table(G, z):
    """The bar 2-cochain of relator values z, shape (R, r) -> (n, n, r)."""
    gens, tree, rg, ri = G.presentation
    if _maxabs(z) * G.order < 2**31:  # a walk crosses < n edges; the
        z = z.astype(np.int64)  # cocycle check's g.c(s, h) stays in int64
    edge = np.zeros((G.order, len(gens)) + z.shape[1:], dtype=z.dtype)
    edge[rg, ri] = z
    c = np.zeros((G.order, G.order) + z.shape[1:], dtype=z.dtype)
    for g, i, h in tree:
        c[:, h] = c[:, g] + edge[G.mul[:, g], i]
    return c


def restriction_class(c, D):
    """Restrict a degree-2 bar cocycle table over G to D-local indexing.

    On bar cochains the restriction map is literal function restriction.
    """
    elems = np.array(D.elements, dtype=np.int64)
    return np.asarray(c)[np.ix_(elems, elems)].astype(object)


def close_dset(G, dset):
    """Augment a family of subgroups with all cyclic subgroups, dedupe, sort."""
    seen = {h.elements: h for h in (*dset_members(G, dset), *cyclic_subgroups(G))}
    return sorted(seen.values(), key=lambda h: (h.order, h.elements))


def embed_cochain2(G, arr):
    """Lift an (n-1, n-1, r) normalized table to (n, n, r) with identity zeros."""
    nonid = _nonid(G)
    n = G.order
    r = arr.shape[-1]
    out = np.zeros((n, n, r), dtype=arr.dtype)
    out[np.ix_(nonid, nonid)] = arr
    return out


def embed_cochain1(G, arr):
    nonid = _nonid(G)
    out = np.zeros((G.order, arr.shape[-1]), dtype=arr.dtype)
    out[nonid] = arr
    return out


def _torsion_with_generators(A_rowstream, ncols, apply_op):
    """Torsion of the cokernel of an operator fed as row chunks.

    A_rowstream yields row chunks of the matrix A; apply_op(vec) computes
    A @ vec exactly (object ints welcome).  Returns (orders, vectors) where
    vectors[i] = (A V e_i)/orders[i] lives in the codomain.
    """
    reducer = intmat.RowEchelon(ncols)
    for chunk in A_rowstream:
        if chunk.size:
            reducer.add_rows(chunk)
    R = reducer.matrix()
    if R.shape[0] == 0:
        return [], []
    diag, _, V, _ = intmat.smith(R, want_v=True)
    orders, vecs = [], []
    for i, d in enumerate(diag):
        if d <= 1:
            continue
        w = V[:, i]
        img = np.array(apply_op(w), dtype=object)
        q = img // d
        if np.any(img - q * d):  # impossible if the reduction is sound
            raise ArithmeticError("generator extraction produced a non-integral vector")
        orders.append(int(d))
        vecs.append(q)
    return orders, vecs


def cohomology(G, M, degree):
    """H^degree(G, M) for degree 1 or 2 by the normalized bar complex."""
    assert M.group is G and degree in (1, 2)
    r = M.rank
    nonid = _nonid(G)
    k = len(nonid)

    if r == 0 or k == 0:
        return CohomologyGroup(degree, G, M, structure=FinAb.trivial())

    if degree == 1:
        A = coboundary0_matrix(M)
        orders, vecs = _torsion_with_generators(
            iter([A]), r, lambda w: np.array(A, dtype=object) @ w
        )
        gens = [embed_cochain1(G, v.reshape(k, r)) for v in vecs]
        return CohomologyGroup(1, G, M, structure=FinAb(tuple(orders)), generators=gens)

    pos = {g: i for i, g in enumerate(nonid)}

    def rowstream():
        for g in nonid:
            yield coboundary1_rows(M, g, pos)

    def apply_op(w):
        x = np.array(w, dtype=object).reshape(k, r)
        return apply_coboundary1(M, x).reshape(-1)

    orders, vecs = _torsion_with_generators(rowstream(), k * r, apply_op)
    gens = []
    for v in vecs:
        c = embed_cochain2(G, v.reshape(k, k, r))
        if cocycle2_defect(M, c):
            raise ArithmeticError("extracted generator is not a cocycle")
        gens.append(c)
    return CohomologyGroup(2, G, M, structure=FinAb(tuple(orders)), generators=gens)


def is_coboundary(D, M, c):
    """Decide whether a 2-cocycle over D bounds; return (flag, witness).

    `c` uses D-local element indexing, shape (|D|, |D|, rank); `M` is the
    ambient G-lattice (it is restricted internally).  The witness is a
    normalized 1-cochain b with d^1 b = c, in D-local indexing.
    """
    RM = restrict(M, D) if M.group is D.parent else M
    sub = RM.group
    r = RM.rank
    nonid = _nonid(sub)
    k = len(nonid)
    c = np.asarray(c)
    if c.shape != (sub.order, sub.order, r):
        raise ValueError("cocycle table has wrong shape")
    if k == 0 or r == 0:
        ok = not np.any(c)
        return ok, (np.zeros((sub.order, r), dtype=object) if ok else None)
    A = coboundary1_matrix(RM)
    rhs = np.array(c, dtype=object)[np.ix_(nonid, nonid)].reshape(-1)
    x = intmat.solve(A, rhs)
    if x is None:
        return False, None
    return True, embed_cochain1(sub, x.reshape(k, r))


def lattice_intersect(B1, B2):
    """Basis (columns) of the intersection of two column lattices in Z^N."""
    B1 = np.array(B1, dtype=object)
    B2 = np.array(B2, dtype=object)
    if B1.shape[1] == 0 or B2.shape[1] == 0:
        return np.zeros((B1.shape[0], 0), dtype=object)
    stacked = np.hstack([B1, -B2])
    K = intmat.kernel_basis(stacked)
    inter = B1 @ K[: B1.shape[1], :]
    return intmat.column_lattice_basis(inter)


def _effective_dset(G, closed):
    """Prune the closed family for the kernel computation.

    Restriction kernels agree on conjugate subgroups, and a subgroup
    contained in another member imposes a weaker condition, so only
    maximal members up to conjugacy matter.
    """
    canon = {}
    for h in closed:
        c = h.canonical_conjugate()
        canon[c.elements] = c
    members = sorted(canon.values(), key=lambda h: (-h.order, h.elements))
    kept = []
    for h in members:
        if any(k.contains_subgroup(h) for k in kept):
            continue
        # also drop if contained in a conjugate of a kept member
        absorbed = False
        for k in kept:
            if h.order <= k.order:
                for g in G.elements():
                    if k.conjugate(g).contains_subgroup(h):
                        absorbed = True
                        break
            if absorbed:
                break
        if not absorbed:
            kept.append(h)
    return kept


def sha(G, M, dset, base=None):
    """The subgroup of H^2(G, M) killed by restriction to every member of
    the closed dset (user-supplied members plus all cyclic subgroups).

    `base` may pass in this module's H^2(G, M), to reuse it across dsets.
    """
    if base is None:
        base = cohomology(G, M, 2)
    raw = list(dset)
    closed = close_dset(G, raw)
    orders = list(base.structure.factors)
    kcount = len(orders)
    if kcount == 0:
        return ShaGroup(base, raw, FinAb.trivial(), [])

    lam0 = np.zeros((kcount, kcount), dtype=object)
    for i, d in enumerate(orders):
        lam0[i, i] = d

    lattice = np.eye(kcount, dtype=object)
    for D in _effective_dset(G, closed):
        if D.order == G.order:
            cond = lam0
        elif D.order == 1:
            continue
        else:
            RM = restrict(M, D)
            sub = RM.group
            nonid = _nonid(sub)
            kd = len(nonid)
            if kd == 0 or RM.rank == 0:
                continue
            A = coboundary1_matrix(RM)
            cols = []
            for c in base.generators:
                local = np.array(c, dtype=object)[np.ix_(D.elements, D.elements)]
                cols.append(local[np.ix_(nonid, nonid)].reshape(-1))
            C = np.stack(cols, axis=1)
            combined = np.hstack([C, A.astype(object)])
            K = intmat.kernel_basis(combined)
            cond = intmat.column_lattice_basis(K[:kcount, :])
        lattice = lattice_intersect(lattice, cond)

    qorders, qgens = intmat.quotient_group(lattice, lam0)
    structure = FinAb.from_factors(qorders)
    gens = []
    for coeff in qgens:
        c = np.zeros_like(np.array(base.generators[0], dtype=object))
        for a, d, gen in zip(coeff, orders, base.generators):
            a = int(a) % d  # d * [gen] vanishes, so reduce for small entries
            c = c + a * np.array(gen, dtype=object)
        gens.append(c)
    return ShaGroup(base, raw, structure, gens)


def restriction_lattice(G, M, base, dset):
    """Hermite basis of the coefficient lattice of the kernel of restriction
    from `base` = H^2(G, M) (normone's generators) to every member of the
    closed dset, member by member: for each D of `_effective_dset`, the
    kernel of [C_D | d^1_D] on D's own presentation complex, C_D read from
    the restricted whole bar table of each generator, projected onto
    the H^2 coordinates, intersected with the conditions so far.
    """
    kcount = len(base.generators)
    lam0 = np.diag(np.array(base.structure.factors, dtype=object))
    lattice = np.eye(kcount, dtype=object)
    for D in _effective_dset(G, close_dset(G, list(dset))):
        if D.order == G.order:
            cond = lam0
        elif D.order == 1:
            continue
        else:
            RM = restrict(M, D)
            gens = list(RM.group.presentation[0])
            C = np.stack(
                [_relator_values(RM.group, restriction_class(bar_table(G, c), D)[:, gens]).reshape(-1)
                 for c in base.generators],
                axis=1,
            )
            K = intmat.kernel_basis(np.hstack([C, _coboundary1(RM).astype(object)]))
            cond = intmat.column_lattice_basis(K[:kcount, :])
        lattice = lattice_intersect(lattice, cond)
    return lattice


def row_echelon_basis(A):
    """The Hermite basis of the row lattice of A, every row through `RowEchelon`."""
    A = np.asarray(A)
    acc = intmat.RowEchelon(A.shape[1])
    if A.size:
        acc.add_rows(A)
    return acc.matrix()


def numpy_smith(A, want_uinv=False, want_v=False, carry=None):
    """`intmat.smith` on object arrays: the same pivot rule and operations."""
    A = np.array(A, dtype=object)
    if A.ndim != 2:
        raise ValueError("smith expects a 2-d matrix")
    m, n = A.shape
    Uinv = np.eye(m, dtype=object) if want_uinv else None
    V = np.eye(n, dtype=object) if want_v else None
    C = None
    if carry is not None:
        C = np.array(carry, dtype=object)
        if C.ndim == 1:
            C = C.reshape(-1, 1)
        if C.shape[0] != m:
            raise ValueError("carry must have as many rows as A")

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] -= q * A[j]
        if C is not None:
            C[i] -= q * C[j]
        if Uinv is not None:
            Uinv[:, j] += q * Uinv[:, i]

    def col_op(i, j, q):  # col_i -= q * col_j
        A[:, i] -= q * A[:, j]
        if V is not None:
            V[:, i] -= q * V[:, j]

    def row_swap(i, j):
        A[[i, j]] = A[[j, i]]
        if C is not None:
            C[[i, j]] = C[[j, i]]
        if Uinv is not None:
            Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def col_swap(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        if V is not None:
            V[:, [i, j]] = V[:, [j, i]]

    def row_negate(i):
        A[i] = -A[i]
        if C is not None:
            C[i] = -C[i]
        if Uinv is not None:
            Uinv[:, i] = -Uinv[:, i]

    k = 0
    while k < min(m, n):
        sub = A[k:, k:]
        nzr, nzc = np.nonzero(sub)
        if nzr.size == 0:
            break
        vals = np.abs(sub[nzr, nzc])
        best = int(np.argmin(vals))
        pi, pj = int(nzr[best]) + k, int(nzc[best]) + k
        if pi != k:
            row_swap(k, pi)
        if pj != k:
            col_swap(k, pj)
        while True:
            if int(A[k, k]) < 0:
                row_negate(k)
            pivot = int(A[k, k])
            clean = True
            for i in range(k + 1, m):
                if A[i, k]:
                    row_op(i, k, int(A[i, k]) // pivot)
                    if A[i, k]:
                        row_swap(k, i)
                        clean = False
                        break
            if not clean:
                continue
            for j in range(k + 1, n):
                if A[k, j]:
                    col_op(j, k, int(A[k, j]) // pivot)
                    if A[k, j]:
                        col_swap(k, j)
                        clean = False
                        break
            if clean:
                break
        pivot = int(A[k, k])
        if pivot != 1:
            block = A[k + 1:, k + 1:]
            if block.size:
                bad_rows = np.nonzero(np.mod(block, pivot).any(axis=1))[0]
                if bad_rows.size:
                    row_op(k, k + 1 + int(bad_rows[0]), -1)
                    continue
        k += 1

    diag = [abs(int(A[i, i])) for i in range(min(m, n)) if A[i, i]]
    return diag, Uinv, V, C
