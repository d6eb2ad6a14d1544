"""Brute-force integer group cohomology on the Cayley-graph presentation complex.

Degrees 0, 1, 2 only.  `G.presentation` is a generating set s_1..s_k (a
pair wherever a bounded search finds one, else `G.gens`) with the
breadth-first spanning tree of its Cayley graph.  That gives a presentation
with one relator w(g) s_i w(g s_i)^{-1} per non-tree edge (g, i), w(g) being
the tree word of g (Brown, *Cohomology of Groups*, ch. II-IV).  So
C^1 = M^k, C^2 = M^R with R = nk - n + 1, d^0 m = (s_i m - m)_i, and by
Fox calculus (d^1 f)(g, i) = P_g f + g f_i - P_{g s_i} f, where P_1 = 0
and P_{g s_i} = P_g + g [block i] along tree edges.  H^j is the torsion
of coker(d^{j-1}): Z^j is saturated and Z^j/B^j is finite, so no d^2 is
needed.

Explicit generating cocycles come out of the Smith transform: if
U A V = D, the columns (A V e_i)/d_i are integral cocycles whose classes
have exactly the orders d_i and generate the torsion.  In degree 1 they are
reported as normalized bar cochains, in degree 2 as their relator values,
shape (R, r); they lie in the image of d^1 over Q, so d^2 kills them.  A
bar value c(g, h) is read only where needed (`_bar_values`): it sums the
relator values over the non-tree edges crossed by the walk of w(h) from g.
Back from a bar 2-cochain, relator (g, i) takes Phi(w(g) s_i) - Phi(w(g s_i)),
where Phi(x_1...x_m) = sum_l c(x_1...x_l, x_{l+1}).

The restriction kernel `sha` needs only the maximal members of the dset up
to conjugacy.  A cyclic member <g> of order m is restricted through the
one-relator presentation <g | g^m>, whose d^1 is the norm sum_i g^i and
whose relator value is sum_i c(g^i, g), so it needs no subgroup group and
no restricted lattice.  All members' conditions are solved as one kernel of
a block-diagonal stack.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, EmptyFamily, GroupMismatch, NotCyclic
from .finab import FinAb
from .groups import abelianization, cyclic_subgroup_elements
from .lattices import restrict
from . import intmat

DEFAULT_COCHAIN_BUDGET = 200_000


def _maxabs(a):
    return int(np.abs(a).max()) if a.size else 0


def _check_budget(G, rank, degree, budget):
    n, k = G.order, len(G.presentation[0])
    cells = (1, k, n * k - n + 1)[degree]
    cols = max(cells, 1) * max(rank, 1)
    if cols > budget:
        raise BudgetExceeded(
            f"cochain space of dimension {cols} exceeds budget {budget}",
            sizes={"columns": cols, "budget": budget, "order": G.order, "rank": rank},
        )


def _coboundary0(M):
    """d^0 as a (k r, r) int64 matrix of the blocks s_i - 1 (one zero block if k = 0)."""
    G = M.group
    eye = np.eye(M.rank, dtype=np.int64)
    return np.vstack([M.act[s] - eye for s in G.presentation[0] or (G.identity,)])


def _coboundary1(M):
    """Dense d^1 as an (R r, k r) int64 matrix."""
    G, r = M.group, M.rank
    gens, tree, rg, ri = G.presentation
    k = len(gens)
    P = np.zeros((G.order, r, k * r), dtype=np.int64)
    for g, i, h in tree:
        P[h] = P[g]
        P[h, :, i * r:(i + 1) * r] += M.act[g]
    d1 = P[rg] - P[G.mul[rg, np.array(gens)[ri]]]
    for i in range(k):
        sel = ri == i
        d1[sel, :, i * r:(i + 1) * r] += M.act[rg[sel]]
    return d1.reshape(-1, k * r)


def _bar_values(G, Z, x, y):
    """c(x_j, y_j) of the bar 2-cochain whose relator values are Z, shape (R, ...).

    The walk of w(y) from x crosses the edge (x g, i) for each tree edge
    (g, i, h) on the path from 1 to y; c(x, y) sums Z over the non-tree
    ones.  All pairs climb the tree from y at once; the identity is its own
    parent, through a column of `slot` that reads a zero row.
    """
    gens, tree, rg, ri = G.presentation
    n, k, R = G.order, len(gens), len(rg)
    slot = np.full((n, k + 1), R)
    slot[rg, ri] = np.arange(R)
    Z = np.concatenate([Z, np.zeros((1,) + Z.shape[1:], dtype=Z.dtype)])
    up, step = np.full(n, G.identity), np.full(n, k)
    for g, i, h in tree:
        up[h], step[h] = g, i
    x, y = np.asarray(x), np.asarray(y)
    c = np.zeros((len(y),) + Z.shape[1:], dtype=Z.dtype)
    while (y != G.identity).any():
        c += Z[slot[G.mul[x, up[y]], step[y]]]
        y = up[y]
    return c


def _relator_values(G, cs):
    """Relator values Phi(w(g) s_i) - Phi(w(g s_i)) of a bar 2-cochain c,
    from its values cs[g, i] = c(g, s_i) on the presentation generators."""
    gens, tree, rg, ri = G.presentation
    U = np.zeros((G.order,) + cs.shape[2:], dtype=cs.dtype)  # U(g) = Phi(w(g))
    for g, i, h in tree:
        U[h] = U[g] + cs[g, i]
    return U[rg] + cs[rg, ri] - U[G.mul[rg, np.array(gens)[ri]]]


def _bar_coboundary(M, b):
    """(d b)(g, h) = g.b(h) - b(gh) + b(g) for a bar 1-cochain b of shape (n, r)."""
    gb = np.matmul(M.act, b.T).transpose(0, 2, 1)  # [g, h] = g.b(h)
    return gb - b[M.group.mul] + b[:, None, :]


class CohomologyGroup:
    """H^j(G, M) for j in {0, 1, 2} with explicit generating cocycles.

    Degree 0 carries the free rank and a basis of the fixed sublattice;
    degrees 1 and 2 carry a FinAb structure together with one generating
    cocycle per invariant factor (generators[i] has order structure[i]):
    in degree 1 a normalized bar cochain of shape (n, r), in degree 2 its
    values on the relators of `G.presentation`, shape (R, r).
    """

    __slots__ = ("degree", "group", "lattice", "structure", "free_rank", "generators")

    def __init__(self, degree, group, lattice, structure=None, free_rank=None, generators=()):
        self.degree = degree
        self.group = group
        self.lattice = lattice
        self.structure = structure
        self.free_rank = free_rank
        self.generators = list(generators)

    def __repr__(self):
        if self.degree == 0:
            return f"H^0 = Z^{self.free_rank}"
        return f"H^{self.degree} = {self.structure}"


def fixed_sublattice(M):
    """Basis (columns) of M^G, the fixed sublattice."""
    return intmat.kernel_basis(_coboundary0(M))


def _torsion_with_generators(A, image):
    """Torsion of coker(A) with one generating cochain per invariant factor.

    image @ w is the cochain that A w represents (A itself, or all of its
    values).  Returns (orders, vectors), vectors[i] = image V e_i / orders[i].
    """
    R = intmat.row_lattice_basis(A)
    if R.shape[0] == 0:
        return [], []
    diag, _, V, _ = intmat.smith(R, want_v=True)
    orders, vecs = [], []
    for i, d in enumerate(diag):
        if d <= 1:
            continue
        w = V[:, i]
        if _maxabs(image) * sum(abs(int(x)) for x in w) < 2**62:
            w = w.astype(np.int64)  # no partial sum can overflow
        img = np.array(image @ w, dtype=object)
        q = img // d
        if np.any(img - q * d):  # impossible if the reduction is sound
            raise ArithmeticError("generator extraction produced a non-integral vector")
        orders.append(int(d))
        vecs.append(q)
    return orders, vecs


def cohomology(G, M, degree, budget=DEFAULT_COCHAIN_BUDGET):
    """H^degree(G, M) on the Cayley-graph presentation complex, exactly over Z."""
    if M.group is not G:
        raise GroupMismatch("lattice is not defined over the given group")
    if degree not in (0, 1, 2):
        raise ValueError("only degrees 0, 1, 2 are supported")
    _check_budget(G, M.rank, degree, budget)
    r = M.rank

    if degree == 0:
        basis = fixed_sublattice(M)
        return CohomologyGroup(
            0, G, M, free_rank=int(basis.shape[1]),
            generators=[basis[:, i] for i in range(basis.shape[1])],
        )

    if r == 0 or G.order == 1:
        return CohomologyGroup(degree, G, M, structure=FinAb.trivial())

    if degree == 1:
        # the crossed homomorphism g |-> (g - 1) w / d extends (d^0 w) / d
        eye = np.eye(r, dtype=np.int64)
        orders, vecs = _torsion_with_generators(_coboundary0(M), (M.act - eye).reshape(-1, r))
        gens = [v.reshape(G.order, r) for v in vecs]
        return CohomologyGroup(1, G, M, structure=FinAb(tuple(orders)), generators=gens)

    d1 = _coboundary1(M)
    orders, vecs = _torsion_with_generators(d1, d1)
    gens = [v.reshape(-1, r) for v in vecs]
    return CohomologyGroup(2, G, M, structure=FinAb(tuple(orders)), generators=gens)


def is_coboundary(D, M, c):
    """Decide whether a 2-cocycle over D bounds; return (flag, witness).

    `c` is a bar table in D-local element indexing, shape (|D|, |D|, rank);
    `M` is the ambient G-lattice (it is restricted internally).  The
    relator values of c, read from c(g, s) for the presentation generators
    s, are solved against d^1 of D's presentation complex,
    and the witness, a normalized bar 1-cochain b with d b = c in D-local
    indexing, is rebuilt along the spanning tree by
    b(g s) = g.b(s) + b(g) - c(g, s) and checked exactly.
    """
    RM = restrict(M, D) if M.group is D.parent else M
    sub, r = RM.group, RM.rank
    c = np.asarray(c)
    if c.shape != (sub.order, sub.order, r):
        raise ValueError("cocycle table has wrong shape")
    if sub.order == 1 or r == 0:
        ok = not np.any(c)
        return ok, (np.zeros((sub.order, r), dtype=object) if ok else None)
    c = np.array(c, dtype=object)
    gens, tree, _, _ = sub.presentation
    cs = c[:, list(gens)]
    f = intmat.solve(_coboundary1(RM), _relator_values(sub, cs).reshape(-1))
    if f is None:
        return False, None
    f = f.reshape(len(gens), r)
    b = np.zeros((sub.order, r), dtype=object)
    for g, i, h in tree:
        b[h] = RM.act[g] @ f[i] + b[g] - cs[g, i]
    if np.any(_bar_coboundary(RM, b) != c):  # c is not even a cocycle
        return False, None
    return True, b


def tate_cyclic(D, M, j):
    """Tate cohomology of a cyclic group, period 2.

    Even j: (fixed points)/(norm image); odd j: ker(norm)/im(sigma - 1),
    where sigma is the least generator of the acting cyclic group.  M must
    be defined over D itself (e.g. produced by `restrict`).
    """
    sub = M.group
    if sub.order != D.order:
        raise GroupMismatch("lattice is not defined over the cyclic subgroup")
    if not D.is_cyclic:
        raise NotCyclic("subgroup is not cyclic")
    n, r = sub.order, M.rank
    if r == 0:
        return FinAb.trivial()
    sigma = next(g for g in sub.elements() if sub.element_order(g) == n)
    A = M.act[sigma].astype(object)
    eye = np.eye(r, dtype=object)
    norm = np.zeros((r, r), dtype=object)
    power = eye
    for _ in range(n):
        norm += power
        power = A @ power
    diff = A - eye
    if int(j) % 2 == 0:
        K = intmat.kernel_basis(diff)
        image = norm
    else:
        K = intmat.kernel_basis(norm)
        image = diff
    if K.shape[1] == 0:
        return FinAb.trivial()
    image = intmat.column_lattice_basis(image)
    X = intmat.solve_many(K, image)
    if X is None:  # the image always lies in the kernel
        raise ArithmeticError("norm/difference image escaped its kernel")
    diag, _, _, _ = intmat.smith(X)
    if len(diag) < K.shape[1]:
        raise ArithmeticError("cyclic quotient is not finite")
    return FinAb.from_factors([d for d in diag if d > 1])


class ShaGroup:
    """Kernel of total restriction on H^2 against a closed family of subgroups."""

    __slots__ = ("base", "dset_raw", "structure", "generators")

    def __init__(self, base, dset_raw, structure, generators):
        self.base = base
        self.dset_raw = list(dset_raw)
        self.structure = structure
        self.generators = list(generators)

    def __repr__(self):
        return f"Sha^2 = {self.structure}"


def dset_members(G, dset):
    """The dset as a list, after checking that every member lives in G."""
    dset = list(dset)
    if any(h.parent is not G for h in dset):
        raise GroupMismatch("dset member lives in a different group")
    return dset


def closed_dset_elements(G, dset):
    """The element tuples of the closed dset: the family augmented with all
    cyclic subgroups, deduplicated and sorted by (order, elements)."""
    closed = {*(h.elements for h in dset_members(G, dset)), *cyclic_subgroup_elements(G)}
    return sorted(closed, key=lambda e: (len(e), e))


def _restriction_members(G, dset):
    """The members whose restriction conditions cut out Sha, up to conjugacy.

    Restriction kernels agree on conjugate subgroups, and a member inside a
    conjugate of another imposes a weaker condition, so only maximal members
    up to conjugacy matter.  The user's non-cyclic members are pruned by
    containment of conjugates, larger first.  Every cyclic subgroup lies in a
    maximal cyclic one, <x> for an x that is no power of an element of larger
    order.  <x> and <y> are conjugate iff a generator of <x> is conjugate to
    one of <y>, so the least class element over the generators of <x> names
    it up to conjugacy; and <x> lies in a conjugate of a kept member K iff the
    class of x meets K.  Returns the generators of the cyclic members (the
    least one of each conjugacy class of subgroups) and the non-cyclic members.
    """
    canon = {}
    for h in dset:
        if not h.is_cyclic:
            c = h.canonical_conjugate()
            canon[c.elements] = c
    kept = []
    for h in sorted(canon.values(), key=lambda h: (-h.order, h.elements)):
        # drop h if a conjugate of it lies in a kept member
        conjugates = h.conjugates()
        if not any(k.mask[conjugates].all(axis=1).any() for k in kept):
            kept.append(h)
    orders, powers = G.element_orders, G.powers
    proper = np.zeros(G.order, dtype=bool)  # powers of elements of larger order
    proper[powers[orders[powers] < orders[:, None]]] = True
    least = G.mul[G.mul, G.inv[:, None]].min(axis=0)  # least element of each class
    covered = np.zeros(G.order, dtype=bool)  # classes meeting a kept member
    for K in kept:
        covered[least[list(K.elements)]] = True
    key = np.where(orders[powers] == orders[:, None], least[powers], G.order).min(axis=1)
    cyclic = {}
    for x in np.flatnonzero(~proper & ~covered[least] & (orders > 1)).tolist():
        cyclic.setdefault(int(key[x]), x)
    return list(cyclic.values()), kept


def _restriction_lattice(G, M, base, dset):
    """Hermite basis (columns) of the coefficient vectors a for which
    sum_j a_j c_j, over the generators c_j of `base` = H^2(G, M), restricts
    to 0 on every member of the closed dset.

    Restriction to a cyclic member D = <g> of order m goes through the
    presentation <g | g^m>: its d^1 is the norm N = sum_i g^i and the relator
    value of a bar cocycle c is z = sum_i c(g^i, g), so H^2(D, M) = M^D / N M
    and c restricts to 0 iff z lies in N M.  A non-cyclic member D is
    restricted to its own presentation complex: the relator values C_D of
    the generators, read from c(a, s) for a in D and s among D's
    presentation generators, against D's d^1.  The bar values come from
    `_bar_values` on the stacked generators, one climb for all cyclic
    members and one per non-cyclic member.  The blocks [z_j | N] and
    [C_D | d^1_D] share the columns of a and each have their own for a
    1-cochain f_D, so one kernel of the block-diagonal stack, projected
    onto a, is the intersection over all members at once.
    """
    kcount = len(base.generators)
    cyclic, noncyclic = _restriction_members(G, dset)
    if any(D.order == G.order for D in noncyclic):  # restriction to G is injective
        return np.diag(np.array(base.structure.factors, dtype=object))
    Z = np.stack(base.generators, axis=-1)  # (R, r, kcount)
    if _maxabs(Z) * 2 * G.order**2 < 2**63:  # each value below sums < 2n^2 entries of Z
        Z = Z.astype(np.int64)
    blocks = []  # (relator values of the generators, d^1 of the member)
    cycles = [G.powers[g, : G.element_orders[g]] for g in cyclic]
    if cycles:
        sizes = [len(cyc) for cyc in cycles]
        values = _bar_values(G, Z, np.concatenate(cycles), np.repeat(cyclic, sizes))
        for cyc, v in zip(cycles, np.split(values, np.cumsum(sizes)[:-1])):
            blocks.append((v.sum(axis=0), M.act[cyc].sum(axis=0)))
    for D in noncyclic:
        RM = restrict(M, D)
        sub, elems = RM.group, np.array(D.elements)
        gens = elems[list(sub.presentation[0])]
        cs = _bar_values(G, Z, np.repeat(elems, len(gens)), np.tile(gens, sub.order))
        cs = cs.reshape(sub.order, len(gens), *Z.shape[1:])
        blocks.append((_relator_values(sub, cs).reshape(-1, kcount), _coboundary1(RM)))
    rows = sum(C.shape[0] for C, _ in blocks)
    cols = kcount + sum(d1.shape[1] for _, d1 in blocks)
    stack = np.zeros((rows, cols), dtype=np.result_type(*(x for b in blocks for x in b)))
    i, j = 0, kcount
    for C, d1 in blocks:
        stack[i : i + C.shape[0], :kcount] = C
        stack[i : i + C.shape[0], j : j + d1.shape[1]] = d1
        i, j = i + C.shape[0], j + d1.shape[1]
    return intmat.column_lattice_basis(intmat.kernel_basis(stack)[:kcount])


def sha(G, M, dset, budget=DEFAULT_COCHAIN_BUDGET):
    """The subgroup of H^2(G, M) killed by restriction to every member of
    the closed dset (user-supplied members plus all cyclic subgroups).

    The members are pruned to the maximal ones up to conjugacy by element
    data (`_restriction_members`).  A cyclic member <g> of order m is
    restricted through <g | g^m> (H^2(<g>, M) = M^<g> / N M, N the norm),
    a non-cyclic one through its own presentation complex, and one kernel
    of the stacked conditions of all members (`_restriction_lattice`)
    gives the coefficient lattice of the kernel.  Its quotient by the
    orders of the H^2 generators is Sha, whose generators are sums of the
    H^2 generators in relator form.
    """
    base = cohomology(G, M, 2, budget)
    raw = dset_members(G, dset)
    orders = list(base.structure.factors)
    if not orders:
        return ShaGroup(base, raw, FinAb.trivial(), [])
    lattice = _restriction_lattice(G, M, base, raw)
    qorders, qgens = intmat.quotient_group(lattice, np.diag(np.array(orders, dtype=object)))
    structure = FinAb.from_factors(qorders)
    sizes = [_maxabs(gen) for gen in base.generators]
    gens = []
    for coeff in qgens:
        coeff = [int(a) % d for a, d in zip(coeff, orders)]  # d * [gen] vanishes
        # no partial sum exceeds sum_j a_j max|gen_j|: int64 where that fits
        exact = sum(a * m for a, m in zip(coeff, sizes)) < 2**63
        c = np.zeros(base.generators[0].shape, dtype=np.int64 if exact else object)
        for a, gen in zip(coeff, base.generators):
            if a:
                c += a * np.asarray(gen, dtype=c.dtype)
        gens.append(c)
    return ShaGroup(base, raw, structure, gens)


def h1_character_kernel(G, pairs):
    """H^1 of the norm-one lattice computed from characters alone.

    It is the kernel of restriction from the character group of G to the
    direct sum of the character groups of the H_i (multiplicities are
    irrelevant).  Must agree with `cohomology(G, M, 1)` on the same family.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyFamily("at least one subgroup is required")
    abG, proj = abelianization(G)
    ds = list(abG.factors)
    J = len(ds)
    if J == 0:
        return FinAb.trivial()
    L = abG.exponent
    rows = []
    seen = set()
    for H, _ in pairs:
        if H.elements in seen:
            continue
        seen.add(H.elements)
        for h in H.elements:
            row = [(L // ds[j]) * proj[h][j] for j in range(J)]
            if any(row):
                rows.append(row)
    lam = np.zeros((J, J), dtype=object)
    for j, d in enumerate(ds):
        lam[j, j] = d
    if not rows:
        sol = np.eye(J, dtype=object)
    else:
        Mrow = np.array(rows, dtype=object)
        combined = np.hstack([Mrow, -L * np.eye(Mrow.shape[0], dtype=object)])
        K = intmat.kernel_basis(combined)
        sol = intmat.column_lattice_basis(np.hstack([K[:J, :], lam]))
    qorders, _ = intmat.quotient_group(sol, lam)
    return FinAb.from_factors(qorders)
