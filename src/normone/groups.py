"""Finite-group engine: construction, subgroup primitives, Sylow subgroups.

Groups are realized by full multiplication tables over element indices
0..n-1 (orders <= 512 by default), so every downstream computation gets
constant-time multiplication.  The subgroup primitives (subgroup checks,
conjugates, cores, normalizers, centralizers, commutators, cyclic
subgroups) are whole-table numpy gathers over `mul` and `inv`, such as
`mul[mul[:, H], inv[:, None]]` for all conjugates of H at once.  One
saturation search, `subgroup_classes`, enumerates subgroups up to
conjugacy with one join per double coset R y R of each nontrivial
representative R (<R, s y^k s'> = <R, y> for s, s' in R and k prime to the
order of y; the trivial R's joins are the cyclic subgroups, found first).
A join grows from R: it is the subgroup R<y> when y normalises R, else a
closure seeded with R and R y, closed under every generator.  One
conjugation pass per class gives N(R) and one conjugate per coset g N(R)
(g R g^-1 depends only on that coset): the set of the conjugates of the
classes found so far tells whether a subgroup starts a new class, and at
the end it holds every subgroup, which `all_subgroups` and the GL_2 scan
of `reps` read.  One greedy growth, `_grow_subgroup`, finds a subgroup maximal among
those of order dividing a given number: a Sylow subgroup, or a complement
of a normal Sylow subgroup.  All values are immutable after construction
and the operations are pure functions; deterministic tie-breaking (least
element index, lexicographic element lists) is used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BudgetExceeded,
    NotPrime,
    OrderBudgetExceeded,
    PreconditionFailed,
    SpecInvalid,
)
from .finab import FinAb
from . import intmat

DEFAULT_ORDER_BUDGET = 512
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def is_prime(p):
    """Exact primality below 3.1e23 (so for every int64): Miller-Rabin on 2..37.

    The bound is the least strong pseudoprime to all twelve bases (OEIS
    A014233; Sorenson and Webster, Math. Comp. 2017).
    """
    p = int(p)
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    if p >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {p} is not decided exactly")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FiniteGroup:
    """Explicit finite group: multiplication table plus element indexing."""

    __slots__ = (
        "order", "mul", "inv", "identity", "label", "gens",
        "_orders", "_powers", "_tree", "_presentation", "_cyclic", "_cyclic_handles",
    )

    def __init__(self, mul, identity, label="", gens=None, validate=True):
        mul = np.asarray(mul, dtype=np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise SpecInvalid("multiplication table must be square")
        self.order = int(mul.shape[0])
        self.mul = mul
        self.identity = int(identity)
        self.label = label
        self._orders = None
        self._powers = None
        self._tree = self._presentation = None
        self._cyclic = self._cyclic_handles = None
        hits = mul == self.identity
        bad = np.flatnonzero(hits.sum(axis=1) != 1)
        if bad.size:
            raise SpecInvalid(f"element {bad[0]} has no unique right inverse")
        self.inv = hits.argmax(axis=1)
        if validate:
            self._validate_identity()
        if gens is None:
            gens = self._greedy_generators()
        self.gens = tuple(int(g) for g in gens)
        if validate:
            self._validate_associativity()

    def _validate_identity(self):
        n, mul, e = self.order, self.mul, self.identity
        if not (mul[e] == np.arange(n)).all() or not (mul[:, e] == np.arange(n)).all():
            raise SpecInvalid("identity is not two-sided")
        for g in range(n):
            if mul[self.inv[g], g] != e:
                raise SpecInvalid(f"inv[{g}] is not a left inverse")

    def _validate_associativity(self):
        """Light's test: (x s) y = x (s y) for every generator s and all x, y.

        Exact: the elements s passing it are closed under products, and
        every element is a product of the generators.
        """
        mul = self.mul
        if len(self.cayley_tree[0]) != self.order - 1:
            raise SpecInvalid("the generators do not generate the table")
        for s in self.gens:
            if not (mul[mul[:, s], :] == mul[:, mul[s, :]]).all():
                raise SpecInvalid("multiplication table is not associative")

    def _greedy_generators(self):
        gens = []
        current = {self.identity}
        while len(current) < self.order:
            g = min(x for x in range(self.order) if x not in current)
            gens.append(g)
            current = set(closure_elements(self.mul, self.identity, gens, start=current))
        return gens

    def conj(self, g, x):
        """g x g^{-1}"""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def element_order(self, x):
        return int(self.element_orders[x])

    @property
    def element_orders(self):
        if self._orders is None:
            orders = np.zeros(self.order, dtype=np.int64)
            for g in range(self.order):
                k, acc = 1, g
                while acc != self.identity:
                    acc = int(self.mul[acc, g])
                    k += 1
                orders[g] = k
            self._orders = orders
        return self._orders

    @property
    def powers(self):
        """The power table (see `_power_table`), computed once per group."""
        if self._powers is None:
            self._powers = _power_table(self)
        return self._powers

    @property
    def cayley_tree(self):
        """`_spanning_tree` on `gens`, computed once per group."""
        if self._tree is None:
            self._tree = _spanning_tree(self.mul, self.identity, self.gens)
        return self._tree

    @property
    def presentation(self):
        """(gens, tree, rel_g, rel_i): the generating set that the cohomology
        complex reads, with its `_spanning_tree`: `gens` if it has at most two
        elements, else a pair from `_generating_pair` if one is found, else
        `gens`.  k generators give n k - n + 1 relators."""
        if self._presentation is None:
            pair = self._generating_pair() if len(self.gens) > 2 else None
            self._presentation = pair or (self.gens, *self.cayley_tree)
        return self._presentation

    def _generating_pair(self, tries=64):
        """(gens, tree, rel_g, rel_i) for a generating pair, or None.

        Deterministic, and bounded to `tries` spanning trees: x runs over
        the elements of maximal order, y over the elements outside <x> by
        decreasing order, each once per cyclic subgroup, skipping a y that
        commutes with x in a non-abelian group.  The x take turns, one y
        each, so no single x (one on an eigenline, say) spends the whole
        bound; a pair is accepted when its tree reaches every element.  An
        abelian group with exponent e and e^2 < n is not searched: a
        2-generated one is Z/a x Z/b, b | a = e.
        """
        n, mul, orders = self.order, self.mul, self.element_orders
        abelian = bool((mul == mul.T).all())
        if abelian and int(np.lcm.reduce(orders)) ** 2 < n:
            return None
        reps = _cyclic_generators(self)[1:]  # [0] is the identity
        reps = reps[np.argsort(-orders[reps], kind="stable")].tolist()

        def partners(x):  # <x, y> would be <x> or abelian for the others
            inside = set(self.powers[x, : orders[x]].tolist())
            return (y for y in reps if y not in inside and (abelian or mul[x, y] != mul[y, x]))

        turns = [(x, partners(x)) for x in reps if orders[x] == orders[reps[0]]]
        while turns:
            waiting = []
            for x, ys in turns:
                y = next(ys, None)
                if y is None:
                    continue
                if tries == 0:
                    return None
                tries -= 1
                tree = _spanning_tree(mul, self.identity, (x, y))
                if len(tree[0]) == n - 1:
                    return ((x, y), *tree)
                waiting.append((x, ys))
            turns = waiting
        return None

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"FiniteGroup({self.label or 'order ' + str(self.order)})"


def _spanning_tree(mul, identity, gens):
    """A breadth-first spanning tree of the Cayley graph on `gens`.

    Returns (tree, rel_g, rel_i): `tree` lists the edges (g, i, g s_i) that
    first reach a vertex, in breadth-first order from the identity;
    `rel_g`, `rel_i` index the other edges in (g, i) order.  When `gens`
    generates the group, the tree has n - 1 edges and each other edge gives
    the relator w(g) s_i w(g s_i)^{-1} of a presentation of the group, w(g)
    being the tree word of g.
    """
    reach = mul[:, list(gens)].tolist()  # reach[g][i] = g s_i
    seen = [False] * len(mul)
    seen[identity] = True
    on_tree = np.zeros((len(mul), len(gens)), dtype=bool)
    tree, queue = [], [identity]
    for g in queue:
        for i, h in enumerate(reach[g]):
            if not seen[h]:
                seen[h] = True
                on_tree[g, i] = True
                tree.append((g, i, h))
                queue.append(h)
    return (tree, *np.nonzero(~on_tree))


def closure_elements(mul, identity, gens, cap=None, start=None):
    """Sorted tuple of the subgroup generated by gens.

    With `start`, the subgroup generated by all of gens but the last, y,
    the search grows from start, multiplying it by y only: what it finds
    lies in the subgroup and is closed under right multiplication by every
    generator, so it is the subgroup.  With a cap, raises
    OrderBudgetExceeded as soon as the closure grows past it (used to abort
    doomed searches early).
    """
    # one entry at a time: listing whole columns would cost O(|G|) per call
    item, gens = mul.item, [int(g) for g in gens]
    limit = len(mul) if cap is None else cap
    seen = {int(identity)} if start is None else set(start)
    frontier, step = list(seen), gens if start is None else gens[-1:]
    while frontier:
        nxt = []
        for x in frontier:
            for s in step:
                y = item(x, s)
                if y not in seen:
                    if len(seen) >= limit:
                        raise OrderBudgetExceeded(f"closure exceeded {cap} elements")
                    seen.add(y)
                    nxt.append(y)
        frontier, step = nxt, gens
    return tuple(sorted(seen))


class SubgroupHandle:
    """A subgroup of a parent group as a strictly sorted element set."""

    __slots__ = ("parent", "elements", "mask", "_set", "_cache")

    def __init__(self, parent, elements):
        self.parent = parent
        elems = tuple(sorted(int(x) for x in elements))
        if len(set(elems)) != len(elems):
            raise SpecInvalid("subgroup elements must be distinct")
        if not elems or elems[0] < 0 or elems[-1] >= parent.order:
            raise SpecInvalid("subgroup elements out of range")
        idx = np.array(elems, dtype=np.int64)
        mask = np.zeros(parent.order, dtype=bool)
        mask[idx] = True
        if not mask[parent.identity]:
            raise SpecInvalid("subgroup must contain the identity")
        if not mask[parent.inv[idx]].all():
            raise SpecInvalid("subgroup is not closed under inversion")
        if not mask[parent.mul[idx[:, None], idx]].all():
            raise SpecInvalid("subgroup is not closed under multiplication")
        self.elements = elems
        self.mask = mask  # membership of each element of the parent
        self._set = frozenset(elems)
        self._cache = {}

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupHandle)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    @property
    def order(self):
        return len(self.elements)

    @property
    def index(self):
        return self.parent.order // self.order

    def contains(self, x):
        return int(x) in self._set

    def contains_subgroup(self, other):
        return self._set >= other._set

    def conjugates(self):
        """Row g lists g x g^-1 for x in the elements, for every g in the parent."""
        G = self.parent
        return G.mul[G.mul[:, self.elements], G.inv[:, None]]

    @property
    def is_normal(self):
        if "normal" not in self._cache:
            self._cache["normal"] = bool(self.mask[self.conjugates()].all())
        return self._cache["normal"]

    @property
    def is_cyclic(self):
        if "cyclic" not in self._cache:
            n = self.order
            self._cache["cyclic"] = any(
                self.parent.element_order(x) == n for x in self.elements
            )
        return self._cache["cyclic"]

    def conjugate(self, g):
        G = self.parent
        return SubgroupHandle(G, G.mul[G.mul[g, self.elements], G.inv[g]].tolist())

    def canonical_conjugate(self):
        """The lexicographically least conjugate (deterministic reports)."""
        conjugates = np.sort(self.conjugates(), axis=1)
        best = conjugates[np.lexsort(conjugates.T[::-1])[0]]
        return SubgroupHandle(self.parent, best.tolist())

    def as_group(self, label=None):
        """Re-indexed FiniteGroup plus the local->parent element map."""
        if "group" not in self._cache:
            elems = self.elements
            idx = np.array(elems, dtype=np.int64)
            G = self.parent
            sub = FiniteGroup(
                np.searchsorted(idx, G.mul[np.ix_(idx, idx)]),
                identity=elems.index(G.identity),
                label=label or f"{G.label}|sub{self.order}",
                validate=False,
            )
            self._cache["group"] = (sub, elems)
        return self._cache["group"]

    def __repr__(self):
        return f"Subgroup(order {self.order} of {self.parent.label or self.parent.order})"


def subgroup_closure(G, gens):
    """Smallest subgroup of G containing the given element indices."""
    for g in gens:
        if not 0 <= int(g) < G.order:
            raise SpecInvalid(f"element index {g} out of range")
    return SubgroupHandle(G, closure_elements(G.mul, G.identity, gens))


def trivial_subgroup(G):
    return SubgroupHandle(G, (G.identity,))


def full_subgroup(G):
    return SubgroupHandle(G, tuple(range(G.order)))


def _distinct(a):
    """The sorted distinct entries of an array of element indices: np.unique
    without the import of numpy.ma it makes on its first call."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _power_table(G):
    """Row g lists g^0, g^1, ..., one column per exponent below the largest
    element order, so row g runs through <g>."""
    powers = [np.full(G.order, G.identity), np.arange(G.order)]  # column k: g^k
    while len(powers) < G.element_orders.max():
        powers.append(G.mul[powers[-1], powers[1]])
    return np.stack(powers, axis=1)


def _cyclic_generators(G):
    """One generator per cyclic subgroup, ascending: <g> is named by its
    least element of the same order as g."""
    orders, powers = G.element_orders, G.powers
    return _distinct(np.where(orders[powers] == orders[:, None], powers, G.order).min(axis=1))


def cyclic_subgroup_elements(G):
    """The element tuples of all cyclic subgroups of G, trivial subgroup
    included, sorted by (order, elements); computed once per group."""
    if G._cyclic is None:
        orders, powers, gens = G.element_orders, G.powers, _cyclic_generators(G)
        out = []
        for m in _distinct(orders[gens]).tolist():
            rows = np.sort(powers[gens[orders[gens] == m], :m], axis=1)  # columns < m: <g>
            out += sorted(map(tuple, rows.tolist()))
        G._cyclic = tuple(out)
    return G._cyclic


def cyclic_subgroups(G):
    """`cyclic_subgroup_elements(G)` as subgroup handles, built once per group."""
    if G._cyclic_handles is None:
        G._cyclic_handles = tuple(SubgroupHandle(G, e) for e in cyclic_subgroup_elements(G))
    return G._cyclic_handles


def _grow_subgroup(G, divisor):
    """A subgroup C of G, maximal among the subgroups of order dividing
    `divisor`.

    One pass, in index order, over the pool of elements whose order divides
    `divisor` (the pool of `subgroup_classes`): each x not yet in C is
    joined, C <- <C, x>, when that closure (grown from C) has order
    dividing `divisor`;
    the pass stops once |C| = `divisor`.  Maximal: a refused x stays
    refused, since <C, x> only grows as C does; and if some K ⊋ C had order
    dividing `divisor`, every x in K \\ C would lie in the pool and have
    been refused against a subgroup of K, which is absurd.  So with
    `divisor` the p-part of |G| the result is a Sylow p-subgroup (every
    p-subgroup lies in one), and with `divisor` = |G|/|S| for a normal
    Sylow S it is a complement of S (Schur-Zassenhaus: by existence and
    conjugacy, every subgroup of order prime to p lies in a complement).
    """
    gens, members = [], {G.identity}
    for x in np.flatnonzero(divisor % G.element_orders == 0).tolist():
        if len(members) == divisor:
            break
        if x in members:
            continue
        try:
            T = closure_elements(G.mul, G.identity, gens + [x], cap=divisor, start=members)
        except OrderBudgetExceeded:
            continue
        if divisor % len(T) == 0:
            gens.append(x)
            members = set(T)
    return SubgroupHandle(G, members)


def sylow_subgroup(G, p):
    """A p-Sylow subgroup, deterministic: the lexicographically least conjugate
    of the greedy growth's maximal p-subgroup (all Sylow subgroups are
    conjugate)."""
    p = int(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    target, n = 1, G.order
    while n % p == 0:
        target *= p
        n //= p
    return _grow_subgroup(G, target).canonical_conjugate()


def core(G, H):
    """Normal core: the intersection of all conjugates of H in G.

    Each row of `H.conjugates()` lists distinct elements, so an element
    lies in every conjugate exactly when it occurs in all |G| rows.
    """
    counts = np.bincount(H.conjugates().ravel(), minlength=G.order)
    return SubgroupHandle(G, np.flatnonzero(counts == G.order).tolist())


def normalizer_centralizer(G, H):
    """(N_G(H), Z_G(H)); the centralizer is contained in the normalizer."""
    h = np.array(H.elements, dtype=np.int64)
    norm = H.mask[H.conjugates()].all(axis=1)
    cent = (G.mul[:, h] == G.mul[h, :].T).all(axis=1)  # g x = x g for all x in H
    return (
        SubgroupHandle(G, np.flatnonzero(norm).tolist()),
        SubgroupHandle(G, np.flatnonzero(cent).tolist()),
    )


def commutator_subgroup(G, A, B=None):
    """Subgroup generated by commutators a b a^{-1} b^{-1}, a in A, b in B.

    A or B given as None stands for all of G.  Commutators are joined in
    index order, each only when the closure so far misses it, and each
    join grows from that closure.
    """
    a, b = (np.arange(G.order) if X is None else np.array(X.elements) for X in (A, B))
    comms = G.mul[G.mul[np.ix_(a, b)], G.mul[np.ix_(G.inv[a], G.inv[b])]]
    gens, members = [], {G.identity}
    for c in _distinct(comms).tolist():
        if c not in members:
            gens.append(c)
            members = set(closure_elements(G.mul, G.identity, gens, start=members))
    return SubgroupHandle(G, members)


def double_cosets(G, D, H):
    """Partition of G into D\\G/H classes as (least representative, class).

    Classes come out sorted by representative, so the identity's class is
    listed first.
    """
    d_elems = np.array(D.elements, dtype=np.int64)
    h_elems = np.array(H.elements, dtype=np.int64)
    assigned = np.zeros(G.order, dtype=bool)
    out = []
    for g in G.elements():
        if assigned[g]:
            continue
        dg = G.mul[d_elems, g]
        cls = _distinct(G.mul[np.ix_(dg, h_elems)])
        assigned[cls] = True
        out.append((int(g), tuple(int(x) for x in cls)))
    return out


def abelianization(G):
    """(G/[G,G] in invariant-factor form, per-element coordinate tuples).

    The relation lattice is read off `G.cayley_tree`: the relator of each
    non-tree edge (g, i) abelianizes to w(g) + e_i - w(g s_i) in Z^gens,
    w(g) counting the generators on the tree path to g.  These are the rows
    of d^1 for the trivial module Z, and they generate the kernel of
    Z^gens -> G^ab.
    """
    k = len(G.gens)
    if k == 0:
        return FinAb.trivial(), [()] * G.order
    tree, rel_g, rel_i = G.cayley_tree
    words = np.zeros((G.order, k), dtype=np.int64)
    for g, i, h in tree:
        words[h] = words[g]
        words[h, i] += 1
    rel = words[rel_g] - words[G.mul[rel_g, np.array(G.gens)[rel_i]]]
    rel[np.arange(len(rel_i)), rel_i] += 1
    R = rel[rel.any(axis=1)].T.astype(object)  # columns are relations
    if R.shape[1] == 0:
        raise SpecInvalid("nontrivial finite group with free abelianization")
    diag, _, _, U = intmat.smith(R, carry=np.eye(k, dtype=object))
    if len(diag) != k:
        raise SpecInvalid("abelianization is not finite")
    kept = [(i, d) for i, d in enumerate(diag) if d > 1]
    structure = FinAb(tuple(d for _, d in kept))
    Y = U @ words.T.astype(object)
    proj = [tuple(int(Y[i, g]) % d for i, d in kept) for g in G.elements()]
    return structure, proj


def complement(G, S):
    """A complement of a normal Sylow subgroup S: C with C*S = G, C∩S = 1.

    The greedy growth's maximal subgroup of order dividing |G|/|S|.
    """
    size, rest = S.order, G.order // S.order
    if size > 1:
        p = next(q for q in range(2, size + 1) if size % q == 0)
        q = size
        while q % p == 0:
            q //= p
        if q != 1 or rest % p == 0:
            raise PreconditionFailed("S is not a Sylow subgroup")
        if not S.is_normal:
            raise PreconditionFailed("S is not normal")
    C = _grow_subgroup(G, rest)
    if C.order != rest:  # unreachable for a genuine group table
        raise SpecInvalid("complement growth failed; table is not a group")
    return C


def _join(G, S, gens, y, normalizes, cap):
    """<S, y> for a subgroup S = <gens> given as sorted elements, or None if
    it has more than `cap` elements: S<y> by one gather when y normalises S
    (then S<y> is a subgroup), else the closure grown from S."""
    if normalizes:
        T = _distinct(G.mul[np.array(S)[:, None], G.powers[y, : G.element_orders[y]]])
        return tuple(T.tolist()) if len(T) <= cap else None
    try:
        return closure_elements(G.mul, G.identity, gens + [y], cap=cap, start=S)
    except OrderBudgetExceeded:
        return None


def subgroup_classes(G, divisor=None, max_count=200000):
    """The subgroups of G whose order divides `divisor` (default |G|), up to
    conjugacy.

    Saturation search over the pool of elements whose order divides
    `divisor`: start from the cyclic subgroups they generate, then join
    each class representative's generators with one pool element at a
    time.  Each class is represented by the first subgroup found, and a
    subgroup met later starts a new class exactly when it is not among the
    conjugates of the classes found so far, which are computed once per
    class.  Complete: a subgroup K of order dividing `divisor` is generated
    by pool elements x_1..x_k.  If g K_j g^-1 is a representative R, for
    K_j = <x_1..x_j>, then g K_{j+1} g^-1 is R joined with g x_{j+1} g^-1, a
    join the search makes: the pool is closed under conjugation, and every
    K_j has order dividing `divisor`.

    Each shortcut meets the same subgroups in the same order, so the
    classes, their order and generators, the count and the point where the
    budget runs out are those of one closure from the identity per pool
    element.  One join per double coset: once R has been joined with y,
    every s y^k s' (s, s' in R, k prime to the order of y) is skipped, since
    <R, s y^k s'> = <R, y>.  The trivial R is not joined: its joins are the
    cyclic subgroups, registered first.  A join is the set <R, y>, grown
    from R: R<y> when y normalises R (then R<y> is a subgroup, so it is
    <R, y>), else `closure_elements` from `start` R.  g R g^-1 depends only
    on the coset g N(R), so one conjugate per coset goes into the set of
    conjugates; N(R) comes from the same conjugation gather.

    Returns the representatives as sorted element tuples, the number of
    distinct subgroups met, and the set of the conjugates of the
    representatives: every subgroup of order dividing `divisor`, as sorted
    element tuples.  Raises BudgetExceeded past `max_count` subgroups met.
    """
    divisor = G.order if divisor is None else int(divisor)
    pool = np.flatnonzero(divisor % G.element_orders == 0).tolist()
    powers, orders = G.powers, G.element_orders
    seen = set()
    known = set()  # every conjugate of every class found so far
    classes = []  # (elements, generators, normalizer mask)

    def register(elems, gens):
        if elems in seen:
            return
        if len(seen) >= max_count:
            raise BudgetExceeded(
                "subgroup enumeration budget exceeded",
                sizes={"subgroups": len(seen), "budget": max_count},
            )
        seen.add(elems)
        if elems not in known:
            H = SubgroupHandle(G, elems)
            conjugates = H.conjugates()
            normalizer = H.mask[conjugates].all(axis=1)
            todo, cosets = np.ones(G.order, dtype=bool), []
            while todo.any():  # one g per coset g N(R)
                cosets.append(int(todo.argmax()))
                todo[G.mul[cosets[-1], normalizer]] = False
            known.update(map(tuple, np.sort(conjugates[cosets], axis=1).tolist()))
            classes.append((elems, gens, normalizer))

    for t in pool:
        register(tuple(_distinct(powers[t]).tolist()), [t])
    qi = 0
    while qi < len(classes):
        S, gens, normalizer = classes[qi]
        qi += 1
        if len(S) == 1:
            continue
        s = np.array(S)
        done = np.zeros(G.order, dtype=bool)
        done[s] = True
        for y in pool:
            if done[y]:
                continue
            T = _join(G, S, gens, y, normalizer[y], divisor)
            if T is not None and divisor % len(T) == 0:
                register(T, gens + [y])
            cyc = powers[y, : orders[y]]
            y_gens = cyc[orders[cyc] == orders[y]]  # y^k, k prime to the order of y
            done[G.mul[G.mul[s[:, None], y_gens][..., None], s]] = True
    return [S for S, _, _ in classes], len(seen), known


def all_subgroups(G):
    """Every subgroup of G, sorted by (order, elements)."""
    found = subgroup_classes(G)[2]
    return [SubgroupHandle(G, elems) for elems in sorted(found, key=lambda e: (len(e), e))]


def matrix_images(G, mats, p):
    """The homomorphism from G to m x m matrices mod p taking gens[i] to
    mats[i], as an (order, m, m) array, or None if there is none.

    Defines A(g s_i) = A(g) mats[i] along the edges of `G.cayley_tree`,
    then checks A(g) A(s) = A(g s) for every element g and generator s at
    once.  Tree edges satisfy it by construction, so a failure is a
    relator; and a map with A(1) = 1 that respects every edge is a
    homomorphism, since every element is a word in the generators.
    """
    mats = np.asarray(mats, dtype=np.int64) % p
    m = mats.shape[-1]
    if mats.shape != (len(G.gens), m, m):
        raise ValueError("one square matrix per canonical generator required")
    A = np.empty((G.order, m, m), dtype=np.int64)
    A[G.identity] = np.eye(m, dtype=np.int64)
    for g, i, h in G.cayley_tree[0]:
        A[h] = A[g] @ mats[i] % p
    if not (A[:, None] @ mats % p == A[G.mul[:, list(G.gens)]]).all():
        return None
    return A


# -- group construction ------------------------------------------------------


def _rank_mod_p(rows, p):
    """Rank over F_p of an integer matrix given by its rows, in Python ints."""
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                t = rows[i][c] * inv
                rows[i] = [(a - t * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _parse_cycles(text, degree):
    """Parse one-line cycle notation like "(1 2 3)(4 5)" (1-based points).

    Returns the permutation as a dict on the 0-based points it moves.
    """
    perm = {}
    text = text.strip()
    if text in ("", "()", "e", "id"):
        return perm
    depth = 0
    cycles = []
    cur = []
    token = ""
    for ch in text + " ":
        if ch == "(":
            if depth:
                raise SpecInvalid(f"nested parenthesis in cycle {text!r}")
            depth = 1
            cur = []
            token = ""
        elif ch == ")":
            if token:
                cur.append(token)
                token = ""
            cycles.append(cur)
            depth = 0
        elif ch in " ,":
            if token:
                cur.append(token)
                token = ""
        elif depth:
            token += ch
        else:
            raise SpecInvalid(f"stray character {ch!r} in cycle {text!r}")
    if depth:
        raise SpecInvalid(f"unbalanced parenthesis in cycle {text!r}")
    for cyc in cycles:
        pts = []
        for t in cyc:
            try:
                v = int(t)
            except ValueError as exc:
                raise SpecInvalid(f"bad cycle point {t!r}") from exc
            if not 1 <= v <= degree:
                raise SpecInvalid(f"cycle point {v} outside degree {degree}")
            pts.append(v - 1)
        for i, a in enumerate(pts):
            if a in perm:  # a map with a point in two places is no bijection
                raise SpecInvalid(f"point {a + 1} occurs twice in cycles {text!r}")
            perm[a] = pts[(i + 1) % len(pts)]
    return {a: b for a, b in perm.items() if a != b}


def _group_from_permutations(payload, order_budget, label):
    # Elements are tuples on the moved points only, relabelled in increasing
    # order: all elements agree on the fixed points, so the sorted order, the
    # table and the generators are those of the full tuples on 0..degree-1,
    # at a cost independent of `degree`.
    degree = int(payload["degree"])
    maps = []
    for g in payload["generators"]:
        if isinstance(g, str):
            maps.append(_parse_cycles(g, degree))
        else:
            perm = [int(x) for x in g]
            if len(perm) != degree or sorted(perm) != list(range(degree)):
                raise SpecInvalid(f"not a permutation of 0..{degree - 1}: {g}")
            maps.append({a: b for a, b in enumerate(perm) if a != b})
    moved = sorted(set().union(*maps))
    label_of = {a: k for k, a in enumerate(moved)}
    perms = [tuple(label_of[m.get(a, a)] for a in moved) for m in maps]
    width = len(moved)
    ident = tuple(range(width))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for s in perms:
                y = tuple(x[s[i]] for i in range(width))  # x after s
                if y not in elems:
                    if len(elems) >= order_budget:
                        raise OrderBudgetExceeded(
                            f"permutation closure exceeded {order_budget}"
                        )
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    ordered = sorted(elems)  # the identity tuple sorts first
    pos = {x: i for i, x in enumerate(ordered)}
    n = len(ordered)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            mul[i, j] = pos[tuple(a[b[t]] for t in range(width))]
    gens = [pos[s] for s in perms]
    return FiniteGroup(mul, identity=pos[ident], label=label, gens=gens, validate=False)


def _group_from_table(payload, label):
    mul = payload["mul"]
    n = int(payload["n"])
    if len(mul) == n * n and not isinstance(mul[0], (list, tuple)):
        mul = [mul[i * n : (i + 1) * n] for i in range(n)]
    if len(mul) != n or any(np.shape(r) != (n,) for r in mul):
        raise SpecInvalid("table has wrong shape")
    arr = np.asarray(mul, dtype=np.int64)
    if n and (arr.min() < 0 or arr.max() >= n):
        raise SpecInvalid("table entries out of range")
    ident = None
    for e in range(n):
        if (arr[e] == np.arange(n)).all() and (arr[:, e] == np.arange(n)).all():
            ident = e
            break
    if ident is None:
        raise SpecInvalid("table has no two-sided identity")
    return FiniteGroup(arr, identity=ident, label=label)


def vector_index(v, p):
    """Little-endian index of a vector over F_p: (a_0,...,a_{m-1}) -> sum a_i p^i."""
    num = 0
    for i in range(len(v) - 1, -1, -1):
        num = num * p + int(v[i]) % p
    return num


def index_vector(num, p, m):
    return np.array([(num // p**i) % p for i in range(m)], dtype=np.int64)


def _check_semidirect_order(p, m, nq, order_budget):
    # p >= 2, so an m of the budget's bit length already exceeds it: p**m stays small
    if m >= order_budget.bit_length() or p**m * nq > order_budget:
        raise OrderBudgetExceeded(f"semidirect order {p}^{m}*{nq} exceeds budget {order_budget}")


def semidirect_from_action(p, m, acting, action, label="", order_budget=DEFAULT_ORDER_BUDGET):
    """V ⋊ Q for V = F_p^m given one invertible action matrix per element of Q.

    Element (v, q) has index vindex(v) + p^m * q, so V occupies indices
    0..p^m-1 of the identity-of-Q block and is normal by construction.
    """
    p, m = int(p), int(m)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _check_semidirect_order(p, m, acting.order, order_budget)
    pm = p**m
    vecs = np.array([index_vector(i, p, m) for i in range(pm)]).reshape(pm, m)
    weights = p ** np.arange(m)
    nq = acting.order
    n = pm * nq
    mul = np.empty((nq, pm, nq, pm), dtype=np.int64)  # [q1, v1, q2, v2]
    for q1 in range(nq):
        act = np.asarray(action[q1], dtype=np.int64) % p
        moved = (vecs[:, None, :] + (vecs @ act.T)[None]) % p @ weights  # index of v1 + q1.v2
        np.add(moved[:, None, :], pm * acting.mul[q1][None, :, None], out=mul[q1])
    mul = mul.reshape(n, n)
    gens = [p**i for i in range(m)] + [pm * q for q in acting.gens]
    return FiniteGroup(
        mul, identity=pm * acting.identity, label=label, gens=gens, validate=False
    )


def semidirect_product(p, m, acting, matrices, label="", order_budget=DEFAULT_ORDER_BUDGET):
    """V ⋊ Q with Q acting through matrices given on Q's canonical generators."""
    p, m = int(p), int(m)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _check_semidirect_order(p, m, acting.order, order_budget)
    mats = []
    for M in matrices:
        M = np.asarray(M, dtype=np.int64) % p
        if M.shape != (m, m):
            raise SpecInvalid(f"action matrix must be {m}x{m}")
        if _rank_mod_p(M.tolist(), p) < m:
            raise SpecInvalid("action matrix is singular mod p")
        mats.append(M)
    if len(mats) != len(acting.gens):
        raise SpecInvalid(f"need one action matrix per acting generator, {len(acting.gens)}")
    action = matrix_images(acting, np.reshape(mats, (-1, m, m)), p)
    if action is None:
        raise SpecInvalid("matrices do not define a homomorphism")
    return semidirect_from_action(p, m, acting, action, label, order_budget)


def direct_product(G1, G2, label=""):
    """Direct product; element (a, b) has index a*|G2| + b."""
    n1, n2 = G1.order, G2.order
    a = np.repeat(np.arange(n1), n2)
    b = np.tile(np.arange(n2), n1)
    mul = G1.mul[np.ix_(a, a)] * n2 + G2.mul[np.ix_(b, b)]
    gens = [g * n2 + G2.identity for g in G1.gens] + [
        G1.identity * n2 + g for g in G2.gens
    ]
    return FiniteGroup(
        mul,
        identity=G1.identity * n2 + G2.identity,
        label=label or f"{G1.label}x{G2.label}",
        gens=gens,
        validate=False,
    )


def build_group(spec, order_budget=DEFAULT_ORDER_BUDGET):
    """Materialize a group spec: a dict with a 'kind' key (see cli for the schema)."""
    kind = spec.get("kind")
    label = spec.get("label", kind)
    if kind == "table":
        G = _group_from_table(spec, label)
    elif kind == "permutations":
        G = _group_from_permutations(spec, order_budget, label)
    elif kind == "semidirect":
        acting = build_group(spec["acting"], order_budget)
        G = semidirect_product(
            spec["p"], spec["m"], acting, spec["matrices"], label=label, order_budget=order_budget
        )
    elif kind == "product":
        factors = [build_group(f, order_budget) for f in spec["factors"]]
        if not factors:
            raise SpecInvalid("product needs at least one factor")
        G = factors[0]
        for F in factors[1:]:
            if G.order * F.order > order_budget:
                raise OrderBudgetExceeded("product order exceeds budget")
            G = direct_product(G, F)
        if label != G.label:
            G = FiniteGroup(G.mul, G.identity, label=label, gens=G.gens, validate=False)
    else:
        raise SpecInvalid(f"unknown or missing group-spec kind {kind!r}")
    if G.order > order_budget:
        raise OrderBudgetExceeded(f"group order {G.order} exceeds budget {order_budget}")
    return G
