"""Finite-group engine: construction, subgroup primitives, Sylow theory.

Groups are realized by full multiplication tables over element indices
0..n-1 (orders <= 512 by default), so every downstream computation gets
constant-time multiplication.  All values are immutable after construction
and the operations are pure functions; deterministic tie-breaking (least
element index, lexicographic element lists) is used throughout.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    NotPrime,
    OrderBudgetExceeded,
    PreconditionFailed,
    SearchBudgetExceeded,
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


class GroupSpec:
    """Declarative description of a finite group (see cli for the schema)."""

    KINDS = ("table", "permutations", "semidirect", "product")

    def __init__(self, kind, payload):
        if kind not in self.KINDS:
            raise SpecInvalid(f"unknown group-spec kind {kind!r}")
        self.kind = kind
        self.payload = dict(payload)

    def to_dict(self):
        out = {"kind": self.kind}
        out.update(self.payload)
        return out

    def __repr__(self):
        return f"GroupSpec({self.kind})"


class FiniteGroup:
    """Explicit finite group: multiplication table plus element indexing."""

    __slots__ = ("order", "mul", "inv", "identity", "label", "gens", "_orders", "_abelian", "_tree")

    def __init__(self, mul, identity, label="", gens=None, validate=True):
        mul = np.asarray(mul, dtype=np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise SpecInvalid("multiplication table must be square")
        self.order = int(mul.shape[0])
        self.mul = mul
        self.identity = int(identity)
        self.label = label
        self._orders = None
        self._abelian = None
        self._tree = None
        inv = np.full(self.order, -1, dtype=np.int64)
        for g in range(self.order):
            hits = np.flatnonzero(mul[g] == self.identity)
            if hits.size != 1:
                raise SpecInvalid(f"element {g} has no unique right inverse")
            inv[g] = hits[0]
        self.inv = inv
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
            current = set(closure_elements(self.mul, self.identity, gens))
        return gens

    def conj(self, g, x):
        """g x g^{-1}"""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def power(self, x, k):
        k = int(k)
        if k < 0:
            x, k = int(self.inv[x]), -k
        acc = self.identity
        for _ in range(k):
            acc = int(self.mul[acc, x])
        return acc

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
    def cayley_tree(self):
        """A breadth-first spanning tree of the Cayley graph on `gens`.

        Returns (tree, rel_g, rel_i): `tree` lists the edges (g, i, g s_i)
        that first reach a vertex, in breadth-first order from the identity;
        `rel_g`, `rel_i` index the other edges in (g, i) order.  Each of
        those gives the relator w(g) s_i w(g s_i)^{-1} of a presentation of
        the group, w(g) being the tree word of g.
        """
        if self._tree is None:
            on_tree = np.zeros((self.order, len(self.gens)), dtype=bool)
            tree, queue, seen = [], [self.identity], {self.identity}
            for g in queue:
                for i, s in enumerate(self.gens):
                    h = int(self.mul[g, s])
                    if h not in seen:
                        seen.add(h)
                        queue.append(h)
                        on_tree[g, i] = True
                        tree.append((g, i, h))
            self._tree = (tree, *np.nonzero(~on_tree))
        return self._tree

    @property
    def is_abelian(self):
        if self._abelian is None:
            self._abelian = bool((self.mul == self.mul.T).all())
        return self._abelian

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"FiniteGroup({self.label or 'order ' + str(self.order)})"


def closure_elements(mul, identity, gens, cap=None):
    """Sorted tuple of the subgroup generated by gens.

    With a cap, raises OrderBudgetExceeded as soon as the closure grows
    past it (used to abort doomed searches early).
    """
    seen = {int(identity)}
    frontier = [int(identity)]
    gens = [int(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = int(mul[x, s])
                if y not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise OrderBudgetExceeded(f"closure exceeded {cap} elements")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


class SubgroupHandle:
    """A subgroup of a parent group as a strictly sorted element set."""

    __slots__ = ("parent", "elements", "_set", "_cache")

    def __init__(self, parent, elements):
        self.parent = parent
        elems = tuple(sorted(int(x) for x in elements))
        if len(set(elems)) != len(elems):
            raise SpecInvalid("subgroup elements must be distinct")
        if not elems or elems[0] < 0 or elems[-1] >= parent.order:
            raise SpecInvalid("subgroup elements out of range")
        eset = frozenset(elems)
        if parent.identity not in eset:
            raise SpecInvalid("subgroup must contain the identity")
        for x in elems:
            if int(parent.inv[x]) not in eset:
                raise SpecInvalid("subgroup is not closed under inversion")
        products = parent.mul[np.ix_(elems, elems)]
        if not frozenset(np.unique(products).tolist()) <= eset:
            raise SpecInvalid("subgroup is not closed under multiplication")
        self.elements = elems
        self._set = eset
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

    @property
    def is_normal(self):
        if "normal" not in self._cache:
            G = self.parent
            conjugates = G.mul[G.mul[:, self.elements], G.inv[:, None]]  # row g: g H g^-1
            self._cache["normal"] = bool(np.isin(conjugates, self.elements).all())
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
        return SubgroupHandle(G, tuple(G.conj(g, x) for x in self.elements))

    def canonical_conjugate(self):
        """The lexicographically least conjugate (deterministic reports)."""
        G = self.parent
        conjugates = np.sort(G.mul[G.mul[:, self.elements], G.inv[:, None]], axis=1)
        best = conjugates[np.lexsort(conjugates.T[::-1])[0]]
        return SubgroupHandle(G, best.tolist())

    def as_group(self, label=None):
        """Re-indexed FiniteGroup plus the local->parent element map."""
        if "group" not in self._cache:
            elems = self.elements
            pos = {x: i for i, x in enumerate(elems)}
            table = [[pos[int(self.parent.mul[a, b])] for b in elems] for a in elems]
            sub = FiniteGroup(
                table,
                identity=pos[self.parent.identity],
                label=label or f"{self.parent.label}|sub{self.order}",
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


def cyclic_subgroups(G):
    """All cyclic subgroups of G, trivial subgroup included, deduplicated."""
    seen = set()
    out = []
    for g in G.elements():
        elems = closure_elements(G.mul, G.identity, [g])
        if elems not in seen:
            seen.add(elems)
            out.append(SubgroupHandle(G, elems))
    out.sort(key=lambda h: (h.order, h.elements))
    return out


def sylow_subgroup(G, p):
    """A p-Sylow subgroup, deterministic: the lexicographically least conjugate.

    Grown by the normalizer ladder: a proper p-subgroup has p dividing the
    order of its normalizer quotient, so some element of p-power order in
    the normalizer extends it.
    """
    p = int(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    target, n = 1, G.order
    while n % p == 0:
        target *= p
        n //= p
    P = trivial_subgroup(G)
    while P.order < target:
        N, _ = normalizer_centralizer(G, P)
        grown = False
        for x in N.elements:
            if P.contains(x):
                continue
            o = G.element_order(x)
            while o % p == 0:
                o //= p
            if o != 1:
                continue
            elems = closure_elements(G.mul, G.identity, list(P.elements) + [x])
            size = len(elems)
            while size % p == 0:
                size //= p
            if size == 1 and len(elems) > P.order:
                P = SubgroupHandle(G, elems)
                grown = True
                break
        if not grown:  # unreachable for a genuine group table
            raise SpecInvalid("Sylow growth failed; table is not a group")
    return P.canonical_conjugate()


def core(G, H):
    """Normal core: the intersection of all conjugates of H in G."""
    inter = set(H.elements)
    for g in G.elements():
        inter &= {G.conj(g, x) for x in H.elements}
        if len(inter) == 1:
            break
    return SubgroupHandle(G, tuple(sorted(inter)))


def normalizer_centralizer(G, H):
    """(N_G(H), Z_G(H)); the centralizer is contained in the normalizer."""
    hset = H._set
    norm, cent = [], []
    for g in G.elements():
        if all(G.conj(g, x) in hset for x in H.elements):
            norm.append(g)
            if all(G.mul[g, x] == G.mul[x, g] for x in H.elements):
                cent.append(g)
    return SubgroupHandle(G, tuple(norm)), SubgroupHandle(G, tuple(cent))


def commutator_subgroup(G, A, B):
    """Subgroup generated by commutators a b a^{-1} b^{-1}, a in A, b in B."""
    comms = set()
    for a in A.elements:
        for b in B.elements:
            comms.add(int(G.mul[G.mul[a, b], G.mul[G.inv[a], G.inv[b]]]))
    return SubgroupHandle(G, closure_elements(G.mul, G.identity, comms))


def derived_subgroup(G):
    full = full_subgroup(G)
    return commutator_subgroup(G, full, full)


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
        cls = np.unique(G.mul[np.ix_(dg, h_elems)])
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


def complement(G, S, budget=200000):
    """A complement of a normal Sylow subgroup S: C with C*S = G, C∩S = 1.

    Deterministic breadth-first search over generator subsets of size <= 3
    drawn from elements whose order divides the index; raises
    SearchBudgetExceeded past the subset-size bound or the closure budget.
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
    if size == 1:
        return full_subgroup(G)
    if rest == 1:
        return trivial_subgroup(G)
    pool = [
        x for x in G.elements() if x != G.identity and rest % G.element_order(x) == 0
    ]
    sset = S._set
    tried = 0
    for take in (1, 2, 3):
        for combo in itertools.combinations(pool, take):
            tried += 1
            if tried > budget:
                raise SearchBudgetExceeded("complement search budget exhausted")
            try:
                elems = closure_elements(G.mul, G.identity, combo, cap=rest)
            except OrderBudgetExceeded:
                continue
            if len(elems) == rest and len(sset.intersection(elems)) == 1:
                return SubgroupHandle(G, elems)
    raise SearchBudgetExceeded("no complement found with <= 3 generators")


def all_subgroups(G, max_count=100000):
    """Every subgroup of G, by saturating cyclic subgroups under joins.

    Exhaustive (any subgroup is reachable by adjoining one generator at a
    time); intended for the small catalog orders.  Each queued subgroup
    keeps the generators it was reached by, and a join closes over those
    plus the adjoined element.
    """
    seen = {}
    queue = []
    for h in cyclic_subgroups(G):
        gen = next(x for x in h.elements if G.element_order(x) == h.order)
        seen[h.elements] = h
        queue.append((h, [gen]))
    qi = 0
    while qi < len(queue):
        h, gens = queue[qi]
        qi += 1
        for x in G.elements():
            if h.contains(x):
                continue
            elems = closure_elements(G.mul, G.identity, gens + [x])
            if elems not in seen:
                if len(seen) >= max_count:
                    raise SearchBudgetExceeded("subgroup enumeration budget")
                nh = SubgroupHandle(G, elems)
                seen[elems] = nh
                queue.append((nh, gens + [x]))
    return sorted(seen.values(), key=lambda h: (h.order, h.elements))


def extend_from_generators(G, images, compose, identity_image, eq=None):
    """Extend gens[i] |-> images[i] to a homomorphism on all of G.

    Defines f(g s_i) = f(g) o f(s_i) along the edges of `G.cayley_tree`,
    then checks that identity on the other edges, the relators.  Tree edges
    satisfy it by construction, so it then holds on every edge, which
    forces the homomorphism property on all pairs.  Returns the per-element
    image list, or None if the assignment is not a homomorphism.
    """
    if eq is None:
        eq = lambda a, b: a == b
    if len(images) != len(G.gens):
        raise ValueError("one image per canonical generator required")
    tree, rel_g, rel_i = G.cayley_tree
    f = [None] * G.order
    f[G.identity] = identity_image
    for g, i, h in tree:
        f[h] = compose(f[g], images[i])
    for g, i in zip(rel_g.tolist(), rel_i.tolist()):
        if not eq(f[G.mul[g, G.gens[i]]], compose(f[g], images[i])):
            return None
    return f


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
        if len(set(pts)) != len(pts):
            raise SpecInvalid(f"repeated point in cycle {cyc}")
        for i, a in enumerate(pts):
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
    eye = np.eye(m, dtype=np.int64)
    action = extend_from_generators(
        acting,
        mats,
        lambda A, B: (A @ B) % p,
        eye,
        eq=lambda A, B: (A == B).all(),
    )
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
    """Materialize a GroupSpec (or plain dict with a 'kind' key)."""
    if isinstance(spec, dict):
        payload = dict(spec)
        kind = payload.pop("kind", None)
        if kind is None:
            raise SpecInvalid("group spec needs a 'kind'")
        spec = GroupSpec(kind, payload)
    label = spec.payload.get("label", spec.kind)
    if spec.kind == "table":
        G = _group_from_table(spec.payload, label)
    elif spec.kind == "permutations":
        G = _group_from_permutations(spec.payload, order_budget, label)
    elif spec.kind == "semidirect":
        acting = build_group(spec.payload["acting"], order_budget)
        G = semidirect_product(
            spec.payload["p"],
            spec.payload["m"],
            acting,
            spec.payload["matrices"],
            label=label,
            order_budget=order_budget,
        )
    else:  # product
        factors = [build_group(f, order_budget) for f in spec.payload["factors"]]
        if not factors:
            raise SpecInvalid("product needs at least one factor")
        G = factors[0]
        for F in factors[1:]:
            if G.order * F.order > order_budget:
                raise OrderBudgetExceeded("product order exceeds budget")
            G = direct_product(G, F)
        if label != G.label:
            G = FiniteGroup(G.mul, G.identity, label=label, gens=G.gens, validate=False)
    if G.order > order_budget:
        raise OrderBudgetExceeded(f"group order {G.order} exceeds budget {order_budget}")
    return G
