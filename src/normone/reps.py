"""Two-dimensional representations over prime fields.

Covers the degree sets that control when such a representation of a group
of order coprime to p can have zero fixed space while some line's
stabilizer acts trivially on the line, witness constructions for the
degrees where one exists, the explicit 2-Sylow generators of GL_2(F_p),
and an exhaustive subgroup scan certifying the non-existence half.  The
scan realizes GL_2(F_p), p <= 7, as a multiplication-table group; one
`groups.subgroup_classes` search gives its coprime-order subgroup classes
and the set of all its coprime-order subgroups, and the subgroups of each
class are the members of that set inside it.

All plane arithmetic is on 2x2 integer matrices mod p.  F_{p^2} is
F_p[W], its element a + bW the matrix a I + b W (`_fp2_root`), so a trace
or a norm is a matrix trace or determinant.  The scan's questions about
all lines at once are reductions over `_line_action`, a table of how each
matrix moves the p+1 lines and which lines it fixes pointwise.  A single
marked line is tested directly (`_on_line`), so validating a
representation costs O(|G|) for any p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import cyclic_spec
from .errors import (
    NotCoprime,
    NotPrime,
    OrderBudgetExceeded,
    PreconditionFailed,
    SpecInvalid,
)
from .finab import _factorize
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    build_group,
    is_prime,
    matrix_images,
    semidirect_from_action,
    subgroup_classes,
    trivial_subgroup,
    vector_index,
)


# -- F_{p^2} as F_p[W] ---------------------------------------------------------


def _mat_pow(M, k, p):
    """M^k mod p by square-and-multiply."""
    out = np.eye(2, dtype=np.int64)
    while k:
        if k & 1:
            out = out @ M % p
        M = M @ M % p
        k >>= 1
    return out


def _fp2_root(p, n):
    """A primitive n-th root of unity of F_{p^2} (requires n | p^2 - 1).

    F_{p^2} is F_p[W] for W = [[0, c], [1, 0]], c the least non-residue
    (p odd), or W = [[0, 1], [1, 1]] (p = 2), and a + bW is the 2x2 matrix
    a I + b W, with (a, b) as its first column.  The root is g^((p^2-1)/n)
    for the unit-group generator g with the least (a, b).  It lies in F_p
    exactly when it is scalar; its trace is z + z^p and its determinant
    z^(p+1).
    """
    full = p * p - 1
    if full % n:
        raise ValueError(f"no {n}-th roots of unity in F_{p}^2")
    if p == 2:
        W = np.array([[0, 1], [1, 1]], dtype=np.int64)
    else:
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        W = np.array([[0, c], [1, 0]], dtype=np.int64)
    eye = np.eye(2, dtype=np.int64)
    primes = list(_factorize(full))
    for a in range(p):
        for b in range(1 if a == 0 else 0, p):
            g = (a * eye + b * W) % p
            # g^(p^2-1) = 1, so g generates unless a maximal proper power is 1
            if all((_mat_pow(g, full // q, p) != eye).any() for q in primes):
                return _mat_pow(g, full // n, p)
    raise ArithmeticError("no generator found")  # unreachable


def prime_field_root(p, n):
    """A primitive n-th root of unity in F_p (requires n | p - 1)."""
    p, n = int(p), int(n)
    if (p - 1) % n:
        raise ValueError(f"no {n}-th roots of unity in F_{p}")
    for g in range(2, p):
        k, acc = 1, g
        while acc != 1:
            acc = acc * g % p
            k += 1
        if k == p - 1:
            return pow(g, (p - 1) // n, p)
    return 1 if n == 1 else None


# -- degree sets ---------------------------------------------------------------


@dataclass(frozen=True)
class DMembership:
    """Membership flags of a degree d for the prime p."""

    d: int
    p: int
    in_pZ: bool
    in_p2Z: bool
    in_D1: bool
    in_D2: bool
    in_S: bool


def _is_power_of_two(n):
    # 1 = 2^0 counts as a power of two
    return n >= 1 and n & (n - 1) == 0


def d_membership(d, p):
    """Exact membership of d in pZ, p^2 Z, and the two critical degree sets.

    The first set asks gcd(d, p-1) >= 3; the second asks gcd(d, p+1) not a
    power of two (with 1 counting as a power of two).
    """
    d, p = int(d), int(p)
    if d < 1:
        raise ValueError("degree must be positive")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    in_p = d % p == 0
    in_p2 = d % (p * p) == 0
    in_d1 = in_p and math.gcd(d, p - 1) >= 3
    in_d2 = in_p and not _is_power_of_two(math.gcd(d, p + 1))
    return DMembership(d, p, in_p, in_p2, in_d1, in_d2, in_p2 or in_d1 or in_d2)


def s_min(p):
    """Smallest degree admitting a p-primary obstruction: 3p (p odd), 4 (p = 2).

    Cross-checked against a direct scan of the membership flags.
    """
    p = int(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    formula = 4 if p == 2 else 3 * p
    # S lies inside pZ, so only multiples of p can be members
    scanned = next(d for d in range(p, formula + 1, p) if d_membership(d, p).in_S)
    if scanned != formula:
        raise ArithmeticError(f"membership scan disagrees with closed form at p={p}")
    return formula


# -- representations -----------------------------------------------------------


def normalize_line(v, p):
    """Canonical projective representative: first nonzero coordinate 1."""
    a, b = int(v[0]) % p, int(v[1]) % p
    if a:
        inv = pow(a, p - 2, p) if p > 2 else a
        return (1, b * inv % p)
    if b:
        return (0, 1)
    raise ValueError("zero vector spans no line")


def all_lines(p):
    return [(1, b) for b in range(p)] + [(0, 1)]


def _line_action(mats, p):
    """How each matrix acts on the p+1 lines of F_p^2, in `all_lines` order.

    Returns (image, fixed), both of shape (len(mats), p+1): image[g, L] is
    the index of the line mats[g] maps line L to, and fixed[g, L] whether
    mats[g] fixes line L pointwise.  Line L < p is spanned by (1, L), line
    p by (0, 1).
    """
    spans = np.array(all_lines(p), dtype=np.int64).T  # column L spans line L
    moved = np.asarray(mats, dtype=np.int64) @ spans % p  # (len(mats), 2, p+1)
    x, y = moved[:, 0], moved[:, 1]
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    image = np.where(x != 0, y * inverse[x] % p, p)
    return image, (moved == spans).all(axis=1)


def _on_line(mats, line, p):
    """Per matrix: whether it maps the line spanned by `line` to itself, and
    whether it fixes that vector.  Mv lies on the line spanned by v exactly
    when (Mv)_0 v_1 - (Mv)_1 v_0 = 0 mod p."""
    v = np.array(line, dtype=np.int64)
    w = np.asarray(mats, dtype=np.int64) @ v % p
    return (w[:, 0] * v[1] - w[:, 1] * v[0]) % p == 0, (w == v).all(axis=1)


class RepTwoDim:
    """A 2-dimensional representation over F_p of a group of coprime order,
    with an optional marked line and line-stabilizing subgroup.  The
    constructor checks all three, in O(|G|) 2x2 products."""

    __slots__ = ("group", "p", "mats", "line", "hprime")

    def __init__(self, group, p, mats, line=None, hprime=None):
        self.group = G = group
        self.p = p = int(p)
        mats = np.asarray(mats, dtype=np.int64) % p
        if mats.shape != (G.order, 2, 2):
            raise SpecInvalid("need one 2x2 matrix per group element")
        self.mats = mats
        self.line = normalize_line(line, p) if line is not None else None
        self.hprime = hprime
        if G.order % p == 0:
            raise NotCoprime("the group order must be coprime to p")
        images = matrix_images(G, mats[list(G.gens)], p)
        if images is None or (images != mats).any():
            raise SpecInvalid("matrices do not define a homomorphism")
        if hprime is not None and self.line is not None:
            stays, _ = _on_line(mats[list(hprime.elements)], self.line, p)
            if not stays.all():
                raise SpecInvalid("marked subgroup does not stabilize the line")

    def __repr__(self):
        return f"RepTwoDim(order {self.group.order} over F_{self.p})"


def _rep_from_generator_matrix(G, M, p, line=None, hprime=None):
    # M is the image of a cyclic group's generator; the trivial group has none
    mats = matrix_images(G, np.asarray(M)[None][: len(G.gens)], p)
    if mats is None:
        raise SpecInvalid("generator matrix does not define a representation")
    return RepTwoDim(G, p, mats, line=line, hprime=hprime)


def witness_rep(p, n):
    """A representation of Z/n with zero fixed space whose marked line has a
    pointwise-trivial stabilizer, when the degree p*n admits one; None
    otherwise.

    Built through the quotient Z/n -> Z/l (or Z/4): a pair of distinct
    nontrivial characters when gcd(n, p-1) has an odd prime divisor, the
    order-4 character pair when 4 | gcd(n, p-1), and the irreducible
    trace-companion representation for an odd prime divisor of gcd(n, p+1).
    """
    p, n = int(p), int(n)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if math.gcd(p, n) != 1:
        raise NotCoprime(f"{n} is not coprime to {p}")
    flags = d_membership(p * n, p)
    if not (flags.in_D1 or flags.in_D2):
        return None
    G = build_group(cyclic_spec(n))
    g1 = math.gcd(n, p - 1)
    odd1 = next((q for q in range(3, g1 + 1, 2) if g1 % q == 0 and is_prime(q)), None)
    if odd1 is not None:
        w = prime_field_root(p, odd1)
        M = np.diag([w, pow(w, 2, p)]).astype(np.int64)
        line = (1, 1)
    elif g1 % 4 == 0:
        w = prime_field_root(p, 4)
        M = np.diag([w, pow(w, 2, p)]).astype(np.int64)
        line = (1, 1)
    else:
        g2 = math.gcd(n, p + 1)
        odd2 = next(q for q in range(3, g2 + 1, 2) if g2 % q == 0 and is_prime(q))
        t = np.trace(_fp2_root(p, odd2))
        M = np.array([[0, -1], [1, t]], dtype=np.int64) % p
        line = (1, 0)
    return _rep_from_generator_matrix(G, M, p, line=line, hprime=trivial_subgroup(G))


def sylow2_gl2(p):
    """Generators and order of a 2-Sylow subgroup of GL_2(F_p), p odd.

    For p = 1 mod 4 the generators are the two diagonal matrices with a
    primitive 2^s-th root of unity (s = ord_2(p-1)) and the coordinate
    swap.  For p = 3 mod 4 they are the trace companion X of a primitive
    2^{s+1}-th root of unity (s = ord_2(p+1)) and Y = rot90 * X, with
    X^{2^s} = -1, Y^2 = 1, Y X Y^{-1} = X^{2^s - 1}.  The order is that of
    the permutation group the generators induce on the p^2 vectors.
    """
    p = int(p)
    if not is_prime(p) or p == 2:
        raise PreconditionFailed("an odd prime is required")
    eye = np.eye(2, dtype=np.int64)
    if p % 4 == 1:
        s = _factorize(p - 1)[2]
        zeta = prime_field_root(p, 2**s)
        X = np.array([[zeta, 0], [0, 1]], dtype=np.int64)
        Y = np.array([[1, 0], [0, zeta]], dtype=np.int64)
        Z = np.array([[0, 1], [1, 0]], dtype=np.int64)
        gens = [X, Y, Z]
    else:
        s = _factorize(p + 1)[2]
        t = np.trace(_fp2_root(p, 2 ** (s + 1)))
        X = np.array([[0, 1], [1, t]], dtype=np.int64) % p
        Y = np.array([[0, 1], [-1, 0]], dtype=np.int64) % p @ X % p
        gens = [X, Y]
        # defining relations, verified exactly
        if not (_mat_pow(X, 2**s, p) == (p - 1) * eye).all():
            raise ArithmeticError("X does not have the expected 2-power relation")
        if not (Y @ Y % p == eye).all():
            raise ArithmeticError("Y is not an involution")
        # Y is an involution, so it is its own inverse
        if not (Y @ X % p @ Y % p == _mat_pow(X, 2**s - 1, p)).all():
            raise ArithmeticError("the dihedral-type relation fails")
    expected = 2 ** _factorize(p * (p - 1) ** 2 * (p + 1))[2]
    v = np.arange(p * p)
    vectors = np.stack([v % p, v // p])  # the vector with index v, as in vector_index
    perms = [([1, p] @ (M @ vectors % p)).tolist() for M in gens]
    spec = {"kind": "permutations", "degree": p * p, "generators": perms}
    order = build_group(spec, order_budget=expected).order
    if order != expected:
        raise ArithmeticError(f"Sylow order {order} != expected {expected}")
    return [M % p for M in gens], order


@dataclass
class ScanHit:
    """One (group, subgroup, line) triple passing both conditions."""

    group_class: int
    group_order: int
    group_elements: tuple
    subgroup_elements: tuple
    line: tuple
    group_cyclic: bool


@dataclass
class ScanReport:
    p: int
    n: int
    hits: list
    group_classes: int
    subgroups_seen: int
    complete: bool
    budget: dict = field(default_factory=dict)


_GL2_MAX_P = 7  # GL_2(F_7) has 2016 elements, a 32 MB table


def _gl2_group(p):
    """GL_2(F_p) as a FiniteGroup, plus its matrices as (a, b, c, d) rows.

    Element i is the i-th invertible [[a, b], [c, d]] in lexicographic
    (a, b, c, d) order, so a sorted tuple of indices lists its matrices in
    sorted order too.  Row u of a product XY is the row vector u times Y,
    so one table of every vector (as u0 p + u1) times every matrix gives
    the table as a gather over the radix index, 64 rows at a time to keep
    each intermediate at 1 MB at p = 7.
    """
    grid = np.indices((p,) * 4).reshape(4, -1).T
    a, b, c, d = grid.T
    mats = grid[(a * d - b * c) % p != 0]
    radix = p ** np.arange(3, -1, -1)
    index = np.full(p**4, -1, dtype=np.int64)
    index[mats @ radix] = np.arange(len(mats))
    vectors = np.indices((p, p)).reshape(2, -1).T  # (u0, u1) at u0 p + u1
    times = (np.einsum("uk,mkl->uml", vectors, mats.reshape(-1, 2, 2)) % p) @ [p, 1]
    top, bottom = mats[:, :2] @ [p, 1], mats[:, 2:] @ [p, 1]
    mul = np.empty((len(mats), len(mats)), dtype=np.int64)
    for start in range(0, len(mats), 64):
        rows = slice(start, start + 64)
        np.take(index, times[top[rows]] * p * p + times[bottom[rows]], out=mul[rows])
    identity = int(index[radix @ [1, 0, 0, 1]])
    return FiniteGroup(mul, identity, label=f"GL2(F{p})", validate=False), mats


_CLASS_CACHE = {}


def exhaustive_scan(p, n, max_subgroups=200000):
    """Scan all coprime-order subgroups of GL_2(F_p) for (subgroup of index n,
    stable line) pairs with zero fixed space and pointwise-trivial line
    stabilizer; report every hit.

    The report is conclusive (complete=True) unless the subgroup budget was
    exhausted, in which case BudgetExceeded carries the partial counts.
    The matrix group is a multiplication table, so p is at most 7.
    """
    p, n = int(p), int(n)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise PreconditionFailed(f"the index n must be positive, got {n}")
    if math.gcd(p, n) != 1:
        raise NotCoprime(f"{n} is not coprime to {p}")
    if p > _GL2_MAX_P:
        raise OrderBudgetExceeded(
            f"GL_2(F_{p}) has {(p * p - 1) * (p * p - p)} elements; "
            f"its table is built for p <= {_GL2_MAX_P} only"
        )
    # the p'-part of |GL_2(F_p)| = p (p^2 - 1)(p - 1): an order coprime to p
    # is one dividing it
    cap = (p * p - 1) * (p - 1)
    # the table and its classes are independent of the index n being scanned;
    # p stays first in the key: perfbench's tracer reads it to tell cold scans
    # from warm ones
    key = (p, max_subgroups)
    if key not in _CLASS_CACHE:
        G, mats = _gl2_group(p)
        classes, subgroups_seen, subgroups = subgroup_classes(G, cap, max_subgroups)
        subgroups = sorted(subgroups, key=lambda e: (len(e), e))
        # per class, the subgroups of GL_2(F_p) inside it
        subgroups_of = [[H for H in subgroups if S.issuperset(H)] for S in map(set, classes)]
        tuples = [tuple(t) for t in mats.tolist()]
        image, fixed = _line_action(mats.reshape(-1, 2, 2), p)
        _CLASS_CACHE[key] = (G, tuples, image, fixed, classes, subgroups_seen, subgroups_of)
    G, tuples, image, fixed, classes, subgroups_seen, subgroups_of = _CLASS_CACHE[key]
    stays = np.arange(p + 1)
    hits = []
    lines = all_lines(p)
    for ci, S in enumerate(classes):
        if len(S) % n:
            continue
        S_idx = list(S)
        # zero fixed space for the whole group, once per class
        if fixed[S_idx].all(0).any():
            continue
        is_cyc = bool((G.element_orders[S_idx] == len(S)).any())
        # per line: the line's stabilizer in S fixes it pointwise
        trivial_stabilizer = ((image[S_idx] != stays) | fixed[S_idx]).all(0)
        for H in subgroups_of[ci]:
            if len(H) * n != len(S):
                continue
            stable = (image[list(H)] == stays).all(0)
            for L in np.flatnonzero(stable & trivial_stabilizer).tolist():
                hits.append(
                    ScanHit(
                        group_class=ci,
                        group_order=len(S),
                        group_elements=tuple(tuples[t] for t in S),
                        subgroup_elements=tuple(tuples[h] for h in H),
                        line=lines[L],
                        group_cyclic=is_cyc,
                    )
                )
    hits.sort(key=lambda h: (h.group_order, h.group_class, h.subgroup_elements, h.line))
    return ScanReport(
        p=p,
        n=n,
        hits=hits,
        group_classes=len(classes),
        subgroups_seen=subgroups_seen,
        complete=True,
        budget={"max_subgroups": max_subgroups, "pprime_order_cap": cap},
    )


def build_semidirect(rep):
    """The plane-by-group semidirect product of a marked representation.

    Returns (G, H, S) with G = V ⋊ G' of order p^2 |G'|, H = (marked line)
    ⋊ (marked subgroup), and S = V ⋊ 1 the normal Sylow p-subgroup.  The
    representation satisfies both marked-line conditions exactly when the
    commutator and normalizer-centralizer criteria hold for (G, H, p).
    """
    if rep.line is None or rep.hprime is None:
        raise SpecInvalid("a marked line and subgroup are required")
    p = rep.p
    Gp = rep.group
    G = semidirect_from_action(
        p, 2, Gp, rep.mats, label=f"F{p}^2:{Gp.label}", order_budget=4096
    )
    pm = p * p
    line_vec = np.array(rep.line, dtype=np.int64)
    h_elems = []
    for t in range(p):
        v = (t * line_vec) % p
        vn = vector_index(v, p)
        for h in rep.hprime.elements:
            h_elems.append(vn + pm * int(h))
    H = SubgroupHandle(G, tuple(sorted(set(h_elems))))
    S = SubgroupHandle(G, tuple(vn + pm * Gp.identity for vn in range(pm)))
    return G, H, S
