"""F_{p^2} as pairs and lines one element at a time: a reference for normone.reps.

`QuadraticField` does F_{p^2} arithmetic on pairs (a, b) = a + b w, with
w^2 = c for the least non-residue c (p odd) or w^2 = w + 1 (p = 2).
`line_image` and `fixes_line_pointwise` act with one matrix on one
normalized line; `fixed_space_dim` and `stabilizer_fixes_line` are the
two marked-line conditions, which `marked_line_conditions` evaluates for
a representation.  `scan_hits` is the GL_2 scan written as a loop over
those calls, and `gl2_table` fills the GL_2 multiplication table one row
per matrix.  Representations to test with: `reps_of_cyclic` lists every
2-dimensional representation of Z/n over F_p up to isomorphism, and
`s3_standard_rep` is the standard representation of S3 with its marked
line, whose `build_semidirect` group is a second construction of the
beta(p) group `normone.catalog.beta_shape_spec` describes.  Tests only;
nothing in normone imports it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from normone.catalog import cyclic_spec, symmetric3_spec
from normone.errors import NotCoprime, NotPrime, PreconditionFailed
from normone.groups import (
    SubgroupHandle,
    _rank_mod_p,
    all_subgroups,
    build_group,
    is_prime,
    subgroup_classes,
    subgroup_closure,
)
from normone.lattices import coset_table, j_lattice
from normone.reps import (
    RepTwoDim,
    _fp2_root,
    _gl2_group,
    _mat_pow,
    _rep_from_generator_matrix,
    all_lines,
    normalize_line,
    prime_field_root,
)


class QuadraticField:
    """F_{p^2} as F_p[w]; elements are pairs (a, b) = a + b w."""

    def __init__(self, p):
        assert is_prime(p)
        self.p = p
        if p == 2:
            self.c = None  # w^2 = w + 1
        else:
            residues = {(x * x) % p for x in range(1, p)}
            self.c = next(c for c in range(2, p) if c not in residues)

    def mul(self, x, y):
        p = self.p
        a, b = x
        c2, d = y
        if p == 2:
            hi = b * d
            return ((a * c2 + hi) % 2, (a * d + b * c2 + hi) % 2)
        return ((a * c2 + self.c * b * d) % p, (a * d + b * c2) % p)

    def pow(self, x, k):
        out, base = (1, 0), x
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def order(self, x):
        assert x != (0, 0)
        k, acc = 1, x
        while acc != (1, 0):
            acc = self.mul(acc, x)
            k += 1
        return k

    def generator(self):
        """Smallest (a, b) in lexicographic order generating the unit group."""
        full = self.p**2 - 1
        return next(
            (a, b)
            for a in range(self.p)
            for b in range(self.p)
            if (a, b) != (0, 0) and self.order((a, b)) == full
        )

    def zeta(self, n):
        """A primitive n-th root of unity (requires n | p^2 - 1)."""
        full = self.p**2 - 1
        assert full % n == 0
        return self.pow(self.generator(), full // n)

    def trace(self, x):
        """x + x^p, an element of the prime field."""
        y = self.pow(x, self.p)
        a, b = (x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p
        if b:
            raise ArithmeticError("trace left the prime field")
        return a

    def norm(self, x):
        """x^(p+1), an element of the prime field."""
        y = self.pow(x, self.p + 1)
        if y[1]:
            raise ArithmeticError("norm left the prime field")
        return y[0]


def line_image(M, line, p):
    v = (np.asarray(M, dtype=np.int64) @ np.array(line, dtype=np.int64)) % p
    return normalize_line(v, p)


def fixes_line_pointwise(M, line, p):
    v = np.array(line, dtype=np.int64)
    return bool(((np.asarray(M, dtype=np.int64) @ v) % p == v % p).all())


def fixed_space_dim(mats, elements, p):
    """Dimension over F_p of the common fixed space of the given matrices."""
    eye = np.eye(2, dtype=np.int64)
    return 2 - _rank_mod_p([row for g in elements for row in (mats[g] - eye).tolist()], p)


def stabilizer_fixes_line(mats, elements, line, p):
    """Whether every element that maps the line to itself fixes it pointwise."""
    return all(
        fixes_line_pointwise(mats[g], line, p)
        for g in elements
        if line_image(mats[g], line, p) == line
    )


def marked_line_conditions(rep):
    """(no nonzero fixed vector, the marked line's stabilizer fixes it pointwise)."""
    elements = list(rep.group.elements())
    return (
        fixed_space_dim(rep.mats, elements, rep.p) == 0,
        stabilizer_fixes_line(rep.mats, elements, rep.line, rep.p),
    )


def reps_of_cyclic(p, n):
    """All isomorphism classes of 2-dimensional representations of Z/n over F_p.

    Split classes are unordered pairs of characters (orders divide
    gcd(n, p-1)); the rest are Frobenius orbits of primitive-field
    characters, realized by companion matrices with trace t = z + z^p and
    determinant z^{p+1} for an eigenvalue z of order dividing gcd(n, p^2-1)
    but not p-1, taken modulo z ~ z^p.
    """
    p, n = int(p), int(n)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if math.gcd(p, n) != 1:
        raise NotCoprime(f"{n} is not coprime to {p}")
    G = build_group(cyclic_spec(n))
    out = []
    m1 = math.gcd(n, p - 1)
    w = prime_field_root(p, m1)
    for j1 in range(m1):
        for j2 in range(j1, m1):
            M = np.diag([pow(w, j1, p), pow(w, j2, p)]).astype(np.int64)
            out.append(_rep_from_generator_matrix(G, M, p))
    m2 = math.gcd(n, p * p - 1)
    zeta = _fp2_root(p, m2)
    seen = set()
    for j in range(1, m2):
        jj = min(j, (p * j) % m2)
        if jj in seen:
            continue
        seen.add(jj)
        (a, b), (c, d) = _mat_pow(zeta, j, p).tolist()
        if c == 0:
            continue  # scalar: the eigenvalue is in the prime field, split case
        M = np.array([[0, -(a * d - b * c)], [1, a + d]], dtype=np.int64) % p
        out.append(_rep_from_generator_matrix(G, M, p))
    return out


def s3_standard_rep(p):
    """The irreducible 2-dimensional representation of the order-6 symmetric
    group: the norm-one lattice of a point stabilizer reduced mod p, with
    the unique line fixed pointwise by that stabilizer marked.

    The marked line is spanned by 2*[eH] - [xH] - [yH] (the two cosets of
    the other point stabilizers), pushed through the quotient map.
    """
    p = int(p)
    if not is_prime(p) or p < 5:
        raise PreconditionFailed("a prime p >= 5 is required")
    s3 = build_group(symmetric3_spec())
    H = subgroup_closure(s3, [s3.gens[1]])  # the marked point stabilizer
    J = j_lattice(s3, [(H, 1)])
    reps_list, coset_of = coset_table(s3, H)
    w = np.full(len(reps_list), -1, dtype=np.int64)
    w[coset_of[s3.identity]] = 2
    line = normalize_line((w[1:] - w[0]) % p, p)  # the quotient map [-1 | I]
    return RepTwoDim(s3, p, J.act % p, line=line, hprime=H)


def gl2_table(p):
    """The multiplication table of `reps._gl2_group(p)`, one row at a time:
    the matrices in lexicographic (a, b, c, d) order, row i holding the
    indices of matrix i times each matrix."""
    grid = np.indices((p,) * 4).reshape(4, -1).T
    a, b, c, d = grid.T
    mats = grid[(a * d - b * c) % p != 0]
    radix = p ** np.arange(3, -1, -1)
    index = np.full(p**4, -1, dtype=np.int64)
    index[mats @ radix] = np.arange(len(mats))
    a, b, c, d = mats.T
    mul = np.empty((len(mats), len(mats)), dtype=np.int64)
    for i, (x0, x1, x2, x3) in enumerate(mats.tolist()):
        prod = np.stack([x0 * a + x1 * c, x0 * b + x1 * d, x2 * a + x3 * c, x2 * b + x3 * d])
        mul[i] = index[radix @ (prod % p)]
    return mul


@functools.cache
def _gl2_classes(p):
    """GL_2(F_p)'s matrices and its p'-subgroup classes, each with its subgroups
    from a search inside the class: `all_subgroups` of the class as a group,
    mapped back to GL_2 indices."""
    G, rows = _gl2_group(p)
    classes, _, _ = subgroup_classes(G, (p * p - 1) * (p - 1), 200000)
    out = []
    for S in classes:
        sub, elems = SubgroupHandle(G, S).as_group()
        out.append((S, [[elems[x] for x in H.elements] for H in all_subgroups(sub)]))
    return rows, out


def scan_hits(p, n):
    """The hits of `reps.exhaustive_scan(p, n)`, one matrix and line at a time,
    as (group order, group class, subgroup matrices, line) in the scan's order."""
    rows, classes = _gl2_classes(p)
    tuples = [tuple(t) for t in rows.tolist()]
    mats = rows.reshape(-1, 2, 2)
    hits = []
    for ci, (S, subgroups) in enumerate(classes):
        if len(S) % n or fixed_space_dim(mats, S, p) != 0:
            continue
        for H in subgroups:
            if len(H) * n != len(S):
                continue
            for L in all_lines(p):
                if all(line_image(mats[h], L, p) == L for h in H) and stabilizer_fixes_line(
                    mats, S, L, p
                ):
                    hits.append((len(S), ci, tuple(tuples[h] for h in H), L))
    return sorted(hits)
