"""F_{p^2} as pairs and lines one element at a time: a reference for normone.reps.

`QuadraticField` does F_{p^2} arithmetic on pairs (a, b) = a + b w, with
w^2 = c for the least non-residue c (p odd) or w^2 = w + 1 (p = 2).
`line_image` and `fixes_line_pointwise` act with one matrix on one
normalized line, `scan_hits` is the GL_2 scan written as a loop over
those calls, and `gl2_table` fills the GL_2 multiplication table one row
per matrix.  Tests only; nothing in normone imports it.
"""

from __future__ import annotations

import functools

import numpy as np

from normone.groups import (
    SubgroupHandle,
    _rank_mod_p,
    all_subgroups,
    is_prime,
    subgroup_classes,
)
from normone.reps import _gl2_group, all_lines, normalize_line


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
