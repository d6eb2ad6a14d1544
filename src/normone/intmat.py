"""Exact integer matrix kernels: Hermite/Smith reduction, solving, lattices.

Everything here is exact over the integers: the row-echelon accumulator and
the Smith reduction both work on object arrays of arbitrary-precision Python
ints.  Pivoting is deterministic with a swap-to-smallest rule to keep
entries small.
"""

from __future__ import annotations

import bisect

import numpy as np


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    old_r, r = int(a), int(b)
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class RowEchelon:
    """Incremental exact integer row-echelon accumulator.

    Rows are fed in one batch at a time; the accumulator maintains the
    Hermite normal form of the row lattice seen so far: pivots are
    positive, and every other row's entry in a pivot column lies in
    [0, pivot).  The basis spans the same lattice as the input rows, so
    Smith invariants of a huge input matrix can be read off the
    (rank x ncols) accumulated basis.
    """

    dtype = object  # rows hold Python ints; perfbench/tracer.py reads this

    def __init__(self, ncols):
        self.ncols = int(ncols)
        self._rows = {}  # pivot column -> row vector
        self._cols = []  # the pivot columns, ascending

    def add_rows(self, rows):
        rows = np.asarray(rows)
        # Python ints throughout, also where an object array holds numpy scalars
        rows = np.frompyfunc(int, 1, 1)(rows) if rows.dtype == object else rows.astype(object)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        for row in rows:
            self._add_one(row.copy())

    def _reduce(self, r, j):
        """r with its entries in the pivot columns after j put in [0, pivot)."""
        for c in self._cols[bisect.bisect_right(self._cols, j):]:
            piv = self._rows[c]
            q = r[c] // piv[c]
            if q:
                r = r - q * piv
        return r

    def _settle(self, j):
        # Hermite condition after row j was inserted or replaced: reduce row
        # j against the later pivots, then each earlier row against row j;
        # that touches its later columns, so reduce those again.
        piv = self._rows[j] = self._reduce(self._rows[j], j)
        lead = piv[j]
        for c in self._cols[: bisect.bisect_left(self._cols, j)]:
            q = self._rows[c][j] // lead
            if q:
                self._rows[c] = self._reduce(self._rows[c] - q * piv, j)

    def _add_one(self, v):
        start = 0
        while True:
            nz = np.flatnonzero(v[start:])
            if nz.size == 0:
                return
            j = start + int(nz[0])
            pivot_row = self._rows.get(j)
            if pivot_row is None:
                if v[j] < 0:
                    v = -v
                self._rows[j] = v
                bisect.insort(self._cols, j)
                self._settle(j)
                return
            a, b = pivot_row[j], v[j]
            if b % a == 0:
                v = v - (b // a) * pivot_row
            else:
                g, x, y = _xgcd(a, b)
                self._rows[j] = x * pivot_row + y * v
                v = (a // g) * v - (b // g) * pivot_row
                self._settle(j)
            start = j  # leading entry of v is now past j

    @property
    def rank(self):
        return len(self._rows)

    def matrix(self):
        """Stacked basis rows ordered by pivot column (object dtype)."""
        if not self._rows:
            return np.zeros((0, self.ncols), dtype=object)
        return np.array([self._rows[c] for c in self._cols], dtype=object)


def row_lattice_basis(A):
    """Hermite-reduced basis of the row lattice of A (rank x ncols)."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    acc = RowEchelon(A.shape[1])
    if A.size:
        acc.add_rows(A)
    return acc.matrix()


def column_lattice_basis(A):
    """Hermite-reduced basis (as columns) of the column lattice of A."""
    return row_lattice_basis(np.asarray(A).T).T


def smith(A, want_uinv=False, want_v=False, carry=None):
    """Smith normal form data for an integer matrix.

    Returns (diag, Uinv, V, carry_out) where diag lists the nonzero
    invariant factors d_1 | d_2 | ... of A, and unimodular U, V satisfy
    U @ A @ V = D.  U itself is never materialized: Uinv (its inverse,
    tracked by inverse column operations) is returned on request, and
    `carry` (a vector or matrix with as many rows as A) receives the same
    row operations as A, i.e. carry_out = U @ carry.
    """
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


def invariant_factors(A):
    """Nonzero invariant factors of A (via a row-lattice precompression)."""
    A = np.asarray(A)
    if A.ndim != 2 or min(A.shape) == 0 or not np.any(A):
        return []
    R = row_lattice_basis(A)
    diag, _, _, _ = smith(R)
    return diag


def cokernel_torsion(A):
    """Invariant factors > 1 of Z^rows / (column lattice of A)."""
    return [d for d in invariant_factors(A) if d > 1]


def kernel_basis(A):
    """Columns form a basis of the integer kernel of A (saturated)."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = A.shape
    if n == 0:
        return np.zeros((0, 0), dtype=object)
    R = row_lattice_basis(A)
    if R.shape[0] == 0:
        return np.eye(n, dtype=object)
    diag, _, V, _ = smith(R, want_v=True)
    return V[:, len(diag):]


def solve(A, b):
    """One integer solution x of A @ x = b, or None if none exists."""
    X = solve_many(A, np.asarray(b).reshape(-1, 1))
    return None if X is None else X[:, 0]


def solve_many(A, B):
    """Solve A @ X = B over the integers; None if any column has no solution."""
    A = np.array(A, dtype=object)
    B = np.array(B, dtype=object)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    m, n = A.shape
    if B.shape[0] != m:
        raise ValueError("shape mismatch in solve")
    if n == 0:
        return np.zeros((0, B.shape[1]), dtype=object) if not np.any(B) else None
    diag, _, V, Y = smith(A, want_v=True, carry=B)
    r = len(diag)
    Z = np.zeros((n, B.shape[1]), dtype=object)
    for c in range(B.shape[1]):
        for i in range(r):
            q, rem = divmod(int(Y[i, c]), diag[i])
            if rem:
                return None
            Z[i, c] = q
        if np.any(Y[r:, c]):
            return None
    return V @ Z


def lattice_intersect(B1, B2):
    """Basis (columns) of the intersection of two column lattices in Z^N."""
    B1 = np.array(B1, dtype=object)
    B2 = np.array(B2, dtype=object)
    if B1.shape[1] == 0 or B2.shape[1] == 0:
        return np.zeros((B1.shape[0], 0), dtype=object)
    stacked = np.hstack([B1, -B2])
    K = kernel_basis(stacked)
    inter = B1 @ K[: B1.shape[1], :]
    return column_lattice_basis(inter)


def quotient_group(Bbig, Bsmall):
    """Structure of (lattice Bbig)/(lattice Bsmall) with generator lifts.

    Requires the columns of Bsmall to span a finite-index sublattice of the
    column lattice of Bbig.  Returns (orders, gens): orders are the
    invariant factors > 1 in ascending divisibility order, and gens[i] is a
    vector in the ambient space whose class has order orders[i]; together
    the classes generate the quotient.
    """
    Bbig = np.array(Bbig, dtype=object)
    Bsmall = np.array(Bsmall, dtype=object)
    k = Bbig.shape[1]
    X = solve_many(Bbig, Bsmall)
    if X is None:
        raise ValueError("second lattice is not contained in the first")
    diag, Uinv, _, _ = smith(X, want_uinv=True)
    if len(diag) < k:
        raise ValueError("quotient is not finite")
    orders, gens = [], []
    for i, d in enumerate(diag):
        if d > 1:
            orders.append(d)
            gens.append(Bbig @ Uinv[:, i])
    return orders, gens
