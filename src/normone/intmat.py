"""Exact integer matrix kernels: Hermite/Smith reduction, solving, lattices.

Everything here is exact over the integers, on arbitrary-precision Python
ints: the row-echelon accumulator keeps sparse rows {column: nonzero int},
and the Smith reduction works on lists of rows.  Pivoting is deterministic
with a swap-to-smallest rule to keep entries small.  A tall int64 matrix
gets its Hermite basis from a candidate lattice (`row_lattice_basis`).
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


def _axpy(v, q, w):
    """v -= q * w in place, on sparse rows {column: nonzero int}."""
    for c, x in w.items():
        y = v.get(c, 0) - q * x
        if y:
            v[c] = y
        else:
            del v[c]
    return v


def _combine(a, v, b, w):
    """The sparse row a * v + b * w."""
    out = {c: a * x for c, x in v.items()} if a else {}
    return _axpy(out, -b, w)


class RowEchelon:
    """Incremental exact integer row-echelon accumulator.

    Rows are fed in one batch at a time; the accumulator maintains the
    Hermite normal form of the row lattice seen so far: pivots are
    positive, and every other row's entry in a pivot column lies in
    [0, pivot).  The basis spans the same lattice as the input rows, so
    Smith invariants of a huge input matrix can be read off the
    (rank x ncols) accumulated basis.  Rows are kept sparse, as
    {column: nonzero int}: a reduction step touches only the support of
    the pivot row it subtracts.
    """

    dtype = object  # rows hold Python ints; perfbench/tracer.py reads this

    def __init__(self, ncols):
        self.ncols = int(ncols)
        self._rows = {}  # pivot column -> sparse row
        self._cols = []  # the pivot columns, ascending

    def add_rows(self, rows):
        rows = np.asarray(rows)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        for row in rows:
            nz = row.nonzero()[0]
            if nz.size:
                # Python ints, also where an object array holds numpy scalars
                self._add_one({c: int(x) for c, x in zip(nz.tolist(), row[nz].tolist())})

    def _reduce(self, r, j):
        """r with its entries in the pivot columns after j put in [0, pivot)."""
        for c in self._cols[bisect.bisect_right(self._cols, j):]:
            x = r.get(c)
            if x is not None:
                piv = self._rows[c]
                q = x // piv[c]
                if q:
                    _axpy(r, q, piv)
        return r

    def _settle(self, j):
        # Hermite condition after row j was inserted or replaced: reduce row
        # j against the later pivots, then each earlier row against row j;
        # that touches its later columns, so reduce those again.
        piv = self._reduce(self._rows[j], j)
        lead = piv[j]
        for c in self._cols[: bisect.bisect_left(self._cols, j)]:
            row = self._rows[c]
            q = row.get(j, 0) // lead
            if q:
                self._reduce(_axpy(row, q, piv), j)

    def _add_one(self, v):
        while v:
            j = min(v)
            pivot_row = self._rows.get(j)
            if pivot_row is None:
                if v[j] < 0:
                    v = {c: -x for c, x in v.items()}
                self._rows[j] = v
                bisect.insort(self._cols, j)
                self._settle(j)
                return
            a, b = pivot_row[j], v[j]
            if b % a == 0:
                _axpy(v, b // a, pivot_row)
            else:
                g, x, y = _xgcd(a, b)
                self._rows[j] = _combine(x, pivot_row, y, v)
                v = _combine(a // g, v, -(b // g), pivot_row)
                self._settle(j)
            # v now vanishes at j and before it

    @property
    def rank(self):
        return len(self._rows)

    def matrix(self):
        """Stacked basis rows ordered by pivot column (dense, object dtype)."""
        out = np.zeros((len(self._cols), self.ncols), dtype=object)
        for i, c in enumerate(self._cols):
            for k, x in self._rows[c].items():
                out[i, k] = x
        return out


# below this many entries a tall matrix is cheaper to reduce row by row
# (measured on the d^1 matrices of the catalog groups)
_CANDIDATE_CELLS = 400


def _members(X, acc):
    """Mask of the int64 rows x of X proved to lie in the row lattice of the
    accumulator: x = a B exactly for its basis B and an integer vector a.

    a is read off the pivots by back substitution in int64, which may wrap
    around; so a row counts only where max|x| + sum_i |a_i| max|B_i| < 2^62
    (summed in float64, whose rounding that margin covers).  That bounds
    every product and partial sum of x - a B below 2^63, so its residual is
    exact, and zero exactly when x = a B.
    """
    cols = acc._cols
    if not cols:
        return ~X.any(axis=1)
    B = np.zeros((len(cols), acc.ncols), dtype=np.int64)
    for i, c in enumerate(cols):
        row = acc._rows[c]
        if max(map(abs, row.values())) >= 2**62:
            return np.zeros(len(X), dtype=bool)
        B[i, list(row)] = list(row.values())
    a = np.zeros((len(X), len(cols)), dtype=np.int64)
    rest = X.copy()
    for i, c in enumerate(cols):
        a[:, i] = rest[:, c] // B[i, c]
        rest[:, c:] -= a[:, i, None] * B[i, c:]
    bound = np.abs(X.astype(np.float64)).max(axis=1)
    bound += (np.abs(a.astype(np.float64)) * np.abs(B).max(axis=1)).sum(axis=1)
    return (bound < 2.0**62) & ~rest.any(axis=1)


def row_lattice_basis(A):
    """Hermite-reduced basis of the row lattice of A (rank x ncols).

    A tall int64 matrix (4 rows per column, _CANDIDATE_CELLS entries) goes
    through a candidate lattice: its first ncols rows are reduced, and the
    other rows that `_members` cannot prove in the lattice so far are
    inserted, ncols at a time, before the rest are checked again.  The
    candidate lies in the row lattice and contains every row, so it is
    that lattice, whose Hermite basis is unique.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = A.shape
    acc = RowEchelon(n)
    if A.dtype == np.int64 and m >= 4 * n and A.size >= _CANDIDATE_CELLS:
        acc.add_rows(A[:n])
        rest = A[n:]
        while len(rest):
            rest = rest[~_members(rest, acc)]
            acc.add_rows(rest[:n])
            rest = rest[n:]
    elif A.size:
        acc.add_rows(A)
    return acc.matrix()


def column_lattice_basis(A):
    """Hermite-reduced basis (as columns) of the column lattice of A."""
    return row_lattice_basis(np.asarray(A).T).T


def _int_rows(M):
    return [[int(x) for x in row] for row in M.tolist()]


def smith(A, want_uinv=False, want_v=False, carry=None):
    """Smith normal form data for an integer matrix.

    Returns (diag, Uinv, V, carry_out) where diag lists the nonzero
    invariant factors d_1 | d_2 | ... of A, and unimodular U, V satisfy
    U @ A @ V = D.  U itself is never materialized: Uinv (its inverse,
    tracked by inverse column operations) is returned on request, and
    `carry` (a vector or matrix with as many rows as A) receives the same
    row operations as A, i.e. carry_out = U @ carry.  The reduction runs
    on lists of rows of Python ints, with Uinv and V transposed.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("smith expects a 2-d matrix")
    m, n = A.shape
    A = _int_rows(A)
    UT = _int_rows(np.eye(m, dtype=np.int64)) if want_uinv else None  # UT[i] = Uinv[:, i]
    VT = _int_rows(np.eye(n, dtype=np.int64)) if want_v else None  # VT[i] = V[:, i]
    C = None
    if carry is not None:
        C = np.array(carry, dtype=object)
        if C.ndim == 1:
            C = C.reshape(-1, 1)
        if C.shape[0] != m:
            raise ValueError("carry must have as many rows as A")
        C, width = _int_rows(C), C.shape[1]
    rows = [M for M in (A, C) if M is not None]  # these take A's row operations
    lists = rows + [UT] * (UT is not None)  # these A's row swaps and negations

    def axpy(M, i, j, q):  # M[i] -= q * M[j]
        M[i] = [x - q * y for x, y in zip(M[i], M[j])]

    def row_op(i, j, q):  # row_i -= q * row_j
        for M in rows:
            axpy(M, i, j, q)
        if UT is not None:
            axpy(UT, j, i, -q)

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in A:
            if row[j]:
                row[i] -= q * row[j]
        if VT is not None:
            axpy(VT, i, j, q)

    def row_swap(i, j):
        for M in lists:
            M[i], M[j] = M[j], M[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        if VT is not None:
            VT[i], VT[j] = VT[j], VT[i]

    k = 0
    while k < min(m, n):
        best, at = 0, None  # the first entry of least absolute value in A[k:, k:]
        for i in range(k, m):
            for j, x in enumerate(A[i][k:], k):
                if x and (at is None or abs(x) < best):
                    best, at = abs(x), (i, j)
            if best == 1:
                break  # no entry is smaller
        if at is None:
            break
        if at[0] != k:
            row_swap(k, at[0])
        if at[1] != k:
            col_swap(k, at[1])
        while True:
            if A[k][k] < 0:
                for M in lists:
                    M[k] = [-x for x in M[k]]
            pivot = A[k][k]
            clean = True
            for i in range(k + 1, m):
                if A[i][k]:
                    row_op(i, k, A[i][k] // pivot)
                    if A[i][k]:
                        row_swap(k, i)
                        clean = False
                        break
            if not clean:
                continue
            for j in range(k + 1, n):
                if A[k][j]:
                    col_op(j, k, A[k][j] // pivot)
                    if A[k][j]:
                        col_swap(k, j)
                        clean = False
                        break
            if clean:
                break
        pivot = A[k][k]
        if pivot != 1:
            bad = next((i for i in range(k + 1, m) if any(x % pivot for x in A[i][k + 1:])), None)
            if bad is not None:
                row_op(k, bad, -1)
                continue
        k += 1

    def array(M, width):
        return np.array(M, dtype=object).reshape(len(M), width)

    diag = [abs(A[i][i]) for i in range(min(m, n)) if A[i][i]]
    Uinv = None if UT is None else array(UT, m).T
    V = None if VT is None else array(VT, n).T
    return diag, Uinv, V, None if C is None else array(C, width)


def invariant_factors(A):
    """Nonzero invariant factors of A (via a row-lattice precompression)."""
    A = np.asarray(A)
    if A.ndim != 2 or min(A.shape) == 0 or not np.any(A):
        return []
    R = row_lattice_basis(A)
    diag, _, _, _ = smith(R)
    return diag


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
