import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normone import intmat
from normone.finab import FinAb


def test_known_invariant_factors():
    A = [[12, 6, 4, 8], [3, 9, 6, 12], [2, 16, 14, 28], [20, 10, 10, 20]]
    assert intmat.invariant_factors(A) == [1, 10, 30]


def test_smith_transform_identity():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m, n = rng.integers(1, 6, size=2)
        M = rng.integers(-7, 8, size=(m, n))
        diag, Uinv, V, _ = intmat.smith(M, want_uinv=True, want_v=True)
        D = np.zeros((m, n), dtype=object)
        for i, d in enumerate(diag):
            D[i, i] = d
        assert (np.array(M, dtype=object) @ V == Uinv @ D).all()
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # Uinv and V are unimodular
        assert intmat.invariant_factors(Uinv) == [1] * m
        assert intmat.invariant_factors(V) == [1] * n


def test_solve_no_solution():
    assert intmat.solve([[2, 0], [0, 2]], [1, 0]) is None
    assert intmat.solve([[2, 4]], [3]) is None
    x = intmat.solve([[2, 4]], [6])
    assert x is not None and 2 * x[0] + 4 * x[1] == 6


def test_quotient_group_structure():
    orders, gens = intmat.quotient_group(np.eye(2, dtype=object), [[2, 0], [0, 4]])
    assert orders == [2, 4]
    assert len(gens) == 2
    orders, _ = intmat.quotient_group(np.eye(1, dtype=object), [[6]])
    assert orders == [6]
    # trivial quotient
    orders, gens = intmat.quotient_group(np.eye(2, dtype=object), np.eye(2, dtype=object))
    assert orders == [] and gens == []


def test_lattice_intersect():
    I = intmat.lattice_intersect([[2, 0], [0, 1]], [[3, 0], [0, 1]])
    got = sorted(tuple(int(x) for x in I[:, i]) for i in range(I.shape[1]))
    assert got == [(0, 1), (6, 0)]


def test_row_echelon_overflow_lift():
    # entries past the int64 guard must lift to exact Python ints
    big = 2**45
    A = np.array([[big, 1, 0], [1, big, 0], [0, 1, big]], dtype=object)
    facs = intmat.invariant_factors(A)
    prod = 1
    for d in facs:
        prod *= d
    # |det| = product of invariant factors for a full-rank square matrix
    det = big * big * big - big
    assert prod == abs(det)


def test_cokernel_torsion():
    assert intmat.cokernel_torsion(np.array([[2, 0], [0, 3]])) == [2, 3] or \
        intmat.cokernel_torsion(np.array([[2, 0], [0, 3]])) == [6]
    # canonical: invariant factors of diag(2,3) are [1, 6]
    assert intmat.invariant_factors([[2, 0], [0, 3]]) == [1, 6]


def test_finab_canonicalization():
    assert FinAb.from_factors([2, 3]).factors == (6,)
    assert FinAb.from_factors([2, 2, 3]).factors == (2, 6)
    assert FinAb.from_factors([4, 6]).factors == (2, 12)
    assert FinAb.from_factors([1, 1]).factors == ()
    assert FinAb.from_factors([12, 18]).to_list() == [6, 36]
    with pytest.raises(ValueError):
        FinAb((3, 2))  # not a divisibility chain


def test_finab_parts_and_sum():
    g = FinAb.from_factors([2, 6])  # Z/2 + Z/6
    assert g.order == 12 and g.exponent == 6
    assert g.primary_part(2) == FinAb((2, 2))
    assert g.primary_part(3) == FinAb((3,))
    assert g.prime_to_part(2) == FinAb((3,))
    assert (FinAb.cyclic(2) + FinAb.cyclic(3)) == FinAb.cyclic(6)
    assert str(FinAb.from_factors([3, 3])) == "[3, 3]"
    assert str(FinAb.trivial()) == "[]"


def test_finab_embedding():
    assert FinAb.trivial().embeds_in(FinAb.from_factors([5, 5]))
    assert FinAb.cyclic(5).embeds_in(FinAb.from_factors([5, 5]))
    assert not FinAb.cyclic(25).embeds_in(FinAb.from_factors([5, 5]))
    assert not FinAb.from_factors([5, 5, 5]).embeds_in(FinAb.from_factors([5, 5]))
    assert FinAb.from_factors([2, 3]).embeds_in(FinAb.from_factors([2, 2, 9]))
    assert not FinAb.cyclic(7).embeds_in(FinAb.from_factors([2, 2, 9]))


def test_row_echelon_mid_insertion_lift():
    # a shape that forces gcd combines with large coefficients after the
    # accumulator lifts mid-insertion: fast path must match the pure-object
    # path exactly
    rng = np.random.default_rng(99)
    n = 30
    A = rng.integers(-9, 10, size=(120, n)).astype(object)
    A[:, 0] *= 3 * 10**9
    A[:, 1] *= 7 * 10**8 + 1
    fast = intmat.RowEchelon(n)
    exact = intmat.RowEchelon(n, dtype=object)
    fast.add_rows(A)
    exact.add_rows(A)
    assert set(fast._rows) == set(exact._rows)
    for c in fast._rows:
        assert all(int(a) == int(b) for a, b in zip(fast._rows[c], exact._rows[c]))


def _matrices(max_entry, max_cols=6, max_rows=9):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
            min_size=1,
            max_size=max_rows,
        )
    )


@settings(max_examples=200, deadline=None)
@given(_matrices(30), st.integers(1, 3))
def test_row_echelon_is_hermite(rows, batches):
    # pivots positive and strictly to the right row by row; every entry in
    # a pivot column, off the pivot's own row, lies in [0, pivot); the
    # basis spans the row lattice of the input
    _check_hermite(rows, batches, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(_matrices(2**70), st.integers(1, 3))
def test_row_echelon_is_hermite_after_lift(rows, batches):
    _check_hermite(rows, batches, dtype=object)


def _check_hermite(rows, batches, dtype):
    A = np.array(rows, dtype=dtype)
    acc = intmat.RowEchelon(A.shape[1])
    for chunk in np.array_split(A, batches):
        acc.add_rows(chunk)
    B = acc.matrix()
    pivots = [int(np.flatnonzero(row)[0]) for row in B]
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        lead = int(B[i, c])
        assert lead > 0
        assert all(0 <= int(B[k, c]) < lead for k in range(len(B)) if k != i)
    A = A.astype(object)
    if B.shape[0]:
        assert intmat.solve_many(B.T, A.T) is not None
        assert intmat.solve_many(A.T, B.T) is not None
    else:
        assert not np.any(A)


# -- properties of the integer linear algebra ---------------------------------------------


def _det(M):
    """Leibniz determinant of a small square matrix, exact."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(_matrices(12, max_cols=4, max_rows=4))
def test_smith_invariants_are_gcds_of_minors(rows):
    # d_1 | d_2 | ..., and d_1 * ... * d_k is the gcd of the k x k minors
    diag = intmat.smith(rows)[0]
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert intmat.invariant_factors(rows) == diag
    m, n = len(rows), len(rows[0])
    for k in range(1, min(m, n) + 1):
        minors = [
            _det([[rows[i][j] for j in cols] for i in rs])
            for rs in itertools.combinations(range(m), k)
            for cols in itertools.combinations(range(n), k)
        ]
        assert math.gcd(*minors) == (math.prod(diag[:k]) if k <= len(diag) else 0)


@settings(max_examples=150, deadline=None)
@given(_matrices(9), st.data())
def test_carry_matches_row_ops(rows, data):
    # solve (which carries the right-hand side through Smith's row
    # operations) round-trips A x, and any solution it returns is exact
    A = np.array(rows, dtype=object)
    n, m = A.shape[1], A.shape[0]
    x = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    b = A @ np.array(x, dtype=object)
    y = intmat.solve(A, b)
    assert y is not None and (A @ y == b).all()
    b = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m)), dtype=object)
    y = intmat.solve(A, b)
    assert y is None or (A @ y == b).all()


@settings(max_examples=150, deadline=None)
@given(_matrices(9))
def test_kernel_saturated(rows):
    # A K = 0, K has n - rank(A) columns, and K extends to a basis of Z^n
    A = np.array(rows, dtype=object)
    K = intmat.kernel_basis(A)
    assert K.shape == (A.shape[1], A.shape[1] - len(intmat.invariant_factors(A)))
    assert not np.any(A @ K)
    if K.shape[1]:
        assert intmat.invariant_factors(K) == [1] * K.shape[1]


def _lattice_pairs():
    # two column bases of sublattices of Z^n, n <= 4
    def basis(n, k):
        return st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k), min_size=n, max_size=n)

    def pair(n):
        return st.tuples(*[st.integers(1, 3).flatmap(lambda k: basis(n, k))] * 2)

    return st.integers(1, 4).flatmap(pair)


@settings(max_examples=100, deadline=None)
@given(_lattice_pairs())
def test_lattice_intersect_is_symmetric(pair):
    B1, B2 = (np.array(B, dtype=object) for B in pair)
    I12, I21 = intmat.lattice_intersect(B1, B2), intmat.lattice_intersect(B2, B1)
    assert I12.shape == I21.shape and (I12 == I21).all()
    for B in (B1, B2):
        assert intmat.solve_many(B, I12) is not None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 400), max_size=6))
def test_finab_from_factors_is_idempotent(orders):
    g = FinAb.from_factors(orders)
    assert FinAb.from_factors(g.factors) == g
    assert g.order == math.prod(orders)
