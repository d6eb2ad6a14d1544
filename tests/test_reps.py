import itertools
import math
import random

import numpy as np
import pytest

from normone.errors import NotCoprime, NotPrime, PreconditionFailed
from normone.reps import (
    QuadraticField,
    all_lines,
    build_semidirect,
    check_bc,
    d_membership,
    exhaustive_scan,
    fixes_line_pointwise,
    reps_of_cyclic,
    s3_standard_rep,
    s_min,
    sylow2_gl2,
    witness_rep,
    _gl2_group,
)
from normone.structure import p_part_conditions


def _mat(t):
    return np.array(t, dtype=np.int64).reshape(2, 2)


def _key(M):
    return tuple(int(x) for x in M.ravel())


def _inv(M, p):
    det = int(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) % p
    adj = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=np.int64)
    return adj * pow(det, p - 2, p) % p


def _order(M, p):
    k, acc = 1, M % p
    while _key(acc) != (1, 0, 0, 1):
        acc = acc @ M % p
        k += 1
    return k


# -- quadratic extension ---------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_quadratic_field_basics(p):
    F = QuadraticField(p)
    g = F.generator()
    assert F.order(g) == p * p - 1
    for n in (2, 3, 4):
        if (p * p - 1) % n == 0:
            z = F.zeta(n)
            assert F.order(z) == n
            # trace and norm land in the prime field
            F.trace(z)
            F.norm(z)


def test_trace_companion_satisfies_quadratic_relation():
    # for every nonzero v: {v, Mv} is a basis and M^2 v = t (M v) - (norm) v,
    # with norm 1 for eigenvalue orders dividing p + 1
    for p, ell in ((5, 3), (2, 3), (11, 3), (13, 7)):
        F = QuadraticField(p)
        z = F.zeta(ell)
        t = F.trace(z)
        assert F.norm(z) == 1  # ell divides p + 1
        M = np.array([[0, -1], [1, t]], dtype=np.int64) % p
        M2 = (M @ M) % p
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                v = np.array([a, b], dtype=np.int64)
                w = (M @ v) % p
                assert (v[0] * w[1] - v[1] * w[0]) % p != 0  # independent pair
                lhs = (M2 @ v) % p
                rhs = (t * w - v) % p
                assert (lhs == rhs).all()


# -- degree sets -----------------------------------------------------------------


def test_membership_table():
    assert d_membership(55, 11).in_D1
    m = d_membership(91, 13)
    assert m.in_D2 and math.gcd(91, 14) == 7
    m = d_membership(10, 5)
    assert not m.in_D1 and not m.in_D2 and not m.in_S
    m = d_membership(4, 2)
    assert m.in_p2Z and m.in_S
    assert d_membership(95, 19).in_D2


def test_membership_requires_prime():
    with pytest.raises(NotPrime):
        d_membership(10, 6)


def test_multiplicative_monotonicity():
    rng = random.Random(20240801)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        d = rng.randrange(1, 400)
        k = rng.randrange(1, 12)
        m1 = d_membership(d, p)
        m2 = d_membership(d * k, p)
        if m1.in_D1:
            assert m2.in_D1
        if m1.in_D2:
            assert m2.in_D2
        if m1.in_S:
            assert m2.in_S


def test_s_min_values():
    assert [s_min(p) for p in (2, 3, 5, 7, 11)] == [4, 9, 15, 21, 33]


# -- classification of cyclic-group representations --------------------------------


def test_reps_of_cyclic_counts():
    assert len(reps_of_cyclic(5, 4)) == 10
    assert len(reps_of_cyclic(5, 3)) == 2
    assert len(reps_of_cyclic(7, 1)) == 1
    with pytest.raises(NotCoprime):
        reps_of_cyclic(5, 10)


def test_reps_of_cyclic_are_pairwise_distinct():
    # distinct classes have distinct (trace, det) of the generator image
    reps = reps_of_cyclic(5, 4)
    keys = set()
    for r in reps:
        M = r.matrix(1) if r.group.order > 1 else np.eye(2, dtype=np.int64)
        key = (int(np.trace(M)) % 5, int(round(np.linalg.det(M))) % 5, _order(M, 5))
        keys.add(key)
    assert len(keys) == len(reps)


# -- witnesses ---------------------------------------------------------------------


def test_witness_rep_examples():
    r = witness_rep(5, 3)
    assert r is not None and check_bc(r) == (True, True)
    assert witness_rep(5, 2) is None
    r = witness_rep(5, 4)
    assert r is not None and check_bc(r) == (True, True)
    r = witness_rep(2, 3)
    assert (r.matrix(1) == np.array([[0, 1], [1, 1]])).all()
    with pytest.raises(NotCoprime):
        witness_rep(3, 6)


def test_witness_rep_matches_membership():
    for p in (2, 3, 5):
        for n in range(1, 13):
            if math.gcd(n, p) != 1:
                continue
            r = witness_rep(p, n)
            flags = d_membership(p * n, p)
            assert (r is not None) == (flags.in_D1 or flags.in_D2), (p, n)
            if r is not None:
                assert check_bc(r) == (True, True)


def test_check_bc_negative_case():
    # the trivial-plus-nontrivial character pair has a fixed vector
    from normone.catalog import cyclic_spec
    from normone.groups import build_group
    from normone.reps import _rep_from_generator_matrix

    G = build_group(cyclic_spec(4))
    M = np.diag([1, 2]).astype(np.int64)  # first coordinate fixed
    rep = _rep_from_generator_matrix(G, M, 5, line=(1, 0))
    b, c = check_bc(rep)
    assert not b


def test_s3_standard_rep():
    for p in (5, 7):
        rep = s3_standard_rep(p)
        assert check_bc(rep) == (True, True)
        fixed = [
            L
            for L in all_lines(p)
            if all(fixes_line_pointwise(rep.mats[h], L, p) for h in rep.hprime.elements)
        ]
        assert fixed == [rep.line]
    with pytest.raises(PreconditionFailed):
        s3_standard_rep(3)


# -- Sylow generators of the matrix group --------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_sylow2_gl2_order_formula(p):
    _, order = sylow2_gl2(p)
    glorder = p * (p - 1) ** 2 * (p + 1)
    expected = 1
    while glorder % 2 == 0:
        expected *= 2
        glorder //= 2
    assert order == expected


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
def test_sylow2_gl2_relations_3mod4(p):
    gens, _ = sylow2_gl2(p)
    X, Y = gens
    s = 0
    q = p + 1
    while q % 2 == 0:
        s += 1
        q //= 2
    acc = np.eye(2, dtype=np.int64)
    for _ in range(2**s):
        acc = acc @ X % p
    assert _key(acc) == ((p - 1) % p, 0, 0, (p - 1) % p)
    assert _key(Y @ Y % p) == (1, 0, 0, 1)
    lhs = Y @ X % p @ _inv(Y, p) % p
    rhs = np.eye(2, dtype=np.int64)
    for _ in range(2**s - 1):
        rhs = rhs @ X % p
    assert _key(lhs) == _key(rhs)


# -- scans -------------------------------------------------------------------------


def test_scan_p2():
    assert len(exhaustive_scan(2, 3).hits) > 0
    assert len(exhaustive_scan(2, 5).hits) == 0
    assert len(exhaustive_scan(2, 1).hits) == 0


def test_scan_p3_all_empty():
    for n in (1, 2, 4, 5):
        assert len(exhaustive_scan(3, n).hits) == 0, n


def test_scan_p5_index_one_empty():
    assert len(exhaustive_scan(5, 1).hits) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gl2_table_is_matrix_product(p):
    G, mats = _gl2_group(p)
    invertible = [
        t for t in itertools.product(range(p), repeat=4) if (t[0] * t[3] - t[1] * t[2]) % p
    ]
    assert [tuple(t) for t in mats.tolist()] == invertible  # lexicographic order
    A = mats.reshape(-1, 2, 2)
    assert (np.einsum("iab,jbc->ijac", A, A) % p == A[G.mul]).all()
    assert _key(A[G.identity]) == (1, 0, 0, 1)


def test_scan_counts_pinned():
    for p, classes, seen in ((3, 9, 31), (5, 30, 291), (7, 50, 1028)):
        report = exhaustive_scan(p, 2)
        assert (report.group_classes, report.subgroups_seen) == (classes, seen)
    hits = {n: len(exhaustive_scan(5, n).hits) for n in (2, 3, 4, 6, 8, 12)}
    assert hits == {2: 0, 3: 9, 4: 4, 6: 3, 8: 0, 12: 0}
    hits = {n: len(exhaustive_scan(7, n).hits) for n in (2, 3, 4, 6, 9, 12)}
    assert hits == {2: 0, 3: 9, 4: 0, 6: 15, 9: 0, 12: 0}


def test_scan_refuses_primes_beyond_the_table():
    from normone.errors import OrderBudgetExceeded

    with pytest.raises(OrderBudgetExceeded):
        exhaustive_scan(11, 2)


def test_scan_budget_exceeded():
    # the enumeration cache keys on the budget, so this cannot be satisfied
    # by a previous full run
    from normone.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded) as err:
        exhaustive_scan(5, 2, max_subgroups=5)
    assert err.value.sizes["budget"] == 5
    assert err.value.sizes["subgroups"] <= 5


def test_scan_hits_have_trivial_core_action():
    # the normal core of the marked subgroup acts trivially on the plane
    for (p, n) in ((2, 3), (3, 2)):
        report = exhaustive_scan(p, n)
        for hit in report.hits:
            S = [_mat(t) for t in hit.group_elements]
            H = set(hit.subgroup_elements)
            core = set(H)
            for g in S:
                gi = _inv(g, p)
                core &= {_key(g @ _mat(h) % p @ gi % p) for h in H}
            assert core == {(1, 0, 0, 1)}


# -- the bridge to group-level conditions ---------------------------------------------


def test_build_semidirect_shapes():
    G, H, S = build_semidirect(witness_rep(2, 3))
    assert (G.order, H.order, S.order) == (12, 2, 4)
    assert S.is_normal
    G, H, S = build_semidirect(witness_rep(5, 3))
    assert G.order == 75 and H.index == 15
    G, H, S = build_semidirect(s3_standard_rep(5))
    assert G.order == 150 and H.index == 15


def test_bridge_bc_equals_group_conditions():
    cases = []
    for p in (2, 3, 5):
        for n in range(1, 13):
            if math.gcd(n, p) != 1:
                continue
            r = witness_rep(p, n)
            if r is not None and p * p * n <= 512:
                cases.append(r)
    cases.append(s3_standard_rep(5))
    assert len(cases) >= 5
    for rep in cases:
        G, H, S = build_semidirect(rep)
        conds = p_part_conditions(G, H, rep.p)
        assert check_bc(rep) == (
            conds.b_commutator_full,
            conds.c_normalizer_is_centralizer,
        ), (rep.p, rep.group.order)
