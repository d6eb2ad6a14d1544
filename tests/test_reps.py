import itertools
import math
import random

import numpy as np
import pytest

import plane_oracle
from plane_oracle import marked_line_conditions, reps_of_cyclic, s3_standard_rep
from normone.errors import NotCoprime, NotPrime, PreconditionFailed, SpecInvalid
from normone.groups import all_subgroups, is_prime
from normone.reps import (
    RepTwoDim,
    all_lines,
    build_semidirect,
    d_membership,
    exhaustive_scan,
    s_min,
    sylow2_gl2,
    witness_rep,
    _CLASS_CACHE,
    _fp2_root,
    _gl2_group,
    _line_action,
    _mat_pow,
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
        assert k < p * p, "no element of GL_2(F_p) has order p^2 or more"
    return k


# -- quadratic extension ---------------------------------------------------------


def _scalar(M, p):
    """The prime-field element a when M = a I mod p, else None."""
    M = M % p
    return int(M[0, 0]) if M[0, 1] == M[1, 0] == 0 and M[0, 0] == M[1, 1] else None


def _trace_det(z, p):
    return int(z[0, 0] + z[1, 1]) % p, int(z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0]) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_quadratic_field_basics(p):
    g = _fp2_root(p, p * p - 1)  # the generator itself
    assert _order(g, p) == p * p - 1
    for n in (2, 3, 4):
        if (p * p - 1) % n == 0:
            z = _fp2_root(p, n)
            assert _order(z, p) == n
            # trace z + z^p and norm z^(p+1) land in the prime field, and
            # they are the matrix trace and determinant
            t, d = _trace_det(z, p)
            assert _scalar(z + _mat_pow(z, p, p), p) == t
            assert _scalar(_mat_pow(z, p + 1, p), p) == d


def test_trace_companion_satisfies_quadratic_relation():
    # for every nonzero v: {v, Mv} is a basis and M^2 v = t (M v) - (norm) v,
    # with norm 1 for eigenvalue orders dividing p + 1
    for p, ell in ((5, 3), (2, 3), (11, 3), (13, 7)):
        t, norm = _trace_det(_fp2_root(p, ell), p)
        assert norm == 1  # ell divides p + 1
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


def test_fp2_root_matches_pair_arithmetic():
    # the same root as the pair field's zeta(n): same element (a, b) in the
    # first column, same trace and norm, for every n | p^2 - 1
    cases = 0
    for p in (q for q in range(2, 32) if is_prime(q)):
        F = plane_oracle.QuadraticField(p)
        for n in range(1, p * p):
            if (p * p - 1) % n:
                continue
            z, ref = _fp2_root(p, n), F.zeta(n)
            assert tuple(z[:, 0].tolist()) == ref, (p, n)
            assert _trace_det(z, p) == (F.trace(ref), F.norm(ref)), (p, n)
            cases += 1
    assert cases == 178


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_line_action_matches_per_element_loop(p):
    _, rows = _gl2_group(p)
    mats = rows.reshape(-1, 2, 2)
    image, fixed = _line_action(mats, p)
    lines = all_lines(p)
    assert image.shape == fixed.shape == (len(mats), p + 1)
    for g, M in enumerate(mats):
        assert [lines[L] for L in image[g]] == [plane_oracle.line_image(M, L, p) for L in lines]
        assert fixed[g].tolist() == [plane_oracle.fixes_line_pointwise(M, L, p) for L in lines]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gl2_table_matches_row_loop(p):
    G, _ = _gl2_group(p)
    assert G.mul.dtype == np.int64
    assert np.array_equal(G.mul, plane_oracle.gl2_table(p))


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
        M = r.mats[1] if r.group.order > 1 else np.eye(2, dtype=np.int64)
        key = (int(np.trace(M)) % 5, int(round(np.linalg.det(M))) % 5, _order(M, 5))
        keys.add(key)
    assert len(keys) == len(reps)


# -- witnesses ---------------------------------------------------------------------


def test_witness_rep_examples():
    r = witness_rep(5, 3)
    assert r is not None and marked_line_conditions(r) == (True, True)
    assert witness_rep(5, 2) is None
    r = witness_rep(5, 4)
    assert r is not None and marked_line_conditions(r) == (True, True)
    r = witness_rep(2, 3)
    assert (r.mats[1] == np.array([[0, 1], [1, 1]])).all()
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
                assert marked_line_conditions(r) == (True, True)


def test_check_bc_negative_case():
    # the trivial-plus-nontrivial character pair has a fixed vector, so the
    # commutator [G, S] of its plane-by-group product is one line, not S
    from normone.catalog import cyclic_spec
    from normone.groups import build_group, trivial_subgroup
    from normone.reps import _rep_from_generator_matrix

    G = build_group(cyclic_spec(4))
    M = np.diag([1, 2]).astype(np.int64)  # first coordinate fixed
    rep = _rep_from_generator_matrix(G, M, 5, line=(1, 1), hprime=trivial_subgroup(G))
    b, c = marked_line_conditions(rep)
    assert not b
    GS, H, S = build_semidirect(rep)
    assert not p_part_conditions(GS, H, 5).b_commutator_full


def test_s3_standard_rep():
    for p in (5, 7):
        rep = s3_standard_rep(p)
        assert marked_line_conditions(rep) == (True, True)
        _, fixed = _line_action(rep.mats[list(rep.hprime.elements)], p)
        assert [L for L, f in zip(all_lines(p), fixed.all(0)) if f] == [rep.line]
    with pytest.raises(PreconditionFailed):
        s3_standard_rep(3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_marked_line_checks_match_per_element_loop(p):
    # the line-stabilizer validation, against the per-element loop, for
    # every representation of Z/n, marked line and marked subgroup
    for n in (3, 4, 6):
        if n % p == 0:
            continue
        for rep in reps_of_cyclic(p, n):
            G = rep.group
            for L in all_lines(p):
                for H in all_subgroups(G):
                    stays = all(plane_oracle.line_image(rep.mats[h], L, p) == L for h in H.elements)
                    if stays:
                        RepTwoDim(G, p, rep.mats, line=L, hprime=H)
                    else:
                        with pytest.raises(SpecInvalid):
                            RepTwoDim(G, p, rep.mats, line=L, hprime=H)


@pytest.mark.parametrize("p", [1000003, 999999937])
def test_s3_standard_rep_at_large_primes(p):
    # validation touches the marked line only, so a large p costs no more
    # than a small one
    rep = s3_standard_rep(p)
    assert marked_line_conditions(rep) == (True, True)
    # the marked line is the +1 eigenline of the transposition; adding a -1
    # eigenvector gives a line the transposition moves
    M = rep.mats[rep.group.gens[1]]
    u = next(c for c in ((M - np.eye(2, dtype=np.int64)) % p).T.tolist() if any(c))
    moved = [(a + b) % p for a, b in zip(rep.line, u)]
    with pytest.raises(SpecInvalid):
        RepTwoDim(rep.group, p, rep.mats, line=moved, hprime=rep.hprime)


def test_validation_rejects_non_homomorphisms():
    from normone.catalog import catalog_group

    G, p = catalog_group("Z3"), 5
    eye = np.eye(2, dtype=np.int64)
    RepTwoDim(G, p, [eye, eye, eye])
    # s -> -1 extends along the tree to [1, -1, 1], which breaks s^2 . s = 1
    with pytest.raises(SpecInvalid, match="do not define a homomorphism"):
        RepTwoDim(G, p, [eye, -eye, eye])
    with pytest.raises(SpecInvalid, match="do not define a homomorphism"):
        RepTwoDim(G, p, [2 * eye, eye, eye])  # the identity must act trivially


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scan_matches_per_element_loop(p):
    found = 0
    for n in range(1, 25):
        if math.gcd(n, p) != 1:
            continue
        got = [
            (h.group_order, h.group_class, h.subgroup_elements, h.line)
            for h in exhaustive_scan(p, n).hits
        ]
        assert got == plane_oracle.scan_hits(p, n), n
        found += len(got)
    assert found > 0 or p == 3  # GL_2(F_3) has no hits at all


@pytest.mark.parametrize("p", [5, 7])
def test_class_subgroups_match_nested_search(p):
    exhaustive_scan(p, 1)
    classes, _, subgroups_of = _CLASS_CACHE[(p, 200000)][4:]
    _, nested = plane_oracle._gl2_classes(p)
    assert len(nested) == len(classes) == len(subgroups_of)
    for (S, subgroups), T, got in zip(nested, classes, subgroups_of):
        assert S == T
        assert [tuple(H) for H in subgroups] == got, S


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
        assert marked_line_conditions(rep) == (
            conds.b_commutator_full,
            conds.c_normalizer_is_centralizer,
        ), (rep.p, rep.group.order)
