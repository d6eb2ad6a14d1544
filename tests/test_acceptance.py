"""Acceptance battery: one test per criterion, each printing a PASS line
with its runtime and enforcing the stated time budget."""

import itertools
import math
import time

import numpy as np

from normone.catalog import (
    a4_shape_spec,
    abelian_spec,
    catalog_group,
    catalog_names,
    symmetric3_spec,
)
from normone.cohomology import cohomology, sha
from normone.finab import FinAb
from normone.groups import (
    abelianization,
    all_subgroups,
    build_group,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
)
from normone.lattices import induced_perm_lattice, j_lattice
from normone.reps import (
    build_semidirect,
    check_bc,
    d_membership,
    exhaustive_scan,
    s3_standard_rep,
    s_min,
    sylow2_gl2,
    witness_rep,
)
from normone.structure import (
    _p_restriction_check,
    p_part_conditions,
    sha_full,
    sha_p_part,
    sha_prime_index_family,
    sha_prime_to_p,
)


def _stamp(k, label, t0, limit):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"criterion {k} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"criterion {k} ({label}): PASS in {elapsed:.1f}s")


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _key(M):
    return tuple(int(x) for x in M.ravel())


def test_criterion_01_bicyclic_kernels():
    t0 = time.monotonic()
    for ns, n1 in (((2, 2), 2), ((2, 4), 2), ((3, 3), 3)):
        tcase = time.monotonic()
        G = build_group(abelian_spec(*ns))
        lat, _ = j_lattice(G, [(trivial_subgroup(G), 1)])
        got = sha(G, lat, []).structure
        assert got == FinAb.cyclic(n1), (ns, got)
        assert time.monotonic() - tcase < 30
    _stamp(1, "bicyclic full-lattice kernels", t0, 90)


def test_criterion_02_prime_index_family_oracle():
    t0 = time.monotonic()
    cases = []
    V4 = catalog_group("V4")
    subs = [h for h in all_subgroups(V4) if h.index == 2]
    cases.append((V4, subs[:2]))
    cases.append((V4, subs[:3]))
    T9 = catalog_group("Z3xZ3")
    subs3 = [h for h in all_subgroups(T9) if h.index == 3]
    cases.append((T9, subs3[:2]))
    cases.append((T9, subs3[:3]))
    cases.append((T9, subs3[:4]))
    E8 = catalog_group("E8")
    subs8 = [h for h in all_subgroups(E8) if h.index == 2]
    for trio in itertools.combinations(subs8, 3):
        inter = set.intersection(*(set(h.elements) for h in trio))
        if len(inter) == 1:
            cases.append((E8, list(trio)))
            break
    for G, fam in cases:
        pairs = [(h, 1) for h in fam]
        lat, _ = j_lattice(G, pairs)
        brute = sha(G, lat, []).structure
        fast = sha_prime_index_family(G, pairs)
        assert brute == fast, (G.label, len(fam), brute, fast)
    # pinned values: rank-4 family over (Z/3)^2 and the rank-3 m=3 family
    assert sha_prime_index_family(T9, [(h, 1) for h in subs3]) == FinAb((3, 3))
    assert sha_prime_index_family(E8, [(h, 1) for h in cases[-1][1]]).is_trivial()
    _stamp(2, "prime-index family oracle equivalence", t0, 300)


def test_criterion_03_order12_exceptional_pair():
    t0 = time.monotonic()
    G = build_group(a4_shape_spec(2))
    H = subgroup_closure(G, [1])
    conds = p_part_conditions(G, H, 2)
    assert conds.a_rank_two and conds.b_commutator_full and conds.c_normalizer_is_centralizer
    lat, _ = j_lattice(G, [(H, 1)])
    assert sha(G, lat, []).structure == FinAb.cyclic(2)
    assert sha(G, lat, [sylow_subgroup(G, 2)]).structure.is_trivial()
    rep = sha_full(G, H, 2, method="both")
    assert rep.agreement is True and rep.result == FinAb.cyclic(2)
    _stamp(3, "order-12 exceptional pair", t0, 60)


def test_criterion_04_prime_index_vanishing():
    t0 = time.monotonic()
    checked = 0
    for name in ("S3", "D4", "Q8", "Z12", "A4"):
        G = catalog_group(name)
        for H in all_subgroups(G):
            if H.order == G.order or not _is_prime(H.index):
                continue
            lat, _ = j_lattice(G, [(H, 1)])
            got = sha(G, lat, []).structure
            assert got.is_trivial(), (name, H.elements, got)
            checked += 1
    assert checked >= 10
    _stamp(4, f"prime-index vanishing ({checked} pairs)", t0, 300)


def test_criterion_05_annihilation_bounds():
    t0 = time.monotonic()
    pairs = []
    for name in ("V4", "Z2xZ4", "Z3xZ3", "S3", "Z6", "D4", "Q8", "Z12", "A4"):
        G = catalog_group(name)
        for H in all_subgroups(G):
            if H.order == G.order:
                continue
            pairs.append((name, G, H))
    for name, G, H in pairs:
        lat, _ = j_lattice(G, [(H, 1)])
        got = sha(G, lat, []).structure
        index = H.index
        if not got.is_trivial():
            assert index % got.exponent == 0, (name, H.elements, got)
        # index 2p with p odd: annihilated by 2
        odd = index // 2
        if index % 2 == 0 and _is_prime(odd) and odd > 2:
            assert got.exponent in (1, 2), (name, H.elements, got)
        # below the smallest obstruction degree the p-primary part vanishes
        for p in (2, 3, 5):
            if index < s_min(p):
                assert got.primary_part(p).is_trivial(), (name, H.elements, p)
    _stamp(5, f"annihilation bounds ({len(pairs)} pairs)", t0, 300)


def test_criterion_06_degree_table():
    t0 = time.monotonic()
    assert s_min(2) == 4
    assert s_min(3) == 9
    assert s_min(5) == 15
    assert s_min(7) == 21
    assert s_min(11) == 33
    assert d_membership(55, 11).in_D1 is True
    assert d_membership(91, 13).in_D2 is True
    assert d_membership(95, 19).in_D2 is True
    _stamp(6, "degree membership table", t0, 1)


def test_criterion_07_scan_equivalence():
    t0 = time.monotonic()
    for n in (2, 3, 4, 6):
        report = exhaustive_scan(5, n)
        assert report.complete
        assert "max_subgroups" in report.budget and "pprime_order_cap" in report.budget
        flags = d_membership(5 * n, 5)
        expected = flags.in_D1 or flags.in_D2
        assert bool(report.hits) == expected, (n, len(report.hits))
        if n == 4:
            assert report.hits and all(
                h.group_order == 4 and h.group_cyclic for h in report.hits
            )
    _stamp(7, "representation scan equivalence (p=5)", t0, 600)


def test_criterion_08_bridge():
    t0 = time.monotonic()
    reps = []
    for p in (2, 3, 5):
        for n in range(1, 13):
            if math.gcd(n, p) != 1:
                continue
            r = witness_rep(p, n)
            if r is not None and p * p * n <= 512:
                reps.append(r)
    reps.append(s3_standard_rep(5))
    assert len(reps) >= 5
    for rep in reps:
        G, H, _ = build_semidirect(rep)
        conds = p_part_conditions(G, H, rep.p)
        assert check_bc(rep) == (
            conds.b_commutator_full,
            conds.c_normalizer_is_centralizer,
        ), (rep.p, rep.group.order)
    _stamp(8, f"plane-condition bridge ({len(reps)} representations)", t0, 120)


def test_criterion_09_carter_fong():
    t0 = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        _, order = sylow2_gl2(p)
        glorder = p * (p - 1) ** 2 * (p + 1)
        expected = 1
        while glorder % 2 == 0:
            expected *= 2
            glorder //= 2
        assert order == expected, p
    for p in (3, 7, 11):
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
        det = int(Y[0, 0] * Y[1, 1] - Y[0, 1] * Y[1, 0]) % p
        y_inv = np.array([[Y[1, 1], -Y[0, 1]], [-Y[1, 0], Y[0, 0]]]) * pow(det, p - 2, p) % p
        lhs = Y @ X % p @ y_inv % p
        rhs = np.eye(2, dtype=np.int64)
        for _ in range(2**s - 1):
            rhs = rhs @ X % p
        assert _key(lhs) == _key(rhs)
    _stamp(9, "2-Sylow generators of the matrix group", t0, 10)


def test_criterion_10_order36_composite_witness():
    t0 = time.monotonic()
    from normone.structure import composite_sha_witness

    spec, H, prediction = composite_sha_witness(2, "i")
    G = H.parent
    assert G.order == 36 and H.index == 18
    assert sha_p_part(G, H, 2) == FinAb.cyclic(2)
    assert sha_prime_to_p(G, H, 2) == FinAb.cyclic(3)
    rep = sha_full(G, H, 2, method="both")
    assert rep.theorem_result == FinAb.cyclic(6) == prediction
    if rep.brute_result is not None:
        assert rep.agreement is True, (rep.brute_result, rep.theorem_result)
    else:
        # budget fallback: the restriction to the Sylow subgroup carries the
        # 2-part faithfully (the index is a power of 3)
        assert rep.p_restriction_check is not None
        assert rep.p_restriction_check.primary_part(2) == FinAb.cyclic(2)
    # the fallback route is exercised unconditionally as well
    assert _p_restriction_check(G, H, 2, 200000).primary_part(2) == FinAb.cyclic(2)
    _stamp(10, f"order-36 composite witness (result {rep.result})", t0, 900)


def test_criterion_11_induced_lattice_identities():
    t0 = time.monotonic()
    checked = 0
    for name in catalog_names(16):
        G = catalog_group(name)
        for H in all_subgroups(G):
            ind, _ = induced_perm_lattice(G, H)
            sub, _ = H.as_group()
            ab = abelianization(sub)[0] if sub.order > 1 else FinAb.trivial()
            assert cohomology(G, ind, 2).structure == ab, (name, H.order)
            assert sha(G, ind, []).structure.is_trivial(), (name, H.order)
            checked += 1
    S3 = build_group(symmetric3_spec())
    A3 = subgroup_closure(S3, [S3.gens[0]])
    ind, _ = induced_perm_lattice(S3, A3)
    assert cohomology(S3, ind, 2).structure == FinAb.cyclic(3)
    _stamp(11, f"induced-lattice identities ({checked} pairs)", t0, 300)
