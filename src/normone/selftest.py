"""The verification battery behind the `selftest` CLI verb and the
acceptance tests.  `CHECKS` states each criterion once: a check takes the
cochain budget and returns a detail string, and quick scope runs the checks
not marked full-only.  The criteria, by number:

   1 bicyclic-kernels: Sha of J_G over Z/n1 x Z/n2 is Z/gcd(n1, n2)
   2 prime-index-family-oracle: brute force = the prime-index family formula
   3 a4-cross-validation: the order-12 pair; Sha = Z/2, and 0 with Sylow_2
   4 prime-index-zeros: Sha vanishes at prime index
   5 annihilation-bounds: the index kills Sha, 2 does at index 2q, no p-part below s_min(p)
   6 degree-table: s_min and the degree sets at 55, 91 and 95
   7 representation-scans: at p=5 and 7 the scan hits n iff pn is in D1 or D2
   9 carter-fong-orders: the 2-Sylow order of GL_2(F_p)
  10 composite-witness-36: the order-36 witness has Sha = Z/6 by both paths
  11 shapiro-and-induced-kernels: H^2 of an induced lattice is H^ab; Sha is 0
  12 lagrange-and-double-cosets: Lagrange and the double-coset size law
  13 h1-character-oracle: H^1 of J equals the character kernel
"""

from __future__ import annotations

import itertools

from .catalog import a4_shape_spec, catalog_group, catalog_names
from .cohomology import DEFAULT_COCHAIN_BUDGET, cohomology, h1_character_kernel, sha
from .finab import FinAb, _factorize
from .groups import (abelianization, all_subgroups, build_group, cyclic_subgroups, double_cosets,
                     is_prime, subgroup_closure, sylow_subgroup, trivial_subgroup)
from .lattices import induced_perm_lattice, j_lattice
from .reps import d_membership, exhaustive_scan, s_min, sylow2_gl2
from .structure import (composite_sha_witness, p_part_conditions, sha_bicyclic, sha_full,
                        sha_p_part, sha_prime_index_family)

QUICK_NAMES = catalog_names(16)


def _check(name, fn):
    try:
        return (name, True, fn())
    except AssertionError as exc:
        return (name, False, str(exc) or "assertion failed")
    except Exception as exc:  # report, never crash the battery
        return (name, False, f"{type(exc).__name__}: {exc}")


def _sha_j(G, subgroups, budget, dset=()):
    """Sha of the norm-one lattice of a family, each subgroup once."""
    lat, _ = j_lattice(G, [(H, 1) for H in subgroups])
    return sha(G, lat, list(dset), budget).structure


def _proper_pairs(names):
    for name in names:
        G = catalog_group(name)
        yield from ((name, G, H) for H in all_subgroups(G) if H.order < G.order)


def _lagrange_and_cosets(budget):
    for name in QUICK_NAMES:
        G = catalog_group(name)
        for H in cyclic_subgroups(G):
            assert G.order % H.order == 0, f"Lagrange fails in {name}"
        D = sylow_subgroup(G, 2)
        H = cyclic_subgroups(G)[-1]
        total, Hset = 0, set(H.elements)
        for g, cls in double_cosets(G, D, H):
            inter = sum(1 for x in D.elements if G.conj(int(G.inv[g]), x) in Hset)
            assert len(cls) == D.order * H.order // inter, f"coset size law in {name}"
            total += len(cls)
        assert total == G.order
    return f"{len(QUICK_NAMES)} groups"


def _shapiro_small(budget):
    count = 0
    for name in QUICK_NAMES:
        G = catalog_group(name)
        for H in all_subgroups(G):
            ind, _ = induced_perm_lattice(G, H)
            h2 = cohomology(G, ind, 2, budget).structure
            sub, _ = H.as_group()
            ab, _ = abelianization(sub) if sub.order > 1 else (FinAb.trivial(), None)
            assert h2 == ab, f"{name}, |H|={H.order}: {h2} != {ab}"
            kernel = sha(G, ind, [], budget).structure
            assert kernel.is_trivial(), f"induced-lattice kernel nonzero in {name}"
            count += 1
    return f"{count} pairs"


def _h1_oracle(budget):
    count = 0
    for name in QUICK_NAMES:
        G = catalog_group(name)
        for H in cyclic_subgroups(G)[:4]:
            fam = [(H, 1)]
            lat, _ = j_lattice(G, fam)
            assert cohomology(G, lat, 1, budget).structure == h1_character_kernel(G, fam)
            count += 1
    return f"{count} families"


def _bicyclic_cases(budget):
    for name, n1 in (("V4", 2), ("Z2xZ4", 2), ("Z3xZ3", 3)):
        G = catalog_group(name)
        got = _sha_j(G, [trivial_subgroup(G)], budget)
        assert got == sha_bicyclic(n1, G.order // n1) == FinAb.cyclic(n1), name
    return "3 cases"


def _prime_index_zeros(budget):
    pairs = [(n, G, H) for n, G, H in _proper_pairs(catalog_names(24)) if is_prime(H.index)]
    for name, G, H in pairs:
        assert _sha_j(G, [H], budget).is_trivial(), f"{name} index {H.index}"
    assert len(pairs) >= 10, f"only {len(pairs)} pairs"
    return f"{len(pairs)} pairs"


def _annihilation_bounds(budget):
    names = ("V4", "Z2xZ4", "Z3xZ3", "S3", "Z6", "D4", "Q8", "Z12", "A4")
    pairs = list(_proper_pairs(names))
    for name, G, H in pairs:
        got, index = _sha_j(G, [H], budget), H.index
        where = f"{name}, |H|={H.order}: {got}"
        assert index % got.exponent == 0, where
        if index % 2 == 0 and index > 4 and is_prime(index // 2):  # 2q, q odd
            assert got.exponent in (1, 2), where
        for p in (2, 3, 5):
            if index < s_min(p):
                assert got.primary_part(p).is_trivial(), f"{where}, p={p}"
    return f"{len(pairs)} pairs"


def _family_oracle(budget):
    cases = []
    for name, prime, largest in (("V4", 2, 3), ("Z3xZ3", 3, 4), ("E8", 2, 3)):
        G = catalog_group(name)
        subs = [h for h in all_subgroups(G) if h.index == prime]
        cases += [(name, G, subs[:r]) for r in range(2, largest + 1)]
    # a rank-3 family: three index-2 subgroups of (Z/2)^3 meeting trivially
    E8 = catalog_group("E8")
    halves = [h for h in all_subgroups(E8) if h.index == 2]
    trio = next(t for t in itertools.combinations(halves, 3)
                if len(set.intersection(*(set(h.elements) for h in t))) == 1)
    cases.append(("E8", E8, list(trio)))
    for name, G, fam in cases:
        brute = _sha_j(G, fam, budget)
        fast = sha_prime_index_family(G, [(h, 1) for h in fam])
        assert brute == fast, f"{name}, r={len(fam)}: {brute} != {fast}"
    return f"{len(cases)} families"


def _a4_cross_validation(budget):
    G = build_group(a4_shape_spec(2))
    H, S = subgroup_closure(G, [1]), sylow_subgroup(G, 2)
    assert p_part_conditions(G, H, 2).all_abc
    for dset, want in (([], FinAb.cyclic(2)), ([S], FinAb.trivial())):
        assert _sha_j(G, [H], budget, dset) == want
        rep = sha_full(G, H, 2, dset, method="both", budget=budget)
        assert rep.agreement and rep.result == want, (dset, rep.result)
    return "Z/2, trivial with Sylow_2 in the dset"


def _scan_battery(budget):
    for p, n in itertools.product((5, 7), (2, 3, 4, 6)):
        report = exhaustive_scan(p, n)
        assert report.complete and {"max_subgroups", "pprime_order_cap"} <= set(report.budget)
        flagged = d_membership(p * n, p)
        assert bool(report.hits) == (flagged.in_D1 or flagged.in_D2), f"p={p}, n={n}"
        if (p, n) == (5, 4):
            assert report.hits and all(h.group_order == 4 and h.group_cyclic for h in report.hits)
    return "p in {5,7}, n in {2,3,4,6}"


def _degree_table(budget):
    assert s_min(2) == 4 and s_min(3) == 9 and s_min(5) == 15
    assert s_min(7) == 21 and s_min(11) == 33
    assert d_membership(55, 11).in_D1
    assert d_membership(91, 13).in_D2
    assert d_membership(95, 19).in_D2
    return "ok"


def _carter_fong(budget):
    for p in (3, 5, 7, 11, 13):
        _, order = sylow2_gl2(p)
        assert order == 2 ** _factorize(p * (p - 1) ** 2 * (p + 1))[2], p
    return "p in {3,5,7,11,13}"


def _witness36(budget):
    spec, H, prediction = composite_sha_witness(2, "i")
    G = H.parent
    assert sha_p_part(G, H, 2) == FinAb.cyclic(2)
    rep = sha_full(G, H, 2, method="both", budget=budget)
    assert rep.theorem_result == prediction == FinAb.cyclic(6), rep.theorem_result
    assert rep.brute_result is not None and rep.agreement, rep.brute_result
    return f"result {rep.result}"


CHECKS = [  # (name, full scope only, fn(budget) -> detail)
    ("lagrange-and-double-cosets", False, _lagrange_and_cosets),
    ("degree-table", False, _degree_table),
    ("h1-character-oracle", False, _h1_oracle),
    ("bicyclic-kernels", False, _bicyclic_cases),
    ("shapiro-and-induced-kernels", False, _shapiro_small),
    ("prime-index-zeros", True, _prime_index_zeros),
    ("annihilation-bounds", True, _annihilation_bounds),
    ("prime-index-family-oracle", True, _family_oracle),
    ("a4-cross-validation", True, _a4_cross_validation),
    ("representation-scans", True, _scan_battery),
    ("carter-fong-orders", True, _carter_fong),
    ("composite-witness-36", True, _witness36),
]


def run_selftest(scope="quick", budget=DEFAULT_COCHAIN_BUDGET):
    """Run the battery; returns a list of (name, passed, detail)."""
    return [
        _check(name, lambda fn=fn: fn(budget))
        for name, full_only, fn in CHECKS
        if scope == "full" or not full_only
    ]
