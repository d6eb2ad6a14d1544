"""Built-in verification battery behind the `selftest` CLI verb.

Quick scope exercises the structural invariants on catalog groups of order
at most 16; full scope adds the complete cross-validation catalog (both
evaluation paths compared on every instance, the representation scans, and
the composite-exponent witness).
"""

from __future__ import annotations

from .catalog import a4_shape_spec, catalog_group, catalog_names
from .cohomology import DEFAULT_COCHAIN_BUDGET, cohomology, h1_character_kernel, sha
from .finab import FinAb, _factorize
from .groups import (
    all_subgroups,
    build_group,
    cyclic_subgroups,
    double_cosets,
    is_prime,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
)
from .lattices import induced_perm_lattice, j_lattice
from .reps import d_membership, exhaustive_scan, s_min, sylow2_gl2
from .structure import composite_sha_witness, sha_full, sha_prime_index_family


def _check(name, fn):
    try:
        detail = fn()
        return (name, True, detail if isinstance(detail, str) else "ok")
    except AssertionError as exc:
        return (name, False, str(exc) or "assertion failed")
    except Exception as exc:  # report, never crash the battery
        return (name, False, f"{type(exc).__name__}: {exc}")


def _lagrange_and_cosets(names):
    for name in names:
        G = catalog_group(name)
        for H in cyclic_subgroups(G):
            assert G.order % H.order == 0, f"Lagrange fails in {name}"
        D = sylow_subgroup(G, 2)
        H = cyclic_subgroups(G)[-1]
        total = 0
        for g, cls in double_cosets(G, D, H):
            inter = sum(
                1 for x in D.elements if G.conj(int(G.inv[g]), x) in set(H.elements)
            )
            assert len(cls) == D.order * H.order // inter, f"coset size law in {name}"
            total += len(cls)
        assert total == G.order
    return f"{len(names)} groups"


def _shapiro_small(names, budget):
    count = 0
    for name in names:
        G = catalog_group(name)
        if G.order > 16:
            continue
        for H in all_subgroups(G):
            ind, _ = induced_perm_lattice(G, H)
            h2 = cohomology(G, ind, 2, budget).structure
            from .groups import abelianization

            sub, _ = H.as_group()
            ab, _ = abelianization(sub) if sub.order > 1 else (FinAb.trivial(), None)
            assert h2 == ab, f"{name}, |H|={H.order}: {h2} != {ab}"
            kernel = sha(G, ind, [], budget).structure
            assert kernel.is_trivial(), f"induced-lattice kernel nonzero in {name}"
            count += 1
    return f"{count} pairs"


def _h1_oracle(names, budget):
    count = 0
    for name in names:
        G = catalog_group(name)
        for H in cyclic_subgroups(G)[:4]:
            fam = [(H, 1)]
            lat, _ = j_lattice(G, fam)
            if (G.order - 1) * lat.rank > budget:
                continue
            assert cohomology(G, lat, 1, budget).structure == h1_character_kernel(G, fam)
            count += 1
    return f"{count} families"


def _bicyclic_cases(budget):
    from .structure import sha_bicyclic

    for name, n1 in (("V4", 2), ("Z2xZ4", 2), ("Z3xZ3", 3)):
        G = catalog_group(name)
        lat, _ = j_lattice(G, [(trivial_subgroup(G), 1)])
        got = sha(G, lat, [], budget).structure
        assert got == sha_bicyclic(n1, G.order // n1) == FinAb.cyclic(n1), name
    return "3 cases"


def _prime_index_zeros(names, budget):
    count = 0
    for name in names:
        G = catalog_group(name)
        for H in all_subgroups(G):
            if H.order == G.order or not is_prime(H.index):
                continue
            lat, _ = j_lattice(G, [(H, 1)])
            got = sha(G, lat, [], budget).structure
            assert got.is_trivial(), f"{name} index {H.index}"
            count += 1
    return f"{count} pairs"


def _family_oracle(budget):
    for name, prime, want_r3 in (("V4", 2, True), ("Z3xZ3", 3, True), ("E8", 2, False)):
        G = catalog_group(name)
        subs = [h for h in all_subgroups(G) if h.index == prime]
        fams = [subs[:2], subs[:3]] if len(subs) >= 3 else [subs]
        for fam in fams:
            pairs = [(h, 1) for h in fam]
            lat, _ = j_lattice(G, pairs)
            if (G.order - 1) ** 2 * lat.rank > budget:
                continue
            brute = sha(G, lat, [], budget).structure
            fast = sha_prime_index_family(G, pairs)
            assert brute == fast, f"{name}, r={len(fam)}: {brute} != {fast}"
    return "ok"


def _a4_cross_validation(budget):
    G = build_group(a4_shape_spec(2))
    H = subgroup_closure(G, [1])
    rep = sha_full(G, H, 2, method="both", budget=budget)
    assert rep.agreement and rep.result == FinAb.cyclic(2), rep.result
    rep2 = sha_full(G, H, 2, [sylow_subgroup(G, 2)], method="both", budget=budget)
    assert rep2.agreement and rep2.result.is_trivial(), rep2.result
    return "ok"


def _scan_battery():
    for n in (2, 3, 4, 6):
        report = exhaustive_scan(5, n)
        flagged = d_membership(5 * n, 5)
        expected = flagged.in_D1 or flagged.in_D2
        assert bool(report.hits) == expected, f"n={n}"
        if n == 4:
            assert all(h.group_order == 4 and h.group_cyclic for h in report.hits)
    return "p=5, n in {2,3,4,6}"


def _degree_table():
    assert s_min(2) == 4 and s_min(3) == 9 and s_min(5) == 15
    assert s_min(7) == 21 and s_min(11) == 33
    assert d_membership(55, 11).in_D1
    assert d_membership(91, 13).in_D2
    assert d_membership(95, 19).in_D2
    return "ok"


def _carter_fong():
    for p in (3, 5, 7, 11, 13):
        _, order = sylow2_gl2(p)
        assert order == 2 ** _factorize(p * (p - 1) ** 2 * (p + 1))[2], p
    return "p in {3,5,7,11,13}"


def _witness36(budget):
    spec, H, prediction = composite_sha_witness(2, "i")
    G = H.parent
    rep = sha_full(G, H, 2, method="both", budget=budget)
    assert rep.theorem_result == prediction == FinAb.cyclic(6), rep.theorem_result
    if rep.brute_result is not None:
        assert rep.agreement, (rep.brute_result, rep.theorem_result)
    else:
        assert rep.p_restriction_check is not None
    return f"result {rep.result}"


QUICK_NAMES = [n for n in catalog_names(16)]


def run_selftest(scope="quick", budget=DEFAULT_COCHAIN_BUDGET):
    """Run the battery; returns a list of (name, passed, detail)."""
    checks = [
        ("lagrange-and-double-cosets", lambda: _lagrange_and_cosets(QUICK_NAMES)),
        ("degree-table", _degree_table),
        ("h1-character-oracle", lambda: _h1_oracle(QUICK_NAMES, budget)),
        ("bicyclic-kernels", lambda: _bicyclic_cases(budget)),
        ("shapiro-and-induced-kernels", lambda: _shapiro_small(QUICK_NAMES, budget)),
    ]
    if scope == "full":
        checks += [
            ("prime-index-zeros", lambda: _prime_index_zeros(catalog_names(24), budget)),
            ("prime-index-family-oracle", lambda: _family_oracle(budget)),
            ("a4-cross-validation", lambda: _a4_cross_validation(budget)),
            ("representation-scans", _scan_battery),
            ("carter-fong-orders", _carter_fong),
            ("composite-witness-36", lambda: _witness36(budget)),
        ]
    return [_check(name, fn) for name, fn in checks]
