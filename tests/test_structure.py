import itertools

import pytest

from normone.catalog import (
    a4_shape_spec,
    abelian_spec,
    catalog_group,
    cyclic_spec,
)
from normone.cohomology import sha
from normone.errors import CertificateUnavailable, HypothesisViolated, PreconditionFailed
from normone.finab import FinAb
from normone.groups import (
    all_subgroups,
    build_group,
    full_subgroup,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
)
from normone.lattices import j_lattice
from normone.reps import build_semidirect, s3_standard_rep, witness_rep
from normone.structure import (
    annihilator_bound,
    classify_two_prime_index,
    composite_sha_witness,
    p_part_conditions,
    p_vanishing_certificate,
    sha_bicyclic,
    sha_full,
    sha_p_part,
    sha_prime_index_family,
    sha_prime_to_p,
    _p_restriction_check,
)


def a4():
    return build_group(a4_shape_spec(2))


# -- closed-form families -----------------------------------------------------------


def test_family_formula_values():
    V4 = catalog_group("V4")
    subs = [h for h in all_subgroups(V4) if h.index == 2]
    assert sha_prime_index_family(V4, [(h, 1) for h in subs]) == FinAb.cyclic(2)
    T9 = catalog_group("Z3xZ3")
    subs3 = [h for h in all_subgroups(T9) if h.index == 3]
    assert len(subs3) == 4
    assert sha_prime_index_family(T9, [(h, 1) for h in subs3]) == FinAb((3, 3))
    E8 = catalog_group("E8")
    subs8 = [h for h in all_subgroups(E8) if h.index == 2]
    for trio in itertools.combinations(subs8, 3):
        inter = set(trio[0].elements) & set(trio[1].elements) & set(trio[2].elements)
        if len(inter) == 1:  # rank-3 family
            assert sha_prime_index_family(E8, [(h, 1) for h in trio]).is_trivial()
            break


def test_family_invariance_under_multiplicity_and_order():
    V4 = catalog_group("V4")
    subs = [h for h in all_subgroups(V4) if h.index == 2]
    a = sha_prime_index_family(V4, [(subs[0], 1), (subs[1], 4), (subs[2], 2)])
    b = sha_prime_index_family(V4, [(subs[2], 1), (subs[1], 1), (subs[0], 1)])
    assert a == b == FinAb.cyclic(2)


def test_family_validation():
    V4 = catalog_group("V4")
    subs = [h for h in all_subgroups(V4) if h.index == 2]
    with pytest.raises(HypothesisViolated):
        sha_prime_index_family(V4, [(subs[0], 1), (subs[0], 1)])  # repeated subgroup
    S3 = catalog_group("S3")
    T = subgroup_closure(S3, [S3.gens[1]])
    with pytest.raises(HypothesisViolated):
        sha_prime_index_family(S3, [(T, 1)])  # not normal
    with pytest.raises(HypothesisViolated):
        sha_prime_index_family(V4, [(trivial_subgroup(V4), 1)])  # index 4 not prime


def test_bicyclic():
    assert sha_bicyclic(2, 2) == FinAb.cyclic(2)
    assert sha_bicyclic(1, 7).is_trivial()
    assert sha_bicyclic(3, 3) == FinAb.cyclic(3)
    with pytest.raises(HypothesisViolated):
        sha_bicyclic(2, 3)


def test_annihilator_bound():
    G = a4()
    H = subgroup_closure(G, [1])
    assert annihilator_bound(G, [(H, 1)]) == 6
    assert annihilator_bound(G, [(full_subgroup(G), 1)]) == 1
    V4 = catalog_group("V4")
    subs = [h for h in all_subgroups(V4) if h.index == 2]
    assert annihilator_bound(V4, [(subs[0], 1), (subs[1], 1)]) == 2


def test_brute_kernel_respects_gcd_bound_on_families():
    for name in ("V4", "Z3xZ3", "S3", "A4"):
        G = catalog_group(name)
        subs = all_subgroups(G)
        fams = [
            [(subs[0], 1), (subs[-2], 1)],
            [(h, 1) for h in subs if h.index == subs[1].index][:3],
        ]
        for fam in fams:
            if not fam:
                continue
            lat, _ = j_lattice(G, fam)
            got = sha(G, lat, []).structure
            bound = annihilator_bound(G, fam)
            if not got.is_trivial():
                assert bound % got.exponent == 0, (name, got, bound)


# -- the p-part conditions ------------------------------------------------------------


def test_conditions_a4():
    G = a4()
    H = subgroup_closure(G, [1])
    conds = p_part_conditions(G, H, 2)
    assert conds.all_abc
    assert conds.prereq_sylow_normal and conds.prereq_core_trivial and conds.prereq_ordp_index_one


def test_conditions_beta_group():
    G, H, _ = build_semidirect(s3_standard_rep(5))
    conds = p_part_conditions(G, H, 5)
    assert conds.all_abc


def test_conditions_reject_normal_subgroup():
    T9 = catalog_group("Z3xZ3")
    H = [h for h in all_subgroups(T9) if h.index == 3][0]
    with pytest.raises(HypothesisViolated):
        p_part_conditions(T9, H, 3)  # core(G, H) = H is not trivial


def test_p_part_values():
    G = a4()
    H = subgroup_closure(G, [1])
    assert sha_p_part(G, H, 2) == FinAb.cyclic(2)
    assert sha_p_part(G, H, 2, [sylow_subgroup(G, 2)]).is_trivial()
    # order-75 group: plane over F_5 rotated by an order-3 map
    G75, H75, _ = build_semidirect(witness_rep(5, 3))
    assert sha_p_part(G75, H75, 5) == FinAb.cyclic(5)


def test_prime_to_p_values():
    G = a4()
    H = subgroup_closure(G, [1])
    assert sha_prime_to_p(G, H, 2).is_trivial()  # complement pair (Z/3, 1), prime index
    G150, H150, _ = build_semidirect(s3_standard_rep(5))
    assert sha_prime_to_p(G150, H150, 5).is_trivial()  # order-6 complement, cyclic Sylows
    spec, Hw, _ = composite_sha_witness(2, "i")
    Gw = Hw.parent
    assert sha_prime_to_p(Gw, Hw, 2) == FinAb.cyclic(3)  # bicyclic value on (Z/3)^2


def test_prime_to_p_certificate_gate():
    spec, Hw, _ = composite_sha_witness(2, "i")
    Gw = Hw.parent
    # a non-cyclic dset member with (G : S*H) = 9 not prime: no certificate
    S2 = sylow_subgroup(Gw, 2)
    with pytest.raises(CertificateUnavailable):
        sha_prime_to_p(Gw, Hw, 2, [S2])


# -- assembled evaluation ----------------------------------------------------------------


def test_sha_full_a4_both_paths():
    G = a4()
    H = subgroup_closure(G, [1])
    rep = sha_full(G, H, 2, method="both")
    assert rep.result == FinAb.cyclic(2)
    assert rep.agreement is True
    assert rep.conditions.all_abc
    rep2 = sha_full(G, H, 2, [sylow_subgroup(G, 2)], method="both")
    assert rep2.result.is_trivial() and rep2.agreement is True


def test_sha_full_s3():
    S3 = catalog_group("S3")
    T = subgroup_closure(S3, [S3.gens[1]])
    rep = sha_full(S3, T, 3, method="both")
    assert rep.result.is_trivial() and rep.agreement is True


def test_sha_full_requires_dividing_prime():
    Z6 = catalog_group("Z6")
    with pytest.raises(HypothesisViolated):
        sha_full(Z6, trivial_subgroup(Z6), 5)


def test_sha_full_degrades_with_warning():
    # theorem path unavailable (core not trivial), brute still answers
    T9 = catalog_group("Z3xZ3")
    H = [h for h in all_subgroups(T9) if h.index == 3][0]
    rep = sha_full(T9, H, 3, method="both")
    assert rep.result.is_trivial()
    assert rep.warnings and rep.theorem_result is None
    with pytest.raises(HypothesisViolated):
        sha_full(T9, H, 3, method="theorem")


def test_p_restriction_route():
    spec, Hw, _ = composite_sha_witness(2, "i")
    Gw = Hw.parent
    restricted = _p_restriction_check(Gw, Hw, 2, 200000)
    assert restricted.primary_part(2) == FinAb.cyclic(2)


def test_budget_fallback_on_order_150():
    # the order-150 pair's C^2 has 6314 columns; a budget of 2000 overflows
    # it but not the Sylow restriction (364), so the brute path degrades and
    # the Sylow restriction confirms the p-part
    G, H, _ = build_semidirect(s3_standard_rep(5))
    rep = sha_full(G, H, 5, method="both", budget=2000)
    assert rep.brute_result is None
    assert any("budget" in w for w in rep.warnings)
    assert rep.theorem_result == FinAb.cyclic(5)
    assert rep.p_restriction_check is not None
    assert rep.p_restriction_check.primary_part(5) == FinAb.cyclic(5)
    assert rep.result == FinAb.cyclic(5)


def test_alpha_p5_both_paths():
    # the order-75 pair agrees between the assembled and brute paths at the
    # default budget
    G75, H75, _ = build_semidirect(witness_rep(5, 3))
    rep = sha_full(G75, H75, 5, method="both")
    assert rep.agreement is True
    assert rep.brute_result == rep.theorem_result == FinAb.cyclic(5)
    assert rep.result == FinAb.cyclic(5)


def test_beta_p5_both_paths():
    # the order-150 pair agrees between the assembled and brute paths at the
    # default budget
    G, H, _ = build_semidirect(s3_standard_rep(5))
    rep = sha_full(G, H, 5, method="both")
    assert not rep.warnings
    assert rep.agreement is True
    assert rep.brute_result == rep.theorem_result == FinAb.cyclic(5)


# -- vanishing certificates ----------------------------------------------------------------


def test_vanishing_certificates():
    Z6 = catalog_group("Z6")
    assert p_vanishing_certificate(Z6, trivial_subgroup(Z6), 3)  # index 2p, p = 3
    G75, H75, _ = build_semidirect(witness_rep(5, 3))
    S3g = catalog_group("S3")
    # normal Sylow of rank 1: certificate applies
    Z12 = catalog_group("Z12")
    H = subgroup_closure(Z12, [4])  # index 4... pick index with ord_3 = 1
    H3 = subgroup_closure(Z12, [3])  # order 4, index 3
    assert p_vanishing_certificate(Z12, H3, 3)
    # no certificate on the order-12 exceptional pair, where the value is Z/2
    G = a4()
    assert not p_vanishing_certificate(G, subgroup_closure(G, [1]), 2)


def test_certified_vanishing_agrees_with_brute():
    # every certificate must be confirmed by the brute p-primary part
    cases = []
    Z6 = catalog_group("Z6")
    cases.append((Z6, trivial_subgroup(Z6), 3))
    Z12 = catalog_group("Z12")
    cases.append((Z12, subgroup_closure(Z12, [3]), 3))
    for G, H, p in cases:
        if p_vanishing_certificate(G, H, p):
            lat, _ = j_lattice(G, [(H, 1)])
            assert sha(G, lat, []).structure.primary_part(p).is_trivial(), (G.label, p)


# -- classification ---------------------------------------------------------------------


def test_classify_alpha():
    G = a4()
    H = subgroup_closure(G, [1])
    c = classify_two_prime_index(G, H)
    assert (c.kind, c.p) == ("alpha", 2)


def test_classify_beta():
    G, H, _ = build_semidirect(s3_standard_rep(5))
    c = classify_two_prime_index(G, H)
    assert (c.kind, c.p) == ("beta", 5)


def test_classify_alpha_p5():
    # the order-75 plane-rotation pair has the same exceptional shape
    G75, H75, _ = build_semidirect(witness_rep(5, 3))
    c = classify_two_prime_index(G75, H75)
    assert (c.kind, c.p) == ("alpha", 5)


def test_classify_coprime_certificate():
    Z35 = build_group(abelian_spec(5, 7))
    c = classify_two_prime_index(Z35, trivial_subgroup(Z35))
    assert c.kind == "hnp_holds"


def test_classify_rejects_nontrivial_core():
    # abelian group: every subgroup is its own core
    Z12 = catalog_group("Z12")
    H = subgroup_closure(Z12, [6])  # order 2, index 6 = 2*3
    with pytest.raises(HypothesisViolated):
        classify_two_prime_index(Z12, H)


def test_classify_validation():
    S3g = catalog_group("S3")
    T = subgroup_closure(S3g, [S3g.gens[1]])
    with pytest.raises(HypothesisViolated):
        classify_two_prime_index(S3g, T)  # index 3 is not a two-prime product


def test_classify_never_exceptional_when_conditions_fail():
    # trivial subgroup of the order-12 group: index 12 is not squarefree
    G = a4()
    with pytest.raises(HypothesisViolated):
        classify_two_prime_index(G, trivial_subgroup(G))
    # the symmetric group of order 6 with trivial subgroup: index 6 but no
    # normal 2-Sylow; the 3-Sylow is normal and p=3 > 2=l certifies the principle
    S3g = catalog_group("S3")
    c = classify_two_prime_index(S3g, trivial_subgroup(S3g))
    assert c.kind == "hnp_holds"
    conds_fail = False
    try:
        conds = p_part_conditions(S3g, trivial_subgroup(S3g), 3)
        conds_fail = not conds.all_abc
    except HypothesisViolated:
        conds_fail = True
    assert conds_fail  # consistent: no exceptional label when criteria fail


# -- witnesses ------------------------------------------------------------------------------


def test_witness_variant_i():
    spec, H, prediction = composite_sha_witness(2, "i")
    G = H.parent
    assert G.order == 36 and H.index == 18
    assert prediction == FinAb.cyclic(6)
    spec5, H5, pred5 = composite_sha_witness(5, "i")
    assert H5.index == 45 and pred5 == FinAb.cyclic(15)


def test_witness_variant_ii():
    spec, H, prediction = composite_sha_witness(2, "ii", 5)
    assert H.index == 30 and prediction == FinAb.cyclic(10)
    G = H.parent
    assert G.order == 300
    conds = p_part_conditions(G, H, 2)
    assert conds.all_abc


def test_witness_validation():
    with pytest.raises(PreconditionFailed):
        composite_sha_witness(3, "i")
    with pytest.raises(PreconditionFailed):
        composite_sha_witness(2, "ii", 3)
    with pytest.raises(PreconditionFailed):
        composite_sha_witness(2, "ii")


def test_witness_theorem_path():
    spec, H, prediction = composite_sha_witness(2, "i")
    G = H.parent
    rep = sha_full(G, H, 2, method="theorem")
    assert rep.result == prediction == FinAb.cyclic(6)


def test_witness_ii_theorem_path():
    # order-300 witness: prime-to-2 part is brute-forced on the order-75
    # complement pair and contributes Z/5
    spec, H, prediction = composite_sha_witness(2, "ii", 5)
    G = H.parent
    rep = sha_full(G, H, 2, method="theorem")
    assert rep.result == prediction == FinAb.cyclic(10)


def test_witness_ii_brute_path():
    # the order-300 witness by brute force alone, at the default budget
    spec, H, prediction = composite_sha_witness(2, "ii", 5)
    rep = sha_full(H.parent, H, 2, method="brute")
    assert rep.brute_result == prediction == FinAb.cyclic(10)


# -- small-degree exponent facts -----------------------------------------------------------


def test_diagonal_line_pair_with_eigenvalue_one_action():
    # regression: the Sylow-restriction kernel of this pair needs exact
    # large-coefficient row reduction (gcd combinations mid-insertion)
    g100 = build_group(
        {
            "kind": "semidirect",
            "p": 5,
            "m": 2,
            "matrices": [[[1, 0], [2, 3]]],
            "acting": cyclic_spec(4),
            "label": "(Z/5)^2:Z4b",
        }
    )
    H = subgroup_closure(g100, [6])  # the diagonal line, order 5
    conds = p_part_conditions(g100, H, 5)
    assert not conds.all_abc  # the structural p-part vanishes here
    # C^2 of the pair has 3819 columns and that of the Sylow restriction 494:
    # a budget of 1000 sends the brute path to the Sylow fallback
    rep = sha_full(g100, H, 5, method="both", budget=1000)
    assert rep.brute_result is None
    assert rep.theorem_result == FinAb.trivial()
    assert rep.p_restriction_check is not None
    # upper bound only: the trivial p-part embeds in any restriction kernel
    assert not any("contradicts" in w for w in rep.warnings)


def test_prime_power_exponent_at_degree_20():
    # frobenius group of order 20: normal Sylow-5 of rank one
    f20 = build_group(
        {
            "kind": "semidirect",
            "p": 5,
            "m": 1,
            "matrices": [[[2]]],
            "acting": cyclic_spec(4),
            "label": "F20",
        }
    )
    lat, _ = j_lattice(f20, [(trivial_subgroup(f20), 1)])
    got = sha(f20, lat, []).structure
    exp = got.exponent
    assert exp == 1 or _is_prime_power(exp), got

    # rank-two normal Sylow-5 with an order-4 scalar-free action
    g100 = build_group(
        {
            "kind": "semidirect",
            "p": 5,
            "m": 2,
            "matrices": [[[2, 0], [0, 4]]],
            "acting": cyclic_spec(4),
            "label": "(Z/5)^2:Z4",
        }
    )
    H = subgroup_closure(g100, [1 + 5])  # the diagonal line
    assert H.index == 20
    conds = p_part_conditions(g100, H, 5)
    assert conds.all_abc
    assert sha_p_part(g100, H, 5) == FinAb.cyclic(5)
    assert sha_prime_to_p(g100, H, 5).is_trivial()  # cyclic complement


def _is_prime_power(n):
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False
