import itertools
import re

import pytest

from plane_oracle import s3_standard_rep
from normone import cohomology, groups, structure
from normone.catalog import (
    a4_shape_spec,
    abelian_spec,
    beta_shape_spec,
    catalog_group,
    catalog_names,
    cyclic_spec,
)
from normone.cohomology import DEFAULT_COCHAIN_BUDGET, sha
from normone.errors import (
    CertificateUnavailable,
    GroupMismatch,
    HypothesisViolated,
    PreconditionFailed,
)
from normone.finab import FinAb, _factorize
from normone.groups import (
    SubgroupHandle,
    all_subgroups,
    build_group,
    full_subgroup,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
)
from normone.lattices import j_lattice
from normone.reps import build_semidirect, witness_rep
from normone.structure import (
    Classification,
    annihilator_bound,
    classify_two_prime_index,
    composite_sha_witness,
    p_part_conditions,
    p_vanishing_certificate,
    sha_bicyclic,
    sha_full,
    sha_p_part,
    sha_prime_index_family,
    _exceptional_shape,
    _p_restriction_check,
    _prime_to_p,
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
            lat = j_lattice(G, fam)
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


def _complement_value(G, H, p, dset=()):
    """Sha of the complement pair, as the theorem path computes it."""
    S = p_part_conditions(G, H, p).sylow
    return _prime_to_p(G, H, S, dset, DEFAULT_COCHAIN_BUDGET)


def test_prime_to_p_values():
    G = a4()
    H = subgroup_closure(G, [1])
    assert _complement_value(G, H, 2).is_trivial()  # complement pair (Z/3, 1), prime index
    G150, H150, _ = build_semidirect(s3_standard_rep(5))
    assert _complement_value(G150, H150, 5).is_trivial()  # order-6 complement, cyclic Sylows
    spec, Hw, _ = composite_sha_witness(2, "i")
    Gw = Hw.parent
    assert _complement_value(Gw, Hw, 2) == FinAb.cyclic(3)  # bicyclic value on (Z/3)^2


def test_theorem_path_finds_a_four_generator_complement():
    # F_3 ⋊ (Z/2)^4, only the first Z/2 acting (by -1): the complement (Z/2)^4
    # needs four generators, and H' = G' ∩ SH is (Z/2)^3 with H the involution
    spec = {
        "kind": "semidirect",
        "p": 3,
        "m": 1,
        "matrices": [[[-1]], [[1]], [[1]], [[1]]],
        "acting": abelian_spec(2, 2, 2, 2),
    }
    G = build_group(spec)
    H = subgroup_closure(G, [G.gens[1]])
    theorem = sha_full(G, H, 3, method="theorem").result
    assert theorem == FinAb.from_factors([2, 2, 2])
    assert theorem == sha_full(G, H, 3, method="brute").result


def test_prime_to_p_certificate_gate():
    spec, Hw, _ = composite_sha_witness(2, "i")
    Gw = Hw.parent
    # a non-cyclic dset member with (G : S*H) = 9 not prime: no certificate
    S2 = sylow_subgroup(Gw, 2)
    with pytest.raises(CertificateUnavailable):
        _complement_value(Gw, Hw, 2, [S2])
    with pytest.raises(CertificateUnavailable):
        sha_full(Gw, Hw, 2, [S2], method="theorem")


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


def test_sha_full_evaluates_hypotheses_once(monkeypatch):
    calls = {}

    def counted(name):
        fn = getattr(structure, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(structure, name, wrapper)

    counted("p_part_conditions")
    counted("closed_dset_elements")
    counted("sylow_subgroup")
    G = a4()
    H = subgroup_closure(G, [1])
    rep = sha_full(G, H, 2, [sylow_subgroup(G, 2)], method="theorem")
    assert rep.theorem_result.is_trivial()
    assert calls == {"p_part_conditions": 1, "closed_dset_elements": 1, "sylow_subgroup": 1}


@pytest.mark.parametrize("dset", ["none", "sylow:2"])
def test_sha_full_builds_no_cyclic_subgroup_handles(monkeypatch, dset):
    # the closed family is report-only element data: neither path builds it
    # as handles, one per cyclic subgroup
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for module in (groups, cohomology, structure):
        for name in ("cyclic_subgroups", "close_dset"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    G = a4()
    H = subgroup_closure(G, [1])
    raw = [] if dset == "none" else [sylow_subgroup(G, 2)]
    rep = sha_full(G, H, 2, raw, method="both")
    assert rep.agreement is True
    assert calls == []


def test_foreign_dset_member_is_refused():
    G, other = a4(), a4()
    H = subgroup_closure(G, [1])
    foreign = [sylow_subgroup(other, 2)]
    lat = j_lattice(G, [(H, 1)])
    with pytest.raises(GroupMismatch):
        sha(G, lat, foreign)
    for method in ("theorem", "brute", "both"):
        with pytest.raises(GroupMismatch):
            sha_full(G, H, 2, foreign, method=method)
    with pytest.raises(GroupMismatch):
        sha_p_part(G, H, 2, foreign)


def test_sha_full_both_finds_cyclic_subgroups_once(monkeypatch):
    # the report's closed dset and the brute path's restriction members
    # read one power table per group, not one per path
    calls = []
    power_table = groups._power_table
    monkeypatch.setattr(groups, "_power_table", lambda G: calls.append(G) or power_table(G))
    G = a4()
    H = subgroup_closure(G, [1])
    rep = sha_full(G, H, 2, [], method="both")
    assert rep.agreement is True
    assert [K for K in calls if K is G] == [G]


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
    restricted = _p_restriction_check(Gw, Hw, sylow_subgroup(Gw, 2), 200000)
    assert restricted.primary_part(2) == FinAb.cyclic(2)


def test_budget_fallback_on_order_150():
    # the order-150 pair's C^2 has 2114 columns; a budget of 2000 overflows
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
            lat = j_lattice(G, [(H, 1)])
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


def _extend_from_generators(G, images, compose, identity_image):
    """Extend gens[i] |-> images[i] to a homomorphism on all of G, or None:
    defined along the edges of `G.cayley_tree`, then checked on the other
    edges, the relators."""
    tree, rel_g, rel_i = G.cayley_tree
    f = [None] * G.order
    f[G.identity] = identity_image
    for g, i, h in tree:
        f[h] = compose(f[g], images[i])
    for g, i in zip(rel_g.tolist(), rel_i.tolist()):
        if f[G.mul[g, G.gens[i]]] != compose(f[g], images[i]):
            return None
    return f


def _leaf_only_isomorphism(ref, G):
    """The first isomorphism ref -> G, or None, by a search checked only at
    complete generator tuples: generator i takes its image from the elements
    of G of its order, in index order, pruned by the orders of pairwise
    products, then `_extend_from_generators` and a bijection test at each
    leaf.  The test-side oracle for "G is isomorphic to a shape"."""
    if ref.order != G.order:
        return None
    gens = list(ref.gens)
    orders = [ref.element_order(s) for s in gens]
    pools = [[x for x in G.elements() if G.element_order(x) == o] for o in orders]
    table = G.mul.tolist()
    order_in_G = G.element_orders.tolist()
    pair_order = [[ref.element_order(int(ref.mul[a, b])) for b in gens] for a in gens]

    def compatible(chosen, x):
        i = len(chosen)
        for j, y in enumerate(chosen):
            if pair_order[j][i] != order_in_G[table[y][x]]:
                return False
            if pair_order[i][j] != order_in_G[table[x][y]]:
                return False
        return True

    def backtrack(chosen):
        if len(chosen) == len(gens):
            f = _extend_from_generators(ref, list(chosen), lambda a, b: table[a][b], G.identity)
            if f is not None and len(set(f)) == ref.order:
                return f
            return None
        for x in pools[len(chosen)]:
            if compatible(chosen, x):
                result = backtrack(chosen + [x])
                if result is not None:
                    return result
        return None

    return backtrack([])


_SEARCH_PAIRS = {
    **{
        f"alpha{p}": (
            lambda p=p: build_group(a4_shape_spec(p)),
            lambda p=p: build_semidirect(witness_rep(p, 3))[0],
        )
        for p in (2, 5, 7, 11)
    },
    **{
        f"beta{p}": (
            lambda p=p: build_group(beta_shape_spec(p)),
            lambda p=p: build_semidirect(s3_standard_rep(p))[0],
        )
        for p in (5, 7)
    },
    # equal orders, not isomorphic: the search must come back empty
    "beta5/Z150": (lambda: build_group(beta_shape_spec(5)), lambda: build_group(cyclic_spec(150))),
    "alpha5/F5^2xZ3": (
        lambda: build_group(a4_shape_spec(5)),
        lambda: build_group(abelian_spec(5, 5, 3)),
    ),
    "D4/Q8": (lambda: catalog_group("D4"), lambda: catalog_group("Q8")),
    # these have homomorphisms that keep the generator orders but are not injective
    "V4/Z4": (lambda: catalog_group("V4"), lambda: catalog_group("Z4")),
    "Z3xZ3/Z9": (lambda: catalog_group("Z3xZ3"), lambda: build_group(cyclic_spec(9))),
    "E8/Z2xZ4": (lambda: catalog_group("E8"), lambda: catalog_group("Z2xZ4")),
}


def _marked_subgroup(ref, kind, p):
    """The shape's marked subgroup: a line of the plane, for beta the
    diagonal line joined with the transposition generator of S3."""
    return subgroup_closure(ref, [1] if kind == "alpha" else [1 + p, ref.gens[3]])


@pytest.mark.parametrize("name", list(_SEARCH_PAIRS))
def test_isomorphism_search_matches_leaf_only_search(name):
    """The leaf-only search finds an isomorphism exactly for the pairs named
    without a slash, and on every reference pair the recogniser gives the
    oracle's answer: the shape on the marked subgroup and on its image, and
    nothing on any subgroup of that order of a group that is not the shape."""
    make_ref, make_G = _SEARCH_PAIRS[name]
    ref, G = make_ref(), make_G()
    iso = _leaf_only_isomorphism(ref, G)
    assert (iso is None) == ("/" in name)
    shape = re.fullmatch(r"(alpha|beta)(\d+)", name.split("/")[0])
    if shape is None:
        return
    kind, p = shape[1], int(shape[2])
    expected = Classification(kind, p)
    href = _marked_subgroup(ref, kind, p)
    assert _exceptional_shape(ref, href, p, sylow_subgroup(ref, p)) == expected
    S = sylow_subgroup(G, p)
    if iso is not None:
        image = SubgroupHandle(G, [iso[x] for x in href.elements])
        assert _exceptional_shape(G, image, p, S) == expected
    else:
        same_order = [e for e in groups.subgroup_classes(G, href.order)[2] if len(e) == href.order]
        assert same_order
        for elems in same_order:
            assert _exceptional_shape(G, SubgroupHandle(G, elems), p, S) is None


def _plane_by_z3(p, a, b):
    """F_p^2 ⋊ Z3, the generator acting by diag(a, b)."""
    return {"kind": "semidirect", "p": p, "m": 2, "matrices": [[[a, 0], [0, b]]],
            "acting": cyclic_spec(3), "label": f"F{p}^2:diag({a},{b})"}


def _two_prime_index_classes(G, divisor=None):
    """Subgroup classes of G of squarefree two-prime index with trivial core."""
    for elems in groups.subgroup_classes(G, divisor)[0]:
        H = SubgroupHandle(G, elems)
        if sorted(_factorize(H.index).values()) == [1, 1] and groups.core(G, H).order == 1:
            yield H


def test_classify_agrees_with_brute_sha_on_every_class():
    """Every trivial-core class of squarefree two-prime index: `hnp_holds`
    exactly when brute-force Sha is 0, and Sha = Z/p for alpha(p), beta(p).
    The alpha shapes at p = 5 and 7, and diag(2, 4) (= diag(ω, ω²)) at 7,
    have two classes of trivial-core lines, both with Sha = Z/p; diag(2, 1)
    fixes a line and has Sha = 0 on both of its classes."""
    survey = [catalog_group(name) for name in catalog_names()]
    survey += [build_group(a4_shape_spec(p)) for p in (2, 5, 7)]
    survey += [build_group(beta_shape_spec(5))]
    survey += [build_group(_plane_by_z3(7, 2, 1)), build_group(_plane_by_z3(7, 2, 4))]
    answered, wrong = 0, []
    for G in survey:
        for H in _two_prime_index_classes(G):
            try:
                c = classify_two_prime_index(G, H)
            except HypothesisViolated:
                continue
            answered += 1
            J = j_lattice(G, [(H, 1)])
            value = sha(G, J, []).structure
            if value != (FinAb.trivial() if c.kind == "hnp_holds" else FinAb.cyclic(c.p)):
                wrong.append((G.label, H.elements[:3], str(c), value))
    assert answered == 14
    assert wrong == []


@pytest.mark.parametrize(
    "spec, expected",
    [
        (a4_shape_spec(11), ["alpha(11)"] * 4),  # (p + 1) / 3 classes of lines
        (beta_shape_spec(7), ["None", "beta(7)"]),  # dihedral, cyclic
    ],
    ids=["alpha11", "beta7"],
)
def test_exceptional_shape_matches_theorem_path_past_classify_bound(spec, expected):
    """`classify` refuses these orders (363 and 294), so the recogniser is
    called directly on every trivial-core class of index 3p."""
    G, p = build_group(spec), spec["p"]
    S = sylow_subgroup(G, p)
    shapes = []
    for H in _two_prime_index_classes(G, G.order // (3 * p)):
        if H.index == 3 * p:
            shape = _exceptional_shape(G, H, p, S)
            theorem = sha_full(G, H, p, method="theorem").result
            assert theorem == (FinAb.trivial() if shape is None else FinAb.cyclic(p))
            shapes.append(str(shape))
    assert sorted(shapes) == expected


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
    # C^2 of the pair has 1919 columns and that of the Sylow restriction 494:
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
    lat = j_lattice(f20, [(trivial_subgroup(f20), 1)])
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
    assert _complement_value(g100, H, 5).is_trivial()  # cyclic complement


def _is_prime_power(n):
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False
