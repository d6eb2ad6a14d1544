import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normone.catalog import (
    a4_shape_spec,
    beta_shape_spec,
    catalog_group,
    catalog_names,
    cyclic_spec,
    quaternion8,
    symmetric3_spec,
)
from normone.errors import (
    BudgetExceeded,
    OrderBudgetExceeded,
    PreconditionFailed,
    SpecInvalid,
)
from normone.finab import FinAb
from normone.groups import (
    FiniteGroup,
    SubgroupHandle,
    abelianization,
    all_subgroups,
    build_group,
    closure_elements,
    commutator_subgroup,
    complement,
    core,
    cyclic_subgroups,
    derived_subgroup,
    double_cosets,
    extend_from_generators,
    full_subgroup,
    index_vector,
    is_prime,
    normalizer_centralizer,
    semidirect_from_action,
    subgroup_classes,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
    vector_index,
)
from normone import groups
from normone.reps import _gl2_group, s3_standard_rep
from normone.structure import composite_sha_witness


def s3():
    return build_group(symmetric3_spec())


def a4():
    return build_group(a4_shape_spec(2))


# -- construction -------------------------------------------------------------


def compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def test_permutation_closure_matches_direct_composition():
    # independent oracle: enumerate S_3 by composing permutations directly
    gens = [(1, 2, 0), (1, 0, 2)]  # (1 2 3) and (1 2), 0-indexed
    seen = {tuple(range(3))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(seen) == 6
    assert s3().order == 6


def test_trivial_group():
    z1 = build_group(cyclic_spec(1))
    assert z1.order == 1
    assert cyclic_subgroups(z1) == [trivial_subgroup(z1)]


def test_semidirect_shape():
    G = a4()
    assert G.order == 12
    S = sylow_subgroup(G, 2)
    assert S.order == 4 and S.is_normal
    assert S.elements == (0, 1, 2, 3)  # the plane occupies the low indices


def test_order_budget():
    with pytest.raises(OrderBudgetExceeded):
        build_group(cyclic_spec(600))
    with pytest.raises(OrderBudgetExceeded):
        build_group(
            {"kind": "permutations", "degree": 8, "generators": ["(1 2)", "(1 2 3 4 5 6 7 8)"]},
            order_budget=512,
        )


def test_bad_table_rejected():
    with pytest.raises(SpecInvalid):
        build_group({"kind": "table", "n": 2, "mul": [[0, 1], [1, 1]]})
    # the associativity test needs generators that generate
    with pytest.raises(SpecInvalid, match="do not generate"):
        FiniteGroup([[0, 1], [1, 0]], identity=0, gens=[])
    # non-associative magma with a two-sided identity
    with pytest.raises(SpecInvalid):
        build_group(
            {
                "kind": "table",
                "n": 5,
                "mul": [
                    [0, 1, 2, 3, 4],
                    [1, 0, 3, 4, 2],
                    [2, 4, 0, 1, 3],
                    [3, 2, 4, 0, 1],
                    [4, 3, 1, 2, 0],
                ],
            }
        )


def test_non_associative_loop_table_rejected():
    # Z/512 with one intercalate swapped: still a Latin square with a two-sided
    # identity and unique inverses, but (1 1) 2 = 2 2 = 260 and 1 (1 2) = 4;
    # only 8128 of the 512^3 triples fail
    n, h = 512, 256
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    for i, j in ((2, 2), (2, 2 + h), (2 + h, 2), (2 + h, 2 + h)):
        mul[i][j] = (mul[i][j] + h) % n
    with pytest.raises(SpecInvalid, match="not associative"):
        build_group({"kind": "table", "n": n, "mul": mul})


def test_non_homomorphic_semidirect_matrices():
    # an order-2 matrix cannot be the image of an order-3 generator
    with pytest.raises(SpecInvalid):
        build_group(
            {
                "kind": "semidirect",
                "p": 5,
                "m": 2,
                "matrices": [[[0, 1], [1, 0]]],
                "acting": cyclic_spec(3),
            }
        )


# -- subgroup primitives -------------------------------------------------------


def test_subgroup_closure_examples():
    G = s3()
    assert subgroup_closure(G, [G.gens[0]]).order == 3
    assert subgroup_closure(G, []).order == 1
    assert subgroup_closure(G, list(G.elements())).order == 6


def test_cyclic_subgroups_by_enumeration():
    # oracle: cyclic subgroups are exactly the distinct power-closures
    for name in ("V4", "S3", "Z12", "A4", "Q8"):
        G = catalog_group(name)
        expected = set()
        for g in G.elements():
            acc, cur = {G.identity}, g
            while cur != G.identity:
                acc.add(cur)
                cur = int(G.mul[cur, g])
            expected.add(tuple(sorted(acc)))
        got = {h.elements for h in cyclic_subgroups(G)}
        assert got == expected


def test_cyclic_subgroup_counts():
    assert len(cyclic_subgroups(catalog_group("V4"))) == 4
    by_order = sorted(h.order for h in cyclic_subgroups(catalog_group("S3")))
    assert by_order == [1, 2, 2, 2, 3]


def test_sylow_examples():
    G = a4()
    assert sylow_subgroup(G, 2).order == 4
    assert sylow_subgroup(G, 2).is_normal
    s = sylow_subgroup(catalog_group("Z6"), 3)
    assert s.order == 3
    t = sylow_subgroup(s3(), 2)
    assert t.order == 2 and not t.is_normal
    # deterministic: least conjugate
    assert t.elements == min(
        tuple(sorted(s3().conj(g, x) for x in t.elements)) for g in s3().elements()
    )


def test_canonical_conjugate_matches_loop_definition():
    for name in catalog_names():
        G = catalog_group(name)
        for H in all_subgroups(G):
            least = min(
                tuple(sorted(G.conj(g, x) for x in H.elements)) for g in G.elements()
            )
            assert H.canonical_conjugate().elements == least, (name, H.elements)


def test_is_normal_matches_loop_definition():
    for name in catalog_names():
        G = catalog_group(name)
        for H in all_subgroups(G):
            loop = all(H.contains(G.conj(g, x)) for g in G.elements() for x in H.elements)
            assert H.is_normal == loop, (name, H.elements)


_PERMUTATION_GROUPS = {
    "D6": {"kind": "permutations", "degree": 6, "generators": ["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"]},
    "S4": {"kind": "permutations", "degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]},
}


def _loop_power_closure(G, g):
    acc, cur = {G.identity}, g
    while cur != G.identity:
        acc.add(cur)
        cur = int(G.mul[cur, g])
    return tuple(sorted(acc))


def _loop_commutator(G, A, B):
    comms = {
        int(G.mul[G.mul[a, b], G.mul[G.inv[a], G.inv[b]]]) for a in A.elements for b in B.elements
    }
    return subgroup_closure(G, sorted(comms)).elements


def _loop_normalizer_centralizer(G, H):
    norm = [g for g in G.elements() if all(H.contains(G.conj(g, x)) for x in H.elements)]
    cent = [g for g in G.elements() if all(G.mul[g, x] == G.mul[x, g] for x in H.elements)]
    return tuple(norm), tuple(cent)


def _loop_core(G, H):
    inter = set(H.elements)
    for g in G.elements():
        inter &= {G.conj(g, x) for x in H.elements}
    return tuple(sorted(inter))


@pytest.mark.parametrize("name", catalog_names() + list(_PERMUTATION_GROUPS))
def test_subgroup_primitives_match_loop_definitions(name):
    spec = _PERMUTATION_GROUPS.get(name)
    G = catalog_group(name) if spec is None else build_group(spec)
    orders = [len(_loop_power_closure(G, g)) for g in G.elements()]
    assert G.element_orders.tolist() == orders
    cyclic = sorted({_loop_power_closure(G, g) for g in G.elements()}, key=lambda e: (len(e), e))
    assert [h.elements for h in cyclic_subgroups(G)] == cyclic
    full = full_subgroup(G)
    for H in all_subgroups(G):
        assert commutator_subgroup(G, H, full).elements == _loop_commutator(G, H, full)
        assert commutator_subgroup(G, H).elements == _loop_commutator(G, H, full)
        assert commutator_subgroup(G, H, H).elements == _loop_commutator(G, H, H)
        N, Z = normalizer_centralizer(G, H)
        assert (N.elements, Z.elements) == _loop_normalizer_centralizer(G, H)
        assert core(G, H).elements == _loop_core(G, H)
        for g in G.elements():
            loop = tuple(sorted(G.conj(g, x) for x in H.elements))
            assert H.conjugate(g).elements == loop


def _queue_all_subgroups(G):
    """Every subgroup, by a queue over all of them: each queued subgroup is
    joined with every element outside it."""
    seen = {}
    queue = []
    for h in cyclic_subgroups(G):
        gen = next(x for x in h.elements if G.element_order(x) == h.order)
        seen[h.elements] = h
        queue.append((h, [gen]))
    qi = 0
    while qi < len(queue):
        h, gens = queue[qi]
        qi += 1
        for x in G.elements():
            if h.contains(x):
                continue
            elems = closure_elements(G.mul, G.identity, gens + [x])
            if elems not in seen:
                nh = SubgroupHandle(G, elems)
                seen[elems] = nh
                queue.append((nh, gens + [x]))
    return sorted(seen.values(), key=lambda h: (h.order, h.elements))


_SEARCH_GROUPS = {
    **_PERMUTATION_GROUPS,
    "A5": {"kind": "permutations", "degree": 5, "generators": ["(1 2 3 4 5)", "(1 2 3)"]},
}


@pytest.mark.parametrize("name", catalog_names() + list(_SEARCH_GROUPS))
def test_subgroup_search_matches_queue_over_all_subgroups(name):
    spec = _SEARCH_GROUPS.get(name)
    G = catalog_group(name) if spec is None else build_group(spec)
    reference = _queue_all_subgroups(G)
    assert [h.elements for h in all_subgroups(G)] == [h.elements for h in reference]
    for d in (d for d in range(1, G.order + 1) if G.order % d == 0):
        classes, seen = subgroup_classes(G, d)
        expected = {h.canonical_conjugate().elements for h in reference if d % h.order == 0}
        got = [SubgroupHandle(G, S).canonical_conjugate().elements for S in classes]
        assert sorted(got) == sorted(expected), (name, d)
        assert len(classes) <= seen <= sum(d % h.order == 0 for h in reference)


def _closure_per_pool_element(G, divisor=None, max_count=200000):
    """`subgroup_classes` as it was before the double-coset skip: one closure
    for every pair of class representative and pool element.  The reference
    for the skip's exactness; the budget error is raised at the same point."""
    divisor = G.order if divisor is None else int(divisor)
    pool = np.flatnonzero(divisor % G.element_orders == 0).tolist()
    seen, keys, classes = set(), set(), []

    def register(elems, gens):
        if elems in seen:
            return
        if len(seen) >= max_count:
            raise BudgetExceeded("budget", sizes={"subgroups": len(seen), "budget": max_count})
        seen.add(elems)
        key = SubgroupHandle(G, elems).canonical_conjugate().elements
        if key not in keys:
            keys.add(key)
            classes.append((elems, gens))

    def closure(gens):
        try:
            return closure_elements(G.mul, G.identity, gens, cap=divisor)
        except OrderBudgetExceeded:
            return None

    for t in pool:
        register(closure([t]), [t])
    qi = 0
    while qi < len(classes):
        S, gens = classes[qi]
        qi += 1
        for y in pool:
            if y in S:
                continue
            T = closure(gens + [y])
            if T is not None and divisor % len(T) == 0:
                register(T, gens + [y])
    return [S for S, _ in classes], len(seen)


def _gl2_pprime(p):
    return _gl2_group(p)[0], (p * p - 1) * (p - 1)


@pytest.mark.parametrize("name", catalog_names() + ["GL2(F3)", "GL2(F5)"])
def test_subgroup_classes_match_one_closure_per_pool_element(name):
    if name.startswith("GL2"):
        G, cap = _gl2_pprime(int(name[-2]))
        divisors = [cap]
    else:
        G = catalog_group(name)
        divisors = [d for d in range(1, G.order + 1) if G.order % d == 0]
    for d in divisors:
        assert subgroup_classes(G, d) == _closure_per_pool_element(G, d), (name, d)


@pytest.mark.parametrize("max_count", [1, 2, 9, 30, 150, 290])
def test_subgroup_classes_budget_matches_one_closure_per_pool_element(max_count):
    G, cap = _gl2_pprime(5)
    with pytest.raises(BudgetExceeded) as ref:
        _closure_per_pool_element(G, cap, max_count)
    with pytest.raises(BudgetExceeded) as err:
        subgroup_classes(G, cap, max_count)
    assert err.value.sizes == ref.value.sizes == {"subgroups": max_count, "budget": max_count}


def test_subgroup_classes_budget():
    with pytest.raises(BudgetExceeded) as err:
        subgroup_classes(a4(), max_count=2)
    assert err.value.sizes == {"subgroups": 2, "budget": 2}


def test_subgroup_handle_rejects_bad_input():
    G = s3()
    e = G.identity
    a = next(x for x in G.elements() if G.element_order(x) == 3)
    b = next(x for x in G.elements() if G.element_order(x) == 2)
    cases = [
        ((e, a, a), "subgroup elements must be distinct"),
        ((e, G.order), "subgroup elements out of range"),
        ((-1, e), "subgroup elements out of range"),
        ((a, int(G.inv[a])), "subgroup must contain the identity"),
        ((e, a), "subgroup is not closed under inversion"),
        ((e, a, int(G.inv[a]), b), "subgroup is not closed under multiplication"),
    ]
    for elements, message in cases:
        with pytest.raises(SpecInvalid, match=message):
            SubgroupHandle(G, elements)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_semidirect_table_matches_loop_definition(p):
    # (v1, q1)(v2, q2) = (v1 + q1.v2, q1 q2), element (v, q) at index(v) + p^m q
    cases = [(catalog_group("Z3"), [np.linalg.matrix_power(np.array([[0, -1], [1, -1]]), k) for k in range(3)])]
    if p > 3:
        rep = s3_standard_rep(p)
        cases.append((rep.group, rep.mats))
    for acting, action in cases:
        G = semidirect_from_action(p, 2, acting, action)
        pm = p * p
        for q1 in acting.elements():
            for q2 in acting.elements():
                for a in range(pm):
                    v1 = index_vector(a, p, 2)
                    for b in range(pm):
                        v2 = index_vector(b, p, 2)
                        moved = vector_index((v1 + np.asarray(action[q1]) @ v2) % p, p)
                        assert G.mul[a + pm * q1, b + pm * q2] == moved + pm * acting.mul[q1, q2]


def test_core_examples():
    G = s3()
    T = subgroup_closure(G, [G.gens[1]])
    assert core(G, T).order == 1
    A3 = subgroup_closure(G, [G.gens[0]])
    assert core(G, A3).elements == A3.elements
    G4 = a4()
    H = subgroup_closure(G4, [1])
    assert core(G4, H).order == 1


def test_core_is_largest_normal_subgroup_inside():
    for name in ("S3", "D4", "A4", "Q8", "Z12"):
        G = catalog_group(name)
        subs = all_subgroups(G)
        for H in subs:
            c = core(G, H)
            assert c.is_normal
            best = max(
                (k for k in subs if k.is_normal and H.contains_subgroup(k)),
                key=lambda k: k.order,
            )
            assert c.order == best.order and c.elements == best.elements


def test_normalizer_centralizer():
    G4 = a4()
    H = subgroup_closure(G4, [1])
    N, Z = normalizer_centralizer(G4, H)
    assert N.order == 4 and Z.order == 4
    assert N.elements == sylow_subgroup(G4, 2).elements
    G = catalog_group("Z12")
    N, Z = normalizer_centralizer(G, subgroup_closure(G, [2]))
    assert N.order == Z.order == 12
    S = s3()
    T = subgroup_closure(S, [S.gens[1]])
    N, Z = normalizer_centralizer(S, T)
    assert N.elements == Z.elements == T.elements


def test_commutator_examples():
    G4 = a4()
    S = sylow_subgroup(G4, 2)
    assert commutator_subgroup(G4, S, full_subgroup(G4)).elements == S.elements
    assert commutator_subgroup(G4, S, trivial_subgroup(G4)).order == 1
    S3 = s3()
    A3 = subgroup_closure(S3, [S3.gens[0]])
    assert derived_subgroup(S3).elements == A3.elements


def test_double_cosets_sizes_and_conjugacy():
    S3 = s3()
    A3 = subgroup_closure(S3, [S3.gens[0]])
    T = subgroup_closure(S3, [S3.gens[1]])
    dc = double_cosets(S3, A3, T)
    assert [(g, len(c)) for g, c in dc] == [(0, 6)]
    G4 = a4()
    S = sylow_subgroup(G4, 2)
    H = subgroup_closure(G4, [1])
    dc = double_cosets(G4, S, H)
    assert [len(c) for _, c in dc] == [4, 4, 4]
    # size law and same-class intersections conjugate inside D
    for G, D, H in [(S3, A3, T), (G4, S, H), (G4, S, subgroup_closure(G4, [4]))]:
        for g, cls in double_cosets(G, D, H):
            hset = set(H.elements)
            inter_g = frozenset(
                x for x in D.elements if G.conj(int(G.inv[g]), x) in hset
            )
            assert len(cls) == D.order * H.order // len(inter_g)
            for other in cls:
                inter_o = frozenset(
                    x for x in D.elements if G.conj(int(G.inv[other]), x) in hset
                )
                conjugators = [
                    d
                    for d in D.elements
                    if frozenset(G.conj(d, x) for x in inter_g) == inter_o
                ]
                assert conjugators, "intersections must be conjugate within D"


def test_partition_covers_group():
    G4 = a4()
    S = sylow_subgroup(G4, 2)
    H = subgroup_closure(G4, [4])
    seen = [x for _, cls in double_cosets(G4, S, H) for x in cls]
    assert sorted(seen) == list(range(12))


def test_abelianization():
    ab, proj = abelianization(a4())
    assert ab == FinAb.cyclic(3)
    assert proj[a4().identity] == (0,)
    ab, _ = abelianization(s3())
    assert ab == FinAb.cyclic(2)
    for n in (2, 5, 12):
        ab, proj = abelianization(catalog_group(f"Z{n}") if n != 5 else build_group(cyclic_spec(5)))
        assert ab == FinAb.cyclic(n)
    ab, _ = abelianization(quaternion8())
    assert ab == FinAb((2, 2))


@pytest.mark.parametrize(
    "G",
    [catalog_group(n) for n in catalog_names()]
    + [build_group(a4_shape_spec(5)), build_group(beta_shape_spec(5)),
       build_group(composite_sha_witness(2, "i")[0])],
    ids=lambda G: G.label,
)
def test_abelianization_is_a_surjective_homomorphism(G):
    ab, proj = abelianization(G)
    P = np.array(proj, dtype=np.int64).reshape(G.order, len(ab.factors))
    factors = np.array(ab.factors, dtype=np.int64)
    assert ((P[:, None, :] + P[None, :, :]) % factors == P[G.mul]).all()
    assert len(set(proj)) == ab.order == G.order // derived_subgroup(G).order


def _growth_groups():
    """The catalog groups plus S4, A5 and GL_2(F_3), each with its primes."""
    named = [(name, catalog_group(name)) for name in catalog_names()]
    named += [(name, build_group(_SEARCH_GROUPS[name])) for name in ("S4", "A5")]
    named.append(("GL2(F3)", _gl2_group(3)[0]))
    for name, G in named:
        yield name, G, [p for p in range(2, G.order + 1) if G.order % p == 0 and _is_prime(p)]


def _p_part(n, p):
    q = 1
    while n % p == 0:
        n, q = n // p, q * p
    return q


def test_sylow_subgroup_is_least_sylow_of_all_subgroups():
    for name, G, primes in _growth_groups():
        subs = all_subgroups(G)
        for p in primes:
            target = _p_part(G.order, p)
            least = min(H.elements for H in subs if H.order == target)
            assert sylow_subgroup(G, p).elements == least, (name, p)


def test_complement_examples():
    G4 = a4()
    S = sylow_subgroup(G4, 2)
    C = complement(G4, S)
    assert C.order == 3
    products = {int(G4.mul[c, s]) for c in C.elements for s in S.elements}
    assert len(products) == 12
    checked = 0
    for name, G, primes in _growth_groups():
        for p in primes:
            S = sylow_subgroup(G, p)
            if not S.is_normal:
                continue
            C = complement(G, S)
            assert C.order == G.order // S.order, (name, p)
            assert set(C.elements) & set(S.elements) == {G.identity}, (name, p)
            checked += 1
    assert checked == 16
    with pytest.raises(PreconditionFailed):
        complement(s3(), sylow_subgroup(s3(), 2))  # not normal


def test_growth_never_builds_a_closure_past_its_divisor(monkeypatch):
    sizes = []

    def recording(mul, identity, gens, cap=None):
        out = closure_elements(mul, identity, gens, cap)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(groups, "closure_elements", recording)
    for name, G, primes in _growth_groups():
        for p in primes:
            sizes.clear()
            S = sylow_subgroup(G, p)
            assert max(sizes, default=1) <= S.order, (name, p)
            if S.is_normal:
                sizes.clear()
                complement(G, S)
                assert max(sizes, default=1) <= G.order // S.order, (name, p)


def test_complement_beta_group():
    G = build_group(beta_shape_spec(5))
    S = sylow_subgroup(G, 5)
    C = complement(G, S)
    assert C.order == 6
    sub, _ = C.as_group()
    assert not sub.is_abelian  # the order-6 complement is the symmetric group


def test_lagrange_on_catalog():
    for name in catalog_names():
        G = catalog_group(name)
        for H in all_subgroups(G):
            assert G.order % H.order == 0


def test_normal_sylow_with_trivial_core_is_elementary():
    for name in catalog_names():
        G = catalog_group(name)
        primes = sorted({p for p in range(2, G.order + 1) if G.order % p == 0 and _is_prime(p)})
        for H in all_subgroups(G):
            for p in primes:
                S = sylow_subgroup(G, p)
                idx = H.index
                k = 0
                while idx % p == 0:
                    idx //= p
                    k += 1
                if S.order > 1 and S.is_normal and k == 1 and core(G, H).order == 1:
                    assert all(
                        G.element_order(x) == p for x in S.elements if x != G.identity
                    ), (name, p)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [is_prime(n) for n in range(10**5 + 1)] == [_is_prime(n) for n in range(10**5 + 1)]
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 3215031751):
        assert not is_prime(n) and not _is_prime(n)
    assert is_prime(2**61 - 1)  # a Mersenne prime, past reach of trial division here
    # the least strong pseudoprime to all twelve bases is beyond the exact range
    with pytest.raises(ValueError):
        is_prime(399165290221 * 798330580441)


# -- extension along the Cayley tree -----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(catalog_names()), st.sampled_from(catalog_names()),
       st.lists(st.integers(0, 23), min_size=3, max_size=3))
@example("Z3", "Z2", [1, 0, 0])  # s -> the involution: only the edge s^2 . s = 1 fails
def test_extend_from_generators_matches_all_pairs(gname, tname, picks):
    G, T = catalog_group(gname), catalog_group(tname)
    images = [x % T.order for x in picks[: len(G.gens)]]
    got = extend_from_generators(G, images, lambda a, b: int(T.mul[a, b]), T.identity)
    # the map defined along the tree, checked on all pairs (g, h)
    tree, rel_g, rel_i = G.cayley_tree
    f = np.full(G.order, T.identity)
    for g, i, h in tree:
        f[h] = T.mul[f[g], images[i]]
    if (f[G.mul] == T.mul[np.ix_(f, f)]).all():
        assert got == f.tolist()
    else:
        assert got is None
        # tree edges hold by construction, so some relator edge fails
        s_i, img_i = np.array(G.gens)[rel_i], np.array(images)[rel_i]
        assert (f[G.mul[rel_g, s_i]] != T.mul[f[rel_g], img_i]).any()
