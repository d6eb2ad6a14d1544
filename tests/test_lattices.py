import numpy as np
import pytest

import bar_oracle
from bar_oracle import check_g_lattice, direct_sum, trivial_lattice
from normone import intmat
from normone.catalog import a4_shape_spec, catalog_group, catalog_names, symmetric3_spec
from normone.errors import EmptyFamily, SpecInvalid
from normone.groups import (
    all_subgroups,
    build_group,
    full_subgroup,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
)
from normone.lattices import GLattice, induced_perm_lattice, j_lattice, restrict
from normone.reps import build_semidirect, witness_rep


def s3():
    return build_group(symmetric3_spec())


def a4():
    return build_group(a4_shape_spec(2))


def test_trivial_lattice():
    G = s3()
    for r in (0, 1, 3):
        lat = trivial_lattice(G, r)
        assert lat.rank == r
        assert (lat.act == np.eye(r, dtype=np.int64)).all()


def test_induced_rank_and_swap():
    G = s3()
    A3 = subgroup_closure(G, [G.gens[0]])
    ind = induced_perm_lattice(G, A3)
    assert ind.rank == 2
    t = G.gens[1]
    assert (ind.act[t] == np.array([[0, 1], [1, 0]])).all()
    full = induced_perm_lattice(G, full_subgroup(G))
    assert full.rank == 1 and (full.act == 1).all()
    G4 = a4()
    H = subgroup_closure(G4, [1])
    ind6 = induced_perm_lattice(G4, H)
    assert ind6.rank == 6


def test_j_lattice_rank_law():
    G4 = a4()
    H = subgroup_closure(G4, [1])
    J = j_lattice(G4, [(H, 1)])
    assert J.rank == 5
    V4 = catalog_group("V4")
    Jg = j_lattice(V4, [(trivial_subgroup(V4), 1)])
    assert Jg.rank == 3
    subs = [h for h in all_subgroups(V4) if h.index == 2]
    J3 = j_lattice(V4, [(h, 1) for h in subs])
    assert J3.rank == 5
    # multiplicities
    J5 = j_lattice(V4, [(subs[0], 2), (subs[1], 1)])
    assert J5.rank == 2 * 2 + 2 - 1
    with pytest.raises(EmptyFamily):
        j_lattice(V4, [])
    # a multiplicity must be a positive integer, not truncated to one
    B = catalog_group("Z2xZ4")
    H2 = next(h for h in all_subgroups(B) if h.order == 2)
    assert j_lattice(B, [(H2, 1.0)]).rank == 3
    for e in (1.9, 0, -1):
        with pytest.raises(SpecInvalid):
            j_lattice(B, [(H2, e)])


def test_j_lattice_is_genuine_and_quotient_exact():
    G4 = a4()
    H = subgroup_closure(G4, [1])
    J = j_lattice(G4, [(H, 1)])
    check_g_lattice(J)
    for s in G4.gens:  # so every act[g] is unimodular
        assert bar_oracle.invariant_factors(J.act[s]) == [1] * J.rank
    q = bar_oracle.quotient_matrix(J.rank + 1)
    ones = np.ones(J.rank + 1, dtype=np.int64)
    assert (q @ ones == 0).all()
    # surjective with kernel of rank exactly 1
    assert bar_oracle.invariant_factors(q) == [1] * J.rank
    K = intmat.kernel_basis(q)
    assert K.shape[1] == 1


def test_restrict_shapes():
    G4 = a4()
    H = subgroup_closure(G4, [1])
    J = j_lattice(G4, [(H, 1)])
    S = sylow_subgroup(G4, 2)
    R = restrict(J, S)
    assert R.rank == 5 and R.group.order == 4
    assert (R.act == J.act[list(S.elements)]).all()
    T = restrict(J, trivial_subgroup(G4))
    assert T.group.order == 1


def test_split_family_has_equal_cohomology():
    # appending the full group to a family splits off a trivial summand
    from normone.cohomology import cohomology

    G = s3()
    T = subgroup_closure(G, [G.gens[1]])
    J2 = j_lattice(G, [(T, 1), (full_subgroup(G), 1)])
    J1 = j_lattice(G, [(T, 1)])
    split = direct_sum(J1, trivial_lattice(G, 1))
    assert J2.rank == split.rank
    for degree in (0, 1, 2):
        a = cohomology(G, J2, degree)
        b = cohomology(G, split, degree)
        if degree == 0:
            assert a.free_rank == b.free_rank
        else:
            assert a.structure == b.structure


# -- the point permutation against the long way round ------------------------------------


def _perm_group(label, degree, *gens):
    return build_group({"kind": "permutations", "degree": degree, "generators": list(gens), "label": label})


LATTICE_GROUPS = [(name, lambda name=name: catalog_group(name)) for name in catalog_names()]
LATTICE_GROUPS += [
    ("D6", lambda: _perm_group("D6", 6, "(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)")),
    ("S4", lambda: _perm_group("S4", 4, "(1 2 3 4)", "(1 2)")),
]


def _assert_matches_reference(G, fam):
    J = j_lattice(G, fam)
    want = bar_oracle.reference_j_lattice(G, fam)
    assert J.act.shape == want.act.shape and (J.act == want.act).all(), [(H.order, e) for H, e in fam]
    check_g_lattice(J)


@pytest.mark.parametrize("name, make", LATTICE_GROUPS, ids=[n for n, _ in LATTICE_GROUPS])
def test_lattices_match_the_reference(name, make):
    # Ind and J for every subgroup class, entry by entry, and J of a family
    # of three blocks: two copies of the largest proper class and the least
    G = make()
    classes = {C.elements: C for C in (H.canonical_conjugate() for H in all_subgroups(G))}
    classes = sorted(classes.values(), key=lambda h: (h.order, h.elements))
    for H in classes:
        ind = induced_perm_lattice(G, H)
        assert (ind.act == bar_oracle.reference_induced(G, H).act).all(), H.order
        check_g_lattice(ind)
        _assert_matches_reference(G, [(H, 1)])
    _assert_matches_reference(G, [(classes[max(len(classes) - 2, 0)], 2), (classes[0], 1)])


def test_degree_55_lattice_matches_the_reference():
    G, H, _ = build_semidirect(witness_rep(11, 5))
    assert j_lattice(G, [(H, 1)]).rank == 54
    _assert_matches_reference(G, [(H, 1)])


def test_check_g_lattice_rejects_a_non_homomorphic_family():
    # one random permutation matrix P_g per element, P_1 = I: the quotient
    # map q = [-1 | I] commutes with any such family, q P_g = (q P_g s) q,
    # so equivariance of q tells nothing; check_g_lattice refuses both
    G = a4()
    rng = np.random.default_rng(0)
    R = 4
    P = np.zeros((G.order, R, R), dtype=np.int64)
    for g in G.elements():
        perm = np.arange(R) if g == G.identity else rng.permutation(R)
        P[g, perm, np.arange(R)] = 1
    q = bar_oracle.quotient_matrix(R)
    section = np.vstack([np.zeros((1, R - 1), dtype=np.int64), np.eye(R - 1, dtype=np.int64)])
    Q = q @ P @ section
    assert (q @ P == Q @ q).all()
    for act in (P, Q):
        with pytest.raises(SpecInvalid, match="homomorphism"):
            check_g_lattice(GLattice(G, act))
    J = j_lattice(G, [(subgroup_closure(G, [1]), 1)])
    moved = J.act.copy()
    moved[G.identity] = -moved[G.identity]
    with pytest.raises(SpecInvalid, match="identity"):
        check_g_lattice(GLattice(G, moved))
