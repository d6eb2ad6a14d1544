import numpy as np
import pytest

from bar_oracle import trivial_lattice
from normone import intmat
from normone.catalog import a4_shape_spec, catalog_group, symmetric3_spec
from normone.errors import EmptyFamily, GroupMismatch, SpecInvalid
from normone.groups import build_group, full_subgroup, subgroup_closure, sylow_subgroup, trivial_subgroup
from normone.lattices import (
    GLattice,
    LatticeMap,
    direct_sum,
    induced_perm_lattice,
    j_lattice,
    restrict,
)


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
    ind, labels = induced_perm_lattice(G, A3)
    assert ind.rank == 2 and len(labels) == 2
    t = G.gens[1]
    assert (ind.act[t] == np.array([[0, 1], [1, 0]])).all()
    full, _ = induced_perm_lattice(G, full_subgroup(G))
    assert full.rank == 1 and (full.act == 1).all()
    G4 = a4()
    H = subgroup_closure(G4, [1])
    ind6, _ = induced_perm_lattice(G4, H)
    assert ind6.rank == 6


def test_j_lattice_rank_law():
    G4 = a4()
    H = subgroup_closure(G4, [1])
    J, _ = j_lattice(G4, [(H, 1)])
    assert J.rank == 5
    V4 = catalog_group("V4")
    Jg, _ = j_lattice(V4, [(trivial_subgroup(V4), 1)])
    assert Jg.rank == 3
    from normone.groups import all_subgroups

    subs = [h for h in all_subgroups(V4) if h.index == 2]
    J3, _ = j_lattice(V4, [(h, 1) for h in subs])
    assert J3.rank == 5
    # multiplicities
    J5, _ = j_lattice(V4, [(subs[0], 2), (subs[1], 1)])
    assert J5.rank == 2 * 2 + 2 - 1
    with pytest.raises(EmptyFamily):
        j_lattice(V4, [])


def test_j_lattice_is_genuine_and_quotient_exact():
    G4 = a4()
    H = subgroup_closure(G4, [1])
    J, q = j_lattice(G4, [(H, 1)])
    GLattice(J.group, J.act, validate=True)  # identity/unimodular/homomorphism
    R = q.source.rank
    ones = np.ones(R, dtype=np.int64)
    assert (q.matrix @ ones == 0).all()
    # surjective with kernel of rank exactly 1
    assert intmat.invariant_factors(q.matrix) == [1] * J.rank
    K = intmat.kernel_basis(q.matrix)
    assert K.shape[1] == 1


def test_lattice_map_equivariance_enforced():
    G = s3()
    lat = trivial_lattice(G, 1)
    ind, _ = induced_perm_lattice(G, subgroup_closure(G, [G.gens[0]]))
    with pytest.raises(SpecInvalid):
        LatticeMap(lat, ind, [[1], [0]])  # not equivariant


def test_restrict_shapes():
    G4 = a4()
    H = subgroup_closure(G4, [1])
    J, _ = j_lattice(G4, [(H, 1)])
    S = sylow_subgroup(G4, 2)
    R = restrict(J, S)
    assert R.rank == 5 and R.group.order == 4
    assert (R.act == J.act[list(S.elements)]).all()
    T = restrict(J, trivial_subgroup(G4))
    assert T.group.order == 1


def test_direct_sum():
    G = s3()
    M = trivial_lattice(G, 2)
    N = trivial_lattice(G, 3)
    assert direct_sum(M, N).rank == 5
    Z = trivial_lattice(G, 0)
    assert (direct_sum(M, Z).act == M.act).all()
    other = catalog_group("V4")
    with pytest.raises(GroupMismatch):
        direct_sum(M, trivial_lattice(other, 1))


def test_split_family_has_equal_cohomology():
    # appending the full group to a family splits off a trivial summand
    from normone.cohomology import cohomology

    G = s3()
    T = subgroup_closure(G, [G.gens[1]])
    J2, _ = j_lattice(G, [(T, 1), (full_subgroup(G), 1)])
    J1, _ = j_lattice(G, [(T, 1)])
    split = direct_sum(J1, trivial_lattice(G, 1))
    assert J2.rank == split.rank
    for degree in (0, 1, 2):
        a = cohomology(G, J2, degree)
        b = cohomology(G, split, degree)
        if degree == 0:
            assert a.free_rank == b.free_rank
        else:
            assert a.structure == b.structure
