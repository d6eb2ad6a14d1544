import numpy as np
import pytest

from bar_oracle import apply_coboundary1, bar_table, close_dset, cocycle2_defect, restriction_class
from normone.catalog import a4_shape_spec, catalog_group, cyclic_spec
from normone.cohomology import (
    closed_dset_elements,
    cohomology,
    h1_character_kernel,
    is_coboundary,
    sha,
    tate_cyclic,
)
from normone.errors import BudgetExceeded, GroupMismatch, NotCyclic
from normone.finab import FinAb
from normone.groups import (
    abelianization,
    all_subgroups,
    build_group,
    cyclic_subgroups,
    full_subgroup,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
)
from normone.lattices import GLattice, induced_perm_lattice, j_lattice, restrict, trivial_lattice


def a4():
    return build_group(a4_shape_spec(2))


# -- plain cohomology ----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12])
def test_cyclic_trivial_coefficients(n):
    G = build_group(cyclic_spec(n))
    lat = trivial_lattice(G, 1)
    assert cohomology(G, lat, 2).structure == FinAb.cyclic(n)
    assert cohomology(G, lat, 1).structure.is_trivial()
    assert cohomology(G, lat, 0).free_rank == 1


def test_h1_trivial_coefficients_always_zero():
    for name in ("S3", "A4", "Q8", "D4", "Z3xZ3"):
        G = catalog_group(name)
        assert cohomology(G, trivial_lattice(G, 1), 1).structure.is_trivial()


def test_h0_fixed_rank_of_family_lattice():
    G = a4()
    H = subgroup_closure(G, [1])
    S = sylow_subgroup(G, 2)
    for fam, expect in [
        ([(H, 1)], 0),
        ([(H, 1), (S, 1)], 1),
        ([(H, 1), (S, 1), (full_subgroup(G), 1)], 2),
    ]:
        lat, _ = j_lattice(G, fam)
        assert cohomology(G, lat, 0).free_rank == expect


def test_generators_are_exact_cocycles_with_exact_orders():
    G = catalog_group("V4")
    lat, _ = j_lattice(G, [(trivial_subgroup(G), 1)])
    h2 = cohomology(G, lat, 2)
    assert h2.structure == FinAb.cyclic(2)
    for order, gen in zip(h2.structure.factors, h2.generators):
        c = bar_table(G, gen)
        assert cocycle2_defect(lat, c) == 0
        ok, _ = is_coboundary(full_subgroup(G), lat, np.array(c, dtype=object))
        assert not ok  # the class itself is nonzero
        ok, _ = is_coboundary(
            full_subgroup(G), lat, order * np.array(c, dtype=object)
        )
        assert ok  # its order kills it


def test_budget_exceeded():
    # A4 is presented on two generators: C^2 is (12*2 - 12 + 1) * 5 = 65 columns
    G = catalog_group("A4")
    lat, _ = j_lattice(G, [(subgroup_closure(G, [1]), 1)])
    with pytest.raises(BudgetExceeded) as err:
        cohomology(G, lat, 2, budget=60)
    assert err.value.sizes["columns"] == 65


def test_group_mismatch():
    G = catalog_group("V4")
    other = catalog_group("S3")
    with pytest.raises(GroupMismatch):
        cohomology(other, trivial_lattice(G, 1), 1)


# -- Shapiro-style identifications ---------------------------------------------


def test_induced_h2_is_abelianization_small():
    for name in ("Z6", "S3", "D4", "Q8", "V4", "Z8"):
        G = catalog_group(name)
        for H in all_subgroups(G):
            ind, _ = induced_perm_lattice(G, H)
            sub, _ = H.as_group()
            ab = abelianization(sub)[0] if sub.order > 1 else FinAb.trivial()
            assert cohomology(G, ind, 2).structure == ab, (name, H.order)
    # pinned: the lattice induced from A3 up to S3
    S3 = catalog_group("S3")
    ind, _ = induced_perm_lattice(S3, subgroup_closure(S3, [S3.gens[0]]))
    assert cohomology(S3, ind, 2).structure == FinAb.cyclic(3)


def test_restriction_kernel_of_induced_vanishes():
    for name in ("S3", "D4", "Q8", "Z2xZ4"):
        G = catalog_group(name)
        for H in all_subgroups(G):
            ind, _ = induced_perm_lattice(G, H)
            assert sha(G, ind, []).structure.is_trivial(), (name, H.order)


# -- degree-1 oracle -------------------------------------------------------------


def test_h1_character_kernel_examples():
    V4 = catalog_group("V4")
    assert h1_character_kernel(V4, [(trivial_subgroup(V4), 1)]) == FinAb((2, 2))
    S3 = catalog_group("S3")
    assert h1_character_kernel(S3, [(full_subgroup(S3), 1)]).is_trivial()
    T = subgroup_closure(S3, [S3.gens[1]])
    assert h1_character_kernel(S3, [(T, 1)]).is_trivial()


def test_h1_agreement_on_catalog():
    for name in ("V4", "S3", "A4", "Z2xZ4", "Q8", "Z3xZ3"):
        G = catalog_group(name)
        cycs = cyclic_subgroups(G)
        fams = [[(h, 1)] for h in cycs[:3]]
        fams.append([(cycs[0], 1), (cycs[-1], 2)])
        for fam in fams:
            lat, _ = j_lattice(G, fam)
            assert cohomology(G, lat, 1).structure == h1_character_kernel(G, fam), name


def test_h1_multiplicity_invariance():
    G = catalog_group("V4")
    H = cyclic_subgroups(G)[1]
    assert h1_character_kernel(G, [(H, 1)]) == h1_character_kernel(G, [(H, 3)])


# -- restriction and coboundary tests --------------------------------------------


def test_restriction_to_trivial_and_full():
    G = catalog_group("V4")
    lat, _ = j_lattice(G, [(trivial_subgroup(G), 1)])
    h2 = cohomology(G, lat, 2)
    gen = np.array(bar_table(G, h2.generators[0]), dtype=object)
    r = restriction_class(gen, trivial_subgroup(G))
    assert not np.any(r)
    r = restriction_class(gen, full_subgroup(G))
    assert (r == gen).all()


def test_zero_cocycle_is_coboundary():
    G = catalog_group("S3")
    lat = trivial_lattice(G, 1)
    zero = np.zeros((6, 6, 1), dtype=object)
    ok, wit = is_coboundary(full_subgroup(G), lat, zero)
    assert ok and not np.any(wit)


def test_nontrivial_class_of_z2_not_coboundary():
    G = build_group(cyclic_spec(2))
    lat = trivial_lattice(G, 1)
    h2 = cohomology(G, lat, 2)
    assert h2.structure == FinAb.cyclic(2)
    ok, _ = is_coboundary(full_subgroup(G), lat, np.array(bar_table(G, h2.generators[0]), dtype=object))
    assert not ok


def test_sha_generators_restrict_to_coboundaries():
    G = a4()
    lat, _ = j_lattice(G, [(subgroup_closure(G, [1]), 1)])
    S = sha(G, lat, [])
    assert S.structure == FinAb.cyclic(2)
    for D in close_dset(G, S.dset_raw):
        c = restriction_class(bar_table(G, S.generators[0]), D)
        ok, wit = is_coboundary(D, lat, c)
        assert ok
        if wit is not None and D.order > 1:
            # verify the witness exactly: d^1(wit) == restricted cocycle
            RM = restrict(lat, D)
            sub = RM.group
            nonid = [g for g in sub.elements() if g != sub.identity]
            d1 = apply_coboundary1(RM, np.array(wit, dtype=object)[nonid])
            rest = np.array(c, dtype=object)[np.ix_(nonid, nonid)]
            assert (d1 == rest).all()


# -- the restriction kernel ------------------------------------------------------


def test_sha_bicyclic_values():
    for name, n1 in (("V4", 2), ("Z2xZ4", 2), ("Z3xZ3", 3)):
        G = catalog_group(name)
        lat, _ = j_lattice(G, [(trivial_subgroup(G), 1)])
        assert sha(G, lat, []).structure == FinAb.cyclic(n1), name


def test_sha_cyclic_group_vanishes():
    G = catalog_group("Z6")
    lat, _ = j_lattice(G, [(trivial_subgroup(G), 1)])
    assert sha(G, lat, []).structure.is_trivial()


def test_sha_prime_index_vanishes():
    G = catalog_group("S3")
    T = subgroup_closure(G, [G.gens[1]])
    lat, _ = j_lattice(G, [(T, 1)])
    assert sha(G, lat, []).structure.is_trivial()


def test_sha_cyclic_sylows_kill_every_family():
    # all Sylow subgroups cyclic: the kernel vanishes for any family
    for name in ("S3", "Z12", "Z6"):
        G = catalog_group(name)
        cycs = cyclic_subgroups(G)
        fams = [
            [(trivial_subgroup(G), 1)],
            [(cycs[1], 1), (cycs[-1], 1)],
            [(cycs[1], 2)],
        ]
        for fam in fams:
            lat, _ = j_lattice(G, fam)
            assert sha(G, lat, []).structure.is_trivial(), (name, lat.rank)


def test_sha_a4_with_and_without_sylow():
    G = a4()
    lat, _ = j_lattice(G, [(subgroup_closure(G, [1]), 1)])
    assert sha(G, lat, []).structure == FinAb.cyclic(2)
    assert sha(G, lat, [sylow_subgroup(G, 2)]).structure.is_trivial()


def test_sha_with_full_group_in_dset():
    G = catalog_group("V4")
    lat, _ = j_lattice(G, [(trivial_subgroup(G), 1)])
    assert sha(G, lat, [full_subgroup(G)]).structure.is_trivial()


def test_sha_records_raw_and_closed_dsets():
    G = a4()
    lat, _ = j_lattice(G, [(subgroup_closure(G, [1]), 1)])
    S2 = sylow_subgroup(G, 2)
    out = sha(G, lat, [S2])
    assert [d.elements for d in out.dset_raw] == [S2.elements]
    assert len(closed_dset_elements(G, out.dset_raw)) == len(cyclic_subgroups(G)) + 1


def test_inflation_invariance():
    # a lattice pulled back along a surjection q: G ->> Q acts by act[q(g)];
    # GLattice validates the pulled-back action
    # along Z/4 ->> Z/2 with the one-dimensional sign module
    Z4 = build_group(cyclic_spec(4))
    Z2 = build_group(cyclic_spec(2))
    J2, _ = j_lattice(Z2, [(trivial_subgroup(Z2), 1)])
    lifted = GLattice(Z4, J2.act[[g % 2 for g in range(4)]])
    assert sha(Z4, lifted, []).structure == sha(Z2, J2, []).structure

    # along the order-12 group ->> Z/3
    G = a4()
    Z3 = build_group(cyclic_spec(3))
    J3, _ = j_lattice(Z3, [(trivial_subgroup(Z3), 1)])
    lifted = GLattice(G, J3.act[[g // 4 for g in range(12)]])
    assert sha(G, lifted, []).structure == sha(Z3, J3, []).structure

    # a nonzero case: Z/2 x Z/4 ->> (Z/2)^2
    B = catalog_group("Z2xZ4")
    V4 = catalog_group("V4")
    JV, _ = j_lattice(V4, [(trivial_subgroup(V4), 1)])
    qmap = [(g // 4) * 2 + (g % 4) % 2 for g in range(8)]
    lifted = GLattice(B, JV.act[qmap])
    got = sha(B, lifted, []).structure
    assert got == sha(V4, JV, []).structure == FinAb.cyclic(2)


# -- cyclic Tate cohomology ------------------------------------------------------


def test_tate_trivial_coefficients():
    for n in (2, 3, 6):
        G = build_group(cyclic_spec(n))
        lat = trivial_lattice(G, 1)
        D = full_subgroup(G)
        assert tate_cyclic(D, lat, 0) == FinAb.cyclic(n)
        assert tate_cyclic(D, lat, 1).is_trivial()
        assert tate_cyclic(D, lat, 2) == FinAb.cyclic(n)  # period two
        assert tate_cyclic(D, lat, -1).is_trivial()


def test_tate_swap_lattice():
    G = catalog_group("S3")
    A3 = subgroup_closure(G, [G.gens[0]])
    ind, _ = induced_perm_lattice(G, A3)
    T = subgroup_closure(G, [G.gens[1]])
    sw = restrict(ind, T)
    assert tate_cyclic(T, sw, 1).is_trivial()


def test_tate_agrees_with_bar_complex():
    for n in (2, 3, 4, 6):
        G = build_group(cyclic_spec(n))
        for lat in (trivial_lattice(G, 1), j_lattice(G, [(trivial_subgroup(G), 1)])[0]):
            D = full_subgroup(G)
            assert tate_cyclic(D, lat, 1) == cohomology(G, lat, 1).structure
            assert tate_cyclic(D, lat, 0) == cohomology(G, lat, 2).structure
    # and on per-subgroup restrictions inside a bigger group
    G = a4()
    J, _ = j_lattice(G, [(subgroup_closure(G, [1]), 1)])
    for D in cyclic_subgroups(G):
        if D.order == 1:
            continue
        RM = restrict(J, D)
        sub = RM.group
        assert tate_cyclic(D, RM, 1) == cohomology(sub, RM, 1).structure
        assert tate_cyclic(D, RM, 0) == cohomology(sub, RM, 2).structure


def test_tate_requires_cyclic():
    G = catalog_group("V4")
    lat = trivial_lattice(G, 1)
    with pytest.raises(NotCyclic):
        tate_cyclic(full_subgroup(G), lat, 0)
