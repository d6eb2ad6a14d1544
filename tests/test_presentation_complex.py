"""The Cayley-graph presentation complex against the bar-complex oracle,
the Schur multiplier, and exact cocycle and coboundary certificates."""

import math
from itertools import combinations

import numpy as np
import pytest

import bar_oracle
from normone import intmat
from normone.catalog import abelian_spec, catalog_group, catalog_names
from normone import cohomology as cohomology_module
from normone.cohomology import (
    _bar_values,
    _coboundary1,
    _restriction_lattice,
    _restriction_members,
    cohomology,
    sha,
)
from normone.finab import FinAb
from normone.groups import (
    all_subgroups,
    build_group,
    direct_product,
    full_subgroup,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
)
from normone.lattices import induced_perm_lattice, j_lattice


def _perm_group(label, degree, *gens):
    return build_group({"kind": "permutations", "degree": degree, "generators": list(gens), "label": label})


def d6():
    return _perm_group("D6", 6, "(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)")


def s4():
    return _perm_group("S4", 4, "(1 2 3 4)", "(1 2)")


def a5():
    return _perm_group("A5", 5, "(1 2 3 4 5)", "(1 2 3)")


def _subgroup_classes(G):
    return {c.elements: c for c in (H.canonical_conjugate() for H in all_subgroups(G))}.values()


def _bar_coboundary(lat, b):
    # the bar coboundary of a 1-cochain, straight from its definition
    G = lat.group
    out = np.zeros((G.order, G.order, lat.rank), dtype=object)
    for g in range(G.order):
        for h in range(G.order):
            out[g, h] = lat.act[g] @ b[h] - b[G.mul[g, h]] + b[g]
    return out


# -- the oracle gate -------------------------------------------------------------


ORACLE_GROUPS = [(name, lambda name=name: catalog_group(name)) for name in catalog_names()]
ORACLE_GROUPS += [("D6", d6), ("S4", s4)]

# groups whose greedy generators are more than two: the presentation is a
# generating pair (Q8 x Z3, A4 x Z2) or, when no pair exists, the generators
# themselves (Q8 x Z2)
PAIR_GROUPS = [
    (f"{a}x{b}", lambda a=a, b=b: direct_product(catalog_group(a), catalog_group(b)))
    for a, b in (("Q8", "Z3"), ("A4", "Z2"), ("Q8", "Z2"))
]


def _all_pairs(G):
    return np.divmod(np.arange(G.order**2), G.order)


@pytest.mark.parametrize("name, make", ORACLE_GROUPS + PAIR_GROUPS,
                         ids=[n for n, _ in ORACLE_GROUPS + PAIR_GROUPS])
def test_matches_bar_oracle(name, make):
    # H^1, H^2 and Sha (dset none and the Sylow 2-subgroup) of J_{G/H} for
    # every subgroup class H, and of the induced lattices Z[G/H]; each H^2
    # generator is a relator vector of shape (R, r) whose bar values, read
    # pair by pair, are the oracle's whole bar table, which passes the full d^2
    G = make()
    R = len(G.presentation[2])
    dsets = ([], [sylow_subgroup(G, 2)])
    for H in _subgroup_classes(G):
        for lat in (j_lattice(G, [(H, 1)]), induced_perm_lattice(G, H)):
            case = (name, H.order, lat.rank)
            assert cohomology(G, lat, 1).structure == bar_oracle.cohomology(G, lat, 1).structure, case
            base = bar_oracle.cohomology(G, lat, 2)
            h2 = cohomology(G, lat, 2)
            assert h2.structure == base.structure, case
            for z in h2.generators:
                assert z.shape == (R, lat.rank), case
                table = bar_oracle.bar_table(G, z)
                assert (_bar_values(G, z, *_all_pairs(G)).reshape(table.shape) == table).all(), case
                assert bar_oracle.cocycle2_defect(lat, table) == 0, case
            for dset in dsets:
                got = sha(G, lat, dset).structure
                assert got == bar_oracle.sha(G, lat, dset, base).structure, case


# -- the stacked restriction kernel ------------------------------------------------


RESTRICTION_GROUPS = ORACLE_GROUPS + [("A5", a5)]


def _restriction_dsets(G):
    return {"none": [], "sylow:2": [sylow_subgroup(G, 2)], "sylow:3": [sylow_subgroup(G, 3)]}


@pytest.mark.parametrize("name, make", RESTRICTION_GROUPS, ids=[n for n, _ in RESTRICTION_GROUPS])
def test_restriction_members_match_effective_dset(name, make):
    # the maximal cyclic subgroups read off the power and class data, plus the
    # pruned non-cyclic members, are the maximal members of the closed dset up
    # to conjugacy, each once
    G = make()
    for label, dset in _restriction_dsets(G).items():
        cyclic, noncyclic = _restriction_members(G, dset)
        got = [subgroup_closure(G, [g]).canonical_conjugate().elements for g in cyclic]
        got += [D.canonical_conjugate().elements for D in noncyclic]
        want = [D.elements for D in bar_oracle._effective_dset(G, bar_oracle.close_dset(G, dset)) if D.order > 1]
        assert sorted(got) == sorted(want), (name, label)


@pytest.mark.parametrize("name, make", RESTRICTION_GROUPS, ids=[n for n, _ in RESTRICTION_GROUPS])
def test_restriction_lattice_matches_per_member_route(name, make):
    # one kernel of the stacked blocks gives the Hermite basis that one kernel
    # and one intersection per member give, for J_{G/H} and Z[G/H] of every
    # subgroup class H
    G = make()
    checked = 0
    for H in _subgroup_classes(G):
        for lat in (j_lattice(G, [(H, 1)]), induced_perm_lattice(G, H)):
            base = cohomology(G, lat, 2)
            if not base.generators:
                continue
            for label, dset in _restriction_dsets(G).items():
                got = _restriction_lattice(G, lat, base, dset)
                want = bar_oracle.restriction_lattice(G, lat, base, dset)
                assert got.shape == want.shape and (got == want).all(), (name, H.order, label)
                checked += 1
    assert checked or G.order == 1


def test_sha_solves_one_stacked_kernel(monkeypatch):
    # one kernel for every member at once, and cyclic members need no
    # restricted lattice: a dset-free query restricts nothing
    G = catalog_group("A4")
    lat = j_lattice(G, [(subgroup_closure(G, [1]), 1)])
    kernels, restricts = [], []
    kernel_basis, restrict = intmat.kernel_basis, cohomology_module.restrict
    monkeypatch.setattr(intmat, "kernel_basis", lambda A: kernels.append(A) or kernel_basis(A))
    monkeypatch.setattr(cohomology_module, "restrict", lambda M, D: restricts.append(D) or restrict(M, D))
    assert sha(G, lat, []).structure == FinAb.cyclic(2)
    assert len(kernels) == 1 and restricts == []
    kernels.clear()
    S2 = sylow_subgroup(G, 2)
    assert sha(G, lat, [S2]).structure.is_trivial()
    assert len(kernels) == 1 and restricts == [S2]


# -- the integer kernels on real queries ---------------------------------------------


def test_sha_kernels_match_reference_routes(monkeypatch):
    # every Hermite basis and Smith form that a sha of J_{G/H} meets, for every
    # catalog group, subgroup class H and dset none or the Sylow 2-subgroup,
    # equals the plain RowEchelon basis and the numpy Smith; and sha run on
    # those reference routes gives the same structure and generators
    def run():
        out = []
        for name in catalog_names():
            G = catalog_group(name)
            for H in _subgroup_classes(G):
                lat = j_lattice(G, [(H, 1)])
                for dset in ([], [sylow_subgroup(G, 2)]):
                    S = sha(G, lat, dset)
                    out.append((name, H.elements, len(dset), S.structure,
                                [np.asarray(c).tolist() for c in S.generators]))
        return out

    fast = run()
    basis, smith, seen = intmat.row_lattice_basis, intmat.smith, {"tall": 0, "smith": 0}

    def checked_basis(A):
        A = np.asarray(A)
        want = bar_oracle.row_echelon_basis(A)
        assert basis(A).tolist() == want.tolist()
        seen["tall"] += (A.dtype == np.int64 and A.shape[0] >= 4 * A.shape[1]
                         and A.size >= intmat._CANDIDATE_CELLS)
        return want

    def checked_smith(A, **kwargs):
        got, want = smith(A, **kwargs), bar_oracle.numpy_smith(A, **kwargs)
        assert got[0] == want[0]
        for x, y in zip(got[1:], want[1:]):
            assert (x is None and y is None) or x.tolist() == y.tolist()
        seen["smith"] += 1
        return want

    monkeypatch.setattr(intmat, "row_lattice_basis", checked_basis)
    monkeypatch.setattr(intmat, "smith", checked_smith)
    assert run() == fast
    assert seen["tall"] and seen["smith"]


# -- the Schur multiplier -----------------------------------------------------------


SCHUR = [
    ("S3", lambda: catalog_group("S3"), FinAb.trivial()),
    ("D4", lambda: catalog_group("D4"), FinAb.cyclic(2)),
    ("Q8", lambda: catalog_group("Q8"), FinAb.trivial()),
    ("A4", lambda: catalog_group("A4"), FinAb.cyclic(2)),
    ("(Z/2)^3", lambda: catalog_group("E8"), FinAb((2, 2, 2))),
    ("(Z/3)^2", lambda: catalog_group("Z3xZ3"), FinAb.cyclic(3)),
    ("Z2xZ4", lambda: catalog_group("Z2xZ4"), FinAb.cyclic(2)),
    ("S4", s4, FinAb.cyclic(2)),
    ("D12", d6, FinAb.cyclic(2)),
    ("(Z/2)^4", lambda: build_group(abelian_spec(2, 2, 2, 2)), FinAb((2,) * 6)),
    ("A5", a5, FinAb.cyclic(2)),
]


@pytest.mark.parametrize("name, make, schur", SCHUR, ids=[n for n, _, _ in SCHUR])
def test_regular_norm_one_kernel_is_schur_multiplier(name, make, schur):
    # Tate: for H = 1, Z[G] is cohomologically trivial and H^3(C, Z) = 0 for
    # cyclic C, so Sha^2(G, J_G) = H^2(G, J_G) = H^3(G, Z) = M(G)
    G = make()
    lat = j_lattice(G, [(trivial_subgroup(G), 1)])
    got = sha(G, lat, [])
    assert got.base.structure == got.structure == schur


ABELIAN = [(2, 2), (2, 4), (4, 4), (2, 6), (3, 3), (3, 6), (2, 8), (2, 2, 2), (2, 2, 4), (2, 2, 3), (5, 5)]


@pytest.mark.parametrize("factors", ABELIAN, ids=["x".join(map(str, f)) for f in ABELIAN])
def test_abelian_schur_closed_form(factors):
    # M(Z/n_1 + ... + Z/n_m) = sum over i < j of Z/gcd(n_i, n_j)
    G = build_group(abelian_spec(*factors))
    lat = j_lattice(G, [(trivial_subgroup(G), 1)])
    expected = FinAb.from_factors([math.gcd(a, b) for a, b in combinations(factors, 2)])
    assert sha(G, lat, []).structure == expected


# -- certificates ----------------------------------------------------------------------


MUTATION_GROUPS = ("S3", "V4", "Z4", "D4", "Q8", "Z3xZ3", "A4")


@pytest.mark.parametrize("name", MUTATION_GROUPS)
def test_cocycle_defect_matches_full_defect_on_perturbations(name):
    # a cocycle in relator form (H^2 generators plus d^1 of a 1-cochain) and
    # every single-entry perturbation sampled from it: the bar values read
    # pair by pair give the oracle's whole table, so the same d^2 over all
    # n^3 triples, 0 on the cocycle and nonzero on each perturbation
    G = catalog_group(name)
    lat = j_lattice(G, [(trivial_subgroup(G), 1)])
    rng = np.random.default_rng(sum(map(ord, name)))
    f = rng.integers(-3, 4, size=_coboundary1(lat).shape[1])
    z = sum(cohomology(G, lat, 2).generators) + (_coboundary1(lat) @ f).reshape(-1, lat.rank)
    z = z.astype(np.int64)
    pairs = _all_pairs(G)

    def defects(z):
        table = bar_oracle.bar_table(G, z)
        got = _bar_values(G, z, *pairs).reshape(table.shape)
        return bar_oracle.cocycle2_defect(lat, got), bar_oracle.cocycle2_defect(lat, table)

    assert defects(z) == (0, 0)
    flagged = 0
    for _ in range(100):
        bad = z.copy()
        j, i = (int(x) for x in rng.integers(0, z.shape))
        bad[j, i] += int(rng.choice([-2, -1, 1, 3]))
        got, full = defects(bad)
        assert got == full, (j, i)
        flagged += full > 0
    assert flagged == 100


def test_is_coboundary_witness_and_non_cocycles():
    # a coboundary is recognised with an exact witness; perturbing one entry
    # leaves a table that is not a cocycle, which must be refused
    G = catalog_group("A4")
    lat = j_lattice(G, [(sylow_subgroup(G, 2), 1)])
    rng = np.random.default_rng(5)
    b = rng.integers(-4, 5, size=(G.order, lat.rank)).astype(object)
    b[G.identity] = 0
    c = _bar_coboundary(lat, b)
    ok, wit = bar_oracle.is_coboundary(full_subgroup(G), lat, c)
    assert ok and (_bar_coboundary(lat, wit) == c).all()
    for g, h in ((1, 2), (5, 11), (7, 7)):
        bad = c.copy()
        bad[g, h, 0] += 1
        assert bar_oracle.is_coboundary(full_subgroup(G), lat, bad) == (False, None)


def test_h1_generators_are_crossed_homomorphisms():
    checked = 0
    for name in ("V4", "Z2xZ4", "Z3xZ3", "E8", "D4"):
        G = catalog_group(name)
        for H in all_subgroups(G):
            lat = j_lattice(G, [(H, 1)])
            h1 = cohomology(G, lat, 1)
            for d, b in zip(h1.structure.factors, h1.generators):
                for g in range(G.order):
                    for h in range(G.order):
                        assert (b[G.mul[g, h]] == b[g] + lat.act[g] @ b[h]).all()
                # d b is principal, g |-> (g - 1) m for some m, and b is not
                diff = (lat.act - np.eye(lat.rank, dtype=np.int64)).reshape(-1, lat.rank)
                assert intmat.solve_many(diff, d * b.reshape(-1)) is not None
                assert intmat.solve_many(diff, b.reshape(-1)) is None
                checked += 1
    assert checked or G.order == 1
