"""Fast structural evaluators for the obstruction group, with brute-force
cross-validation.

Every evaluator re-validates its hypotheses from raw group data and refuses
(rather than guesses) outside them; the conditional reductions are applied
only under machine-checkable certificates.  The full obstruction group is
assembled from its p-primary part (a rank-two criterion on the normal
Sylow subgroup) and its prime-to-p part (computed on the small complement
pair), and `sha_full` can run the assembled path and the brute-force
restriction kernel (on the Cayley-graph presentation complex of
`normone.cohomology`) side by side and compare.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded,
    CertificateUnavailable,
    EmptyFamily,
    HypothesisViolated,
    NotPrime,
    PreconditionFailed,
)
from .catalog import a4_shape_spec, beta_shape_spec, cyclic_spec
from .finab import FinAb, _factorize
from .groups import (
    SubgroupHandle,
    build_group,
    commutator_subgroup,
    complement,
    core,
    extend_from_generators,
    is_prime,
    normalizer_centralizer,
    subgroup_closure,
    sylow_subgroup,
)
from .cohomology import DEFAULT_COCHAIN_BUDGET, close_dset, sha
from .lattices import j_lattice, restrict


def _validate_subgroup(G, H):
    if H.parent is not G:
        raise HypothesisViolated("subgroup does not live in the given group")


# -- closed-form families ------------------------------------------------------


def sha_prime_index_family(G, pairs):
    """Obstruction group of a family of normal subgroups of one prime index.

    With N the intersection of the family and p^m = (G:N), the group is
    (Z/p)^(r-2) when m = 2 and r >= 3, and trivial otherwise; the
    multiplicities never matter.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyFamily("at least one subgroup is required")
    subs = [H for H, _ in pairs]
    for H in subs:
        _validate_subgroup(G, H)
    p = subs[0].index
    if not is_prime(p):
        raise HypothesisViolated(f"index {p} is not prime")
    for H in subs:
        if H.index != p:
            raise HypothesisViolated("all subgroups must have the same prime index")
        if not H.is_normal:
            raise HypothesisViolated("all subgroups must be normal")
    for i, Hi in enumerate(subs):
        for j, Hj in enumerate(subs):
            if i != j and Hj.contains_subgroup(Hi):
                raise HypothesisViolated("no subgroup may contain another")
    inter = set(subs[0].elements)
    for H in subs[1:]:
        inter &= set(H.elements)
    index = G.order // len(inter)
    m = _factorize(index).get(p, 0)
    if p**m != index:  # G/N embeds in (Z/p)^r, so this cannot fail
        raise HypothesisViolated("intersection index is not a power of the prime")
    r = len(subs)
    if m == 2 and r >= 3:
        return FinAb.from_factors([p] * (r - 2))
    return FinAb.trivial()


def sha_bicyclic(n1, n2):
    """Obstruction group of the full norm-one lattice of Z/n1 x Z/n2 (n1 | n2)."""
    n1, n2 = int(n1), int(n2)
    if n1 < 1 or n2 % n1:
        raise HypothesisViolated(f"{n1} does not divide {n2}")
    return FinAb.cyclic(n1)


def annihilator_bound(G, pairs):
    """gcd of the indices: an annihilator of the obstruction group."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyFamily("at least one subgroup is required")
    g = 0
    for H, _ in pairs:
        _validate_subgroup(G, H)
        g = math.gcd(g, H.index)
    return g


# -- the p-part criterion --------------------------------------------------------


@dataclass(frozen=True)
class PPartConditions:
    """Validated prerequisites plus the three nonvanishing criteria, and the
    Sylow subgroup they were evaluated on.

    The criteria are only meaningful when all prerequisites hold; the
    evaluator raises instead of returning a half-filled record.
    """

    prereq_sylow_normal: bool
    prereq_core_trivial: bool
    prereq_ordp_index_one: bool
    a_rank_two: bool
    b_commutator_full: bool
    c_normalizer_is_centralizer: bool
    sylow: SubgroupHandle = field(compare=False, repr=False)

    @property
    def all_abc(self):
        return self.a_rank_two and self.b_commutator_full and self.c_normalizer_is_centralizer


def p_part_conditions(G, H, p):
    """Evaluate the p-part nonvanishing criteria from raw group data.

    Prerequisites: the p-Sylow subgroup is normal, the core of H is
    trivial, and p divides (G:H) exactly once.  Criteria: (a) the Sylow
    subgroup is elementary abelian of rank 2, (b) its commutator with G is
    everything, (c) the normalizer of S ∩ H equals its centralizer.
    """
    p = int(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _validate_subgroup(G, H)
    S = sylow_subgroup(G, p)
    sylow_normal = S.order > 1 and S.is_normal
    core_trivial = core(G, H).order == 1
    ordp_one = _factorize(H.index).get(p, 0) == 1
    if not sylow_normal:
        raise HypothesisViolated("the p-Sylow subgroup is not normal (or is trivial)")
    if not core_trivial:
        raise HypothesisViolated("the core of H in G is not trivial")
    if not ordp_one:
        raise HypothesisViolated("p must divide the index (G:H) exactly once")
    a = S.order == p * p and all(
        G.element_order(x) == p for x in S.elements if x != G.identity
    )
    b = commutator_subgroup(G, S).elements == S.elements
    meet = SubgroupHandle(G, tuple(sorted(set(S.elements) & set(H.elements))))
    N, Z = normalizer_centralizer(G, meet)
    c = N.elements == Z.elements
    return PPartConditions(sylow_normal, core_trivial, ordp_one, a, b, c, S)


def sha_p_part(G, H, p, dset=()):
    """The p-primary part: Z/p exactly when all three criteria hold and no
    member of the closed dset contains the Sylow subgroup; else trivial."""
    conds = p_part_conditions(G, H, p)
    return _p_part(int(p), conds, conds.sylow, close_dset(G, list(dset)))


def _p_part(p, conds, S, closed):
    if conds.all_abc and not any(D.contains_subgroup(S) for D in closed):
        return FinAb.cyclic(p)
    return FinAb.trivial()


def sha_prime_to_p(G, H, p, dset=(), budget=DEFAULT_COCHAIN_BUDGET):
    """The prime-to-p part, via brute force on the complement pair.

    Valid only under a certificate that the closed dset computes the same
    kernel as the all-cyclic one on the enlarged subgroup's lattice:
    either (G : S*H) is prime, or the closed dset consists of cyclic
    subgroups only.  Raises CertificateUnavailable otherwise.
    """
    conds = p_part_conditions(G, H, p)  # validates the shared prerequisites
    return _prime_to_p(G, H, conds.sylow, close_dset(G, list(dset)), budget)


def _prime_to_p(G, H, S, closed, budget):
    """Sha of the complement pair (G', H') by brute force: G' is a complement
    of S, and H' = G' ∩ SH, so that SH = S ⋊ H' and |H'| = |H|/|S∩H|.
    S is normal, so SH is the set of products s h."""
    SH = SubgroupHandle(G, np.unique(G.mul[np.ix_(S.elements, H.elements)]).tolist())
    cert_prime = is_prime(SH.index)
    cert_cyclic = all(D.is_cyclic for D in closed)
    if not (cert_prime or cert_cyclic):
        raise CertificateUnavailable(
            "no certificate that the dset kernel matches the all-cyclic kernel"
        )
    sub, elems = complement(G, S).as_group()
    Hp_local = SubgroupHandle(sub, [i for i, x in enumerate(elems) if SH.contains(x)])
    J, _ = j_lattice(sub, [(Hp_local, 1)])
    result = sha(sub, J, [], budget)
    return result.structure


# -- assembled evaluation ---------------------------------------------------------


@dataclass
class ShaReport:
    """Outcome of one obstruction-group evaluation, for reproducible reports."""

    group_label: str
    group_order: int
    subgroup_elements: tuple
    p: int
    method: str
    dset_raw: list = field(default_factory=list)
    dset_closed: list = field(default_factory=list)
    result: FinAb | None = None
    theorem_result: FinAb | None = None
    brute_result: FinAb | None = None
    agreement: bool | None = None
    conditions: PPartConditions | None = None
    p_restriction_check: FinAb | None = None
    generators: int = 0
    warnings: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)


def sha_full(G, H, p, dset=(), method="both", budget=DEFAULT_COCHAIN_BUDGET):
    """Evaluate the obstruction group by the assembled structural path, the
    brute-force presentation complex, or both (recording agreement).

    The structural path is the direct sum of the p-part criterion value and
    the complement-pair prime-to-p value; the brute path is the restriction
    kernel on H^2 of the norm-one lattice.  With method="both", a failed
    path degrades to the other with a warning; if brute force exceeds its
    budget the p-part is cross-checked through restriction to the Sylow
    subgroup (the prime-to-p-index injection makes that restriction
    faithful on the p-part).
    """
    if method not in ("theorem", "brute", "both"):
        raise ValueError(f"unknown method {method!r}")
    p = int(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _validate_subgroup(G, H)
    if G.order % p:
        raise HypothesisViolated(f"{p} does not divide the group order {G.order}")
    raw = list(dset)
    closed = close_dset(G, raw)
    report = ShaReport(
        group_label=G.label,
        group_order=G.order,
        subgroup_elements=H.elements,
        p=p,
        method=method,
        dset_raw=[d.elements for d in raw],
        dset_closed=[d.elements for d in closed],
    )

    theorem_result = None
    if method in ("theorem", "both"):
        t0 = time.perf_counter()
        try:
            report.conditions = p_part_conditions(G, H, p)
            S = report.conditions.sylow
            ppart = _p_part(p, report.conditions, S, closed)
            theorem_result = ppart + _prime_to_p(G, H, S, closed, budget)
            report.theorem_result = theorem_result
        except (HypothesisViolated, CertificateUnavailable) as exc:
            if method == "theorem":
                raise
            report.warnings.append(f"structural path unavailable: {exc}")
        report.timing["theorem"] = time.perf_counter() - t0

    brute_result = None
    if method in ("brute", "both"):
        t0 = time.perf_counter()
        try:
            J, _ = j_lattice(G, [(H, 1)])
            res = sha(G, J, raw, budget)
            brute_result = res.structure
            report.brute_result = brute_result
            report.generators = len(res.generators)
        except BudgetExceeded as exc:
            if method == "brute":
                raise
            report.warnings.append(f"brute path exceeded budget: {exc}")
            if theorem_result is not None:
                report.p_restriction_check = _p_restriction_check(
                    G, H, report.conditions.sylow, budget
                )
                expected = theorem_result.primary_part(p)
                # the p-part injects into the Sylow restriction kernel, so a
                # failed embedding is a genuine contradiction
                if not expected.embeds_in(report.p_restriction_check.primary_part(p)):
                    report.warnings.append("p-restriction check contradicts the structural p-part")
        report.timing["brute"] = time.perf_counter() - t0

    if theorem_result is not None and brute_result is not None:
        report.agreement = theorem_result == brute_result
    report.result = brute_result if brute_result is not None else theorem_result
    if report.result is None:
        raise HypothesisViolated("no evaluation path succeeded; " + "; ".join(report.warnings))
    return report


def _p_restriction_check(G, H, S, budget):
    """Restriction kernel over the Sylow subgroup S.

    The p-primary part of the full kernel injects into this one (the index
    of the Sylow subgroup is prime to p), so it is a sound upper bound for
    the structural p-part to embed into.
    """
    J, _ = j_lattice(G, [(H, 1)])
    JS = restrict(J, S)
    sub = JS.group
    return sha(sub, JS, [], budget).structure


# -- vanishing certificates and classification -------------------------------------


def p_vanishing_certificate(G, H, p):
    """True certifies that the p-primary part vanishes; False is no claim.

    Certificates: (i) p odd and (G:H) = 2p; (ii) normal Sylow subgroup,
    p exactly divides (G:H), and the Sylow subgroup's rank is not 2.
    """
    p = int(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _validate_subgroup(G, H)
    index = H.index
    if p > 2 and index == 2 * p:
        return True
    S = sylow_subgroup(G, p)
    if (
        S.order > 1
        and S.is_normal
        and _factorize(index).get(p, 0) == 1
        and _factorize(S.order)[p] != 2
    ):
        return True
    return False


@dataclass(frozen=True)
class Classification:
    kind: str  # "hnp_holds" | "alpha" | "beta"
    p: int | None = None

    def __str__(self):
        return self.kind if self.p is None else f"{self.kind}({self.p})"


def _find_isomorphism(ref, G):
    """A group isomorphism ref -> G by generator-image backtracking, or None.

    Candidate images are filtered by element order and by the orders of all
    pairwise products with earlier choices before the full Cayley-graph
    extension check runs.
    """
    if ref.order != G.order:
        return None
    gens = list(ref.gens)
    orders = [ref.element_order(s) for s in gens]
    pools = [[x for x in G.elements() if G.element_order(x) == o] for o in orders]

    def compatible(chosen, x):
        i = len(chosen)
        for j, y in enumerate(chosen):
            if ref.element_order(int(ref.mul[gens[j], gens[i]])) != G.element_order(
                int(G.mul[y, x])
            ):
                return False
            if ref.element_order(int(ref.mul[gens[i], gens[j]])) != G.element_order(
                int(G.mul[x, y])
            ):
                return False
        return True

    def backtrack(chosen):
        if len(chosen) == len(gens):
            f = extend_from_generators(
                ref, list(chosen), lambda a, b: int(G.mul[a, b]), G.identity
            )
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


def _matches_pattern(G, H, spec, ref_subgroup_fn):
    """Does (G, H) match the reference shape with H carried to the marked
    subgroup (up to conjugacy)?"""
    ref = build_group(spec)
    if ref.order != G.order:
        return False
    iso = _find_isomorphism(ref, G)
    if iso is None:
        return False
    href = ref_subgroup_fn(ref)
    image = SubgroupHandle(G, tuple(sorted(iso[x] for x in href.elements)))
    if image.order != H.order:
        return False
    conjugates = np.sort(image.conjugates(), axis=1)
    return bool((conjugates == np.array(H.elements)).all(axis=1).any())


def classify_two_prime_index(G, H):
    """Classification of pairs with squarefree two-prime index.

    For (G:H) = p*l with distinct primes and a normal p-Sylow subgroup:
    certifies the principle holds when p > 2 = l or l does not divide
    p^2 - 1; for l = 3 it pattern-matches the two exceptional shapes by
    bounded isomorphism search.  Degrees outside the classified territory
    raise rather than guess.
    """
    _validate_subgroup(G, H)
    index = H.index
    fac = _factorize(index)
    if sorted(fac.values()) != [1, 1]:
        raise HypothesisViolated(f"index {index} is not a product of two distinct primes")
    if core(G, H).order != 1:
        raise HypothesisViolated("the core of H in G is not trivial")
    primes = sorted(fac)
    sylows = {p: sylow_subgroup(G, p) for p in primes}
    assignments = [
        (p, ell)
        for p in primes
        for ell in primes
        if p != ell and sylows[p].order > 1 and sylows[p].is_normal
    ]
    if not assignments:
        raise HypothesisViolated("neither Sylow subgroup is normal")
    for p, ell in assignments:
        if (p > 2 and ell == 2) or (p * p - 1) % ell:
            return Classification("hnp_holds")
    for p, ell in assignments:
        if ell == 3 and p != 3:
            if G.order > 200:
                raise HypothesisViolated("isomorphism search is bounded to order 200")
            if _matches_pattern(
                G, H, a4_shape_spec(p), lambda ref: subgroup_closure(ref, [1])
            ):
                return Classification("alpha", p)
            if p >= 5 and _matches_pattern(
                G,
                H,
                beta_shape_spec(p),
                # the marked subgroup: diagonal line in the plane, joined
                # with the transposition generator of the acting group
                lambda ref: subgroup_closure(ref, [1 + p, ref.gens[3]]),
            ):
                return Classification("beta", p)
            return Classification("hnp_holds")
    raise HypothesisViolated("degree outside the classified two-prime territory")


# -- witnesses with composite exponent ---------------------------------------------


_PLANE_ROTATION = [[0, -1], [1, -1]]  # order-3 plane map with no fixed line


def composite_sha_witness(p, variant, ell=None):
    """A witness pair whose obstruction group has composite exponent.

    Variant "i": the plane over F_p acted on by (Z/3)^2 through its first
    factor, marked line not stable; degree 9p, predicted group Z/3p.
    Variant "ii" (needs a prime ell not dividing 3p): the acting group is
    itself a plane-by-Z/3 product over F_ell; degree 3*p*ell, predicted
    group Z/(p*ell).  Returns (spec, subgroup handle, prediction).
    """
    p = int(p)
    if not is_prime(p) or p == 3:
        raise PreconditionFailed("p must be a prime different from 3")
    if variant == "i":
        spec = {
            "kind": "semidirect",
            "p": p,
            "m": 2,
            "matrices": [_PLANE_ROTATION, [[1, 0], [0, 1]]],
            "acting": {
                "kind": "product",
                "factors": [cyclic_spec(3), cyclic_spec(3)],
                "label": "Z3xZ3",
            },
            "label": f"W{9 * p * p}",
        }
        G = build_group(spec, order_budget=4096)
        H = subgroup_closure(G, [1])  # the marked line <(1,0)> in the plane
        prediction = FinAb.from_factors([3 * p])
        return spec, H, prediction
    if variant == "ii":
        if ell is None:
            raise PreconditionFailed("variant ii needs the auxiliary prime")
        ell = int(ell)
        if not is_prime(ell) or ell in (3, p):
            raise PreconditionFailed("the auxiliary prime must not divide 3p")
        inner = {
            "kind": "semidirect",
            "p": ell,
            "m": 2,
            "matrices": [_PLANE_ROTATION],
            "acting": cyclic_spec(3),
            "label": f"F{ell}^2:Z3",
        }
        spec = {
            "kind": "semidirect",
            "p": p,
            "m": 2,
            "matrices": [[[1, 0], [0, 1]], [[1, 0], [0, 1]], _PLANE_ROTATION],
            "acting": inner,
            "label": f"W{3 * p * p * ell * ell}",
        }
        G = build_group(spec, order_budget=4096)
        # H = (line in the p-plane) ⋊ (line in the ell-plane)
        H = subgroup_closure(G, [1, p * p * 1])
        prediction = FinAb.from_factors([p * ell])
        return spec, H, prediction
    raise PreconditionFailed(f"unknown variant {variant!r}")
