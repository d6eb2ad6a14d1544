"""Answers must not depend on how a group is written down.

On every proper nontrivial subgroup class H of the order-12 pair A4, of
alpha5 (`a4_shape_spec(5)`) and of beta5 (`beta_shape_spec(5)`), the
answer of `sha_full(method="both")` (result, theorem_result, brute_result,
agreement) and of `classify_two_prime_index` (or the error type it raises)
stays the same under four changes of presentation:

- a seeded random relabelling of the multiplication table, which moves
  the identity too;
- conjugating H and a dset member by a random element: the cyclic Sylow
  q-subgroup T (q = 3), which conjugation moves, unlike the normal Sylow
  p-subgroup S; the closed dset covers T, so the answer is that of the
  empty dset;
- the dset [S] reordered, with the covered member T listed twice, as [T, S, T];
- the Cayley-tree presentation (G.gens, *G.cayley_tree) that the brute
  path falls back to when it finds no generating pair, in place of the
  pair it finds; also for the witness (i) pair at p = 2.  All four groups
  have three or four greedy generators, so the brute d^1 has about twice
  or three times the rows.  On beta5 this covers the classes of index at
  most 25 (6 of 10, one with Sha = Z/5): at index 30, 50 and 75 the
  fallback takes about 1, 5 and 16 s per class.

The searches behind these answers (generating pairs, greedy growth,
complements, class representatives) walk the elements in index order, so
an answer that depends on the labels can show up here.
"""

import functools

import numpy as np
import pytest

from normone.catalog import a4_shape_spec, beta_shape_spec
from normone.errors import NormOneError
from normone.groups import FiniteGroup, SubgroupHandle, all_subgroups, build_group, sylow_subgroup
from normone.structure import classify_two_prime_index, composite_sha_witness, sha_full

# name -> (spec, the prime of the query, the prime of a cyclic, non-normal Sylow subgroup)
GROUPS = {
    "A4": (a4_shape_spec(2), 2, 3),
    "alpha5": (a4_shape_spec(5), 5, 3),
    "beta5": (beta_shape_spec(5), 5, 3),
}
# (group, seed) of each relabelling.  A choice between two classes that
# hangs on labels comes out the same way about half the time, so the cheap
# groups get four relabellings; a pass over beta5's classes takes about a
# second, one over A4's or alpha5's a few hundredths.
RELABELLINGS = [(name, seed) for name in ("A4", "alpha5") for seed in (1, 2, 3, 4)] + [("beta5", 1)]


def _answer(G, H, p, dset):
    rep = sha_full(G, H, p, dset, method="both")
    try:
        kind = str(classify_two_prime_index(G, H))
    except NormOneError as exc:  # the error type is part of the answer
        kind = type(exc).__name__
    return (str(rep.result), str(rep.theorem_result), str(rep.brute_result), rep.agreement, kind)


@functools.cache
def _base(name):
    """The group, its classes, and per class the answers with the empty dset
    and with the Sylow p-subgroup as the dset."""
    spec, p, _ = GROUPS[name]
    G = build_group(spec)
    classes = {}
    for H in all_subgroups(G):
        if 1 < H.order < G.order:
            C = H.canonical_conjugate()
            classes[C.elements] = C
    classes = [classes[key] for key in sorted(classes)]
    S = sylow_subgroup(G, p)
    answers = [(_answer(G, H, p, []), _answer(G, H, p, [S])) for H in classes]
    return G, classes, answers


def _relabelled(G, rng):
    """G with element a renamed perm[a], perm moving the identity."""
    perm = rng.permutation(G.order)
    if perm[G.identity] == G.identity:
        j = (G.identity + 1) % G.order
        perm[[G.identity, j]] = perm[[j, G.identity]]
    mul = np.empty_like(G.mul)
    mul[np.ix_(perm, perm)] = perm[G.mul]
    return FiniteGroup(mul, int(perm[G.identity]), label=G.label), perm


@pytest.mark.parametrize("name, seed", RELABELLINGS)
def test_answers_survive_relabelling(name, seed):
    G, classes, answers = _base(name)
    _, p, _ = GROUPS[name]
    R, perm = _relabelled(G, np.random.default_rng(seed))
    assert R.identity != G.identity
    for H, (want, _) in zip(classes, answers):
        image = SubgroupHandle(R, sorted(perm[list(H.elements)].tolist()))
        assert _answer(R, image, p, []) == want, (name, H.elements)


def _cyclic_sylow(G, name):
    T = sylow_subgroup(G, GROUPS[name][2])
    assert T.is_cyclic and not T.is_normal  # covered, and moved by conjugation
    return T


@pytest.mark.parametrize("name", list(GROUPS))
def test_answers_survive_conjugation(name):
    G, classes, answers = _base(name)
    _, p, _ = GROUPS[name]
    rng = np.random.default_rng(1)
    T = _cyclic_sylow(G, name)
    for H, (want, _) in zip(classes, answers):
        g = int(rng.integers(G.order))
        assert _answer(G, H.conjugate(g), p, [T.conjugate(g)]) == want, (name, H.elements, g)


@pytest.mark.parametrize("name", list(GROUPS))
def test_answers_survive_dset_order_and_repeats(name):
    G, classes, answers = _base(name)
    _, p, _ = GROUPS[name]
    S, T = sylow_subgroup(G, p), _cyclic_sylow(G, name)
    for H, (_, want) in zip(classes, answers):
        assert _answer(G, H, p, [T, S, T]) == want, (name, H.elements)


@pytest.mark.parametrize("name", [*GROUPS, "witness (i) p=2"])
def test_answers_survive_the_cayley_tree_presentation(name, monkeypatch):
    if name in GROUPS:
        G, classes, answers = _base(name)
        spec, p, _ = GROUPS[name]
        cases = [(H.elements, want) for H, (want, _) in zip(classes, answers) if G.order <= 25 * H.order]
    else:
        spec, H, _ = composite_sha_witness(2, "i")
        G, p = H.parent, 2
        cases = [(H.elements, _answer(G, H, p, []))]
    pair = G.presentation[0]
    monkeypatch.setattr(FiniteGroup, "presentation", property(lambda F: (F.gens, *F.cayley_tree)))
    F = build_group(spec)
    assert len(F.presentation[0]) > 2 and len(pair) == 2
    for elements, want in cases:
        assert _answer(F, SubgroupHandle(F, list(elements)), p, []) == want, (name, elements)
