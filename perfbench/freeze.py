"""Build the workloads' query lists and freeze their expected outcomes.

Run from the root of a checkout:  python3 perfbench/freeze.py

Every query is answered once through normone.cli.run and its results block
is frozen as a digest ("frozen" provenance).  Where an independent source
gives the answer (the paper's predictions, the bicyclic closed form,
vanishing at prime index) the query also carries that value, and freezing
refuses to write a file in which the program disagrees with it.
"""

from __future__ import annotations

import json
import sys
import time

from common import EXPECTED, call_cli, check, digest, use_checkout_source

use_checkout_source()

from normone import catalog  # noqa: E402
from normone.cli import run  # noqa: E402
from normone.groups import all_subgroups, build_group, closure_elements, is_prime  # noqa: E402
from normone.structure import composite_sha_witness, sha_bicyclic  # noqa: E402

MAX_INDEX = 12


def _spec_json(spec):
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _q8_spec():
    G = catalog.quaternion8()
    return {"kind": "table", "n": 8, "mul": G.mul.tolist(), "label": "Q8"}


def brute_groups():
    """(name, spec, bicyclic n1 or None) for every catalog group of order > 1,
    plus D6 and S4 given as permutation specs."""
    c = catalog
    out = [
        ("Z2", c.cyclic_spec(2), 1),
        ("Z3", c.cyclic_spec(3), 1),
        ("Z4", c.cyclic_spec(4), 1),
        ("Z6", c.abelian_spec(2, 3), 1),
        ("Z8", c.cyclic_spec(8), 1),
        ("Z12", c.cyclic_spec(12), 1),
        ("V4", c.abelian_spec(2, 2), 2),
        ("Z2xZ4", c.abelian_spec(2, 4), 2),
        ("Z3xZ3", c.abelian_spec(3, 3), 3),
        ("E8", c.abelian_spec(2, 2, 2), None),
        ("S3", c.symmetric3_spec(), None),
        ("D4", c.dihedral4_spec(), None),
        ("Q8", _q8_spec(), None),
        ("A4", c.a4_shape_spec(2), None),
        ("D6", {"kind": "permutations", "degree": 6,
                "generators": ["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"], "label": "D6"}, None),
        ("S4", {"kind": "permutations", "degree": 4,
                "generators": ["(1 2 3 4)", "(1 2)"], "label": "S4"}, None),
    ]
    for name, spec, _ in out:
        if name in catalog.catalog_names():  # the spec must be the catalog's group
            if not (build_group(spec).mul == catalog.catalog_group(name).mul).all():
                raise SystemExit(f"spec for {name} does not match the catalog")
    names = {n for n, _, _ in out}
    missing = [n for n in catalog.catalog_names() if n not in names and n != "Z1"]
    if missing:
        raise SystemExit(f"catalog groups without a spec: {missing}")
    return out


def _generators(G, H):
    """A short generating set of H, greedily from its least elements."""
    gens, span = [], {G.identity}
    for x in H.elements:
        if x not in span:
            gens.append(x)
            span = set(closure_elements(G.mul, G.identity, gens))
    return gens


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]


def _entry(qid, argv, independent=()):
    return {"id": qid, "argv": argv, "independent": [list(t) for t in independent]}


def brute_table():
    slots = []
    for name, spec, n1 in brute_groups():
        G = build_group(spec)
        classes = {}
        for H in all_subgroups(G):
            if H.order < G.order and H.index <= MAX_INDEX:
                rep = H.canonical_conjugate()
                classes.setdefault(rep.elements, rep)
        for key in sorted(classes):
            H = classes[key]
            ref = "trivial" if H.order == 1 else ",".join(map(str, _generators(G, H)))
            for with_sylow in (False, True):
                variants = []
                for p in _primes(G.order):
                    argv = ["sha", "--group", _spec_json(spec), "--subgroup", ref,
                            "--p", str(p), "--method", "both"]
                    if with_sylow:
                        argv += ["--dset", f"sylow:{p}"]
                    independent = []
                    if is_prime(H.index):
                        independent.append(("prime_index", "result", []))
                    if n1 is not None and H.order == 1 and not with_sylow:
                        n2 = G.order // n1
                        independent.append(("sha_bicyclic", "result", sha_bicyclic(n1, n2).to_list()))
                    qid = f"sha/{name}/H{H.order}:{ref}/p{p}" + ("/sylow" if with_sylow else "")
                    variants.append(_entry(qid, argv, independent))
                slots.append(variants)
    a4 = _spec_json(catalog.a4_shape_spec(2))
    w36, _, pred36 = composite_sha_witness(2, "i")
    fixed = [
        _entry("rung/A4", ["sha", "--group", a4, "--subgroup", "0,1", "--p", "2", "--method", "both"],
               [("paper", "result", [2])]),
        _entry("rung/A4/sylow", ["sha", "--group", a4, "--subgroup", "0,1", "--p", "2",
                                 "--method", "both", "--dset", "sylow:2"],
               [("paper", "result", [])]),
        _entry("rung/witness-i-36", ["sha", "--group", _spec_json(w36), "--subgroup", "1",
                                     "--p", "2", "--method", "both"],
               [("paper", "result", pred36.to_list())]),
    ]
    return {"slots": slots, "fixed": fixed}


def structural_table():
    c = catalog
    fixed = []
    shapes = []
    for p in (5, 7, 11):
        shapes.append((f"alpha{p}", c.a4_shape_spec(p), "1", p, [p]))
    for p in (5, 7):
        spec = c.beta_shape_spec(p)
        G = build_group(spec)
        # the marked subgroup: diagonal line joined with the transposition
        shapes.append((f"beta{p}", spec, f"{1 + p},{G.gens[3]}", p, [p]))
    for p in (2, 5, 7):
        spec, _, pred = composite_sha_witness(p, "i")
        shapes.append((f"witness-i-{p}", spec, "1", p, pred.to_list()))
        fixed.append(_entry(f"witness/i/{p}", ["witness", "--p", str(p), "--variant", "i"],
                            [("paper", "prediction", pred.to_list())]))
    for p, ell in ((2, 7), (5, 2)):
        fixed.append(_entry(f"witness/ii/{p}/{ell}",
                            ["witness", "--p", str(p), "--variant", "ii", "--ell", str(ell)],
                            [("paper", "prediction", [p * ell])]))
    for name, spec, ref, p, paper in shapes:
        g = _spec_json(spec)
        fixed.append(_entry(f"sha/{name}", ["sha", "--group", g, "--subgroup", ref, "--p", str(p),
                                            "--method", "theorem"], [("paper", "result", paper)]))
        fixed.append(_entry(f"classify/{name}", ["classify", "--group", g, "--subgroup", ref]))
    return {"fixed": fixed}


def scan_table():
    # The first scan at each prime fills the class cache.  Keeping those two
    # at the head of the pass makes the cold query the same for every seed,
    # so the seed moves no work between the cold and the warm queries.
    queries = [_entry(f"scan/p{p}/n{n}", ["scan-reps", "--p", str(p), "--n", str(n)])
               for p, ns in ((3, (2, 4, 8)), (5, (2, 3, 4, 6, 8, 12))) for n in ns]
    queries.append(_entry("dset/p11", ["dset", "--p", "11", "--max", "100"]))
    first = [q for q in queries if q["id"] in ("scan/p3/n2", "scan/p5/n2")]
    return {"first": first, "fixed": [q for q in queries if q not in first]}


def freeze(entry):
    t0 = time.perf_counter()
    code, text = call_cli(run, entry["argv"])
    elapsed = time.perf_counter() - t0
    report = json.loads(text)
    expect = {
        "exit": code,
        "error": report["error"]["type"] if code else None,
        "digest": None if code else digest(report["results"]),
        "independent": entry.pop("independent"),
    }
    expect["sources"] = ["frozen"] + sorted({s for s, _, _ in expect["independent"]})
    if not code and report["command"] == "sha":
        expect["sources"].append("agreement")
    if not code and report["command"] == "scan-reps":
        expect["sources"].append("degree_criterion")
    reason = check(expect, code, text)
    if reason:
        raise SystemExit(f"{entry['id']}: {reason}")
    entry["expect"] = expect
    if code == 0 and "result" in report["results"]:
        entry["result"] = report["results"]["result"]
    print(f"{elapsed:9.3f}s  exit {code}  {entry['id']}", file=sys.stderr, flush=True)
    return elapsed


def main():
    tables = {"brute": brute_table(), "structural": structural_table(), "scan": scan_table()}
    for name, table in tables.items():
        total = 0.0
        for variants in table.get("slots", []):
            total += sum(freeze(e) for e in variants) / len(variants)
        total += sum(freeze(e) for e in table.get("first", []) + table["fixed"])
        print(f"{name}: about {total:.1f}s per pass", file=sys.stderr)
    doc = {"about": "Queries of each workload with expected outcomes. 'frozen' digests were "
                    "taken from normone at the commit that added the benchmark; the other "
                    "sources are independent of the program.", **tables}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
