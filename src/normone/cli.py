"""Command-line surface: group ingestion, dispatch, deterministic reports.

Verbs: sha, scan-reps, dset, classify, witness, selftest.  Reports go to
stdout as JSON (sorted keys, so identical inputs give byte-identical output
apart from the timing block, which is excluded from the digest);
diagnostics go to stderr.  Exit codes: 0 success, 1 hypothesis violations,
2 budget overruns, 3 parse/schema errors (command-line usage errors too).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from .errors import (
    BudgetExceeded,
    CertificateUnavailable,
    HypothesisViolated,
    NormOneError,
    NotPrime,
    OrderBudgetExceeded,
    ParseError,
    PreconditionFailed,
    SchemaError,
    SpecInvalid,
)
from .groups import (
    _rank_mod_p,
    build_group,
    full_subgroup,
    is_prime,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
)
from .cohomology import DEFAULT_COCHAIN_BUDGET
from .reps import d_membership, exhaustive_scan, s_min
from .structure import classify_two_prime_index, composite_sha_witness, sha_full
from . import selftest as selftest_mod

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_BUDGET = 2
EXIT_PARSE = 3
# the most rows a `dset` table may have: each costs about 11 us and 170 B of JSON
DSET_MAX_ROWS = 10_000


def load_group_spec(source):
    """Parse and schema-check a group-spec document (JSON text or file path)
    into the spec dict that `build_group` takes.

    A document nested too deeply to parse or check is a ParseError too.
    """
    try:
        if isinstance(source, dict):
            doc = source
        else:
            text = source
            if not source.lstrip().startswith("{"):
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            doc = json.loads(text)
        return _validate_spec_dict(doc)
    except OSError as exc:
        raise ParseError(f"cannot read group spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid group-spec document at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError("group-spec document is nested too deeply") from exc


def _is_int(x, low=-(2**63)):
    return isinstance(x, int) and not isinstance(x, bool) and low <= x < 2**63


def _ints(x, depth):
    """True if x is a list of integers nested `depth` lists deep."""
    return isinstance(x, list) and all(_ints(v, depth - 1) if depth > 1 else _is_int(v) for v in x)


_FIELDS = {  # kind -> {field: (check, what the field must be)}
    "table": {"n": (lambda v: _is_int(v, 1), "a positive integer"),
              "mul": (lambda v: _ints(v, 1) or _ints(v, 2), "a list of integers or integer rows")},
    "permutations": {"degree": (lambda v: _is_int(v, 1), "a positive integer"),
                     "generators": (lambda v: isinstance(v, list) and all(
                         isinstance(g, str) or _ints(g, 1) for g in v), "a list of permutations")},
    "semidirect": {"p": (lambda v: _is_int(v) and is_prime(v), "a prime"),
                   "m": (lambda v: _is_int(v, 1), "a positive integer"),
                   "matrices": (lambda v: _ints(v, 3), "a list of integer matrices"),
                   "acting": (lambda v: isinstance(v, dict), "a group spec")},
    "product": {"factors": (lambda v: isinstance(v, list) and v != [], "a nonempty list")},
}


def _validate_spec_dict(doc):
    if not isinstance(doc, dict):
        raise SchemaError("group spec must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise SchemaError(f"unknown or missing kind {kind!r}")
    spec = dict(doc)
    for key, (check, what) in _FIELDS[kind].items():
        if key not in spec:
            raise SchemaError(f"{kind} spec needs {key!r}")
        if not check(spec[key]):
            raise SchemaError(f"{kind} spec field {key!r} must be {what}")
    if kind == "semidirect":
        p, m = spec["p"], spec["m"]
        for M in spec["matrices"]:
            if len(M) != m or any(len(row) != m for row in M):
                raise SchemaError(f"action matrix must be {m}x{m}")
            if _rank_mod_p(M, p) < m:
                raise SchemaError("action matrix is not invertible mod p")
        spec["acting"] = _validate_spec_dict(spec["acting"])
    elif kind == "product":
        spec["factors"] = [_validate_spec_dict(f) for f in spec["factors"]]
    return spec


def resolve_subgroup(G, text):
    """Subgroup references: 'trivial', 'all', 'sylow:p', or generator indices."""
    text = str(text).strip()
    if text in ("trivial", ""):
        return trivial_subgroup(G)
    if text == "all":
        return full_subgroup(G)
    if text.startswith("sylow:"):
        prime = text[len("sylow:"):].strip()
        if not prime.isdecimal() or len(prime) > 19 or not _is_int(int(prime)):
            raise SchemaError(f"bad Sylow prime in {text!r}")
        return sylow_subgroup(G, int(prime))
    try:
        gens = [int(t) for t in text.replace(",", " ").split()]
    except ValueError as exc:
        raise SchemaError(f"bad subgroup reference {text!r}") from exc
    return subgroup_closure(G, gens)


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _emit(report, stream=None):
    stream = stream or sys.stdout
    json.dump(report, stream, sort_keys=True, indent=2)
    stream.write("\n")


def _budget():
    env = os.environ.get("SHA_BUDGET")
    if not env:
        return DEFAULT_COCHAIN_BUDGET
    try:
        budget = int(env)
    except ValueError:
        raise SchemaError(f"SHA_BUDGET must be an integer, got {env!r}") from None
    if budget < 1:
        raise SchemaError(f"SHA_BUDGET must be positive, got {budget}")
    return budget


def _report(command, inputs, results, warnings=(), budgets=None, timing=None, **provenance):
    """The envelope every successful command emits around its results."""
    return {
        "command": command,
        "inputs": inputs,
        "inputs_digest": _digest(inputs),
        "results": results,
        "warnings": list(warnings),
        "provenance": {**provenance, "budgets": budgets or {}, "timing": timing or {}},
    }


def _finab_json(f):
    return None if f is None else f.to_list()


def cmd_sha(args):
    spec = load_group_spec(args.group)
    G = build_group(spec)
    H = resolve_subgroup(G, args.subgroup)
    dset = [resolve_subgroup(G, t) for t in (args.dset or "").split(";") if t.strip()]
    inputs = {
        "group": spec,
        "subgroup": args.subgroup,
        "p": args.p,
        "dset": args.dset or "",
        "method": args.method,
    }
    rep = sha_full(G, H, args.p, dset, method=args.method, budget=_budget())
    results = {
        "result": _finab_json(rep.result),
        "theorem_result": _finab_json(rep.theorem_result),
        "brute_result": _finab_json(rep.brute_result),
        "agreement": rep.agreement,
        "group_order": rep.group_order,
        "subgroup_order": len(rep.subgroup_elements),
        "index": rep.group_order // len(rep.subgroup_elements),
        "dset_raw": [list(d) for d in rep.dset_raw],
        "dset_closed": [list(d) for d in rep.dset_closed],
        "conditions": None
        if rep.conditions is None
        else {
            "sylow_normal": rep.conditions.prereq_sylow_normal,
            "core_trivial": rep.conditions.prereq_core_trivial,
            "ordp_index_one": rep.conditions.prereq_ordp_index_one,
            "a_rank_two": rep.conditions.a_rank_two,
            "b_commutator_full": rep.conditions.b_commutator_full,
            "c_normalizer_is_centralizer": rep.conditions.c_normalizer_is_centralizer,
        },
        "p_restriction_check": _finab_json(rep.p_restriction_check),
    }
    return _report("sha", inputs, results, warnings=rep.warnings, budgets={"cochain": _budget()},
                   timing=rep.timing, method=args.method)


def cmd_scan_reps(args):
    inputs = {"p": args.p, "n": args.n, "max_subgroups": args.max_subgroups}
    report = exhaustive_scan(args.p, args.n, max_subgroups=args.max_subgroups)
    results = {
        "hits": [
            {
                "group_class": h.group_class,
                "group_order": h.group_order,
                "subgroup_order": len(h.subgroup_elements),
                "line": list(h.line),
                "group_cyclic": h.group_cyclic,
            }
            for h in report.hits
        ],
        "hit_count": len(report.hits),
        "group_classes": report.group_classes,
        "subgroups_seen": report.subgroups_seen,
        "complete": report.complete,
        "degree_flags": _membership_json(d_membership(args.p * args.n, args.p)),
    }
    return _report("scan-reps", inputs, results, budgets=report.budget)


def _membership_json(m):
    return {
        "d": m.d,
        "p": m.p,
        "in_pZ": m.in_pZ,
        "in_p2Z": m.in_p2Z,
        "in_D1": m.in_D1,
        "in_D2": m.in_D2,
        "in_S": m.in_S,
    }


def cmd_dset(args):
    inputs = {"p": args.p, "max": args.max}
    if args.max > DSET_MAX_ROWS:
        raise BudgetExceeded(
            f"dset table of {args.max} rows exceeds the budget of {DSET_MAX_ROWS}",
            sizes={"rows": args.max, "budget": DSET_MAX_ROWS},
        )
    rows = [_membership_json(d_membership(d, args.p)) for d in range(1, args.max + 1)]
    results = {"table": rows, "s_min": s_min(args.p)}
    return _report("dset", inputs, results)


def cmd_classify(args):
    spec = load_group_spec(args.group)
    G = build_group(spec)
    H = resolve_subgroup(G, args.subgroup)
    inputs = {"group": spec, "subgroup": args.subgroup}
    c = classify_two_prime_index(G, H)
    results = {"kind": c.kind, "p": c.p, "display": str(c)}
    return _report("classify", inputs, results)


def cmd_witness(args):
    inputs = {"p": args.p, "variant": args.variant, "ell": args.ell}
    spec, H, prediction = composite_sha_witness(
        args.p, args.variant, args.ell if args.variant == "ii" else None
    )
    sub, elems = H.as_group()
    results = {
        "group": spec,
        "group_order": H.parent.order,
        "subgroup_generators": [int(elems[s]) for s in sub.gens],
        "subgroup_elements": list(H.elements),
        "index": H.index,
        "prediction": prediction.to_list(),
    }
    return _report("witness", inputs, results)


def cmd_selftest(args):
    inputs = {"scope": args.scope}
    t0 = time.perf_counter()
    checks = selftest_mod.run_selftest(args.scope, budget=_budget())
    elapsed = time.perf_counter() - t0
    results = {
        "checks": [{"name": n, "passed": ok, "detail": detail} for n, ok, detail in checks],
        "passed": sum(1 for _, ok, _ in checks if ok),
        "failed": sum(1 for _, ok, _ in checks if not ok),
    }
    report = _report("selftest", inputs, results,
                     budgets={"cochain": _budget()}, timing={"total": elapsed})
    return report, EXIT_OK if results["failed"] == 0 else EXIT_HYPOTHESIS


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise SchemaError instead of exiting 2."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process (on the first run)."""
    parser = _Parser(
        prog="normone",
        description="Obstruction groups of norm-one tori: structural and brute-force evaluation",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sha = sub.add_parser("sha", help="evaluate the obstruction group of (G, H)")
    p_sha.add_argument("--group", required=True, help="group-spec file or inline JSON")
    p_sha.add_argument("--subgroup", default="trivial", help="'trivial', 'sylow:p', or generator indices")
    p_sha.add_argument("--p", type=int, required=True)
    p_sha.add_argument("--dset", default="", help="extra dset members, ';'-separated subgroup refs")
    p_sha.add_argument("--method", choices=["theorem", "brute", "both"], default="both")

    p_scan = sub.add_parser("scan-reps", help="exhaustive representation scan")
    p_scan.add_argument("--p", type=int, required=True)
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--max-subgroups", type=int, default=200000)

    p_dset = sub.add_parser("dset", help="degree-set membership table")
    p_dset.add_argument("--p", type=int, required=True)
    p_dset.add_argument("--max", type=int, default=100)

    p_cls = sub.add_parser("classify", help="classify a squarefree two-prime-index pair")
    p_cls.add_argument("--group", required=True)
    p_cls.add_argument("--subgroup", default="trivial")

    p_wit = sub.add_parser("witness", help="composite-exponent witness constructions")
    p_wit.add_argument("--p", type=int, required=True)
    p_wit.add_argument("--variant", choices=["i", "ii"], default="i")
    p_wit.add_argument("--ell", type=int, default=None)

    p_self = sub.add_parser("selftest", help="run the built-in verification battery")
    p_self.add_argument("--scope", choices=["quick", "full"], default="quick")
    return parser


def run(argv):
    """Dispatch a parsed command; always emit a report; map errors to codes."""
    handlers = {
        "sha": cmd_sha,
        "scan-reps": cmd_scan_reps,
        "dset": cmd_dset,
        "classify": cmd_classify,
        "witness": cmd_witness,
        "selftest": cmd_selftest,
    }
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except SchemaError as exc:
        _emit_error(argv[0] if argv and argv[0] in handlers else None, exc, EXIT_PARSE)
        return EXIT_PARSE
    try:
        for name in ("p", "ell"):  # the range of spec integers, positive
            value = getattr(args, name, None)
            if value is not None and not _is_int(value, 1):
                raise SchemaError(f"--{name} must lie in [1, 2^63), got {value}")
        for name in ("max", "max_subgroups"):  # sizes; their budgets bound them above
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise SchemaError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
        out = handlers[args.verb](args)
        if isinstance(out, tuple):
            report, code = out
        else:
            report, code = out, EXIT_OK
        _emit(report)
        return code
    except (ParseError, SchemaError, SpecInvalid) as exc:
        _emit_error(args.verb, exc, EXIT_PARSE)
        return EXIT_PARSE
    except (HypothesisViolated, NotPrime, PreconditionFailed, CertificateUnavailable) as exc:
        _emit_error(args.verb, exc, EXIT_HYPOTHESIS)
        return EXIT_HYPOTHESIS
    except (BudgetExceeded, OrderBudgetExceeded) as exc:
        _emit_error(args.verb, exc, EXIT_BUDGET)
        return EXIT_BUDGET
    except NormOneError as exc:
        _emit_error(args.verb, exc, EXIT_HYPOTHESIS)
        return EXIT_HYPOTHESIS


def _emit_error(verb, exc, code):
    report = {
        "command": verb,
        "error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code},
        "results": None,
        "warnings": [str(exc)],
    }
    sizes = getattr(exc, "sizes", None)
    if sizes:
        report["error"]["sizes"] = sizes
    print(f"error: {exc}", file=sys.stderr)
    _emit(report)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
