import contextlib
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bar_oracle import close_dset
from normone.cli import (
    DSET_MAX_ROWS,
    EXIT_BUDGET,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_PARSE,
    load_group_spec,
    resolve_subgroup,
    run,
)
from normone.catalog import (
    a4_shape_spec,
    abelian_spec,
    catalog_group,
    catalog_names,
    cyclic_spec,
    symmetric3_spec,
)
from normone.cohomology import closed_dset_elements
from normone.errors import ParseError, SchemaError
from normone.groups import build_group
from normone.structure import sha_full


A4_JSON = json.dumps(a4_shape_spec(2))
Z6_JSON = json.dumps(abelian_spec(2, 3))


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- spec loading ------------------------------------------------------------------


def test_load_inline_and_file(tmp_path):
    spec = load_group_spec(A4_JSON)
    assert spec == a4_shape_spec(2)
    path = tmp_path / "a4.json"
    path.write_text(A4_JSON)
    spec2 = load_group_spec(str(path))
    assert spec2 == spec


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        load_group_spec('{"kind": "table", "n": }')
    assert "line" in str(err.value) and "column" in str(err.value)


def test_schema_errors():
    with pytest.raises(SchemaError):
        load_group_spec('{"kind": "mystery"}')
    with pytest.raises(SchemaError):
        load_group_spec('{"kind": "table", "n": 2}')
    # non-invertible action matrix
    bad = {
        "kind": "semidirect",
        "p": 2,
        "m": 2,
        "matrices": [[[1, 1], [1, 1]]],
        "acting": {"kind": "table", "n": 3, "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    }
    with pytest.raises(SchemaError):
        load_group_spec(json.dumps(bad))


def test_resolve_subgroup():
    G = build_group(a4_shape_spec(2))
    assert resolve_subgroup(G, "trivial").order == 1
    assert resolve_subgroup(G, "sylow:2").order == 4
    assert resolve_subgroup(G, "0,1").order == 2
    assert resolve_subgroup(G, "all").elements == tuple(range(12))


# -- verbs -------------------------------------------------------------------------


def test_sha_verb_a4(capsys):
    code, report = run_capture(
        capsys,
        ["sha", "--group", A4_JSON, "--subgroup", "0,1", "--p", "2", "--method", "both"],
    )
    assert code == EXIT_OK
    assert report["results"]["result"] == [2]
    assert report["results"]["agreement"] is True
    assert report["results"]["conditions"]["a_rank_two"]


def test_sha_verb_with_sylow_dset(capsys):
    code, report = run_capture(
        capsys,
        ["sha", "--group", A4_JSON, "--subgroup", "0,1", "--p", "2", "--dset", "sylow:2"],
    )
    assert code == EXIT_OK
    assert report["results"]["result"] == []
    assert report["results"]["dset_raw"] == [[0, 1, 2, 3]]


_PERMUTATION_SPECS = {
    "D6": {"kind": "permutations", "degree": 6, "generators": ["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"]},
    "S4": {"kind": "permutations", "degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]},
    "A5": {"kind": "permutations", "degree": 5, "generators": ["(1 2 3 4 5)", "(1 2 3)"]},
}


@pytest.mark.parametrize("name", catalog_names() + list(_PERMUTATION_SPECS))
@pytest.mark.parametrize("dset", ["none", "sylow:2", "sylow:3"])
def test_reported_closed_dset_matches_close_dset(capsys, name, dset):
    # the report's closed dset is read from element data; close_dset builds
    # the same family as handles
    spec = _PERMUTATION_SPECS.get(name)
    if spec is None:
        G = catalog_group(name)
        spec = {"kind": "table", "n": G.order, "mul": G.mul.tolist()}
    G = build_group(spec)
    dset = "" if dset == "none" else dset
    raw = [resolve_subgroup(G, dset)] if dset else []
    want = [h.elements for h in close_dset(G, raw)]
    assert closed_dset_elements(G, raw) == want
    if G.order == 1:
        return  # no prime divides the order: there is no sha query
    p = next(q for q in range(2, G.order + 1) if G.order % q == 0)
    assert sha_full(G, resolve_subgroup(G, "all"), p, raw, method="brute").dset_closed == want
    code, report = run_capture(capsys, ["sha", "--group", json.dumps(spec), "--subgroup", "all",
                                        "--p", str(p), "--dset", dset, "--method", "brute"])
    assert code == EXIT_OK
    assert report["results"]["dset_closed"] == [list(e) for e in want]


def test_sha_verb_hypothesis_exit(capsys):
    code, report = run_capture(
        capsys, ["sha", "--group", Z6_JSON, "--subgroup", "trivial", "--p", "5"]
    )
    assert code == EXIT_HYPOTHESIS
    assert report["error"]["type"] == "HypothesisViolated"


def test_sha_verb_parse_exit(capsys):
    code, report = run_capture(
        capsys, ["sha", "--group", "{not json", "--subgroup", "trivial", "--p", "2"]
    )
    assert code == EXIT_PARSE


def test_budget_exit(capsys, monkeypatch):
    monkeypatch.setenv("SHA_BUDGET", "10")
    code, report = run_capture(
        capsys,
        ["sha", "--group", A4_JSON, "--subgroup", "0,1", "--p", "2", "--method", "brute"],
    )
    assert code == EXIT_BUDGET
    assert report["error"]["type"] == "BudgetExceeded"


@pytest.mark.parametrize("verb", [["sha", "--group", A4_JSON, "--p", "2"], ["selftest"]])
@pytest.mark.parametrize("budget", ["abc", "1e5", "0", "-5"])
def test_malformed_budget_exits_with_schema_error(capsys, monkeypatch, verb, budget):
    monkeypatch.setenv("SHA_BUDGET", budget)
    code, report = run_capture(capsys, verb)
    assert code == EXIT_PARSE
    assert report["command"] == verb[0]
    assert report["error"]["type"] == "SchemaError"
    assert "SHA_BUDGET" in report["error"]["message"]


def _nested_products(depth):
    text = json.dumps(cyclic_spec(2))
    for _ in range(depth):
        text = '{"kind": "product", "factors": [' + text + "]}"
    return text


def test_shallowly_nested_spec_is_accepted(capsys):
    code, report = run_capture(capsys, ["sha", "--group", _nested_products(100), "--p", "2"])
    assert code == EXIT_OK
    assert report["command"] == "sha"


@pytest.mark.parametrize("depth", [600, 1200])
def test_deeply_nested_spec_exits_with_parse_error(capsys, tmp_path, depth):
    # well past the recursion limit, wherever the caller's stack puts it
    path = tmp_path / "deep.json"
    path.write_text(_nested_products(depth))
    for source in (path.read_text(), str(path)):
        code, report = run_capture(capsys, ["sha", "--group", source, "--p", "2"])
        assert code == EXIT_PARSE
        assert report["command"] == "sha"
        assert report["error"]["type"] == "ParseError"
        assert "nested too deeply" in report["error"]["message"]


def test_dset_verb(capsys):
    code, report = run_capture(capsys, ["dset", "--p", "11", "--max", "100"])
    assert code == EXIT_OK
    rows = {r["d"]: r for r in report["results"]["table"]}
    assert rows[55]["in_D1"] is True
    assert report["results"]["s_min"] == 33
    code, report = run_capture(capsys, ["dset", "--p", "1000003", "--max", "5"])
    assert code == EXIT_OK
    assert report["results"]["s_min"] == 3000009


def test_dset_rows_past_the_budget_exit_2(capsys):
    # the table is refused before a row is built, however large --max is
    for rows in (DSET_MAX_ROWS + 1, 10**20):
        start = time.perf_counter()
        code, report = run_capture(capsys, ["dset", "--p", "5", "--max", str(rows)])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        assert report["error"]["type"] == "BudgetExceeded"
        assert report["error"]["sizes"] == {"rows": rows, "budget": DSET_MAX_ROWS}
    code, report = run_capture(capsys, ["dset", "--p", "5", "--max", str(DSET_MAX_ROWS)])
    assert code == EXIT_OK
    assert len(report["results"]["table"]) == DSET_MAX_ROWS


def test_classify_verb(capsys):
    code, report = run_capture(
        capsys, ["classify", "--group", A4_JSON, "--subgroup", "0,1"]
    )
    assert code == EXIT_OK
    assert report["results"]["display"] == "alpha(2)"


def test_classify_every_trivial_core_line_of_alpha5(capsys):
    # "1" and "7" generate lines of the plane in the two conjugacy classes of
    # trivial-core lines; both pairs have obstruction group Z/5
    alpha5 = json.dumps(a4_shape_spec(5))
    for line in ("1", "7"):
        code, report = run_capture(capsys, ["classify", "--group", alpha5, "--subgroup", line])
        assert code == EXIT_OK
        assert report["results"]["display"] == "alpha(5)"


def test_classify_keeps_order_bound(capsys):
    code, report = run_capture(
        capsys, ["classify", "--group", json.dumps(a4_shape_spec(11)), "--subgroup", "1"]
    )
    assert code == EXIT_HYPOTHESIS
    assert report["error"]["type"] == "HypothesisViolated"


def test_witness_verb(capsys):
    code, report = run_capture(capsys, ["witness", "--p", "2", "--variant", "i"])
    assert code == EXIT_OK
    assert report["results"]["index"] == 18
    assert report["results"]["prediction"] == [6]
    # the emitted spec round-trips into a buildable group
    G = build_group(report["results"]["group"])
    assert G.order == 36


def test_scan_verb(capsys):
    code, report = run_capture(capsys, ["scan-reps", "--p", "2", "--n", "3"])
    assert code == EXIT_OK
    assert report["results"]["hit_count"] > 0
    assert report["results"]["complete"] is True
    assert "pprime_order_cap" in report["provenance"]["budgets"]


def test_sha_theorem_with_four_generator_complement(capsys):
    spec = {
        "kind": "semidirect",
        "p": 3,
        "m": 1,
        "matrices": [[[-1]], [[1]], [[1]], [[1]]],
        "acting": abelian_spec(2, 2, 2, 2),
    }
    argv = ["sha", "--group", json.dumps(spec), "--subgroup", "24", "--p", "3",
            "--method", "theorem"]
    code, report = run_capture(capsys, argv)
    assert code == EXIT_OK
    assert report["results"]["result"] == [2, 2, 2]


def test_determinism_modulo_timing(capsys):
    argv = ["sha", "--group", A4_JSON, "--subgroup", "0,1", "--p", "2"]
    _, r1 = run_capture(capsys, argv)
    _, r2 = run_capture(capsys, argv)
    r1["provenance"].pop("timing")
    r2["provenance"].pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["inputs_digest"] == r2["inputs_digest"]


def test_selftest_quick(capsys):
    code, report = run_capture(capsys, ["selftest", "--scope", "quick"])
    assert code == EXIT_OK
    assert report["results"]["failed"] == 0


# -- malformed input -----------------------------------------------------------------

TRIVIAL_TABLE = {"kind": "table", "n": 1, "mul": [[0]]}
SEMIDIRECT_BAD_P = {"kind": "semidirect", "p": "x", "m": 2, "matrices": [], "acting": TRIVIAL_TABLE}
Z2 = json.dumps(cyclic_spec(2))
BIG_PRIME = "1000000000000000003"
INT64_PRIME = 2**63 - 25  # the largest prime below 2^63


def _sha_argv(spec, *extra):
    return ["sha", "--group", json.dumps(spec), "--p", "2", *extra]


@pytest.mark.parametrize(
    "argv, error, code",
    [
        (_sha_argv(SEMIDIRECT_BAD_P), "SchemaError", EXIT_PARSE),
        (_sha_argv(dict(SEMIDIRECT_BAD_P, p=5, matrices="abc")), "SchemaError", EXIT_PARSE),
        (_sha_argv({"kind": "table", "n": "two", "mul": [[0, 1], [1, 0]]}), "SchemaError", EXIT_PARSE),
        (_sha_argv({"kind": "permutations", "degree": 3, "generators": 5}), "SchemaError", EXIT_PARSE),
        (_sha_argv(a4_shape_spec(2), "--subgroup", "sylow:x"), "SchemaError", EXIT_PARSE),
        (["scan-reps", "--p", "5", "--n", "-2"], "PreconditionFailed", EXIT_HYPOTHESIS),
        # huge integers are decided or rejected at once, never ground through
        (["sha", "--group", Z2, "--p", BIG_PRIME], "HypothesisViolated", EXIT_HYPOTHESIS),
        (["sha", "--group", Z2, "--subgroup", f"sylow:{BIG_PRIME}", "--p", BIG_PRIME],
         "HypothesisViolated", EXIT_HYPOTHESIS),
        (["sha", "--group", Z2, "--p", "0"], "SchemaError", EXIT_PARSE),
        (["sha", "--group", Z2, "--p", str(2**63)], "SchemaError", EXIT_PARSE),
        (["sha", "--group", Z2, "--subgroup", f"sylow:{2**63 + 1}", "--p", "2"],
         "SchemaError", EXIT_PARSE),
        (["witness", "--p", "5", "--variant", "ii", "--ell", str(-7)], "SchemaError", EXIT_PARSE),
        (_sha_argv(dict(SEMIDIRECT_BAD_P, p=INT64_PRIME, matrices=[[[2, 3], [5, 7]]],
                        acting=cyclic_spec(2))), "OrderBudgetExceeded", EXIT_BUDGET),
        (_sha_argv(dict(SEMIDIRECT_BAD_P, p=2, m=10**9)), "OrderBudgetExceeded", EXIT_BUDGET),
        (_sha_argv({"kind": "permutations", "degree": 10**9, "generators": [[1, 0]]}),
         "SpecInvalid", EXIT_PARSE),
        (_sha_argv({"kind": "permutations", "degree": 10**9, "generators": ["(1 1000000001)"]}),
         "SpecInvalid", EXIT_PARSE),
        # a point in two cycles: the map is no permutation
        (_sha_argv({"kind": "permutations", "degree": 3, "generators": ["(1 2)(2 3)"]}),
         "SpecInvalid", EXIT_PARSE),
        # sizes below 1
        (["dset", "--p", "5", "--max", "-1"], "SchemaError", EXIT_PARSE),
        (["dset", "--p", "5", "--max", "0"], "SchemaError", EXIT_PARSE),
        (["scan-reps", "--p", "5", "--n", "2", "--max-subgroups", "-1"], "SchemaError", EXIT_PARSE),
    ],
)
def test_malformed_input_exits_with_typed_error(capsys, argv, error, code):
    start = time.perf_counter()
    got, report = run_capture(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert report["error"]["type"] == error


def test_permutation_degree_costs_nothing(capsys):
    # elements live on the moved points only: a transposition in S_(10^9)
    # builds Z/2 at once, with the report of the same spec at degree 2
    start = time.perf_counter()
    spec = {"kind": "permutations", "degree": 10**9, "generators": ["(1 2)"]}
    code, report = run_capture(capsys, _sha_argv(spec))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    _, small = run_capture(capsys, _sha_argv(dict(spec, degree=2)))
    assert report["results"] == small["results"]


_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_GROUPS = st.sampled_from(
    [cyclic_spec(n) for n in range(1, 7)]
    + [abelian_spec(2, 2), symmetric3_spec(), a4_shape_spec(2)]
)


def _specs(junk):
    """Small group specs of every kind; with junk, any field may be arbitrary JSON."""
    field = (lambda s: s | _JUNK) if junk else (lambda s: s)

    def table(n):
        row = st.lists(st.integers(-1, n), min_size=n, max_size=n)
        # a flat row-major table, or a single row where the table belongs
        row_major = st.lists(st.integers(-1, n), min_size=n * n, max_size=n * n) | row
        return st.fixed_dictionaries({
            "kind": st.just("table"),
            "n": field(st.just(n)),
            "mul": field(st.lists(row, min_size=n, max_size=n) | row_major),
        })

    def permutations(degree):
        cycle = st.lists(st.integers(0, degree + 1), max_size=4).map(
            lambda pts: "(" + " ".join(map(str, pts)) + ")")
        return st.fixed_dictionaries({
            "kind": st.just("permutations"),
            "degree": field(st.just(degree)),
            "generators": field(st.lists(st.permutations(list(range(degree))) | cycle, max_size=2)),
        })

    def semidirect(m):
        row = st.lists(st.integers(-2, 4), min_size=m, max_size=m)
        matrix = st.lists(row, min_size=m, max_size=m)
        return st.fixed_dictionaries({
            "kind": st.just("semidirect"),
            "p": field(st.sampled_from([2, 3, 4, 5])),
            "m": field(st.just(m)),
            "matrices": field(st.lists(matrix, max_size=2)),
            "acting": field(st.sampled_from([cyclic_spec(k) for k in (1, 2, 3)])),
        })

    small = _GROUPS | st.integers(1, 6).flatmap(table) | st.integers(1, 5).flatmap(permutations)
    product = st.fixed_dictionaries(
        {"kind": st.just("product"), "factors": field(st.lists(small, max_size=2))}
    )
    return small | st.integers(1, 2).flatmap(semidirect) | product


_SUBGROUPS = st.text(max_size=4) | st.sampled_from(
    ["trivial", "all", "sylow:2", "sylow:3", "0", "1", "0,1", "1 2",
     "sylow:4", "sylow:x", "sylow:", "sylow:-2", "-1", "99", "a,b", " "]
)


@settings(max_examples=300, deadline=None)
@given(_GROUPS | _specs(False) | _specs(True) | _JUNK, _SUBGROUPS, st.sampled_from("2351x"))
def test_sha_never_raises_on_random_specs(spec, subgroup, p):
    # every outcome is a report with a documented exit code, never a
    # traceback; the small budget keeps brute force on order-120 groups short
    argv = ["sha", "--group", json.dumps(spec), f"--subgroup={subgroup}", f"--p={p}"]
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"SHA_BUDGET": "3000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (EXIT_OK, EXIT_HYPOTHESIS, EXIT_BUDGET, EXIT_PARSE)
    report = json.loads(out.getvalue())
    if p == "x":  # not an integer: a usage error
        assert code == EXIT_PARSE and report["error"]["type"] == "SchemaError"


@pytest.mark.parametrize(
    "argv, command",
    [
        (["sha", "--p", "5"], "sha"),  # --group is required
        (["sha", "--group", Z2, "--p", "five"], "sha"),
        (["sha", "--group", Z2, "--p", "2", "--method", "guess"], "sha"),
        (["frobnicate", "--p", "5"], None),  # no such verb
        ([], None),
    ],
)
def test_usage_errors_exit_with_schema_error(capsys, argv, command):
    # argparse's own errors are reports too, with the parse exit code
    code, report = run_capture(capsys, argv)
    assert code == EXIT_PARSE
    assert report["command"] == command
    assert report["error"] == {"type": "SchemaError", "exit_code": EXIT_PARSE,
                               "message": report["warnings"][0]}
    assert "usage" not in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    assert run(["sha", "--help"]) == EXIT_OK
    assert "--group" in capsys.readouterr().out


_QUERIES_IN_FRESH_PROCESS = """
import contextlib, io, json, sys
from normone.cli import run
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    print(argv[0], code, "numpy.ma" in sys.modules)
"""


def test_queries_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call under numpy 2.x, which
    # costs a fresh process 12-17 ms in the middle of its first query
    d6 = json.dumps({"kind": "permutations", "degree": 6, "label": "D6",
                     "generators": ["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"]})
    queries = [
        ["sha", "--group", d6, "--subgroup", "trivial", "--p", "2", "--method", "both"],
        ["sha", "--group", json.dumps(a4_shape_spec(5)), "--subgroup", "1", "--p", "5",
         "--method", "theorem"],
        ["witness", "--p", "7", "--variant", "i"],
        ["scan-reps", "--p", "3", "--n", "2"],
    ]
    # the child imports the normone this process tests, wherever pytest found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _QUERIES_IN_FRESH_PROCESS, json.dumps(queries)],
                         capture_output=True, text=True, check=True, env=env).stdout
    assert out.split("\n")[:-1] == [f"{argv[0]} 0 False" for argv in queries]
