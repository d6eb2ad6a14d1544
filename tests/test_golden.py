"""Golden CLI reports: the behaviour contract of a refactor.

Each case's JSON report, with `provenance.timing` stripped, must match its
frozen file under tests/golden/ byte for byte.  After an intended change,
regenerate with `PYTHONPATH=src python tests/test_golden.py` and explain
each diff in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from normone.catalog import a4_shape_spec, cyclic_spec
from normone.cli import run
from normone.structure import composite_sha_witness

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _witness_i_argv():
    spec, H, _ = composite_sha_witness(2, "i")
    sub, elems = H.as_group()
    gens = ",".join(str(elems[s]) for s in sub.gens)
    return ["sha", "--group", json.dumps(spec), "--subgroup", gens, "--p", "2", "--method", "both"]


A4 = json.dumps(a4_shape_spec(2))
CASES = {
    "sha_a4": ["sha", "--group", A4, "--subgroup", "0,1", "--p", "2"],
    "sha_a4_sylow2": ["sha", "--group", A4, "--subgroup", "0,1", "--p", "2", "--dset", "sylow:2"],
    "sha_witness_i_both": _witness_i_argv(),
    "classify_alpha_p5": ["classify", "--group", json.dumps(a4_shape_spec(5)), "--subgroup", "0,1"],
    "witness_p2_i": ["witness", "--p", "2", "--variant", "i"],
    "scan_reps_p3_n2": ["scan-reps", "--p", "3", "--n", "2"],
    "dset_p11": ["dset", "--p", "11"],
    "selftest_quick": ["selftest", "--scope", "quick"],
    "error1_sha_a4_p5": ["sha", "--group", A4, "--subgroup", "0,1", "--p", "5"],
    "error2_scan_reps_p11": ["scan-reps", "--p", "11", "--n", "2"],
    "error3_malformed_json": ["sha", "--group", json.dumps(cyclic_spec(2))[:-1], "--p", "2"],
}


def render(argv):
    """(exit code, the report as emitted, minus provenance.timing)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    report = json.loads(out.getvalue())
    report.get("provenance", {}).pop("timing", None)
    return code, json.dumps({"exit_code": code, "report": report}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    _, text = render(CASES[name])
    assert text == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(CASES):
        (GOLDEN / f"{name}.json").write_text(render(CASES[name])[1])
