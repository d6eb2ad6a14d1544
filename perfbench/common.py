"""Helpers shared by the benchmark's worker, its entry point and the freeze script.

Nothing here imports normone: the worker times that import as set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("brute", "structural", "scan")
PINNED_BUDGET = 200_000


class SetupError(Exception):
    """The checkout cannot run the benchmark as pinned."""


def use_checkout_source():
    """Import normone from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "normone", "__init__.py")):
        raise SetupError(f"no normone sources under {SRC}")
    if os.environ.get("SHA_BUDGET"):
        raise SetupError("SHA_BUDGET is set; the benchmark pins the default cochain budget")
    sys.path.insert(0, SRC)


def digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def call_cli(run, argv):
    """cli.run(argv) with its report captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue()


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def make_queries(expected, workload, seed):
    """The pass's query list: the seed picks each brute slot's prime and
    shuffles the order; the program sees only the resulting argv.  Queries
    listed under "first" keep their place at the head of the pass."""
    rng = random.Random(f"{workload}:{seed}")
    table = expected[workload]
    queries = [rng.choice(variants) for variants in table.get("slots", [])]
    queries += table["fixed"]
    rng.shuffle(queries)
    return table.get("first", []) + queries


def check(expect, code, text):
    """None if the answer matches its expected outcome, else the reason."""
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    report = json.loads(text)
    if code != 0:
        got = report["error"]["type"]
        return None if got == expect["error"] else f"error {got}, expected {expect['error']}"
    results = report["results"]
    for source, key, value in expect["independent"]:
        if results[key] != value:
            return f"{key} = {results[key]!r}, but {source} gives {value!r}"
    if report["command"] == "sha" and results["agreement"] is False:
        return "structural and brute paths disagree"
    if report["command"] == "scan-reps":
        flags = results["degree_flags"]
        if results["hits"] and not (flags["in_D1"] or flags["in_D2"]):
            return "scan hit at a degree outside the degree criterion"
    if digest(results) != expect["digest"]:
        return "results block differs from the frozen one"
    return None
