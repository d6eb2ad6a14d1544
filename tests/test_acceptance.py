"""Acceptance criteria: one test per check of the full `normone.selftest`
battery, each under its time limit.  `pytest tests/test_acceptance.py -s`
prints one PASS line per check with its runtime.

The criteria are stated in `normone.selftest.CHECKS`; this file only says
which criterion each check is and how long it may take.  Criterion 8, the
plane-condition bridge, is stated in
`test_reps.py::test_bridge_bc_equals_group_conditions` and run here under its
time limit.
"""

import time

from test_reps import test_bridge_bc_equals_group_conditions as _bridge

from normone import selftest
from normone.cohomology import DEFAULT_COCHAIN_BUDGET

# check name -> (criterion number, test name, time limit in seconds)
CRITERIA = {
    "bicyclic-kernels": (1, "bicyclic_kernels", 30),
    "prime-index-family-oracle": (2, "prime_index_family_oracle", 300),
    "a4-cross-validation": (3, "order12_exceptional_pair", 60),
    "prime-index-zeros": (4, "prime_index_vanishing", 300),
    "annihilation-bounds": (5, "annihilation_bounds", 300),
    "degree-table": (6, "degree_table", 1),
    "representation-scans": (7, "scan_equivalence", 600),
    "carter-fong-orders": (9, "carter_fong", 10),
    "composite-witness-36": (10, "order36_composite_witness", 900),
    "shapiro-and-induced-kernels": (11, "induced_lattice_identities", 300),
    "lagrange-and-double-cosets": (12, "lagrange_and_double_cosets", 60),
    "h1-character-oracle": (13, "h1_character_oracle", 60),
    "degree-55-brute": (14, "degree55_brute", 60),
}

BATTERY = {name: fn for name, _, fn in selftest.CHECKS}


def _criterion_test(name, k, limit):
    def test():
        t0 = time.monotonic()
        detail = BATTERY[name](DEFAULT_COCHAIN_BUDGET)
        elapsed = time.monotonic() - t0
        assert elapsed < limit, f"criterion {k} exceeded its {limit}s limit ({elapsed:.1f}s)"
        print(f"criterion {k} ({name}: {detail}): PASS in {elapsed:.1f}s")

    return test


# one named test per criterion, so that each keeps its id across runs
for _name, (_k, _test_name, _limit) in CRITERIA.items():
    globals()[f"test_criterion_{_k:02d}_{_test_name}"] = _criterion_test(_name, _k, _limit)


def test_criterion_08_bridge():
    t0 = time.monotonic()
    _bridge()
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"criterion 8 exceeded its 120s limit ({elapsed:.1f}s)"
    print(f"criterion 8 (plane-condition bridge): PASS in {elapsed:.1f}s")


def test_every_battery_check_is_a_criterion():
    assert set(CRITERIA) == set(BATTERY)
