"""Acceptance criteria, one test per criterion.

Every check is an exact polynomial or integer equality (zero tolerance);
the only numeric bounds are case-count minimums and wall-clock budgets.
Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
"""

import time

import pytest

from qchar.characters import coinv_char_fermionic, rep_character
from qchar.fusion import elementary_dims, fuse, fusion_dims
from qchar.supernomial import SiteVector
from qchar.verify import run_identity

from oracles import brute_elementary_count


def _finish(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _run(criterion, name, identity, budget_s, min_cases=1, options=None):
    report = run_identity(identity, options)
    elapsed = report.ms / 1000.0
    ok = (
        not report.failures
        and report.cases >= min_cases
        and elapsed < budget_s
    )
    detail = (
        f"{report.cases} cases, {len(report.failures)} failures, "
        f"{elapsed:.1f}s (budget {budget_s}s)"
    )
    if report.failures:
        detail += f"; first counterexample {report.failures[0]['params']}"
    _finish(f"criterion {criterion} ({name})", ok, detail)


def test_c01_lattice_equals_supernomial():
    # p in {2,3,4}, all d, every cutoff with nonnegative multiplicities and
    # N_+ + N_- <= 5 (sign cutoffs also swept 2 below/above that range)
    _run(1, "lattice sum = supernomial sum", "tb", 300.0, min_cases=500)


def test_c02_balanced_sweep_nonnegative_support():
    _run(2, "balanced sweep, standard binomials", "ta", 300.0, min_cases=100)


def test_c03_product_refactoring():
    report = run_identity("rdc")
    ok = report.cases == 11 ** 4 and not report.failures and report.ms < 60_000
    _finish(
        "criterion 3 (product refactoring identity)",
        ok,
        f"{report.cases} cases, {len(report.failures)} failures, "
        f"{report.ms / 1000.0:.1f}s (budget 60s)",
    )


def test_c04_convolution_identity():
    report = run_identity("knuth")
    expected_cases = sum(
        1
        for big_m in range(-5, 9)
        for big_s in range(-5, 9)
        if big_m + big_s >= 0
    ) * 11
    ok = report.cases == expected_cases and not report.failures
    ok = ok and report.ms < 30_000
    _finish(
        "criterion 4 (convolution identity)",
        ok,
        f"{report.cases} cases, {len(report.failures)} failures, "
        f"{report.ms / 1000.0:.1f}s (budget 30s)",
    )


def test_c05_pascal_system_and_regeneration():
    report = run_identity("pascal", {"window": 8})
    ok = report.cases == 17 * 17 + 1 and not report.failures
    _finish(
        "criterion 5 (q-Pascal system + table regeneration)",
        ok,
        f"{report.cases} cases, {len(report.failures)} failures",
    )


def test_c06_dimension_routes_agree():
    _run(6, "dimension agreement across four routes", "dims", 120.0,
         min_cases=100)


def test_c07_character_stabilization():
    qmax, zwin = 6, 2
    checked = 0
    bad = []
    start = time.perf_counter()
    for p in (2, 3):
        for r in range(p):
            reference = rep_character(p, r, qmax, zwin)
            threshold = 2 * (qmax + zwin + p)
            for t in (threshold, threshold + 1):
                for d in (0, 1):
                    site = SiteVector(p, t, t, (t,) * d)
                    value = coinv_char_fermionic(r, site, qmax=qmax, zwin=zwin)
                    checked += 1
                    if value.truncated(qmax, zwin) != reference:
                        bad.append((p, r, t, d))
    elapsed = time.perf_counter() - start
    _finish(
        "criterion 7 (character stabilization)",
        not bad,
        f"{checked} comparisons at thresholds, {len(bad)} failures, "
        f"{elapsed:.1f}s" + (f"; first {bad[0]}" if bad else ""),
    )


def test_c08_spectral_flow_covariance():
    _run(8, "spectral-flow covariance", "flow", 120.0, min_cases=100)


def test_c09_recurrences():
    _run(9, "supernomial recurrences + padding identities", "rec", 300.0,
         min_cases=1000)


def test_c10_elementary_dimensions():
    checked = 0
    bad = []
    for p in range(2, 6):
        for i in range(0, p + 1):
            for j in range(-2 * p, 2 * p + 1):
                got = elementary_dims(p, i, j).dims
                want = tuple(
                    brute_elementary_count(p, i, j, r) for r in range(p)
                )
                checked += 1
                if got != want:
                    bad.append(("count", p, i, j))
    # fusion products of elementary vectors against the ring expansion
    pair_pool = [(0, 2), (1, 0), (1, -1), (2, 1)]
    for p in (2, 3, 4):
        for first in pair_pool:
            for second in pair_pool:
                product = fuse(
                    elementary_dims(p, *first), elementary_dims(p, *second)
                )
                checked += 1
                if product != fusion_dims(p, [first, second]):
                    bad.append(("product", p, first, second))
    _finish(
        "criterion 10 (elementary dimensions)",
        not bad,
        f"{checked} checks, {len(bad)} failures"
        + (f"; first {bad[0]}" if bad else ""),
    )


@pytest.mark.parametrize("identity, options", [
    ("tb", {"p_lo": 5, "p_hi": 6, "nmax": 4}),
    ("char-eq", {"p_lo": 4, "p_hi": 6, "entry_max": 5}),
    ("flow", {"p_lo": 4, "p_hi": 6, "entry_max": 5}),
    ("dims", {"p_lo": 4, "p_hi": 6, "entry_max": 5}),
])
def test_identities_hold_at_ranks_5_and_6(identity, options):
    # the default sweeps stop at p = 4 for tb and p = 3 for the rest, so only
    # these reach level coordinates 6 and up (d >= 7, at p >= 5)
    _run("ranks 5-6", identity, identity, 60.0,
         min_cases=1000, options=options)
