"""Acceptance criteria: twelve machine-checked reproductions, exact equality.

Every check here is an end-to-end reproduction of a published-size result:
golden expansions, recurrence-vs-definition agreement at scale, targeted
coefficient formulas, and full family classifications over bounded
parameter ranges.  Each test prints one PASS line with its runtime; the
classification ranges are bounded on purpose (the underlying statements
are proved finite, so a bounded sweep plus the screener-soundness
property is a faithful desk-scale check) and each sweep states the bound
it relies on.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS lines and range-provenance notes inline).
"""

import json
import random
import time

from cslab import (
    Partition,
    broom_csf,
    build_family,
    change_basis,
    chromatic_polynomial,
    compute_csf,
    csf_via_stable_partitions,
    e_positivity,
    enumerate_partitions,
    extract_coefficient,
    lemma_2odds_coefficient,
    path_csf_e,
    random_tree,
    run_sweep,
    schur_coefficient,
    schur_expansion_solve,
    schur_positivity,
    specialize_ones,
    spider_csf,
    verify_suite,
    wolfe_path_coefficient,
)
from cslab.cli import main as cli_main
from cslab.positivity import NO, YES

DURATIONS: dict = {}


def finish(key: str, note: str, t0: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - t0
    DURATIONS[key] = elapsed
    print(f"PASS {key}: {note} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{key} took {elapsed:.2f}s, budget {budget}s"


def cli_json(argv, capsys):
    assert cli_main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_01_claw_goldens(capsys):
    t0 = time.perf_counter()
    e_payload = cli_json(["csf", "--graph", "claw", "--basis", "e"], capsys)
    e_terms = {tuple(t["partition"]): t["coeff"] for t in e_payload["terms"]}
    assert e_terms == {(4,): "4", (3, 1): "5", (2, 2): "-2", (2, 1, 1): "1"}

    s_payload = cli_json(["csf", "--graph", "claw", "--basis", "s"], capsys)
    s_terms = {tuple(t["partition"]): t["coeff"] for t in s_payload["terms"]}
    assert s_terms == {(3, 1): "1", (2, 2): "-1", (2, 1, 1): "5", (1, 1, 1, 1): "8"}
    finish("criterion-01", "claw elementary and Schur goldens", t0, budget=1.0)


def test_criterion_02_path_series_three_routes():
    t0 = time.perf_counter()
    goldens = {
        0: {(): 1},
        1: {(1,): 1},
        2: {(2,): 2},
        3: {(3,): 3, (2, 1): 1},
    }
    for n, expected in goldens.items():
        assert {tuple(k): v for k, v in path_csf_e(n).terms.items()} == expected

    for n in range(0, 13):
        series = path_csf_e(n)
        if n >= 1:
            generic = change_basis(
                csf_via_stable_partitions(build_family("path", n)), "e"
            )
            assert series == generic, n
        for lam in enumerate_partitions(n):
            assert wolfe_path_coefficient(lam, n) == series.coefficient(lam), (n, lam)
    finish(
        "criterion-02",
        "path recurrence = stable route = closed form, n <= 12",
        t0,
        budget=30.0,
    )


def test_criterion_03_triple_deletion_on_seeded_graphs():
    t0 = time.perf_counter()
    report = verify_suite("triple-deletion", seed=0, count=50)
    assert report.cases == 50
    assert report.passed, report.failures[:3]
    finish(
        "criterion-03",
        "both deletion identities on 50 seeded 7-9 vertex graphs",
        t0,
        budget=60.0,
    )


def test_criterion_04_spider_recurrence_vs_generic():
    t0 = time.perf_counter()
    checked = 0
    for n in range(5, 12):
        for legs in enumerate_partitions(n - 1):
            if legs.length != 3:
                continue
            a, b, c = legs
            direct = change_basis(
                csf_via_stable_partitions(build_family("spider", a, b, c)), "e"
            )
            assert spider_csf(a, b, c) == direct, legs
            checked += 1
    assert checked == 30
    finish(
        "criterion-04",
        f"three-leg spider recurrence on all {checked} spiders with n <= 11",
        t0,
        budget=60.0,
    )


def test_criterion_05_two_odd_legs_closed_form():
    t0 = time.perf_counter()
    checked = 0
    for n in range(5, 14):
        for legs in enumerate_partitions(n - 1):
            if legs.length != 3 or sum(p % 2 for p in legs) != 2:
                continue
            target = Partition((3,) + (2,) * sum(p // 2 for p in legs))
            extracted = extract_coefficient(spider_csf(*legs), "e", target)
            assert lemma_2odds_coefficient(legs) == extracted, legs
            checked += 1
    assert checked > 0
    finish(
        "criterion-05",
        f"two-odd-legs coefficient formula on {checked} spiders with n <= 13",
        t0,
    )


def test_criterion_06_pendant_spider_classifications():
    t0 = time.perf_counter()
    # Range provenance: each classification below is finite because the
    # screeners bound the surviving parameter beyond the listed range
    # (longest-leg floor and the modular budget fail for all larger a),
    # so the swept interval contains the entire positive set.
    sweeps = (
        ("spider:a,2,1", 2, 30, (3, 6)),
        ("spider:a,4,1", 4, 25, (5, 8, 10, 12, 13, 15, 20)),
        ("spider:a,8,1", 8, 20, (9, 13, 15, 18)),
    )
    for family, lower, upper, expected in sweeps:
        result = run_sweep(family, "a", lower, upper)
        assert result.e_positives == expected, family
        print(
            f"  {family}, a in [{lower},{upper}]: e-positive exactly "
            f"{set(expected)} (finite by screener bounds)"
        )
    finish("criterion-06", "three pendant-spider e-positivity sweeps", t0)


def test_criterion_07_two_leaf_broom_schur():
    t0 = time.perf_counter()
    for p in range(3, 9):
        G = build_family("broom", 2 * p, 2)
        value, _ = schur_coefficient(G, Partition((p + 1, p + 1, 1)))
        assert value == 6 - p, p

    assert e_positivity(build_family("broom", 2, 2)).e_positive == YES

    for handle in (4, 6, 8, 10):
        G = build_family("broom", handle, 2)
        assert e_positivity(G).e_positive == NO, handle
        assert schur_positivity(G, cap=13).schur_positive == YES, handle

    G12 = build_family("broom", 12, 2)
    assert e_positivity(G12).e_positive == NO
    value, _ = schur_coefficient(G12, Partition((7, 7, 1)))
    assert value == 0
    finish(
        "criterion-07",
        "two-leaf brooms: 6-p coefficients, e/Schur split, targeted check at 12",
        t0,
    )


def test_criterion_08_double_broom_schur():
    t0 = time.perf_counter()
    for p in range(1, 7):
        f = broom_csf(2 * p - 1)
        target = Partition((2 * p + 2, 2))
        assert extract_coefficient(f, "e", target) == -2 * p - 4, p

    for middle in (1, 3, 5, 7, 9):
        G = build_family("dbroom", 2, middle, 2)
        assert schur_positivity(G, cap=14).schur_positive == YES, middle

    positives = []
    enumerated = 0
    for left in range(2, 10):
        for right in range(max(left, 3), 10):
            for middle in range(1, 10):
                if left + middle + right + 1 > 12:
                    continue
                enumerated += 1
                G = build_family("dbroom", left, middle, right)
                assert e_positivity(G).e_positive == NO
                if schur_positivity(G).schur_positive == YES:
                    positives.append((left, middle, right))
    assert enumerated > 0
    assert sorted(positives) == [
        (2, 1, 3), (2, 5, 3), (3, 1, 3), (3, 1, 4),
        (4, 1, 4), (4, 1, 5), (5, 1, 5),
    ]
    finish(
        "criterion-08",
        "double brooms: -2p-4 coefficients, Schur prefix, 12-vertex census",
        t0,
    )


def test_criterion_09_schur_cross_route_on_trees():
    t0 = time.perf_counter()
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(2, 10)
        G = random_tree(n, rng)
        solved = schur_expansion_solve(G)
        for lam in enumerate_partitions(n):
            value, _ = schur_coefficient(G, lam)
            assert value == solved.coefficient(lam), (G, lam)
    finish(
        "criterion-09",
        "tabloid rule = linear solve on 20 seeded trees, n <= 9",
        t0,
    )


def test_criterion_10_specialization_matches_chromatic_polynomial():
    t0 = time.perf_counter()
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randrange(2, 11)
        G = random_tree(n, rng)
        f = compute_csf(G).value
        for k in range(1, 6):
            assert specialize_ones(f, k) == chromatic_polynomial(G, k), (G, k)
    finish(
        "criterion-10",
        "CSF at x=1^k equals the chromatic polynomial, 30 seeded trees",
        t0,
    )


def test_criterion_11_screener_soundness():
    t0 = time.perf_counter()
    report = verify_suite("screener-soundness")
    assert report.cases > 0
    assert report.passed, report.failures[:3]
    finish(
        "criterion-11",
        f"zero violations across {report.cases} screener-failing sweep instances",
        t0,
    )


def test_criterion_12_even_pair_quadratic_formula():
    t0 = time.perf_counter()
    checked = 0
    for b in range(2, 15, 2):
        for a in range(b, 15, 2):
            N = a + b + 2
            if N > 16:
                continue
            target = Partition((3, 3) + (2,) * ((N - 6) // 2))
            extracted = extract_coefficient(spider_csf(a, b, 1), "e", target)
            assert extracted == a * a - (2 * b + 1) * a + b * b - b + 1, (a, b)
            checked += 1
    assert checked > 0
    finish(
        "criterion-12",
        f"even-pair quadratic coefficient formula on {checked} pendant spiders",
        t0,
    )


def test_total_runtime_budget():
    assert len(DURATIONS) == 12, sorted(DURATIONS)
    total = sum(DURATIONS.values())
    print(f"acceptance total: {total:.1f}s across 12 criteria")
    assert total < 600.0, f"total acceptance runtime {total:.1f}s exceeds 10 minutes"
