"""Positivity verdicts, screeners, sweeps, and conjecture checks."""

import concurrent.futures
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_connected_partition

import cslab.csf
import cslab.graphs
import cslab.positivity
import cslab.symfunc
from cslab import (
    BadParity,
    BadSpec,
    Graph,
    InternalContradiction,
    Partition,
    SCREENER_NAMES,
    SweepResult,
    SweepRow,
    build_family,
    check_conjecture,
    compute_csf,
    e_positivity,
    enumerate_partitions,
    lemma_2odds_coefficient,
    parse_graph_spec,
    random_tree,
    run_sweep,
    schur_positivity,
    screen_spider,
    spider_csf,
)
from cslab.cli import main
from cslab.positivity import NO, UNKNOWN, YES


def failed_names(trace):
    return {name for name, passed, _ in trace if not passed}


class TestTwoOddLegsCoefficient:
    def test_anchor_values(self):
        assert lemma_2odds_coefficient(Partition((2, 1, 1))) == 1
        assert lemma_2odds_coefficient(Partition((4, 1, 1))) == -3
        assert lemma_2odds_coefficient(Partition((5, 3, 2))) == 13

    def test_rejects_wrong_odd_count(self):
        with pytest.raises(BadParity):
            lemma_2odds_coefficient(Partition((2, 2, 1)))
        with pytest.raises(BadParity):
            lemma_2odds_coefficient(Partition((3, 3, 3, 1)))

    def test_matches_extracted_coefficient(self):
        for legs in ((2, 1, 1), (3, 3, 2), (4, 1, 1), (4, 3, 1), (5, 3, 2), (6, 5, 1)):
            lam = Partition(legs)
            total_halves = sum(part // 2 for part in lam)
            target = Partition((3,) + (2,) * total_halves)
            f = spider_csf(*legs)
            assert lemma_2odds_coefficient(lam) == f.coefficient(target), legs


class TestSpiderScreeners:
    def test_every_screener_has_a_registered_name(self):
        trace = screen_spider(Partition((6, 2, 1)))
        assert [name for name, _, _ in trace] == list(SCREENER_NAMES)
        assert all(detail for _, _, detail in trace)

    def test_short_longest_leg_fails_the_floor(self):
        assert "longest-leg-floor" in failed_names(screen_spider(Partition((4, 4, 2))))

    def test_two_odd_shorter_legs_force_their_sum(self):
        assert "odd-pair-forces-sum" in failed_names(screen_spider(Partition((7, 3, 3))))
        assert "odd-pair-forces-sum" not in failed_names(
            screen_spider(Partition((6, 3, 3)))
        )

    def test_two_residues_rule_for_two_leg_tail(self):
        failed = failed_names(screen_spider(Partition((10, 4, 2))))
        assert "two-residues-mod-three" in failed
        assert "pendant-two-upper" not in failed

    def test_known_positive_instances_pass_everything(self):
        for legs in ((3, 2, 1), (6, 2, 1), (12, 4, 2)):
            assert not failed_names(screen_spider(Partition(legs))), legs

    def test_long_divisible_leg_floor(self):
        assert "long-divisible-leg-floor" in failed_names(
            screen_spider(Partition((15, 12, 2)))
        )

    def test_requires_at_least_three_legs(self):
        with pytest.raises(BadSpec):
            screen_spider(Partition((3, 2)))


class TestEPositivity:
    def test_claw_is_negative_with_witness(self):
        report = e_positivity(build_family("claw"))
        assert report.e_positive == NO
        assert report.witness.basis == "e"
        assert report.witness.partition == Partition((2, 2))
        assert report.witness.coefficient == -2
        assert "connected-partition-cover" in report.failed_screeners

    def test_positive_spiders(self):
        for spec in ("spider:3,2,1", "spider:6,2,1", "path:9"):
            report = e_positivity(parse_graph_spec(spec))
            assert report.e_positive == YES, spec
            assert report.witness is None

    def test_family_recurrence_reaches_large_spiders(self):
        report = e_positivity(build_family("spider", 25, 2, 1))
        assert report.e_positive == NO
        assert report.witness.coefficient < 0

    def test_unknown_breaks_at_the_cap_and_clears_above_it(self):
        G = build_family("cycle", 14)
        assert e_positivity(G).e_positive == UNKNOWN
        assert e_positivity(G, cap=14).e_positive == YES

    def test_past_the_recurrence_byte_width_falls_back_to_screeners(self):
        # 256 vertices: the spider recurrence raises TooLarge at once.
        passing = e_positivity(build_family("spider", 238, 16, 1))
        assert passing.e_positive == UNKNOWN
        assert not passing.failed_screeners
        failing = e_positivity(build_family("spider", 252, 2, 1))
        assert failing.e_positive == NO
        assert failing.failed_screeners

    def test_past_the_recurrence_byte_width_the_closed_form_is_the_witness(self):
        # 257 vertices and two odd legs: lemma_2odds_coefficient supplies
        # the negative coefficient that the recurrence cannot reach.
        report = e_positivity(parse_graph_spec("spider:130,125,1"))
        assert report.e_positive == NO
        assert report.witness.basis == "e"
        assert report.witness.partition == Partition((3,) + (2,) * 127)
        assert report.witness.coefficient == -7
        assert report.failed_screeners == ("odd-pair-forces-sum", "two-odd-legs-coefficient")

    def test_past_the_cap_without_a_recurrence_is_unknown(self):
        # 15 vertices, a double broom with no family recurrence, no
        # screener in reach: nothing can settle it at the default cap.
        report = e_positivity(parse_graph_spec("dbroom:2,9,3"))
        assert report.e_positive == UNKNOWN
        assert report.witness is None
        assert report.screener_trace == ()

    def test_witness_partition_has_the_right_degree(self):
        report = e_positivity(build_family("spider", 4, 4, 2))
        assert report.e_positive == NO
        assert report.witness.partition.n == 11


def search_lookups():
    info = cslab.graphs._has_connected_partition.cache_info()
    return info.hits + info.misses


class TestConnectedPartitionCover:
    """Forests read the cover from their tree-p terms; graphs with a cycle
    search for it; disconnected graphs are outside its theorem."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 10**6))
    def test_tree_cover_names_the_first_type_the_brute_force_misses(self, n, seed):
        G = random_tree(n, random.Random(seed))
        realized = brute_connected_partition(G)
        missing = [lam for lam in enumerate_partitions(n) if lam not in realized]
        expected = (
            ("connected-partition-cover", False, f"no connected partition of type {tuple(missing[0])}")
            if missing
            else ("connected-partition-cover", True, "every partition type is realized connectedly")
        )
        assert e_positivity(G).screener_trace[-1] == expected

    def test_tree_makes_no_search(self):
        before = search_lookups()
        report = e_positivity(parse_graph_spec("dbroom:3,2,4"))
        assert report.failed_screeners == ("connected-partition-cover",)
        assert search_lookups() == before

    def test_graph_with_a_cycle_is_searched(self):
        cycle = build_family("cycle", 6)
        G = Graph(6, cycle.edges | {(0, 3)})
        before = search_lookups()
        report = e_positivity(G)
        assert search_lookups() > before
        assert report.screener_trace == (
            ("connected-partition-cover", True, "every partition type is realized connectedly"),
        )

    @pytest.mark.parametrize("spec", ["edges:4:0-1,2-3", "edges:2:", "edges:3:0-1"])
    def test_disconnected_e_positive_graph_passes(self, spec):
        report = e_positivity(parse_graph_spec(spec))
        assert report.e_positive == YES
        assert report.screener_trace == (
            ("connected-partition-cover", True, "not applicable: the graph is disconnected"),
        )

    def test_disconnected_graph_is_still_decided_by_its_expansion(self):
        # The claw plus an isolated vertex: X = X(claw) e_1 keeps the
        # claw's negative e-coefficient.
        report = e_positivity(parse_graph_spec("edges:5:0-1,0-2,0-3"))
        assert report.e_positive == NO
        assert report.witness.coefficient < 0
        assert not report.failed_screeners


class TestSchurPositivity:
    def test_unbalanced_bipartition_is_decisive_at_any_size(self):
        report = schur_positivity(build_family("broom", 6, 3))
        assert report.schur_positive == NO
        assert "balanced-stable-bipartition" in report.failed_screeners

    def test_unbalanced_bipartition_decides_past_the_cap(self):
        # 18 vertices: no expansion runs, so the screener alone says "no".
        report = schur_positivity(build_family("broom", 14, 3))
        assert report.schur_positive == NO
        assert report.witness is None
        assert report.failed_screeners == ("balanced-stable-bipartition",)

    def test_small_broom_is_schur_positive(self):
        report = schur_positivity(build_family("broom", 4, 2))
        assert report.schur_positive == YES

    def test_targeted_coefficient_settles_large_brooms(self):
        report = schur_positivity(build_family("broom", 14, 2))
        assert report.schur_positive == NO
        assert report.witness.basis == "s"
        assert report.witness.partition == Partition((8, 8, 1))
        assert report.witness.coefficient == -1

    def test_zero_targeted_coefficient_stays_unknown(self):
        report = schur_positivity(build_family("broom", 12, 2))
        assert report.schur_positive == UNKNOWN

    def test_claw_schur_witness(self):
        report = schur_positivity(build_family("claw"))
        assert report.schur_positive == NO
        assert report.witness.partition == Partition((2, 2))
        assert report.witness.coefficient == -1


class TestOneExpansionPerGraph:
    """Both questions about one graph share its CSF expansion."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        calls = []
        for name, route in (
            ("enumerate_stable_partitions", "stable-m"),
            ("_tree_p", "tree-p"),
        ):
            original = getattr(cslab.csf, name)

            def counted(G, original=original, route=route):
                calls.append(route)
                return original(G)

            monkeypatch.setattr(cslab.csf, name, counted)
        cslab.csf._generic_csf.cache_clear()
        return calls

    def test_generic_graph_is_enumerated_once(self, expansions):
        G = build_family("cycle", 8)
        assert e_positivity(G).e_positive == YES
        assert schur_positivity(G).schur_positive == YES
        assert expansions == ["stable-m"]

    def test_forest_is_expanded_once_by_the_tree_dp(self, expansions):
        G = parse_graph_spec("dbroom:3,2,4")
        assert e_positivity(G).e_positive == NO
        assert schur_positivity(G).schur_positive == NO
        assert expansions == ["tree-p"]

    def test_spider_is_never_enumerated(self, expansions):
        G = parse_graph_spec("spider:6,3,2")
        assert e_positivity(G).e_positive == NO
        assert schur_positivity(G).schur_positive == YES
        assert "stable-m" not in expansions


class Materialised(Exception):
    pass


class TestPackedMinimum:
    """A verdict from a family recurrence, or from tree-p converted to e
    or s, decodes only its witness."""

    @pytest.fixture
    def materialiser(self, monkeypatch):
        def refuse(basis, n, layers, decode):
            raise Materialised(f"{len(layers)} packed {basis}-layers of degree {n}")

        monkeypatch.setattr(cslab.csf, "_decoded", refuse)
        monkeypatch.setattr(cslab.symfunc, "_decoded", refuse)

    @pytest.mark.parametrize(
        "spec, lam, coeff",
        [
            ("spider:36,2,1", (5, 4) + (3,) * 9 + (2, 2), -3336960),
            ("spider:34,4,1", (5,) * 7 + (3, 2), -86016),
            ("dbroom:2,25,2", (6, 5, 4, 4, 3, 2, 2, 2, 2), -458640),
        ],
    )
    def test_family_verdict_builds_no_function(self, materialiser, spec, lam, coeff):
        report = e_positivity(parse_graph_spec(spec))
        assert report.e_positive == NO
        assert report.witness.partition == Partition(lam)
        assert report.witness.coefficient == coeff

    @pytest.mark.parametrize(
        "spec, decide, witness",
        [
            ("dbroom:3,4,3", e_positivity, ((5, 3, 2, 1), -86)),
            ("dbroom:3,4,3", schur_positivity, ((6, 4, 1), -7)),
            ("star:4", schur_positivity, ((2, 2, 1), -1)),
            ("path:6", schur_positivity, None),
        ],
    )
    def test_forest_verdict_builds_no_function(self, materialiser, spec, decide, witness):
        report = decide(parse_graph_spec(spec))
        assert (report.e_positive or report.schur_positive) == (YES if witness is None else NO)
        if witness is not None:
            assert (report.witness.partition, report.witness.coefficient) == (Partition(witness[0]), witness[1])

    def test_full_expansions_still_materialise(self, materialiser):
        with pytest.raises(Materialised):
            compute_csf(parse_graph_spec("spider:6,3,2")).value
        with pytest.raises(Materialised):
            main(["csf", "--graph", "spider:6,3,2", "--basis", "e"])


class TestInternalContradictions:
    def test_screener_against_nonnegative_e_expansion(self, lying_screener):
        with pytest.raises(InternalContradiction, match="screener contradicts .*failed: planted"):
            e_positivity(parse_graph_spec("spider:3,2,1"))

    def test_balance_against_nonnegative_s_expansion(self, monkeypatch):
        monkeypatch.setattr(
            cslab.positivity, "balanced_stable_bipartition", lambda G: False
        )
        with pytest.raises(InternalContradiction, match="failed: balanced-stable-bipartition"):
            schur_positivity(build_family("path", 4))

    def test_sweep_records_an_error_row_and_goes_on(self, lying_screener):
        result = run_sweep("spider:a,2,1", "a", 2, 4)
        errors = {row.param: row.error for row in result.rows}
        assert errors[2] is None and errors[4] is None
        assert "screener contradicts" in errors[3]
        assert [row.contradiction for row in result.rows] == [False, True, False]
        assert result.e_positives == ()
        assert result.schur_positives == (2, 4)


class TestSweeps:
    def test_short_pendant_sweep(self):
        result = run_sweep("spider:a,2,1", "a", 2, 12)
        assert result.e_positives == (3, 6)
        for row in result.rows:
            assert row.error is None
            assert row.e_report is not None

    def test_parallel_run_is_identical(self):
        serial = run_sweep("spider:a,4,2", "a", 4, 12, jobs=1)
        parallel = run_sweep("spider:a,4,2", "a", 4, 12, jobs=2)
        assert serial == parallel

    def test_pool_is_no_larger_than_the_range(self, monkeypatch):
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        serial = run_sweep("spider:a,2,1", "a", 2, 3)
        assert run_sweep("spider:a,2,1", "a", 2, 3, jobs=5000) == serial
        assert pools == [2]
        run_sweep("spider:a,2,1", "a", 2, 2, jobs=8)
        assert pools == [2]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_rejected(self, jobs):
        with pytest.raises(BadSpec, match="--jobs"):
            run_sweep("spider:a,2,1", "a", 2, 3, jobs=jobs)

    def test_unmatched_variable_yields_error_rows(self):
        result = run_sweep("spider:a,2,1", "b", 2, 4)
        assert all(row.error is not None for row in result.rows)
        assert result.e_positives == ()

    def test_summaries_track_rows(self):
        good = run_sweep("spider:a,2,1", "a", 2, 7)
        assert good.e_positives == (3, 6)
        assert good.schur_positives == (2, 3, 4, 5, 6, 7)
        # Drop a=6 for an error row: both summaries follow the rows.
        error_row = SweepRow(6, None, None, error="no such instance")
        rows = good.rows[:4] + (error_row,) + good.rows[5:]
        mixed = SweepResult(good.family, good.variable, good.lower, good.upper, rows)
        assert mixed.e_positives == (3,)
        assert mixed.schur_positives == (2, 3, 4, 5, 7)


class TestConjectures:
    def test_two_leaf_twin_alias_and_consistency(self):
        check = check_conjecture("5.4", limit=3)
        assert check.conjecture == "two-leaf-twin"
        assert check.consistent
        assert len(check.instances) == 3

    def test_sporadic_head_default(self):
        check = check_conjecture("sporadic-head")
        assert check.consistent
        assert any("spider:20,4,1" in label for label, _, _ in check.instances)

    def test_inside_bounds_documents_the_omitted_clause(self):
        check = check_conjecture("schur-inside-bounds", limit=4)
        assert any("omitted" in note for note in check.notes)

    def test_outside_bounds_small(self):
        check = check_conjecture("schur-outside-bounds", limit=4)
        assert check.consistent
        assert check.instances

    def test_unknown_identifier(self):
        with pytest.raises(BadSpec):
            check_conjecture("9.9")
