"""The named verification suites at reduced scale."""

import pytest

from cslab import SUITES, BadSpec, UnknownSuite, csf_via_edge_subsets, verify_suite


class TestVerifySuites:
    @pytest.mark.parametrize(
        "name,count",
        [
            ("route-equivalence", 8),
            ("triple-deletion", 10),
            ("specialization", 6),
            ("wolfe", 9),
            ("srht-inverse-kostka", 5),
        ],
    )
    def test_scaled_runs_pass(self, name, count):
        report = verify_suite(name, seed=3, count=count)
        assert report.suite == name
        assert report.seed == 3
        assert report.cases > 0
        assert report.passed
        assert report.failures == ()

    def test_screener_soundness_passes(self):
        report = verify_suite("screener-soundness")
        assert report.passed
        assert report.cases > 0

    def test_same_seed_gives_the_same_report(self):
        a = verify_suite("route-equivalence", seed=11, count=6)
        b = verify_suite("route-equivalence", seed=11, count=6)
        assert a == b

    def test_every_listed_suite_is_runnable(self):
        for name in SUITES:
            count = 2 if name not in ("screener-soundness",) else None
            report = verify_suite(name, seed=1, count=count)
            assert report.passed, name

    def test_route_equivalence_checks_the_tree_dp(self, monkeypatch):
        monkeypatch.setattr(
            "cslab.suites.csf_via_tree_dp", lambda G: csf_via_edge_subsets(G).scale(2)
        )
        report = verify_suite("route-equivalence", seed=3, count=4)
        assert not report.passed
        assert any("tree DP" in failure for failure in report.failures)

    def test_unknown_suite_is_rejected(self):
        with pytest.raises(UnknownSuite):
            verify_suite("no-such-suite")

    @pytest.mark.parametrize("count", [0, -5])
    def test_count_below_one_is_rejected(self, count):
        with pytest.raises(BadSpec, match="--count"):
            verify_suite("route-equivalence", seed=1, count=count)
