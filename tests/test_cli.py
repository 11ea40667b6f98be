"""The command-line interface: output shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cslab.csf
import cslab.symfunc
from cslab import ROUTES, compute_csf, parse_graph_spec
from cslab.cli import _HANDLERS, _ROUTE_CHOICES, main
from cslab.symfunc import BASES, from_json_dict, to_json_dict


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestCsfVerb:
    def test_claw_elementary_expansion(self, capsys):
        code, out, _ = run_cli(["csf", "--graph", "claw", "--basis", "e"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"] == "e"
        terms = {tuple(t["partition"]): t["coeff"] for t in payload["terms"]}
        assert terms == {(4,): "4", (3, 1): "5", (2, 2): "-2", (2, 1, 1): "1"}

    def test_output_is_byte_stable(self, capsys):
        argv = ["csf", "--graph", "spider:3,2,1", "--basis", "s"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_pretty_renders_a_table(self, capsys):
        code, out, _ = run_cli(["csf", "--graph", "path:4", "--pretty"], capsys)
        assert code == 0
        assert "basis m, degree 4" in out
        assert "{" not in out

    def test_degree_cap_exits_three(self, capsys):
        code, _, err = run_cli(["csf", "--graph", "path:30", "--basis", "m"], capsys)
        assert code == 3
        assert "capped" in err

    def test_recurrence_past_the_byte_width_exits_three(self, capsys):
        code, out, err = run_cli(["csf", "--graph", "path:300", "--basis", "e"], capsys)
        assert code == 3
        assert "capped" in err and "255 vertices" in err
        assert out == ""

    def test_pretty_leaves_no_state_for_the_next_call(self, capsys):
        code, out, _ = run_cli(["csf", "--graph", "path:4", "--pretty"], capsys)
        assert code == 0 and "{" not in out
        code, out, _ = run_cli(["csf", "--graph", "path:4"], capsys)
        assert code == 0
        assert json.loads(out)["basis"] == "m"

    def test_route_choices_are_the_library_routes(self, capsys):
        assert _ROUTE_CHOICES == ("auto",) + ROUTES
        for route in ROUTES:
            code, out, _ = run_cli(["csf", "--graph", "path:5", "--route", route], capsys)
            assert code == 0
            assert json.loads(out)["route"] == route

    def test_auto_takes_the_tree_dp_past_stable_range(self, capsys):
        argv = ["csf", "--graph", "star:14", "--basis", "e"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        auto = json.loads(out)
        assert auto["route"] == "tree-p"
        code, out, _ = run_cli(argv + ["--route", "edge-p"], capsys)
        assert code == 0
        edges = json.loads(out)
        assert edges["route"] == "edge-p"
        assert auto["terms"] == edges["terms"]

    def test_tree_dp_keeps_the_vertex_cap(self, capsys):
        # The p target needs no conversion, yet the cap refuses 25 vertices
        # (24 edges) and admits them at --cap 25.
        for route in ("auto", "tree-p"):
            argv = ["csf", "--graph", "path:25", "--route", route, "--basis", "p"]
            code, out, err = run_cli(argv, capsys)
            assert code == 3 and out == ""
            assert "capped: 25 vertices exceed the cap 24" in err
            code, out, _ = run_cli(argv + ["--cap", "25"], capsys)
            assert code == 0
            assert json.loads(out)["route"] == "tree-p"

    @pytest.mark.parametrize("spec, route, limit", [
        ("cycle:25", "edge-p", "edge-subset route is capped at 24 edges, got 25"),
        ("cycle:17", "stable-m", "stable-partition enumeration is capped at 16 vertices, got 17"),
    ])
    def test_forced_routes_keep_their_own_limits_past_the_cap(self, capsys, spec, route, limit):
        argv = ["csf", "--graph", spec, "--route", route, "--cap", "30"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert f"capped: {limit}" in err

    def test_small_cap_refuses_the_tree_dp_in_its_own_basis(self, capsys):
        # p needs no conversion, but the cap still bounds the DP itself.
        argv = ["csf", "--graph", "claw", "--basis", "p", "--cap", "3"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert "capped: 4 vertices exceed the cap 3" in err

    def test_negative_cap_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            ["csf", "--graph", "claw", "--basis", "m", "--cap", "-3"], capsys
        )
        assert code == 1
        assert "--cap" in err

    def test_non_integer_cap_variable_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CSLAB_CAP", "abc")
        code, _, err = run_cli(["csf", "--graph", "claw", "--basis", "m"], capsys)
        assert code == 1
        assert "CSLAB_CAP" in err

    def test_out_of_memory_exits_three(self, capsys, monkeypatch):
        def out_of_memory(args):
            raise MemoryError

        monkeypatch.setitem(_HANDLERS, "csf", out_of_memory)
        code, out, err = run_cli(["csf", "--graph", "path:4"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("cslab: capped: out of memory")

    def test_bad_graph_spec_exits_one(self, capsys):
        code, _, err = run_cli(["csf", "--graph", "edges:2:0-5"], capsys)
        assert code == 1
        assert "error" in err


class TestCsfJson:
    """``csf`` prints its payload through ``symfunc._json_text``; json.dumps
    with indent=2 is the oracle it must equal byte for byte."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("basis", BASES)
    def test_csf_verb_prints_the_indented_payload(self, route, basis, capsys):
        code, out, _ = run_cli(["csf", "--graph", "path:5", "--route", route, "--basis", basis],
                               capsys)
        assert code == 0
        expected = compute_csf(parse_graph_spec("path:5"), route, basis)
        payload = {"graph": "path:5", "route": route, **to_json_dict(expected.value)}
        assert out == json.dumps(payload, indent=2) + "\n"
        assert from_json_dict(json.loads(out)) == expected.value

    @pytest.mark.parametrize("spec", ["edges:0:", "cycle:5", "dbroom:3,5,3"])
    def test_csf_verb_round_trips(self, spec, capsys):
        for basis in BASES:
            code, out, _ = run_cli(["csf", "--graph", spec, "--basis", basis], capsys)
            assert code == 0
            payload = json.loads(out)
            assert out == json.dumps(payload, indent=2) + "\n"
            assert from_json_dict(payload) == compute_csf(parse_graph_spec(spec), basis=basis).value

    def test_pretty_output_is_unchanged(self, capsys):
        code, out, _ = run_cli(["csf", "--graph", "path:4", "--basis", "e", "--pretty"], capsys)
        assert code == 0
        assert out == (
            "path:4 via family-recurrence\n"
            "basis e, degree 4\n"
            "  4    4\n"
            "  3,1  2\n"
            "  2,2  2\n"
        )


class TestCoeffVerbs:
    def test_elementary_coefficient(self, capsys):
        code, out, _ = run_cli(
            ["coeff", "--graph", "path:4", "--basis", "e", "--partition", "2,2"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["coeff"] == "2"

    @pytest.mark.parametrize("spec, basis, partition, coeff", [
        ("spider:10,5,3", "e", "7,6,6", "-101"),
        ("spider:10,5,3", "e", "6,6,4,3", "1233"),
        ("spider:10,5,3", "e", "16,1,1,1", "0"),
        ("dbroom:3,4,3", "e", "5,3,2,1", "-86"),
        ("dbroom:3,4,3", "s", "6,4,1", "-7"),
    ])
    def test_coefficient_decodes_no_key(self, capsys, spec, basis, partition, coeff):
        # The memoised expansion is cleared, so that the expansion is built
        # here; the decoders' memos count every call, through any module's
        # binding of them.
        def decodes():
            return [info.hits + info.misses for info in
                    (cslab.symfunc._decode.cache_info(), cslab.symfunc._beads_shape.cache_info())]

        cslab.csf._generic_csf.cache_clear()
        before = decodes()
        argv = ["coeff", "--graph", spec, "--basis", basis, "--partition", partition]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["coeff"] == coeff
        assert decodes() == before

    def test_wrong_size_partition_is_refused_before_expanding(self, capsys, monkeypatch):
        def no_expansion(*args, **kwargs):
            raise AssertionError("coeff expanded before checking the partition")

        monkeypatch.setattr("cslab.cli.compute_csf", no_expansion)
        argv = ["coeff", "--graph", "path:4", "--basis", "e", "--partition", "2,1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert "cslab: error: partition sums to 3 but the function has degree 4" in err

    def test_schur_coefficient_with_trace(self, capsys):
        code, out, _ = run_cli(
            ["schur-coeff", "--graph", "claw", "--partition", "2,2", "--trace"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coeff"] == "-1"
        rows = payload["trace"]["rows"]
        assert {tuple(r["content"]): (r["sign"], r["count"]) for r in rows} == {
            (1, 3): (-1, "1"),
            (2, 2): (1, "0"),
        }
        assert payload["trace"]["total"] == "-1"

    def test_trace_is_opt_in(self, capsys):
        _, out, _ = run_cli(
            ["schur-coeff", "--graph", "claw", "--partition", "2,2"], capsys
        )
        assert "trace" not in json.loads(out)

    def test_block_cap_exits_three(self, capsys):
        # Past 12 vertices a tabloid content is counted on its own, and a
        # content of 9 blocks is over the count's cap of 8.  On a complete
        # graph the contents counted before it fail at once.
        argv = ["schur-coeff", "--graph", "complete:14", "--partition", "2,2,2,1,1,1,1,1,1,1,1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert "cslab: capped: type has 9 blocks, cap is 8" in err

    def test_block_cap_exits_three_before_counting(self):
        # On a path, counting the contents that come before the first one of
        # 9 blocks took over a minute; every content is checked against the
        # cap before any is counted, so the refusal comes at once.
        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = ["schur-coeff", "--graph", "path:14", "--partition", "2,2,2,1,1,1,1,1,1,1,1"]
        done = subprocess.run(
            [sys.executable, "-m", "cslab.cli", *argv], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=5,
        )
        assert done.returncode == 3 and done.stdout == ""
        assert "cslab: capped: type has 9 blocks, cap is 8" in done.stderr


class TestPositivityVerb:
    def test_both_verdicts_reported(self, capsys):
        code, out, _ = run_cli(["positivity", "--graph", "claw"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["e"]["verdict"] == "no"
        assert payload["s"]["verdict"] == "no"
        assert payload["e"]["witness"]["partition"] == [2, 2]

    def test_expect_positive_turns_no_into_exit_two(self, capsys):
        code, _, _ = run_cli(
            ["positivity", "--graph", "claw", "--expect", "positive"], capsys
        )
        assert code == 2

    def test_expect_positive_passes_on_positive_graph(self, capsys):
        code, _, _ = run_cli(
            ["positivity", "--graph", "path:8", "--expect", "positive"], capsys
        )
        assert code == 0

    @pytest.mark.parametrize("spec", ["edges:4:0-1,2-3", "edges:2:", "edges:3:0-1"])
    def test_disconnected_e_positive_graph_exits_zero(self, capsys, spec):
        code, out, err = run_cli(
            ["positivity", "--graph", spec, "--basis", "e", "--expect", "positive"], capsys
        )
        assert code == 0, err
        assert json.loads(out)["e"]["verdict"] == "yes"

    def test_internal_contradiction_exits_four(self, capsys, lying_screener):
        code, out, err = run_cli(["positivity", "--graph", "spider:3,2,1"], capsys)
        assert code == 4
        assert out == ""
        assert "internal contradiction" in err

    def test_singular_peel_exits_four(self, capsys, rows_without_diagonal):
        code, out, err = run_cli(
            ["csf", "--graph", "cycle:5", "--route", "stable-m", "--basis", "e"], capsys
        )
        assert code == 4
        assert out == ""
        assert "internal contradiction" in err

    def test_closed_stdout_exits_141_quietly(self):
        # The read end is closed before the child starts, so its first write
        # fails with EPIPE whatever the timing.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "cslab.cli", "csf", "--graph", "dbroom:3,5,3",
                 "--basis", "s"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert done.stderr == b""

    def test_import_loads_no_process_pool(self):
        # Only a sweep with more than one worker needs the pool, so a plain
        # import must not pay for loading multiprocessing.
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys, cslab, cslab.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_import_loads_no_dataclasses_or_inspect(self):
        # Every verb pays for the import, and these modules cost more than a
        # small answer.  Only modules the import itself adds count, so
        # whatever site preloads does not.
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys; before = set(sys.modules); import cslab, cslab.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
            " & (set(sys.modules) - before)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_import_loads_no_fractions(self):
        # fractions loads decimal and numbers; only a division, a parse or a
        # type check of a non-int coefficient needs it, and none runs here.
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = "import sys, cslab.cli; print('fractions' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_unknown_at_cap_exits_three(self, capsys):
        code, out, _ = run_cli(
            ["positivity", "--graph", "spider:9,2,1", "--basis", "s",
             "--expect", "positive"],
            capsys,
        )
        assert code == 3
        assert json.loads(out)["s"]["verdict"] == "unknown-at-cap"

    def test_cap_flag_resolves_the_unknown(self, capsys):
        code, out, _ = run_cli(
            ["positivity", "--graph", "spider:9,2,1", "--basis", "s",
             "--cap", "13", "--expect", "positive"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["s"]["verdict"] == "yes"

    def test_cap_environment_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CSLAB_CAP", "13")
        code, out, _ = run_cli(
            ["positivity", "--graph", "spider:9,2,1", "--basis", "s"], capsys
        )
        assert code == 0
        assert json.loads(out)["s"]["verdict"] == "yes"

    def test_screener_trace_is_opt_in(self, capsys):
        _, out, _ = run_cli(["positivity", "--graph", "spider:4,4,2"], capsys)
        payload = json.loads(out)
        assert "screeners" not in payload["e"]
        _, out, _ = run_cli(
            ["positivity", "--graph", "spider:4,4,2", "--trace"], capsys
        )
        payload = json.loads(out)
        assert any(s["name"] == "longest-leg-floor" for s in payload["e"]["screeners"])


class TestSweepVerb:
    def test_csv_has_the_documented_columns_and_summary(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "spider:a,2,1", "--range", "a=2..8",
             "--out", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "params,e_verdict,e_witness_partition,e_witness_coeff,"
            "s_verdict,s_witness_partition,s_witness_coeff,screeners_failed"
        )
        assert len(lines) == 1 + 7 + 1
        assert lines[-1] == "positive: 3,6"

    def test_json_carries_rows_and_summary(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "spider:a,2,1", "--range", "a=2..8"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["e_positive"] == [3, 6]
        assert payload["summary"] == "positive: 3,6"
        assert len(payload["rows"]) == 7
        row3 = next(r for r in payload["rows"] if r["param"] == 3)
        assert row3["e_verdict"] == "yes"

    def test_jobs_flag_is_deterministic(self, capsys):
        argv = ["sweep", "--family", "spider:a,4,2", "--range", "a=4..10"]
        _, serial, _ = run_cli(argv, capsys)
        _, parallel, _ = run_cli(argv + ["--jobs", "2"], capsys)
        assert serial == parallel

    @pytest.mark.parametrize("out, jobs", [("json", "1"), ("csv", "1"), ("json", "2")])
    def test_contradiction_row_exits_four_after_the_whole_sweep(
        self, capsys, out, jobs, lying_screener
    ):
        argv = ["sweep", "--family", "spider:a,2,1", "--range", "a=2..4", "--out", out,
                "--jobs", jobs]
        code, printed, err = run_cli(argv, capsys)
        assert code == 4
        assert err.count("cslab: internal contradiction: screener contradicts") == 1
        if out == "csv":
            assert printed.splitlines()[1:] == [
                '2,no,"3,3",-3,yes,,,longest-leg-floor;modular-residue-budget;'
                "pendant-mod3-bounds;even-pair-quadratic;connected-partition-cover",
                "3,error,,,error,,,",
                '4,no,"3,3,2",-1,yes,,,pendant-mod3-bounds;even-pair-quadratic',
                "positive: ",
            ]
        else:
            rows = json.loads(printed)["rows"]
            assert [row["e_verdict"] for row in rows] == ["no", "error", "no"]
            assert "screener contradicts" in rows[1]["error"]
        # The same sweep with the expect flag still reports the contradiction.
        code, again, _ = run_cli(argv + ["--expect", "positive"], capsys)
        assert (code, again) == (4, printed)

    def test_an_error_row_that_is_no_contradiction_exits_zero(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--family", "spider:a,2,1", "--range", "a=0..1"], capsys
        )
        assert code == 0 and err == ""
        rows = json.loads(out)["rows"]
        assert [row["e_verdict"] for row in rows] == ["error", "yes"]
        assert "legs must be positive" in rows[0]["error"]

    def test_jobs_below_one_exits_one(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--family", "spider:a,2,1", "--range", "a=2..3", "--jobs", "0"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "--jobs" in err

    def test_bad_range_exits_one(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--family", "spider:a,2,1", "--range", "2..30"], capsys
        )
        assert code == 1
        assert "range" in err


class TestConjectureVerb:
    def test_alias_and_limit(self, capsys):
        code, out, _ = run_cli(
            ["conjecture", "--id", "5.4", "--max-p", "2"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["conjecture"] == "two-leaf-twin"
        assert payload["consistent"] is True
        assert len(payload["instances"]) == 2

    def test_inside_bounds_notes_the_gap(self, capsys):
        _, out, _ = run_cli(
            ["conjecture", "--id", "schur-inside-bounds", "--limit", "4"], capsys
        )
        payload = json.loads(out)
        assert any("omitted" in note for note in payload["notes"])

    def test_cap_environment_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CSLAB_CAP", "6")
        code, out, _ = run_cli(
            ["conjecture", "--id", "two-leaf-twin", "--limit", "3"], capsys
        )
        assert code == 0
        statuses = [i["status"] for i in json.loads(out)["instances"]]
        assert statuses == ["consistent", "skipped", "skipped"]

    def test_unknown_id_exits_one(self, capsys):
        code, _, err = run_cli(["conjecture", "--id", "42"], capsys)
        assert code == 1
        assert "error" in err


class TestVerifyVerb:
    def test_suite_passes_and_reports(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "wolfe", "--count", "8"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["cases"] > 0
        assert payload["failures"] == []

    def test_seeded_random_suite(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "triple-deletion", "--seed", "7",
             "--count", "10"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_unknown_suite_exits_one(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "nope"], capsys)
        assert code == 1
        assert "unknown suite" in err

    def test_count_below_one_exits_one(self, capsys):
        code, out, err = run_cli(
            ["verify", "--suite", "route-equivalence", "--count", "-5"], capsys
        )
        assert code == 1
        assert out == ""
        assert "--count" in err


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(["csf"], capsys)
        assert code == 1
        assert "--graph" in err

    def test_unknown_verb(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 1

    def test_csv_output_is_sweep_only(self, capsys):
        code, _, _ = run_cli(
            ["csf", "--graph", "claw", "--out", "csv"], capsys
        )
        assert code == 1
