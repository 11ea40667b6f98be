"""Tests for the benchmark's helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from benchlib import (  # noqa: E402
    answer_digest,
    reference_entry,
    reference_mismatches,
    self_times,
    tail_percentile,
    tally,
)
from cslab import PositivityReport, SweepRow, Witness, build_family, sort_to_partition  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference, sweep_row_answers  # noqa: E402


def test_tail_leaves_at_least_ten_calls_above():
    # The workload sizes: 86 census questions, 158 sweep calls, 36 CLI calls.
    assert tail_percentile(range(1, 87))[0] == 88
    assert tail_percentile(range(1, 159))[0] == 93
    assert tail_percentile(range(1, 37)) == (72, 26)
    for n in (11, 36, 86, 158, 1000):
        q, value = tail_percentile(range(n))
        assert sum(1 for x in range(n) if x > value) >= 10
        assert q == 99 or n - -(-(q + 1) * n // 100) < 10


def test_tail_needs_more_than_ten_calls():
    assert tail_percentile(range(10)) is None
    assert tail_percentile(range(11)) == (9, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (-1, 0.0, 10.0),  # root
        (0, 1.0, 4.0),  # child of root
        (1, 2.0, 3.0),  # grandchild: counted against the child, not the root
        (0, 5.0, 7.0),  # second child of root
        (-1, 11.0, 12.0),  # second root
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]


def test_tracer_links_nested_spans_to_their_parent():
    tracer = Tracer()
    tracer.question = 4
    result = tracer.call("outer", lambda: tracer.call("inner", lambda: 7) + 1)
    assert result == 8
    (outer, inner) = tracer.spans
    assert [outer[0], outer[1], outer[2]] == ["outer", -1, 4]
    assert [inner[0], inner[1], inner[2]] == ["inner", 0, 4]
    assert outer[3] <= inner[3] <= inner[4] <= outer[4]
    assert outer[5] and inner[5]


def test_digest_ignores_route_but_not_terms():
    answer = {"qid": "e|edges:3:0-1,1-2", "verdict": "expanded", "route": "edge-p",
              "basis": "e", "degree": 3, "terms": [{"partition": [3], "coeff": "3"}]}
    rerouted = dict(answer, route="tree-dp")
    changed = dict(answer, terms=[{"partition": [3], "coeff": "4"}])
    assert answer_digest(answer) == answer_digest(rerouted)
    assert answer_digest(answer) != answer_digest(changed)
    reference = {answer["qid"]: reference_entry(answer)}
    assert reference_mismatches([rerouted], reference) == []
    assert len(reference_mismatches([changed], reference)) == 1
    assert len(reference_mismatches([dict(answer, qid="s|other")], reference)) == 1


def test_unsettled_reference_answers_must_stay_unsettled():
    error = {"qid": "e|spider:28,1,1", "verdict": "error", "error": "shape size 31 exceeds the cap 30"}
    reference = {error["qid"]: reference_entry(error)}
    assert reference[error["qid"]] is None
    unknown = {"qid": error["qid"], "verdict": "unknown-at-cap", "witness": None}
    assert reference_mismatches([unknown], reference) == []
    settled = dict(unknown, verdict="yes")
    assert len(reference_mismatches([settled], reference)) == 1


def test_error_row_fails_both_questions():
    error_row = SweepRow(param=25, e_report=None, schur_report=None, error="shape size 31 exceeds the cap 30")
    answers = sweep_row_answers("dbroom:2,p,3", 25, error_row)
    assert [a["qid"] for a in answers] == ["e|dbroom:2,p,3=25", "s|dbroom:2,p,3=25"]
    assert tally(answers) == (2, 2, 0)

    G = build_family("spider", 4, 2, 1)
    e_report = PositivityReport(G, e_positive="no", witness=Witness("e", sort_to_partition([3, 2, 2]), -1))
    s_report = PositivityReport(G, schur_positive="unknown-at-cap")
    answers += sweep_row_answers("spider:a,2,1", 4, SweepRow(4, e_report, s_report))
    # Four questions: two failed in the error row, one settled "no", one unknown.
    assert tally(answers) == (4, 2, 1)


def test_workload_sizes():
    reference = load_reference()
    sizes = {name: len(cls(0, reference).questions) for name, cls in WORKLOADS.items()}
    assert sizes == {"dbroom-census": 86, "family-sweep": 158, "tree-expand": 36}


def test_benchmark_json_lists_the_metrics_the_code_reports():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_cslab_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-expand", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
