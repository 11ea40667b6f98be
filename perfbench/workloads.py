"""The benchmark's three workloads.

Each workload builds its questions from a seed, asks them one timed call
at a time, turns the raw results into per-question answers, and checks
those answers.  Functions are looked up on their cslab module at call
time, so a tracer installed after set-up sees every call.  See README.md
for why these three were chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback

from cslab import cli, graphs, positivity, symfunc

from benchlib import reference_mismatches

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: Vertex cap for full expansions in positivity questions (the library default).
CAP = 12

CENSUS_SCHUR_POSITIVE = {(2, 1, 3), (2, 5, 3), (3, 1, 3), (3, 1, 4), (4, 1, 4), (4, 1, 5), (5, 1, 5)}

SWEEP_FAMILIES = (
    ("spider:a,2,1", "a", 2, 36),
    ("spider:a,4,1", "a", 4, 34),
    ("spider:a,4,2", "a", 4, 32),
    ("spider:a,1,1", "a", 2, 30),
    ("dbroom:2,p,2", "p", 1, 9),
    ("dbroom:2,p,3", "p", 1, 25),
)
SWEEP_E_POSITIVE = {"spider:a,2,1": {3, 6}, "spider:a,4,1": {5, 8, 10, 12, 13, 15, 20}}

TREE_SIZES = (14, 15, 16)
TREES_PER_SIZE = 6
TREE_BASES = ("e", "s")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def census_specs() -> list:
    """Every dbroom:L,P,R with 2 <= L <= R, R >= 3 and at most 12 vertices."""
    return [
        f"dbroom:{left},{middle},{right}"
        for left in range(2, 12)
        for right in range(max(left, 3), 12)
        for middle in range(1, 12)
        if left + middle + right + 1 <= 12
    ]


def _error(qid: str) -> dict:
    return {"qid": qid, "verdict": "error", "error": traceback.format_exc(limit=-3)}


def report_answer(qid: str, verdict: str, report) -> dict:
    witness = report.witness
    return {
        "qid": qid,
        "verdict": verdict,
        "witness": None if witness is None else {
            "basis": witness.basis,
            "partition": list(witness.partition),
            "coeff": str(witness.coefficient),
        },
        "failed_screeners": list(report.failed_screeners),
    }


def sweep_row_answers(family: str, value: int, row) -> list:
    """The two per-question answers of one sweep row; an error row fails
    both of its questions."""
    spec = f"{family}={value}"
    if row.error is not None:
        return [
            {"qid": f"{kind}|{spec}", "verdict": "error", "error": row.error} for kind in ("e", "s")
        ]
    return [
        report_answer(f"e|{spec}", row.e_report.e_positive, row.e_report),
        report_answer(f"s|{spec}", row.schur_report.schur_positive, row.schur_report),
    ]


class Workload:
    """Questions built from a seed; ``ask`` is the only timed part."""

    name = ""

    def __init__(self, seed: int, reference: dict) -> None:
        self.reference = reference[self.name]
        self.questions = self.build(random.Random(seed), reference)

    def build(self, rng: random.Random, reference: dict) -> list:
        raise NotImplementedError

    def ask(self, question):
        raise NotImplementedError

    def answers(self, question, raw) -> list:
        raise NotImplementedError

    def gate(self, answers) -> list:
        raise NotImplementedError

    def check(self, answers) -> list:
        """Every problem with the answers; empty when all are correct."""
        return self.gate(answers) + reference_mismatches(answers, self.reference)


class Census(Workload):
    """e- and Schur-positivity of every small double broom."""

    name = "dbroom-census"

    def build(self, rng, reference):
        questions = [
            (kind, spec, graphs.parse_graph_spec(spec))
            for spec in census_specs()
            for kind in ("e", "s")
        ]
        rng.shuffle(questions)
        return questions

    @property
    def graph_count(self) -> int:
        return len({spec for _, spec, _ in self.questions})

    def ask(self, question):
        kind, spec, G = question
        try:
            if kind == "e":
                return positivity.e_positivity(G, cap=CAP)
            return positivity.schur_positivity(G, cap=CAP)
        except Exception:
            return _error(f"{kind}|{spec}")

    def answers(self, question, raw):
        kind, spec, _ = question
        if isinstance(raw, dict):
            return [raw]
        verdict = raw.e_positive if kind == "e" else raw.schur_positive
        return [report_answer(f"{kind}|{spec}", verdict, raw)]

    def gate(self, answers):
        problems = []
        schur_yes = set()
        for a in answers:
            kind, spec = a["qid"].split("|")
            if kind == "s" and a["verdict"] == "yes":
                schur_yes.add(tuple(int(x) for x in spec.partition(":")[2].split(",")))
            if kind == "e" and not (
                a["verdict"] == "no" and a["witness"] and int(a["witness"]["coeff"]) < 0
            ):
                problems.append(f"{a['qid']}: expected 'no' with a negative witness")
        if schur_yes != CENSUS_SCHUR_POSITIVE:
            problems.append(f"Schur-positive double brooms are {sorted(schur_yes)}")
        return problems


class FamilySweep(Workload):
    """One single-instance run_sweep call per family member."""

    name = "family-sweep"

    def build(self, rng, reference):
        # Largest instance first: it fills the shared path_csf_e memo in
        # one call.  Ascending order would spread that cost over the
        # instances of whichever spider family the seed puts first, and
        # make the latency percentiles depend on the seed.
        order = list(SWEEP_FAMILIES)
        rng.shuffle(order)
        return [
            (family, variable, value)
            for family, variable, lower, upper in order
            for value in range(upper, lower - 1, -1)
        ]

    @property
    def graph_count(self) -> int:
        return len(self.questions)

    def ask(self, question):
        family, variable, value = question
        try:
            return positivity.run_sweep(family, variable, value, value, cap=CAP, jobs=1)
        except Exception:
            return _error(f"sweep|{family}={value}")

    def answers(self, question, raw):
        family, _, value = question
        if isinstance(raw, dict):
            return [dict(raw, qid=f"{kind}|{family}={value}") for kind in ("e", "s")]
        (row,) = raw.rows
        return sweep_row_answers(family, value, row)

    def gate(self, answers):
        problems = []
        e_positive: dict = {family: set() for family in SWEEP_E_POSITIVE}
        for a in answers:
            kind, spec = a["qid"].split("|")
            family, _, value = spec.partition("=")
            if kind == "e" and a["verdict"] == "yes" and family in e_positive:
                e_positive[family].add(int(value))
            if a.get("failed_screeners") and a["verdict"] != "no":
                problems.append(f"{a['qid']}: a screener failed but the verdict is {a['verdict']}")
        for family, expected in SWEEP_E_POSITIVE.items():
            if e_positive[family] != expected:
                problems.append(f"{family}: e-positive at {sorted(e_positive[family])}")
        return problems


class TreeExpand(Workload):
    """`cslab csf` in-process on seeded random trees past stable-m's range."""

    name = "tree-expand"

    def build(self, rng, reference):
        pool = reference["tree_pool"]
        specs = [spec for n in TREE_SIZES for spec in rng.sample(pool[str(n)], TREES_PER_SIZE)]
        questions = [(basis, spec) for spec in specs for basis in TREE_BASES]
        rng.shuffle(questions)
        return questions

    @property
    def graph_count(self) -> int:
        return len({spec for _, spec in self.questions})

    def ask(self, question):
        basis, spec = question
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["csf", "--graph", spec, "--basis", basis])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            return _error(f"{basis}|{spec}")
        return code, out.getvalue()

    def answers(self, question, raw):
        basis, spec = question
        qid = f"{basis}|{spec}"
        if isinstance(raw, dict):
            return [raw]
        code, text = raw
        if code != 0:
            return [{"qid": qid, "verdict": "error", "error": f"exit code {code}"}]
        return [{"qid": qid, "verdict": "expanded", **json.loads(text)}]

    def gate(self, answers):
        problems = []
        for a in answers:
            if a["verdict"] != "expanded":
                continue
            f = symfunc.from_json_dict(a)
            G = graphs.parse_graph_spec(a["graph"])
            for k in (1, 2, 3):
                if symfunc.specialize_ones(f, k) != graphs.chromatic_polynomial(G, k):
                    problems.append(f"{a['qid']}: X(1^{k}) differs from the chromatic polynomial")
        return problems


WORKLOADS = {w.name: w for w in (Census, FamilySweep, TreeExpand)}
