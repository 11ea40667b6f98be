"""Command-line front end.

Verbs
    csf         expand a graph's chromatic symmetric function in a basis
    coeff       extract one coefficient from that expansion
    schur-coeff one Schur coefficient by signed tabloid counting
    positivity  e- and Schur-positivity verdicts with witnesses
    sweep       a one-parameter family sweep with per-instance verdicts
    conjecture  instance-level consistency check of a named conjecture
    verify      a named cross-validation suite at a chosen seed and scale

Output is JSON by default (deterministic field order, coefficients as
decimal strings so arbitrary precision survives any consumer), CSV for
sweeps via --out csv, or an aligned table via --pretty.  Exit codes:
0 success, 1 usage error or suite failure, 2 a "no" verdict under
--expect positive, 3 a size cap was hit, memory ran out, or "unknown-at-cap"
under --expect positive, 4 an internal contradiction (a bug, not bad input),
141 stdout was closed before the output was written (e.g. by ``| head``).
--cap counts vertices in every verb; only a family recurrence's e-terms are
uncapped.  The CSLAB_CAP environment variable supplies --cap when the flag
is absent; a cap that is not a nonnegative integer is a usage error.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import functools
import io
import json
import os
import re
import sys

from .csf import ROUTES, compute_csf
from .errors import DegreeMismatch, InternalContradiction, TooLarge
from .graphs import parse_graph_spec
from .partitions import parse_partition
from .positivity import (
    DEFAULT_CONJECTURE_CAP,
    DEFAULT_VERTEX_CAP,
    NO,
    UNKNOWN,
    check_conjecture,
    e_positivity,
    run_sweep,
    schur_positivity,
)
from .rimhook import schur_coefficient
from .suites import verify_suite
from .symfunc import DEFAULT_DEGREE_CAP, _json_text, to_json_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_CAPPED = 3
EXIT_INTERNAL = 4
#: 128 + SIGPIPE, as a shell reports a process killed by a closed pipe; never
#: 0, so truncated output cannot pass for a complete answer.
EXIT_BROKEN_PIPE = 141

_RANGE = re.compile(r"^([A-Za-z]\w*)=(-?\d+)\.\.(-?\d+)$")

_ROUTE_CHOICES = ("auto",) + ROUTES


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; reserve 2 for verdicts and use 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves no state in it."""
    parser = _Parser(prog="cslab", description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)

    p_csf = verbs.add_parser("csf", help="expand a graph's CSF in a chosen basis")
    p_csf.add_argument("--graph", required=True, help="graph spec, e.g. spider:4,2,1")
    p_csf.add_argument("--basis", choices=("m", "e", "p", "s"), default="m")
    p_csf.add_argument("--route", choices=_ROUTE_CHOICES, default="auto")
    cap_help = f"vertex cap, except on family-recurrence e-terms (default {DEFAULT_DEGREE_CAP})"
    p_csf.add_argument("--cap", type=int, default=None, help=cap_help)
    p_csf.add_argument("--pretty", action="store_true")

    p_coeff = verbs.add_parser("coeff", help="one coefficient of the CSF in a chosen basis")
    p_coeff.add_argument("--graph", required=True)
    p_coeff.add_argument("--basis", choices=("m", "e", "p", "s"), default="e")
    p_coeff.add_argument("--partition", required=True, help="comma-separated parts, e.g. 4,2,1")
    p_coeff.add_argument("--route", choices=_ROUTE_CHOICES, default="auto")
    p_coeff.add_argument("--cap", type=int, default=None, help=cap_help)

    p_schur = verbs.add_parser("schur-coeff",
                               help="one Schur coefficient by signed tabloid counting")
    p_schur.add_argument("--graph", required=True)
    p_schur.add_argument("--partition", required=True)
    p_schur.add_argument("--trace", action="store_true", help="include per-tabloid rows")

    p_pos = verbs.add_parser("positivity", help="e- and Schur-positivity verdicts for one graph")
    p_pos.add_argument("--graph", required=True)
    p_pos.add_argument("--basis", choices=("e", "s", "both"), default="both")
    p_pos.add_argument("--cap", type=int, default=None,
                       help=f"vertex cap for full expansions (default {DEFAULT_VERTEX_CAP})")
    p_pos.add_argument("--expect", choices=("positive",), default=None)
    p_pos.add_argument("--trace", action="store_true", help="include the full screener trace")
    p_pos.add_argument("--pretty", action="store_true")

    p_sweep = verbs.add_parser("sweep", help="positivity verdicts across a one-parameter family")
    p_sweep.add_argument("--family", required=True, help="template, e.g. spider:a,2,1")
    p_sweep.add_argument("--range", required=True, help="VAR=a..b, e.g. a=2..30")
    p_sweep.add_argument("--cap", type=int, default=None,
                         help=f"vertex cap for full expansions (default {DEFAULT_VERTEX_CAP})")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", choices=("json", "csv"), default="json")
    p_sweep.add_argument("--expect", choices=("positive",), default=None)
    p_sweep.add_argument("--pretty", action="store_true")

    p_conj = verbs.add_parser("conjecture", help="check a named conjecture on small instances")
    p_conj.add_argument("--id", required=True, dest="conjecture_id",
                        help="conjecture name or numeric alias")
    p_conj.add_argument("--limit", "--max-p", type=int, default=None, dest="limit",
                        help="how far to push the family parameter")
    p_conj.add_argument("--cap", type=int, default=None,
                        help="vertex cap for full expansions; larger Schur instances are "
                        f"skipped (default {DEFAULT_CONJECTURE_CAP})")
    p_conj.add_argument("--expect", choices=("positive",), default=None)

    p_verify = verbs.add_parser("verify", help="run a named cross-validation suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=None,
                          help="instances for randomized suites, size bound for exhaustive ones")

    return parser


def _cap_or(args, default: int) -> int:
    """The --cap flag, else CSLAB_CAP, else ``default``; a cap that is not
    a nonnegative integer is a usage error naming where it came from."""
    if getattr(args, "cap", None) is not None:
        source, text = "--cap", str(args.cap)
    else:
        text = os.environ.get("CSLAB_CAP")
        if text is None:
            return default
        source = "CSLAB_CAP"
    try:
        cap = int(text)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"{source} must be a nonnegative integer, got {text!r}") from None
    return cap


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _partition_str(lam) -> str:
    return ",".join(str(part) for part in lam)


def _witness_json(witness):
    if witness is None:
        return None
    return {
        "basis": witness.basis,
        "partition": list(witness.partition),
        "coeff": str(witness.coefficient),
    }


def _report_json(report, kind: str, trace: bool) -> dict:
    verdict = report.e_positive if kind == "e" else report.schur_positive
    out = {
        "verdict": verdict,
        "witness": _witness_json(report.witness),
        "failed_screeners": list(report.failed_screeners),
    }
    if trace:
        out["screeners"] = [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in report.screener_trace
        ]
    return out


def _pretty_terms(payload: dict) -> None:
    width = max((len(_partition_str(t["partition"])) for t in payload["terms"]), default=1)
    print(f"basis {payload['basis']}, degree {payload['degree']}")
    for term in payload["terms"]:
        print(f"  {_partition_str(term['partition']).ljust(width)}  {term['coeff']}")


def _cmd_csf(args) -> int:
    cap = _cap_or(args, DEFAULT_DEGREE_CAP)
    G = parse_graph_spec(args.graph)
    result = compute_csf(G, args.route, args.basis, cap=cap)
    if args.pretty:
        print(f"{args.graph} via {result.route}")
        _pretty_terms(to_json_dict(result.value))
    else:
        print(_json_text({"graph": args.graph, "route": result.route}, result.value))
    return EXIT_OK


def _cmd_coeff(args) -> int:
    cap = _cap_or(args, DEFAULT_DEGREE_CAP)
    G = parse_graph_spec(args.graph)
    lam = parse_partition(args.partition)
    if lam.n != G.n:
        raise DegreeMismatch(f"partition sums to {lam.n} but the function has degree {G.n}")
    value = compute_csf(G, args.route, args.basis, cap=cap).coefficient(lam)
    _print_json({
        "graph": args.graph,
        "basis": args.basis,
        "partition": list(lam),
        "coeff": str(value),
    })
    return EXIT_OK


def _cmd_schur_coeff(args) -> int:
    G = parse_graph_spec(args.graph)
    lam = parse_partition(args.partition)
    value, trace = schur_coefficient(G, lam)
    payload = {
        "graph": args.graph,
        "partition": list(lam),
        "coeff": str(value),
    }
    if args.trace:
        payload["trace"] = {
            "rows": [
                {"content": list(content), "sign": sign, "count": str(count)}
                for content, sign, count in trace.tabloids
            ],
            "total": str(trace.total),
        }
    _print_json(payload)
    return EXIT_OK


def _expect_exit(verdicts) -> int:
    if any(v == NO for v in verdicts):
        return EXIT_NEGATIVE
    if any(v == UNKNOWN for v in verdicts):
        return EXIT_CAPPED
    return EXIT_OK


def _cmd_positivity(args) -> int:
    G = parse_graph_spec(args.graph)
    cap = _cap_or(args, DEFAULT_VERTEX_CAP)
    payload: dict = {"graph": args.graph}
    verdicts = []
    if args.basis in ("e", "both"):
        report = e_positivity(G, cap=cap)
        payload["e"] = _report_json(report, "e", args.trace)
        verdicts.append(report.e_positive)
    if args.basis in ("s", "both"):
        report = schur_positivity(G, cap=cap)
        payload["s"] = _report_json(report, "s", args.trace)
        verdicts.append(report.schur_positive)
    if args.pretty:
        for key in ("e", "s"):
            if key not in payload:
                continue
            block = payload[key]
            line = f"{key}-positive: {block['verdict']}"
            if block["witness"] is not None:
                w = block["witness"]
                line += (f"  (witness [{w['basis']}_"
                         f"{_partition_str(w['partition'])}] = {w['coeff']})")
            if block["failed_screeners"]:
                line += f"  screeners failed: {', '.join(block['failed_screeners'])}"
            print(line)
    else:
        _print_json(payload)
    return _expect_exit(verdicts) if args.expect else EXIT_OK


def _parse_range(text: str):
    match = _RANGE.match(text)
    if match is None:
        raise ValueError(f"range must look like a=2..30, got {text!r}")
    return match.group(1), int(match.group(2)), int(match.group(3))


def _sweep_row(row) -> dict:
    """One sweep row's fields as the JSON output prints them; CSV, --pretty
    and --expect read the same fields.  An error row's verdicts read
    "error"."""
    fields = {"param": row.param}
    for key, report in (("e", row.e_report), ("s", row.schur_report)):
        witness = None if report is None else report.witness
        # Each report answers one question, so its other verdict is None.
        fields[f"{key}_verdict"] = (
            "error" if report is None else report.e_positive or report.schur_positive
        )
        fields[f"{key}_witness_partition"] = (
            "" if witness is None else _partition_str(witness.partition)
        )
        fields[f"{key}_witness_coeff"] = "" if witness is None else str(witness.coefficient)
    fields["screeners_failed"] = list(row.failed_screeners)
    fields["error"] = row.error
    return fields


def _cmd_sweep(args) -> int:
    variable, lower, upper = _parse_range(args.range)
    cap = _cap_or(args, DEFAULT_VERTEX_CAP)
    result = run_sweep(args.family, variable, lower, upper, cap=cap, jobs=args.jobs)
    rows = [_sweep_row(row) for row in result.rows]
    summary = "positive: " + ",".join(str(p) for p in result.e_positives)
    if args.out == "csv":
        buffer = io.StringIO()
        writer = csv_module.writer(buffer, lineterminator="\n")
        # CSV has the first eight fields; its header names the first "params".
        writer.writerow(["params", *list(rows[0])[1:8]])
        for fields in rows:
            *cells, screeners = list(fields.values())[:8]
            writer.writerow([*cells, ";".join(screeners)])
        sys.stdout.write(buffer.getvalue())
        print(summary)
    elif args.pretty:
        table = [("param", "e", "s", "screeners failed")] + [
            (str(f["param"]), f["e_verdict"], f["s_verdict"], ";".join(f["screeners_failed"]))
            for f in rows
        ]
        widths = [max(map(len, column)) for column in zip(*table)]
        for line in table:
            print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
        print(summary)
    else:
        _print_json({
            "family": result.family,
            "variable": result.variable,
            "lower": result.lower,
            "upper": result.upper,
            "rows": rows,
            "e_positive": list(result.e_positives),
            "schur_positive": list(result.schur_positives),
            "summary": summary,
        })
    contradictions = [row.error for row in result.rows if row.contradiction]
    for error in contradictions:
        print(f"cslab: internal contradiction: {error}", file=sys.stderr)
    if contradictions:
        return EXIT_INTERNAL
    if args.expect:
        return _expect_exit([f[key] for f in rows for key in ("e_verdict", "s_verdict")])
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    check = check_conjecture(
        args.conjecture_id, limit=args.limit, cap=_cap_or(args, DEFAULT_CONJECTURE_CAP)
    )
    _print_json({
        "conjecture": check.conjecture,
        "consistent": check.consistent,
        "instances": [
            {"instance": label, "status": status, "detail": detail}
            for label, status, detail in check.instances
        ],
        "counterexamples": list(check.counterexamples),
        "notes": list(check.notes),
    })
    if args.expect and not check.consistent:
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_suite(args.suite, seed=args.seed, count=args.count)
    _print_json({
        "suite": report.suite,
        "seed": report.seed,
        "cases": report.cases,
        "passed": report.passed,
        "failures": list(report.failures),
    })
    if not report.passed:
        for failure in report.failures:
            print(f"reproducer: {failure}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


_HANDLERS = {
    "csf": _cmd_csf,
    "coeff": _cmd_coeff,
    "schur-coeff": _cmd_schur_coeff,
    "positivity": _cmd_positivity,
    "sweep": _cmd_sweep,
    "conjecture": _cmd_conjecture,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.verb](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away; point stdout at devnull so that the flush at
        # interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except TooLarge as exc:
        print(f"cslab: capped: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except MemoryError:
        # Memory is a cap too: the question was too large to finish, which
        # is neither bad input nor a bug.
        print("cslab: capped: out of memory before the answer was complete", file=sys.stderr)
        return EXIT_CAPPED
    except InternalContradiction as exc:
        print(f"cslab: internal contradiction: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"cslab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
