"""cslab benchmark: one workload, cold interpreters, checked answers.

    python3 perfbench/run.py --workload dbroom-census --seed 1 --seconds 40 --trace 0

Run from the repository root.  Set-up is timed in several fresh
interpreters and reported as the median.  Every time is reported at the
reference speed of speed.py, which takes out the drift in speed of a
shared host; raw times are printed beside them.  With --trace 0 the workload
then runs in one fresh interpreter per pass, passes repeating while
another fits in --seconds (at least one), and the end-to-end metrics are
medians over passes.  With --trace 1 it runs one untraced and one traced
pass and reports the per-layer metrics of the traced one; the difference
in wall time between the two is the tracing overhead.  The last line of
stdout is one JSON object; earlier lines name every metric with its unit.
Exits 1 when a pass fails or gives a wrong answer, 2 when cslab's source
is missing.  Details of each run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

from benchlib import tail_percentile  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("dbroom-census", "family-sweep", "tree-expand")

#: (name, unit, better) of every end-to-end metric.  fail_ratio is printed
#: beside them and carried by "failed"/"attempted", but is no metric of its
#: own: it is 0 on two workloads, so no relative bound can apply to it.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("answer_p50_ms", "ms", "lower"),
    ("answer_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("settled_ratio", "ratio", "higher"),
)

SETUP_SAMPLES = 7
#: The whole run must end well inside the three minutes a run may take.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def git_rev() -> str:
    """The checked-out commit, read from .git without running git;
    "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, deadline: float, *flags) -> dict:
    """Run one worker to completion and return its JSON result, with
    ``raw_setup_s`` (spawn to inputs built) and ``duration_s`` added."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *flags,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next pass")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - start
    result["duration_s"] = time.monotonic() - start
    return result


def end_to_end(setups, passes) -> tuple:
    """(metrics, notes) over set-up samples and passes; see README.md for
    definitions.  Times are at reference speed (speed.py); the notes keep
    the raw medians."""
    tails = [tail_percentile(p["latencies_ms"]) for p in passes]
    metrics = {
        "setup_s": statistics.median(s["raw_setup_s"] * s["speed"] for s in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "answer_p50_ms": statistics.median(statistics.median(p["latencies_ms"]) for p in passes),
        "answer_tail_ms": statistics.median(value for _, value in tails),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "settled_ratio": sum(p["settled"] for p in passes) / sum(p["asked"] for p in passes),
    }
    notes = {
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "fail_ratio": f"{passes[0]['failed']}/{passes[0]['asked']} per pass",
        "answer_tail_percentile": f"p{tails[0][0]} of {len(passes[0]['latencies_ms'])} calls",
        "passes": len(passes),
    }
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "cslab", "__init__.py")):
        print(f"perfbench: no cslab source under {SRC}; run from a cslab checkout", file=sys.stderr)
        return 2
    # Byte-compile first, so that no timed set-up pays for compilation.
    if not compileall.compile_dir(os.path.join(SRC, "cslab"), quiet=1):
        print("perfbench: cslab does not compile", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setups = [spawn(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES)]
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{tag}.json")
            passes = [spawn(args, deadline), spawn(args, deadline, "--trace", "1", "--spans-out", spans_path)]
        else:
            passes = []
            measured_from = time.monotonic()
            while True:
                passes.append(spawn(args, deadline))
                elapsed = time.monotonic() - measured_from
                if elapsed + passes[-1]["duration_s"] > args.seconds:
                    break
                if time.monotonic() + passes[-1]["duration_s"] > deadline:
                    break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics, notes = end_to_end(setups, passes)
    problems = [msg for p in passes for msg in p["problems"]]
    if len({tuple(p["digests"]) for p in passes}) > 1:
        problems.append("passes gave different answers")
    if args.trace:
        layer = dict(passes[1]["layer"])
        layer["trace.overhead_s"] = passes[1]["wall_s"] - passes[0]["wall_s"]
        reported, units = layer, {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        reported, units = metrics, {name: unit for name, unit, _ in END_TO_END}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "loadavg": os.getloadavg(),
        **notes,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "reported": reported, "problems": problems,
                   "errors": [e for p in passes for e in p["errors"]], "setups": setups,
                   "passes": passes}, fh, indent=1)

    print("# " + json.dumps(meta))
    for name, unit in units.items():
        print(f"{name} = {reported[name]:.6g} {unit}")
    print(f"fail_ratio = {notes['fail_ratio']}; answer_tail_ms is the {notes['answer_tail_percentile']}")
    print(f"raw (unscaled) medians: setup {notes['raw_setup_s']:.6g} s, wall {notes['raw_wall_s']:.6g} s")
    for msg in problems[:20]:
        print(f"WRONG: {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["asked"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": reported[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
