"""One pass of one workload, in a fresh interpreter.

Started by run.py, never imported.  Every pass is its own process, so
cslab's lru_cache memos start empty, as they do for a CLI user.  The
pass prints one JSON object: the monotonic time at which cslab was
imported and the inputs were built (CLOCK_MONOTONIC is shared by every
process on Linux, so the parent can subtract its spawn time), and, unless
--setup-only, per-question latencies raw and at reference speed (see
speed.py), the answers' check results and the peak RSS.  The wall time
of a pass is the sum of its question latencies, which leaves out the
speed probes run between questions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: Set-up has a single probe, so it averages more kernel runs.
SETUP_PROBE_RUNS = 30


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    import cslab  # noqa: F401  (the whole package, as a CLI user loads it)

    from benchlib import answer_digest, tally
    from speed import PROBE_REF_S, factors, probe
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload](args.seed, load_reference())
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": PROBE_REF_S / probe(SETUP_PROBE_RUNS)[1]}))
        return 0

    tracer = None
    ask = workload.ask
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        ask = lambda q: tracer.call("question", workload.ask, q)  # noqa: E731

    raws = []
    windows = []
    probes = [probe()]
    for i, question in enumerate(workload.questions):
        if tracer is not None:
            tracer.question = i
        start = time.perf_counter()
        raws.append(ask(question))
        windows.append((start, time.perf_counter()))
        probes.append(probe())
    latencies = [end - start for start, end in windows]
    speed = factors(probes, windows)
    scaled = [x * f for x, f in zip(latencies, speed)]

    layer = None
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        layer = layer_metrics(tracer.spans, workload.graph_count, speed)
        if args.spans_out:
            tracer.write(args.spans_out)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    answers = [a for q, raw in zip(workload.questions, raws) for a in workload.answers(q, raw)]
    asked, failed, settled = tally(answers)
    print(json.dumps({
        "ready": ready,
        "wall_s": sum(scaled),
        "latencies_ms": [x * 1000 for x in scaled],
        "raw_wall_s": sum(latencies),
        "raw_latencies_ms": [x * 1000 for x in latencies],
        "peak_rss_mb": peak_rss_mb,
        "asked": asked,
        "failed": failed,
        "settled": settled,
        "problems": workload.check(answers),
        "digests": sorted(answer_digest(a) for a in answers),
        "errors": [a["error"] for a in answers if a["verdict"] == "error"],
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
