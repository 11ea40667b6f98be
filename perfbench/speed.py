"""Machine-speed probe: reports times at a fixed reference speed.

On a shared host the speed of a core flips between two states about
1.85x apart, about a hundred times a second, and the share of time spent
in the slow state drifts over seconds to minutes as other tenants come
and go.  CPU time moves with wall time, so raw times of identical runs
spread far wider than any useful bound.

The worker therefore runs this probe before the first question and after
every question.  Each question's latency is multiplied by PROBE_REF_S
over the mean probe time within WINDOW_S of the question.  That window
averages out the fast flips and follows the slow drift, and the product
is the time the question takes on the reference machine at full speed.

The probe is the benchmark's own code and calls nothing in cslab, so no
change to cslab can move it.  Its kernel has the shape of cslab's hot
loops (recursion over a mutable list, tuple sorting, dict tallies), so it
slows down under contention the way they do.  Raw times are kept beside
the corrected ones in every result file.
"""

from __future__ import annotations

from time import perf_counter

#: Mean kernel time on an unloaded core of the reference machine
#: (2-vCPU Intel Xeon VM at 2.0 GHz, CPython 3.11.7).
PROBE_REF_S = 0.00060

#: Kernel runs averaged by one probe, after one run that refills caches.
PROBE_RUNS = 5

#: Probes within this many seconds of a question set its speed factor.
WINDOW_S = 1.0


def _kernel() -> dict:
    """Tally the block-size types of all 877 set partitions of 7 items."""
    tallies: dict = {}
    sizes: list = []

    def place(i: int) -> None:
        if i == 7:
            key = tuple(sorted(sizes, reverse=True))
            tallies[key] = tallies.get(key, 0) + 1
            return
        for b in range(len(sizes)):
            sizes[b] += 1
            place(i + 1)
            sizes[b] -= 1
        sizes.append(1)
        place(i + 1)
        sizes.pop()

    place(0)
    return tallies


def probe(runs: int = PROBE_RUNS) -> tuple:
    """(midpoint, mean kernel time) of one probe, in perf_counter seconds."""
    _kernel()
    start = perf_counter()
    for _ in range(runs):
        _kernel()
    end = perf_counter()
    return (start + end) / 2, (end - start) / runs


def factors(probes, windows) -> list:
    """Speed factor of each question, given the probes as (time, value)
    and the questions as (start, end) perf_counter intervals."""
    out = []
    for start, end in windows:
        near = [v for t, v in probes if start - WINDOW_S <= t <= end + WINDOW_S]
        out.append(PROBE_REF_S * len(near) / sum(near))
    return out
