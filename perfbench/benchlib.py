"""Pure helpers shared by the benchmark's parent and worker processes.

Nothing here imports cslab, so the helpers are testable on their own.
"""

from __future__ import annotations

import hashlib
import json

#: A tail percentile must leave at least this many calls above it, so that
#: the figure rests on more than one or two slow calls.
TAIL_MIN_ABOVE = 10

#: Answer fields a digest leaves out.  ``route`` names how an answer was
#: computed, not what it is, and the route planner is expected to change;
#: error text and the list of failed screeners may be reworded or extended
#: without the answer changing.
DIGEST_IGNORES = ("route", "error", "failed_screeners")

#: Verdicts that settle a question: a proven yes/no or a full expansion.
SETTLED = ("yes", "no", "expanded")


def tail_percentile(values):
    """(q, value) for the highest whole percentile q whose nearest-rank
    value leaves at least TAIL_MIN_ABOVE calls ranked above it, or None
    for too few calls."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = -(-q * n // 100)
        if n - rank >= TAIL_MIN_ABOVE:
            return q, ordered[rank - 1]
    return None


def self_times(spans):
    """Self time of each span: its duration minus the time its direct
    children cover.  ``spans`` holds (parent_index, start, end) triples,
    each parent listed before its children; parent -1 marks a root."""
    child_time = [0.0] * len(spans)
    for parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end) in enumerate(spans)]


def answer_digest(answer: dict) -> str:
    """SHA-256 of an answer's content, with DIGEST_IGNORES left out."""
    content = {k: v for k, v in answer.items() if k not in DIGEST_IGNORES}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def reference_entry(answer: dict):
    """What the reference file records for one answer: the digest of a
    settled answer, None for an unsettled one."""
    return answer_digest(answer) if answer["verdict"] in SETTLED else None


def reference_mismatches(answers, reference: dict) -> list:
    """Answers that disagree with the recorded reference.

    A settled reference answer must come back settled with the same digest.
    An unsettled one (unknown-at-cap or an error) must stay unsettled; it
    may move between unknown-at-cap and error, but nothing can check a
    verdict the reference never had.
    """
    problems = []
    for answer in answers:
        qid = answer["qid"]
        if qid not in reference:
            problems.append(f"{qid}: no reference answer")
        elif reference_entry(answer) != reference[qid]:
            problems.append(f"{qid}: {answer['verdict']} differs from the reference")
    return problems


def tally(answers) -> tuple:
    """(asked, failed, settled) over per-question answers.  A question
    fails when it raised, sat in an error row, or exited non-zero; all of
    those carry the verdict "error"."""
    failed = sum(1 for a in answers if a["verdict"] == "error")
    settled = sum(1 for a in answers if a["verdict"] in SETTLED)
    return len(answers), failed, settled
