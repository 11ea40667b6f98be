"""Named verification suites: each re-derives a slice of the library by an
independent route and reports any mismatch with a minimal reproducer.

These are the same properties the test suite asserts, packaged for the
command line so a user can re-run them at chosen seeds and scales.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .csf import (
    csf_via_edge_subsets,
    csf_via_stable_partitions,
    csf_via_tree_dp,
    path_csf_e,
    triple_deletion,
    wolfe_path_coefficient,
)
from .errors import BadSpec, UnknownSuite
from .graphs import (
    Graph,
    chromatic_polynomial,
    random_graph,
    random_tree,
)
from .partitions import enumerate_partitions
from .positivity import NO, run_sweep
from .rimhook import inverse_kostka_matrix
from .symfunc import change_basis, kostka_number, specialize_ones

SUITES = (
    "route-equivalence",
    "triple-deletion",
    "specialization",
    "wolfe",
    "srht-inverse-kostka",
    "screener-soundness",
)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one verification suite run."""

    suite: str
    seed: int
    cases: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _graph_spec(G: Graph) -> str:
    edges = ",".join(f"{u}-{v}" for u, v in sorted(G.edges))
    return f"edges:{G.n}:{edges}"


def _route_equivalence(seed: int, count: int):
    rng = random.Random(seed)
    failures = []
    for case in range(count):
        n = rng.randrange(2, 10)
        if case % 2:
            G = random_tree(n, rng)
        else:
            G = random_graph(n, 0.4, rng)
        stable = csf_via_stable_partitions(G)
        edges = csf_via_edge_subsets(G)
        others = {"edge subsets": edges}
        if case % 2:
            tree = csf_via_tree_dp(G)
            others["the tree DP"] = tree
            if tree.terms != edges.terms:
                failures.append(
                    f"power-sum routes disagree on {_graph_spec(G)}: edge subsets gave "
                    f"{edges.terms_sorted()}, the tree DP gave {tree.terms_sorted()}"
                )
        # m compares the expansions; e and s also compare the direct
        # power-sum conversions with triangular peeling from m.
        for basis in ("m", "e", "s"):
            from_stable = change_basis(stable, basis)
            for name, f in others.items():
                converted = change_basis(f, basis)
                if from_stable.terms != converted.terms:
                    failures.append(
                        f"routes disagree in the {basis} basis on {_graph_spec(G)}: stable "
                        f"partitions gave {from_stable.terms_sorted()}, {name} gave "
                        f"{converted.terms_sorted()}"
                    )
    return count, failures


def _stable_triple(G: Graph):
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if (u, v) in G.edges:
                continue
            for w in range(v + 1, G.n):
                if (u, w) not in G.edges and (v, w) not in G.edges:
                    return u, v, w
    return None


def _triple_deletion(seed: int, count: int):
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < count:
        n = rng.randrange(7, 10)
        G = random_graph(n, 0.35, rng)
        triple = _stable_triple(G)
        if triple is None:
            continue
        done += 1
        u, v, w = triple

        def expand(subset):
            extra = {1: (u, v), 2: (v, w), 3: (w, u)}
            edges = set(G.edges) | {extra[j] for j in subset}
            return csf_via_stable_partitions(Graph(G.n, frozenset(edges)))

        lhs_a = expand({1, 2})
        rhs_a = expand({1}) + expand({2, 3}) - expand({3})
        if lhs_a.terms != rhs_a.terms:
            failures.append(
                f"two-edge identity fails on {_graph_spec(G)} with triple {triple}"
            )
        lhs_b = expand({1, 2, 3})
        rhs_b = expand({1, 2}) + expand({2, 3}) - expand({2})
        if lhs_b.terms != rhs_b.terms:
            failures.append(
                f"three-edge identity fails on {_graph_spec(G)} with triple {triple}"
            )
        for subset in ({1, 2}, {1, 2, 3}):
            via_op = triple_deletion(G, u, v, w, subset)
            direct = expand(subset)
            if via_op.terms != direct.terms:
                failures.append(
                    f"triple_deletion({subset}) disagrees with the direct route "
                    f"on {_graph_spec(G)} with triple {triple}"
                )
    return done, failures


def _specialization(seed: int, count: int):
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        n = rng.randrange(2, 11)
        G = random_tree(n, rng)
        f = csf_via_stable_partitions(G)
        for k in range(1, 6):
            expected = chromatic_polynomial(G, k)
            got = specialize_ones(f, k)
            if got != expected:
                failures.append(
                    f"specialization fails on {_graph_spec(G)} at {k} colors: "
                    f"{got} vs chromatic polynomial {expected}"
                )
    return count, failures


def _wolfe(max_degree: int):
    failures = []
    cases = 0
    for d in range(0, max_degree + 1):
        series = path_csf_e(d)
        for lam in enumerate_partitions(d):
            cases += 1
            closed = wolfe_path_coefficient(lam, d)
            recurrence = series.terms.get(lam, 0)
            if closed != recurrence:
                failures.append(
                    f"path coefficient mismatch at degree {d}, partition {tuple(lam)}: "
                    f"closed form {closed}, recurrence {recurrence}"
                )
    return cases, failures


def _srht_inverse_kostka(max_size: int):
    failures = []
    cases = 0
    for n in range(0, max_size + 1):
        parts, inverse = inverse_kostka_matrix(n)
        k = len(parts)
        kostka = [[kostka_number(parts[i], parts[j]) for j in range(k)] for i in range(k)]
        for left, right, label in ((kostka, inverse, "K * K^-1"), (inverse, kostka, "K^-1 * K")):
            for i in range(k):
                for j in range(k):
                    cases += 1
                    value = sum(left[i][t] * right[t][j] for t in range(k))
                    expected = 1 if i == j else 0
                    if value != expected:
                        failures.append(
                            f"{label} at size {n}, entry ({tuple(parts[i])}, {tuple(parts[j])}):"
                            f" got {value}, expected {expected}"
                        )
    return cases, failures


_SOUNDNESS_SWEEPS = (
    ("spider:a,2,1", "a", 2, 36),
    ("spider:a,4,1", "a", 4, 34),
    ("spider:a,8,1", "a", 8, 20),
    ("spider:a,4,2", "a", 4, 32),
    ("dbroom:2,p,2", "p", 1, 9),
)


def _screener_soundness():
    failures = []
    cases = 0
    for family, var, lo, hi in _SOUNDNESS_SWEEPS:
        sweep = run_sweep(family, var, lo, hi)
        for row in sweep.rows:
            report = row.e_report
            if report is None or not report.failed_screeners:
                continue
            cases += 1
            instance = family.replace(var, str(row.param))
            if report.e_positive != NO:
                failures.append(
                    f"{instance}: screeners {report.failed_screeners} failed but the"
                    f" verdict is {report.e_positive}"
                )
            elif report.witness is not None and report.witness.coefficient >= 0:
                failures.append(
                    f"{instance}: witness coefficient {report.witness.coefficient}"
                    " is not negative"
                )
            elif report.witness is None:
                failures.append(
                    f"{instance}: expansion was in reach but no negative witness"
                    " was recorded"
                )
    return cases, failures


def verify_suite(name: str, seed: int = 0, count: int | None = None) -> SuiteReport:
    """Run one named suite and report case count plus failures.

    ``count`` scales the randomized suites (instances) and the exhaustive
    ones (maximum degree or size); None picks the documented default.  A
    count below 1 is refused with BadSpec.
    """
    if count is not None and count < 1:
        raise BadSpec(f"the suite count (--count) must be at least 1, got {count}")
    if name == "route-equivalence":
        cases, failures = _route_equivalence(seed, count if count is not None else 20)
    elif name == "triple-deletion":
        cases, failures = _triple_deletion(seed, count if count is not None else 50)
    elif name == "specialization":
        cases, failures = _specialization(seed, count if count is not None else 30)
    elif name == "wolfe":
        cases, failures = _wolfe(count if count is not None else 12)
    elif name == "srht-inverse-kostka":
        cases, failures = _srht_inverse_kostka(count if count is not None else 6)
    elif name == "screener-soundness":
        cases, failures = _screener_soundness()
    else:
        raise UnknownSuite(f"unknown suite {name!r}; know {', '.join(SUITES)}")
    return SuiteReport(suite=name, seed=seed, cases=cases, failures=tuple(failures))
