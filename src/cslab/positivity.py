"""Positivity verdicts, necessary-condition screeners, and family sweeps.

A symmetric function is positive in a basis when every coefficient of its
expansion there is nonnegative.  For chromatic symmetric functions a
handful of proven necessary conditions — arithmetic facts about spider
legs, connected partitions, and balanced bipartitions — rule out
positivity without expanding anything.  The screeners here implement
those conditions exactly (integer comparisons only, squared forms instead
of square roots); expansion is the last resort and the one route that also
produces a negative-coefficient witness.

Verdicts are three-valued: "yes" and "no" are proven, "unknown-at-cap"
means the instance exceeded the configured expansion caps and no screener
settled it.  Sweeps and conjecture checks never silently truncate — out
of reach instances are reported as skipped.
"""

from __future__ import annotations

from .csf import compute_csf
from .errors import (
    BadParity,
    BadSpec,
    InternalContradiction,
    NotBipartite,
    NotConnected,
    TooLarge,
)
from .graphs import (
    Graph,
    _double_broom_shape,
    balanced_stable_bipartition,
    connected_components,
    has_connected_partition,
    parse_graph_spec,
    spider_legs,
)
from .partitions import (
    Partition,
    _Record,
    enumerate_partitions,
    numerical_semigroup_gap,
    sort_to_partition,
)
from .rimhook import schur_coefficient
from .symfunc import _SHAPES

YES = "yes"
NO = "no"
UNKNOWN = "unknown-at-cap"

DEFAULT_VERTEX_CAP = 12

#: Vertex cap for conjecture checks, whose instances run a little larger.
DEFAULT_CONJECTURE_CAP = 14

SCREENER_NAMES = (
    "longest-leg-floor",
    "leg-count-ceiling",
    "modular-residue-budget",
    "odd-pair-forces-sum",
    "two-odd-legs-coefficient",
    "pendant-mod3-bounds",
    "pendant-square-bounds",
    "even-pair-quadratic",
    "two-residues-mod-three",
    "head-sizes-blocked",
    "pendant-two-upper",
    "long-divisible-leg-floor",
)


class Witness(_Record):
    """A negative coefficient certifying a "no" verdict."""

    basis: str
    partition: Partition
    coefficient: int


class PositivityReport(_Record):
    """Outcome of one positivity question for one graph.

    Verdicts are "yes", "no", or "unknown-at-cap"; a verdict the operation
    did not address stays None.  Expansion-backed "no" verdicts carry a
    minimal-coefficient witness; screener-backed ones may not (the failed
    screener appears in the trace instead).
    """

    graph: Graph
    e_positive: str | None = None
    schur_positive: str | None = None
    witness: Witness | None = None
    screener_trace: tuple = ()

    @property
    def failed_screeners(self) -> tuple:
        return tuple(name for name, passed, _ in self.screener_trace if not passed)


def lemma_2odds_coefficient(legs) -> int:
    """Closed form for one targeted e-coefficient of a spider with exactly
    two odd legs.

    Writing the two odd legs as 2k+1 and the even legs as 2k', the
    coefficient of e_{(3, 2^K)} (K the sum of all k's) in the spider's CSF
    equals 4*(sum of odd-leg k's - sum of even-leg k's) + 2d - 1 with d
    the number of legs.  Negative values certify non-e-positivity.
    """
    legs = Partition(legs)
    odd = [p for p in legs if p % 2]
    even = [p for p in legs if p % 2 == 0]
    if len(odd) != 2:
        raise BadParity(f"need exactly two odd legs, got {len(odd)} in {tuple(legs)}")
    return 4 * (sum(k // 2 for k in odd) - sum(k // 2 for k in even)) + 2 * legs.length - 1


def _check_modular_budget(legs: Partition, n: int):
    for m in range(2, n + 1):
        residues = [p % m for p in legs]
        budget = 1 + sum(residues)
        if budget >= 2 * m:
            return False, f"modulus {m}: residue budget {budget} >= {2 * m}"
        q, r = divmod(n, m)
        if budget >= m and not any(res >= r for res in residues):
            return False, f"modulus {m}: budget {budget} >= {m} but no leg residue reaches {r}"
    return True, f"all moduli 2..{n} within budget"


def screen_spider(legs) -> tuple:
    """Run every applicable arithmetic necessary condition for the
    e-positivity of the spider with the given legs.

    Returns a trace of (name, passed, detail) triples covering all twelve
    screeners; conditions whose hypotheses the legs do not meet pass with
    a "not applicable" detail.  Any failure certifies that the spider is
    not e-positive, without expanding its CSF.
    """
    legs = Partition(legs)
    if legs.length < 3:
        raise BadSpec(f"a spider needs at least 3 legs, got {tuple(legs)}")
    n = legs.n + 1
    d = legs.length
    trace = []

    def add(name, verdict):
        trace.append((name, verdict[0], verdict[1]))

    add(
        "longest-leg-floor",
        (legs[0] >= n // 2, f"longest leg {legs[0]} vs floor({n}/2) = {n // 2}"),
    )
    add(
        "leg-count-ceiling",
        (2 ** (d - 1) < n, f"2^{d - 1} = {2 ** (d - 1)} vs vertex count {n}"),
    )
    add("modular-residue-budget", _check_modular_budget(legs, n))

    if d == 3 and legs[1] % 2 and legs[2] % 2:
        add(
            "odd-pair-forces-sum",
            (
                legs[0] == legs[1] + legs[2],
                f"two shorter legs odd: longest {legs[0]} vs {legs[1]} + {legs[2]}",
            ),
        )
    else:
        add("odd-pair-forces-sum", (True, "not applicable: needs 3 legs with both shorter legs odd"))

    if sum(1 for p in legs if p % 2) == 2:
        value = lemma_2odds_coefficient(legs)
        shape = sort_to_partition([3] + [2] * ((n - 3) // 2))
        add(
            "two-odd-legs-coefficient",
            (value >= 0, f"closed-form [e_{tuple(shape)}] = {value}"),
        )
    else:
        add("two-odd-legs-coefficient", (True, "not applicable: needs exactly two odd legs"))

    pendant_one = d == 3 and legs[2] == 1 and legs[1] >= 2 and legs[1] % 2 == 0
    a, b = legs[0], legs[1]
    if pendant_one and b % 3 == 2:
        ok = (a % 3 == 0 and a <= 2 * b + 2) or (a % 3 == 1 and a <= 2 * b - 3)
        add(
            "pendant-mod3-bounds",
            (ok, f"a = {a} (mod 3 -> {a % 3}) against bounds 2b+2 = {2 * b + 2}, 2b-3 = {2 * b - 3}"),
        )
    else:
        add("pendant-mod3-bounds", (True, "not applicable: needs legs (a, even b = 2 mod 3, 1)"))

    if pendant_one and b % 3 != 2:
        ok = a <= b * b - 1 or a == b * b + b
        add(
            "pendant-square-bounds",
            (ok, f"a = {a} against b^2-1 = {b * b - 1} and the sporadic b^2+b = {b * b + b}"),
        )
    else:
        add("pendant-square-bounds", (True, "not applicable: needs legs (a, even b != 2 mod 3, 1)"))

    if pendant_one and a % 2 == 0:
        q_value = a * a - (2 * b + 1) * a + b * b - b + 1
        add(
            "even-pair-quadratic",
            (q_value > 0, f"a^2 - (2b+1)a + b^2 - b + 1 = {q_value}"),
        )
    else:
        add("even-pair-quadratic", (True, "not applicable: needs legs (even a, even b, 1)"))

    pendant_two = d == 3 and legs[2] == 2
    if pendant_two:
        ra, rb = a % 3, b % 3
        add(
            "two-residues-mod-three",
            ((ra, rb) == (0, 1) or rb == 0, f"leg residues mod 3 are ({ra}, {rb})"),
        )
        blocked = not numerical_semigroup_gap(b + 1, n)
        add(
            "head-sizes-blocked",
            (
                blocked,
                f"vertex count {n} {'is not' if blocked else 'is'} a sum of parts {b + 1} and {b + 2}",
            ),
        )
        if (ra, rb) == (0, 1):
            add("pendant-two-upper", (a <= 2 * b + 4, f"a = {a} vs 2b+4 = {2 * b + 4}"))
        else:
            add("pendant-two-upper", (True, "not applicable: needs leg residues (0, 1) mod 3"))
        if a >= b >= 12 and b % 3 == 0:
            if a % 3 == 0:
                ok, note = a >= 3 * b + 3, f"a = {a} vs 3b+3 = {3 * b + 3}"
            elif a % 3 == 1:
                lhs, rhs = 4 * a - 2 * b - 9, 12 * b * b - 180 * b + 565
                ok = lhs >= 0 and lhs * lhs >= rhs
                note = f"(4a-2b-9)^2 = {lhs * lhs if lhs >= 0 else lhs} vs {rhs}"
            else:
                lhs, rhs = 6 * a - 3 * b - 2, 27 * b * b - 54 * b + 112
                ok = lhs >= 0 and lhs * lhs >= rhs
                note = f"(6a-3b-2)^2 = {lhs * lhs if lhs >= 0 else lhs} vs {rhs}"
            add("long-divisible-leg-floor", (ok, note))
        else:
            add(
                "long-divisible-leg-floor",
                (True, "not applicable: needs legs (a, b, 2) with a >= b >= 12 and 3 | b"),
            )
    else:
        for name in ("two-residues-mod-three", "head-sizes-blocked", "pendant-two-upper", "long-divisible-leg-floor"):
            add(name, (True, "not applicable: needs legs (a, b, 2)"))

    return tuple(trace)


def _connected_cover_trace(G: Graph):
    """An e-positive connected graph has a connected partition of every
    type (Wolfgang); name the first type missing.  A tree reads its types
    from its tree-p terms, where distinct edge subsets are distinct
    connected partitions and none cancel, so it realizes every type when
    it has p(n) terms, and only otherwise looks the types up in order;
    other graphs are searched.  Returns None when out of reach."""
    if G.n > DEFAULT_VERTEX_CAP:
        return None
    if len(connected_components(G)) > 1:
        return ("connected-partition-cover", True, "not applicable: the graph is disconnected")
    tree = compute_csf(G, basis="p") if G.edge_count == G.n - 1 else None
    if not tree or tree._term_count() < _SHAPES.count(G.n):
        for lam in enumerate_partitions(G.n):
            if not (tree.coefficient(lam) if tree else has_connected_partition(G, lam)):
                return (
                    "connected-partition-cover",
                    False,
                    f"no connected partition of type {tuple(lam)}",
                )
    return ("connected-partition-cover", True, "every partition type is realized connectedly")


def _decide(G: Graph, basis: str, trace: tuple, cap: int, candidates) -> tuple:
    """The one order of decisions behind both positivity questions; returns
    (verdict, witness).

    When ``compute_csf`` has the full expansion in ``basis`` in reach of
    ``cap``, it decides: a negative minimum is the witness of "no", and a
    nonnegative one beside a failed screener is an internal contradiction.
    Out of reach, the first negative value among the lazily computed
    (partition, value) ``candidates`` is the witness of "no"; failing
    that, a failed screener alone proves "no", and otherwise the question
    is unknown at the cap.
    """
    failed = [name for name, passed, _ in trace if not passed]
    try:
        expansion = compute_csf(G, "auto", basis, cap=cap)
    except TooLarge:
        pass
    else:
        lam, coeff = expansion.min_coefficient()
        if coeff < 0:
            return NO, Witness(basis, lam, coeff)
        if failed:
            raise InternalContradiction(
                f"screener contradicts a nonnegative {basis}-expansion on "
                f"{G.label or G} (failed: {', '.join(failed)}): "
                "one of the two is implemented wrongly"
            )
        return YES, None
    for lam, value in candidates:
        if value < 0:
            return NO, Witness(basis, lam, value)
    return (NO if failed else UNKNOWN), None


def e_positivity(G: Graph, cap: int = DEFAULT_VERTEX_CAP) -> PositivityReport:
    """Decide e-positivity: spider screeners and the connected-partition
    cover, then a full e-expansion when one is in reach.

    The expansion comes from ``compute_csf`` in the e basis: by whatever
    route it picks up to ``cap`` vertices, and above that only when a
    family recurrence applies (a path, a three-leg spider, or a
    two-leaf/two-leaf odd double broom), whose minimum is read from its
    packed terms.  Out of reach, a spider with exactly two odd legs still
    gets the closed-form coefficient of ``lemma_2odds_coefficient`` as a
    witness when it is negative.
    """
    trace = []
    candidates = ()
    legs = spider_legs(G)
    if legs is not None:
        trace.extend(screen_spider(legs))
        if sum(p % 2 for p in legs) == 2:
            shape = sort_to_partition([3] + [2] * ((G.n - 3) // 2))
            candidates = ((shape, lemma_2odds_coefficient(legs)),)
    cover = _connected_cover_trace(G)
    if cover is not None:
        trace.append(cover)
    trace = tuple(trace)
    verdict, witness = _decide(G, "e", trace, cap, candidates)
    return PositivityReport(G, e_positive=verdict, witness=witness, screener_trace=trace)


def _balance_trace(G: Graph):
    try:
        balanced = balanced_stable_bipartition(G)
    except (NotBipartite, NotConnected) as exc:
        return ("balanced-stable-bipartition", True, f"not applicable: {exc}")
    return (
        "balanced-stable-bipartition",
        balanced,
        "class sizes differ by at most one" if balanced else "class sizes differ by two or more",
    )


def _targeted_coefficients(G: Graph):
    """Yield (shape, coefficient) for the specific Schur shapes known to go
    negative first in the broom and double-broom families, each computed by
    the tabloid rule only when asked for; used beyond the full-expansion
    cap."""
    legs = spider_legs(G)
    broom = legs is not None and legs.length == 3 and legs[1] == legs[2] == 1
    if broom and legs[0] >= 4 and legs[0] % 2 == 0:
        p = legs[0] // 2
        lam = Partition((p + 1, p + 1, 1))
    else:
        shape = _double_broom_shape(G)
        if shape is None or sorted((shape[0], shape[2])) != [2, 3] or shape[1] % 2 == 0:
            return
        p = (shape[1] + 1) // 2
        lam = Partition((p + 3, p + 1, 1))
    yield lam, schur_coefficient(G, lam)[0]


def schur_positivity(G: Graph, cap: int = DEFAULT_VERTEX_CAP) -> PositivityReport:
    """Decide Schur positivity: balance screener, then a full s-expansion
    up to the cap, then targeted coefficients for the broom families.

    Beyond the cap only "no" can be proven (a negative targeted
    coefficient or an unbalanced bipartition); everything else reports
    unknown-at-cap.
    """
    trace = (_balance_trace(G),)
    verdict, witness = _decide(G, "s", trace, cap, _targeted_coefficients(G))
    return PositivityReport(G, schur_positive=verdict, witness=witness, screener_trace=trace)


class SweepRow(_Record):
    """One sweep instance: the parameter value, both reports, any error
    that kept the instance from completing, and whether that error is an
    internal contradiction (a bug, not a limit)."""

    param: int
    e_report: PositivityReport | None
    schur_report: PositivityReport | None
    error: str | None = None
    contradiction: bool = False

    @property
    def failed_screeners(self) -> tuple:
        names: list = []
        for report in (self.e_report, self.schur_report):
            if report is not None:
                names.extend(n for n in report.failed_screeners if n not in names)
        return tuple(names)


class SweepResult(_Record):
    """A family sweep: per-instance rows plus the sets of parameter values
    with proven-positive verdicts, derived from the rows."""

    family: str
    variable: str
    lower: int
    upper: int
    rows: tuple

    @property
    def e_positives(self) -> tuple:
        return tuple(
            row.param
            for row in self.rows
            if row.e_report is not None and row.e_report.e_positive == YES
        )

    @property
    def schur_positives(self) -> tuple:
        return tuple(
            row.param
            for row in self.rows
            if row.schur_report is not None and row.schur_report.schur_positive == YES
        )


def _instantiate_family(family: str, variable: str, value: int) -> Graph:
    pieces = family.split(":")
    if len(pieces) != 2:
        raise BadSpec(f"family template must look like 'spider:a,2,1', got {family!r}")
    kind, params = pieces
    substituted = [
        str(value) if token.strip() == variable else token.strip()
        for token in params.split(",")
    ]
    if variable not in [token.strip() for token in params.split(",")]:
        raise BadSpec(f"variable {variable!r} does not occur in family {family!r}")
    return parse_graph_spec(f"{kind}:{','.join(substituted)}")


def _sweep_instance(task) -> SweepRow:
    family, variable, value, cap = task
    try:
        G = _instantiate_family(family, variable, value)
        e_report = e_positivity(G, cap=cap)
        s_report = schur_positivity(G, cap=cap)
        return SweepRow(value, e_report, s_report)
    except InternalContradiction as exc:
        return SweepRow(value, None, None, error=str(exc), contradiction=True)
    except ValueError as exc:
        return SweepRow(value, None, None, error=str(exc))


def run_sweep(
    family: str,
    variable: str,
    lower: int,
    upper: int,
    cap: int = DEFAULT_VERTEX_CAP,
    jobs: int = 1,
) -> SweepResult:
    """Sweep a one-variable family template over an inclusive range.

    Each instance gets both positivity reports; instance errors are
    recorded on the row and the sweep continues.  Rows are merged in
    parameter order regardless of ``jobs``.  No more worker processes are
    started than there are instances, since the pool starts all of them
    at its first task.
    """
    if upper < lower:
        raise BadSpec(f"empty sweep range {lower}..{upper}")
    if jobs < 1:
        raise BadSpec(f"the worker count (--jobs) must be at least 1, got {jobs}")
    tasks = [(family, variable, value, cap) for value in range(lower, upper + 1)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_sweep_instance, tasks))
    else:
        rows = tuple(_sweep_instance(task) for task in tasks)
    return SweepResult(family=family, variable=variable, lower=lower, upper=upper, rows=rows)


class ConjectureCheck(_Record):
    """Instance-level verification of a conjecture: never a proof, only
    consistency on the instances actually checked."""

    conjecture: str
    instances: tuple
    counterexamples: tuple
    notes: tuple = ()

    @property
    def consistent(self) -> bool:
        return not self.counterexamples


CONJECTURES = ("sporadic-head", "schur-outside-bounds", "schur-inside-bounds", "two-leaf-twin")

_CONJECTURE_ALIASES = {
    "3.5": "sporadic-head",
    "3.6": "schur-outside-bounds",
    "3.7": "schur-inside-bounds",
    "5.4": "two-leaf-twin",
}


def _max_even_pendant_gap(b: int) -> int:
    """Largest even a with a <= b + (1 + sqrt(8b-3))/2, integer-exactly."""
    a = b if b % 2 == 0 else b + 1
    while (2 * (a + 2) - 2 * b - 1) ** 2 < 8 * b - 3 or 2 * (a + 2) - 2 * b - 1 < 0:
        a += 2
    return a


def check_conjecture(
    conj_id: str, limit: int | None = None, cap: int = DEFAULT_CONJECTURE_CAP
) -> ConjectureCheck:
    """Verify a conjecture on the instances within reach.

    Identifiers (aliases in parentheses):
      sporadic-head (3.5)        — S(b^2+b, b, 1) e-positive for even b not
                                   2 mod 3; ``limit`` bounds b, default 4.
      schur-outside-bounds (3.6) — pendant-leg spiders past the e-positive
                                   bounds are Schur positive; ``limit``
                                   bounds b, default 8.
      schur-inside-bounds (3.7)  — pendant-leg spiders inside the bounds
                                   are Schur positive; its final clause has
                                   no stated bound in the source and is
                                   omitted; ``limit`` bounds b, default 8.
      two-leaf-twin (5.4)        — double brooms br'(2, 2p-1, 2) are Schur
                                   positive; ``limit`` bounds p, default 5.

    Instances beyond ``cap`` vertices are reported as skipped, never
    guessed.  A counterexample is reported the moment an expansion
    contradicts the conjecture.
    """
    name = _CONJECTURE_ALIASES.get(conj_id, conj_id)
    if name not in CONJECTURES:
        raise BadSpec(f"unknown conjecture {conj_id!r}; know {', '.join(CONJECTURES)}")
    instances: list = []
    counterexamples: list = []
    notes: list = []

    def record(label, verdict, witness):
        status = "consistent" if verdict == YES else "counterexample"
        detail = verdict
        if witness is not None:
            detail += f" (witness [{witness.basis}_{tuple(witness.partition)}] = {witness.coefficient})"
        instances.append((label, status, detail))
        if status == "counterexample":
            counterexamples.append(label)

    def check_spider_e(a, b, c):
        report = e_positivity(parse_graph_spec(f"spider:{a},{b},{c}"), cap=cap)
        record(f"spider:{a},{b},{c} e-positive", report.e_positive, report.witness)

    def check_schur(spec, label):
        G = parse_graph_spec(spec)
        if G.n > cap:
            instances.append((label, "skipped", f"{G.n} vertices exceed the cap {cap}"))
            return
        report = schur_positivity(G, cap=cap)
        record(label, report.schur_positive, report.witness)

    if name == "sporadic-head":
        top = 4 if limit is None else limit
        for b in range(4, top + 1, 2):
            if b % 3 == 2:
                continue
            check_spider_e(b * b + b, b, 1)
    elif name == "schur-outside-bounds":
        top = 8 if limit is None else limit
        for b in range(2, top + 1, 2):
            for a in range(b, cap - b - 1):
                spec, label = f"spider:{a},{b},1", None
                if b % 3 == 2 and a % 3 == 0 and a >= 2 * b + 5:
                    label = f"{spec} past the mod-3 bound"
                elif b % 3 == 2 and a % 3 == 1 and a >= 2 * b:
                    label = f"{spec} past the mod-3 bound"
                elif b % 3 == 2 and a % 3 == 2:
                    label = f"{spec} in the blocked residue class"
                elif b % 3 != 2 and a >= b * b:
                    label = f"{spec} past the square bound"
                elif a % 2 == 0 and a <= _max_even_pendant_gap(b):
                    label = f"{spec} below the quadratic gap"
                if label is not None:
                    check_schur(spec, label)
    elif name == "schur-inside-bounds":
        notes.append(
            "final clause (even a above the quadratic gap) carries no stated"
            " bound in the source and is omitted from this checker"
        )
        top = 8 if limit is None else limit
        for b in range(2, top + 1, 2):
            for a in range(b, cap - b - 1):
                spec, label = f"spider:{a},{b},1", None
                if b % 3 == 2 and a % 3 == 0 and a <= 2 * b + 2:
                    label = f"{spec} within the mod-3 bound"
                elif b % 3 == 2 and a % 3 == 1 and a <= 2 * b - 3:
                    label = f"{spec} within the mod-3 bound"
                elif b % 3 != 2 and a <= b * b - 1:
                    label = f"{spec} within the square bound"
                if label is not None:
                    check_schur(spec, label)
    else:
        top = 5 if limit is None else limit
        for p in range(1, top + 1):
            check_schur(f"dbroom:2,{2 * p - 1},2", f"dbroom:2,{2 * p - 1},2 Schur positive")

    return ConjectureCheck(
        conjecture=name,
        instances=tuple(instances),
        counterexamples=tuple(counterexamples),
        notes=tuple(notes),
    )
