"""Chromatic symmetric functions of graphs, by independent routes.

The CSF of a graph G sums x_{c(v_1)} ... x_{c(v_n)} over all proper
colorings c; it is homogeneous of degree n.  This module computes it four
ways, which deliberately share no code path:

- stable-m: sum over stable-partition types, a_lam times the multiplicity
  factorial, in the monomial basis;
- edge-p: signed sum over edge subsets of the power sum indexed by the
  component sizes (Stanley's formula), enumerating the subsets;
- tree-p: the same power-sum formula on forests, by a dynamic programme on
  each rooted component.  A state is one integer, packed like p->e terms:
  the multiplicity of closed size k in the ``width`` bits at offset
  width * k, and the root's open size in a top field above every part, so
  keeping an edge adds two keys.  It shares no code with edge-p (neither
  its subset loop nor its union-find) or with the recurrences;
- family-recurrence: closed recurrences in the elementary basis for paths,
  three-leg spiders, and the two-leaf odd double brooms, which stay sparse
  far beyond where full expansions are feasible.  They key their terms by
  packed part-multiplicity integers, so a product of two terms is one
  integer addition, over one bottom-up memo of the path series.  A key is
  decoded into its Partition from its own bytes: every key when a SymFunc
  is wanted, only the keys holding the minimum when an e-positivity
  verdict is.  They stop at 255 vertices, where a multiplicity would
  overflow its byte.

``compute_csf`` is the one place that chooses and runs a route, from the
graph and the target basis, and converts the result to that basis; the
generic routes are memoised per graph there, so every question asked of
the same graph shares one expansion.  Triple deletion is not a route: it
rewrites a CSF along the identities relating the graphs obtained by adding
subsets of a triangle, and the verify suite checks it against the routes.

Route agreement is the core correctness check: the verify suites and tests
confirm all applicable routes give identical values after conversion to
the monomial basis.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import factorial

from .errors import BadSpec, DegreeMismatch, NotStableTriple, TooLarge
from .graphs import (
    Graph,
    _adjacency_masks,
    _component_sizes,
    connected_components,
    enumerate_stable_partitions,
    is_forest,
    is_tree,
    spider_legs,
)
from .partitions import Partition
from .symfunc import DEFAULT_DEGREE_CAP, Coeff, SymFunc, _unpack, change_basis

ROUTES = ("stable-m", "edge-p", "tree-p", "family-recurrence")


class CsfResult:
    """A computed CSF together with the route that produced it.

    A family recurrence may hand over ``packed``, its (degree, packed
    e-terms), instead of a SymFunc: ``value`` then decodes every key on
    first read, while ``min_coefficient`` decodes only the keys that hold
    the minimum.
    """

    def __init__(self, graph: Graph, route: str, value: SymFunc | None = None, packed=None):
        if route not in ROUTES:
            raise BadSpec(f"unknown route {route!r}; expected one of {ROUTES}")
        degree = value.degree if packed is None else packed[0]
        if degree != graph.n:
            raise DegreeMismatch(f"CSF degree {degree} does not match vertex count {graph.n}")
        self.graph, self.route, self._value, self._packed = graph, route, value, packed

    @property
    def value(self) -> SymFunc:
        if self._value is None:
            self._value = _e_function(*self._packed)
        return self._value

    def min_coefficient(self) -> tuple[Partition, Coeff]:
        """``value.min_coefficient()``, without building ``value``."""
        if self._value is None:
            return _packed_min(*self._packed)
        return self._value.min_coefficient()


# -- base routes --------------------------------------------------------------


def csf_via_stable_partitions(G: Graph) -> SymFunc:
    """Monomial-basis CSF: each stable-partition type lam contributes its
    count times the multiplicity factorial of lam as the m_lam coefficient."""
    counts = enumerate_stable_partitions(G)
    terms = {
        lam: a * lam.multiplicity_factorial() for lam, a in counts.items()
    }
    return SymFunc("m", G.n, terms)


def csf_via_edge_subsets(G: Graph) -> SymFunc:
    """Power-sum-basis CSF: inclusion-exclusion over edge subsets, each
    contributing (-1)^|subset| times p indexed by its component sizes."""
    m = G.edge_count
    if m > 24:
        raise TooLarge(f"edge-subset route is capped at 24 edges, got {m}")
    edges = sorted(G.edges)
    tallies: dict = {}
    for bits in range(1 << m):
        subset = [edges[i] for i in range(m) if bits >> i & 1]
        key = _component_sizes(G.n, subset)
        sign = -1 if bits.bit_count() & 1 else 1
        tallies[key] = tallies.get(key, 0) + sign
    return SymFunc(
        "p", G.n, {Partition(key): c for key, c in tallies.items() if c}
    )


def _closed(key: int, top: int, width: int) -> int:
    """Close the open component of a packed state: its size moves from the
    top field into the multiplicity field of that part."""
    size = key >> top
    return key - (size << top) + (1 << width * size)


def _join(table: dict, child: dict, top: int, width: int) -> dict:
    """Attach a child's table to its parent's across their edge.  Keeping
    the edge adds the two keys (open sizes and closed parts alike) and
    flips the sign; cutting it adds the child's closed key."""
    moves: dict = {}
    for key, y in child.items():
        moves[key] = -y
        cut = _closed(key, top, width)
        moves[cut] = moves.get(cut, 0) + y
    out: dict = {}
    get = out.get
    for kx, x in table.items():
        for ky, y in moves.items():
            key = kx + ky
            out[key] = get(key, 0) + x * y
    return {key: c for key, c in out.items() if c}


def _rooted_table(root: int, masks: tuple, top: int, width: int) -> dict:
    """DP table of the tree containing ``root``: packed state -> signed
    count (the state packing is described in the module docstring)."""
    order = [root]
    children: dict = {}
    seen = 1 << root
    for v in order:
        fresh = masks[v] & ~seen
        seen |= fresh
        kids = []
        while fresh:
            bit = fresh & -fresh
            fresh ^= bit
            kids.append(bit.bit_length() - 1)
        children[v] = kids
        order.extend(kids)
    tables: dict = {}
    for v in reversed(order):
        table = {1 << top: 1}
        for c in children[v]:
            table = _join(table, tables.pop(c), top, width)
        tables[v] = table
    return tables[root]


def csf_via_tree_dp(G: Graph) -> SymFunc:
    """Power-sum-basis CSF of a forest: the edge-subset sum of edge-p,
    evaluated by a dynamic programme over each rooted component instead of
    over the 2^m subsets.  Components multiply, because p is
    multiplicative.  ``compute_csf`` bounds it by its edge cap."""
    m = G.edge_count
    components = connected_components(G)
    if m != G.n - len(components):
        raise BadSpec(
            f"tree DP route needs a forest, got a graph with a cycle "
            f"({G.n} vertices, {m} edges)"
        )
    masks = _adjacency_masks(G)
    width = max(8, G.n.bit_length())
    top = width * (G.n + 1)
    total: dict = {0: 1}
    for component in components:
        table = _rooted_table(component[0], masks, top, width)
        product: dict = {}
        for kx, x in total.items():
            for ky, y in table.items():
                key = kx + _closed(ky, top, width)
                product[key] = product.get(key, 0) + x * y
        total = product
    return SymFunc("p", G.n, {_unpack(key, width): c for key, c in total.items() if c})


# -- path recurrence ----------------------------------------------------------
#
# The family recurrences key their terms by packed multiplicity integers:
# the multiplicity of part k takes the 8 bits at offset 8k, so the key of
# e_lam e_mu is key(lam) + key(mu) and no product sorts anything.  A
# multiplicity fits its byte only while the degree stays below 256.  Each
# recurrence returns (degree, packed terms); a key becomes a Partition only
# when it is decoded, from its own bytes and through Partition, so every key
# that reaches a caller is still validated.

#: Largest degree whose part multiplicities all fit in one byte.
_MAX_DEGREE = 255

#: e-terms of X(P_m) for m = 0, 1, ..., as {packed key: coefficient}.
#: Filled bottom-up and never handed out: callers copy before adding.
_PATH_TERMS: dict[int, dict[int, int]] = {0: {0: 1}}


def _check_degree(n: int) -> None:
    if n > _MAX_DEGREE:
        raise TooLarge(
            f"the family recurrences pack part multiplicities into bytes and "
            f"stop at {_MAX_DEGREE} vertices, got {n}"
        )


def _path_terms(n: int) -> dict:
    """e-terms of the n-vertex path, filling the memo up to n in a loop so
    that no call recurses.  Every key m is stored only after all smaller
    ones, so concurrent fillers compute the same tables."""
    for m in range(len(_PATH_TERMS), n + 1):
        out: dict = {1 << 8 * m: 1}
        get = out.get
        for k in range(2, m + 1):
            weight = k - 1
            part = 1 << 8 * k
            for lam, c in _PATH_TERMS[m - k].items():
                key = lam + part
                out[key] = get(key, 0) + weight * c
        _PATH_TERMS.setdefault(m, out)
    return _PATH_TERMS[n]


def _decode(key: int) -> Partition:
    """The Partition of a packed key, peeled from its top byte down, so the
    parts come out in decreasing order."""
    parts: list = []
    while key:
        shift = (key.bit_length() - 1) & ~7
        count = key >> shift
        parts += [shift >> 3] * count
        key -= count << shift
    return Partition(parts)


def _e_function(n: int, terms: dict) -> SymFunc:
    """The degree-n e-basis SymFunc of packed terms, every nonzero key
    decoded."""
    return SymFunc("e", n, {_decode(key): c for key, c in terms.items() if c})


def _packed_min(n: int, terms: dict) -> tuple[Partition, int]:
    """``_e_function(n, terms).min_coefficient()``, decoding only the keys
    that hold the smallest nonzero coefficient."""
    low = min(filter(None, terms.values()), default=0)
    return SymFunc("e", n, {_decode(k): c for k, c in terms.items() if c == low}).min_coefficient()


def _path_packed(n: int) -> tuple[int, dict]:
    """Degree and packed e-terms of the n-vertex path: the memo's own dict."""
    if n < 0:
        raise BadSpec(f"path length must be nonnegative, got {n}")
    _check_degree(n)
    return n, _path_terms(n)


@lru_cache(maxsize=None)
def path_csf_e(n: int) -> SymFunc:
    """Elementary-basis CSF of the n-vertex path.

    X(P_0) = 1 (the empty graph's CSF is the empty product), and
    X(P_n) = e_n + sum over k in 2..n of (k-1) e_k X(P_{n-k}); the series
    starts 1, e_1, 2 e_2, 3 e_3 + e_{2,1}, ...  The series is computed on
    packed multiplicity keys into one memo, filled bottom-up in a loop so
    that no call recurses; this call decodes the keys of degree n.  The
    spider and broom recurrences read that memo, never the SymFunc
    returned here, whose terms are read-only.  Raises TooLarge past 255
    vertices, where a multiplicity would overflow its byte.
    """
    return _e_function(*_path_packed(n))


def wolfe_path_coefficient(lam, d: int) -> int:
    """Elementary-basis coefficient of e_lam in the d-vertex path CSF, by
    the closed two-term formula.

    With a_j the multiplicity of j in lam and ell the length: the first
    term is the multinomial (ell; a_1,...) times the product of
    (j-1)^{a_j}; the second sums over parts i present, lowering a_i by one
    in the multinomial, with factor (i-1)^{a_i - 1} and the product over
    the remaining parts skipping j = i and j = 2.
    """
    lam = Partition(lam)
    if lam.n != d:
        raise DegreeMismatch(f"partition sums to {lam.n}, expected {d}")
    mult = dict(lam.multiplicities().pairs)
    ell = lam.length

    def multinomial(total: int, counts) -> int:
        value = factorial(total)
        for c in counts:
            value //= factorial(c)
        return value

    first = multinomial(ell, mult.values())
    for j, aj in mult.items():
        first *= (j - 1) ** aj
    second = 0
    for i, ai in mult.items():
        lowered = [aj - 1 if j == i else aj for j, aj in mult.items()]
        term = multinomial(ell - 1, lowered) * (i - 1) ** (ai - 1)
        for j, aj in mult.items():
            if j == i or j == 2:
                continue
            term *= (j - 1) ** aj
        second += term
    return first + second


# -- spider and broom recurrences ---------------------------------------------


def _spider_packed(a: int, b: int, c: int) -> tuple[int, dict]:
    """Degree and packed e-terms of the spider S(a, b, c), as a fresh dict:
    the path terms plus the signed pairwise products."""
    if not (a >= b >= c >= 1):
        raise BadSpec(f"spider legs must satisfy a >= b >= c >= 1, got ({a}, {b}, {c})")
    n = a + b + c + 1
    _check_degree(n)
    total = _path_terms(n).copy()
    get = total.get
    for i in range(1, c + 1):
        for left, right, sign in ((i, n - i, 1), (b + i, n - b - i, -1)):
            right_terms = _path_terms(right).items()
            for lam, x in _path_terms(left).items():
                x *= sign
                for mu, y in right_terms:
                    key = lam + mu
                    total[key] = get(key, 0) + x * y
    return n, total


def spider_csf(a: int, b: int, c: int) -> SymFunc:
    """Elementary-basis CSF of the three-leg spider with legs a >= b >= c.

    X(S(a,b,c)) = X(P_n) + sum over i in 1..c of
    (X(P_i) X(P_{n-i}) - X(P_{b+i}) X(P_{n-b-i})) with n = a+b+c+1,
    summed on packed keys straight into one dict, whose keys are decoded
    once at the end.  The result stays sparse (every term has at most two
    parts equal to 1), so this route reaches degrees far beyond the
    full-expansion cap.  Raises TooLarge past 255 vertices.
    """
    return _e_function(*_spider_packed(a, b, c))


def _broom_packed(middle: int) -> tuple[int, dict]:
    """Degree and packed e-terms of the double broom br'(2, middle, 2)."""
    if middle < 1 or middle % 2 == 0:
        raise BadSpec(f"broom_csf needs an odd positive middle, got {middle}")
    p = (middle + 1) // 2
    n, total = _spider_packed(2 * p + 1, 1, 1)
    get = total.get
    # The packed keys of e_1 and e_2.
    for legs, part, scale in ((2 * p, 1 << 8, 1), (2 * p - 1, 1 << 16, -2)):
        for lam, x in _spider_packed(legs, 1, 1)[1].items():
            key = lam + part
            total[key] = get(key, 0) + scale * x
    return n, total


def broom_csf(middle: int) -> SymFunc:
    """Elementary-basis CSF of the double broom br'(2, middle, 2) with odd
    middle 2p-1, by the one-step edge-addition identity

        e_1 X(br(2p, 2)) + X(br(2p+1, 2)) - 2 e_2 X(br(2p-1, 2)),

    where each two-leaf broom br(h, 2) is the spider S(h, 1, 1); the three
    are combined on the spiders' packed dicts.  Raises TooLarge past 255
    vertices.
    """
    return _e_function(*_broom_packed(middle))


# -- triple deletion ----------------------------------------------------------


def _with_edges(G: Graph, extra) -> Graph:
    return Graph(G.n, G.edges | set(extra), label=G.label)


def _base_m(G: Graph) -> SymFunc:
    return compute_csf(G, basis="m").value


def triple_deletion(G: Graph, u: int, v: int, w: int, S) -> SymFunc:
    """Monomial-basis CSF of G plus the triangle edges selected by S.

    The triangle on the pairwise nonadjacent vertices u, v, w consists of
    edge 1 = uv, edge 2 = vw, edge 3 = wu; S picks which to add.  Two-edge
    selections are rewritten by the identity

        X(G + {1,2}) = X(G + {1}) + X(G + {2,3}) - X(G + {3})

    (and its rotations), which trades the selection for its companion
    pair and two single-edge CSFs; the full triangle uses

        X(G + {1,2,3}) = X(G + {1,2}) + X(G + {2,3}) - X(G + {2}).

    The companion pair and all smaller selections go through the ordinary
    routes, so the rewriting is genuinely cross-checkable against direct
    computation.
    """
    if len({u, v, w}) != 3:
        raise NotStableTriple(f"vertices must be distinct, got ({u}, {v}, {w})")
    for x in (u, v, w):
        if not (0 <= x < G.n):
            raise BadSpec(f"vertex {x} out of range for {G.n} vertices")
    masks = _adjacency_masks(G)
    for x, y in ((u, v), (v, w), (w, u)):
        if masks[x] >> y & 1:
            raise NotStableTriple(f"vertices {x} and {y} are adjacent in G")
    selection = frozenset(S)
    if not selection <= {1, 2, 3}:
        raise BadSpec(f"edge selection must be a subset of {{1, 2, 3}}, got {set(S)}")

    triangle = {1: (u, v), 2: (v, w), 3: (w, u)}

    def build(indices) -> Graph:
        return _with_edges(G, (triangle[i] for i in indices))

    def compute(indices: frozenset) -> SymFunc:
        if len(indices) <= 1:
            return _base_m(build(indices))
        if len(indices) == 2:
            # Rotate so the selection reads {i, i+1} cyclically.
            (i,) = [i for i in (1, 2, 3) if {i, i % 3 + 1} == indices]
            j = i % 3 + 1
            k = j % 3 + 1
            companion = _base_m(build((j, k)))
            return _base_m(build((i,))) + companion - _base_m(build((k,)))
        first = compute(frozenset({1, 2}))
        second = compute(frozenset({2, 3}))
        return first + second - _base_m(build((2,)))

    return compute(selection)


# -- coefficient extraction and dispatch ---------------------------------------


def extract_coefficient(f: SymFunc, basis: str, lam) -> Coeff:
    """Coefficient of the basis element indexed by lam, converting first if
    the function is expressed in another basis."""
    lam = Partition(lam)
    if lam.n != f.degree:
        raise DegreeMismatch(
            f"partition sums to {lam.n} but the function has degree {f.degree}"
        )
    g = f if f.basis == basis else change_basis(f, basis)
    return g.coefficient(lam)


def _double_broom_shape(G: Graph):
    """(left, middle, right) if G is a double broom with both leaf bundles
    of size >= 2, else None."""
    if not is_tree(G) or G.n < 6:
        return None
    masks = _adjacency_masks(G)
    degrees = [masks[v].bit_count() for v in range(G.n)]
    hubs = [v for v in range(G.n) if degrees[v] >= 3]
    if len(hubs) != 2:
        return None
    bundles = []
    exits = []
    for hub in hubs:
        mask = masks[hub]
        leaves = 0
        exit_vertex = None
        while mask:
            bit = mask & -mask
            mask ^= bit
            nb = bit.bit_length() - 1
            if degrees[nb] == 1:
                leaves += 1
            else:
                exit_vertex = nb
        if leaves != degrees[hub] - 1 or exit_vertex is None:
            return None
        bundles.append(leaves)
        exits.append(exit_vertex)
    # Walk the hub-to-hub path; every interior vertex must have degree 2.
    prev, cur = hubs[0], exits[0]
    middle = 1
    while cur != hubs[1]:
        if degrees[cur] != 2:
            return None
        onward = masks[cur] & ~(1 << prev)
        prev, cur = cur, onward.bit_length() - 1
        middle += 1
    if G.n != bundles[0] + middle + bundles[1] + 1:
        return None
    return bundles[0], middle, bundles[1]


def _family_recurrence(G: Graph):
    """The closed family recurrence for G as a call with no arguments that
    returns (degree, packed e-terms), or None when none applies."""
    if is_tree(G) and all(G.degree(v) <= 2 for v in range(G.n)):
        return partial(_path_packed, G.n)
    legs = spider_legs(G)
    if legs is not None and legs.length == 3:
        return partial(_spider_packed, *legs)
    shape = _double_broom_shape(G)
    if shape is not None:
        left, middle, right = shape
        if left == 2 and right == 2 and middle % 2 == 1:
            return partial(_broom_packed, middle)
    return None


@lru_cache(maxsize=128)
def _generic_csf(G: Graph, route: str) -> SymFunc:
    """The stable-m, edge-p or tree-p expansion of G, memoised so that every
    later question about the same graph reuses it.  Family recurrences are
    not memoised here: their term count grows with the number of partitions
    of n, and their building blocks already sit in the path-series memo."""
    if route == "stable-m":
        return csf_via_stable_partitions(G)
    if route == "tree-p":
        return csf_via_tree_dp(G)
    return csf_via_edge_subsets(G)


def compute_csf(
    G: Graph, route: str = "auto", basis: str | None = None, cap: int = DEFAULT_DEGREE_CAP
) -> CsfResult:
    """Compute the CSF by the requested route, in ``basis`` when one is
    given (converted under the degree cap ``cap``), else in the route's own.

    "auto" picks the route from the graph and the target, in one fixed
    order: a family recurrence when the target is e or not given (its
    e-expansion needs no conversion), then tree-p for every other forest,
    stable-m up to 12 vertices, and edge-p up to 24 edges.  Tree-p, chosen
    or forced, refuses more than ``cap`` edges with TooLarge.
    """
    choices = ("auto",) + ROUTES
    if route not in choices:
        raise BadSpec(f"unknown route {route!r}; expected one of {choices}")
    family = None
    if route == "family-recurrence" or (route == "auto" and basis in (None, "e")):
        family = _family_recurrence(G)
    if route == "auto":
        if family:
            route = "family-recurrence"
        elif is_forest(G):
            route = "tree-p"
        elif G.n <= 12:
            route = "stable-m"
        elif G.edge_count <= 24:
            route = "edge-p"
        else:
            raise TooLarge(
                f"no route can handle {G.n} vertices / {G.edge_count} edges exactly"
            )
    if route == "family-recurrence":
        if family is None:
            raise BadSpec(
                "no family recurrence applies: need a path, a three-leg spider, or "
                "a double broom with two leaves per side and an odd middle"
            )
        if basis in (None, "e"):
            return CsfResult(G, route, packed=family())
        # The conversion would refuse the terms: refuse before building them.
        if G.n > cap:
            raise TooLarge(f"degree {G.n} exceeds the basis-change cap {cap}")
        value = _e_function(*family())
    else:
        if route == "tree-p" and G.edge_count > cap:
            raise TooLarge(f"{G.edge_count} edges exceed the tree-p cap {cap}")
        # The memo key ignores the graph's label (Graph equality does), so the
        # result wraps the caller's graph, not the one first cached.
        value = _generic_csf(G, route)
    if basis is not None and value.basis != basis:
        value = change_basis(value, basis, cap=cap)
    return CsfResult(G, route, value)
