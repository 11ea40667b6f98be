"""Chromatic symmetric functions of graphs, by independent routes.

The CSF of a graph G sums x_{c(v_1)} ... x_{c(v_n)} over all proper
colorings c; it is homogeneous of degree n.  This module computes it four
ways, which deliberately share no code path:

- stable-m: sum over stable-partition types, a_lam times the multiplicity
  factorial, in the monomial basis;
- edge-p: signed sum over edge subsets of the power sum indexed by the
  component sizes (Stanley's formula), enumerating the subsets;
- tree-p: the same power-sum formula on forests, by a dynamic programme on
  each rooted component.  A state is one integer keyed like p->e terms
  (``symfunc._places``): closed size k counts in the digit at B[k] of n's
  tier, the root's open size in the digit at B[n + 1] above every part, so
  keeping an edge adds two keys and closing one is a divmod.  Its closed
  table is the packed p-expansion itself, decoded only for
  ``csf_via_tree_dp``.  Beyond that key format, it shares no code with
  edge-p (neither its subset loop nor its union-find) or with the
  recurrences;
- family-recurrence: closed recurrences in the elementary basis for paths,
  three-leg spiders, and the two-leaf odd double brooms, which stay sparse
  far beyond where full expansions are feasible.  They key their terms by
  the same mixed-radix integers, one digit per part multiplicity with
  radixes sized to the degree (tiers of 64 and 255 vertices), so a product
  of two terms is one integer addition, over one bottom-up memo of the
  path series per tier, in layers by the number of parts 1, so that e_1
  times a layer is the next layer.  The memo fills each key from the key
  less one largest part, by the closed form of the series
  Q = 1 / (1 - sum_k (k-1) e_k z^k) (see ``_Tier``).  A key is decoded
  into its Partition from its own digits: every key when a SymFunc is
  wanted, only the keys holding the minimum when an e-positivity verdict
  is.  They stop at 255 vertices.

``compute_csf`` is the one place that chooses and runs a route, from the
graph and the target basis, and converts the result to that basis
(through p, on the packed terms); its result stays packed in every
basis, so that a positivity verdict decodes only its witness and a single
coefficient decodes nothing.  The generic routes are memoised per graph
there, as packed terms, so every question asked of the same graph shares
one expansion.  Triple deletion is not a route: it
rewrites a CSF along the identities relating the graphs obtained by adding
subsets of a triangle, and the verify suite checks it against the routes.

Route agreement is the core correctness check: the verify suites and tests
confirm all applicable routes give identical values after conversion to
the monomial basis.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import factorial
from operator import add

from .errors import BadSpec, DegreeMismatch, NotStableTriple, TooLarge
from .graphs import (
    _GRAPHS_KEPT,
    Graph,
    _adjacency_masks,
    _component_sizes,
    _double_broom_shape,
    _hub_arms,
    connected_components,
    enumerate_stable_partitions,
    is_forest,
    spider_legs,
)
from .partitions import Partition
from .symfunc import (
    DEFAULT_DEGREE_CAP,
    Coeff,
    SymFunc,
    _TIER_SIZES,
    _convert,
    _decoded,
    _encoded,
    _packed_coefficient,
    _packed_min,
    _places,
    _tier_size,
)

ROUTES = ("stable-m", "edge-p", "tree-p", "family-recurrence")


class CsfResult:
    """A computed CSF as packed terms (basis, degree, integer-keyed layers
    and their key tier; see ``symfunc._decoded``), with the route that
    produced it.  ``value`` decodes every key, ``min_coefficient`` only
    the keys that hold the minimum, and ``coefficient`` and ``_term_count``
    none.
    """

    def __init__(self, graph: Graph, route: str, packed: tuple):
        if route not in ROUTES:
            raise BadSpec(f"unknown route {route!r}; expected one of {ROUTES}")
        if packed[1] != graph.n:
            raise DegreeMismatch(f"CSF degree {packed[1]} does not match vertex count {graph.n}")
        self.graph, self.route, self._packed = graph, route, packed

    @property
    def value(self) -> SymFunc:
        return _decoded(*self._packed)

    def min_coefficient(self) -> tuple[Partition, Coeff]:
        """``value.min_coefficient()``, without building ``value``."""
        return _packed_min(*self._packed)

    def coefficient(self, lam) -> Coeff:
        """``value.coefficient(lam)``, without building ``value``."""
        return _packed_coefficient(*self._packed, lam if isinstance(lam, Partition) else Partition(lam))

    def _term_count(self) -> int:
        """``len(value.terms)``, without building ``value``."""
        return sum(1 for layer in self._packed[2] for c in layer.values() if c)


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


def _closed(key: int, top: int, places: list) -> int:
    """Close the open component of a packed state: its size moves from the
    top digit into the multiplicity digit of that part."""
    size, closed = divmod(key, top)
    return closed + places[size]


def _join(table: dict, child: dict, top: int, places: list) -> dict:
    """Attach a child's table to its parent's across their edge.  Keeping
    the edge adds the two keys (open sizes and closed parts alike) and
    flips the sign; cutting it adds the child's closed key."""
    moves: dict = {}
    for key, y in child.items():
        moves[key] = -y
        cut = _closed(key, top, places)
        moves[cut] = moves.get(cut, 0) + y
    out: dict = {}
    get = out.get
    for kx, x in table.items():
        for ky, y in moves.items():
            key = kx + ky
            out[key] = get(key, 0) + x * y
    return {key: c for key, c in out.items() if c}


def _rooted_table(root: int, masks: tuple, top: int, places: list) -> dict:
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
        table = {top: 1}
        # Leaves (one state) first, while the table is still small, then
        # the other children, largest table first: on the census double
        # brooms this cuts the pair products of the joins by two fifths.
        kids = sorted((tables.pop(c) for c in children[v]), key=lambda t: (len(t) > 1, -len(t)))
        for child in kids:
            table = _join(table, child, top, places)
        tables[v] = table
    return tables[root]


def csf_via_tree_dp(G: Graph) -> SymFunc:
    """Power-sum-basis CSF of a forest: the edge-subset sum of edge-p,
    evaluated by a dynamic programme over each rooted component instead of
    over the 2^m subsets.  Components multiply, because p is
    multiplicative."""
    return _decoded(*_tree_p(G))


def _tree_p(G: Graph) -> tuple:
    """``csf_via_tree_dp`` as a packed result, keyed in the tier of the
    vertex count.  ``compute_csf`` bounds it by its vertex cap."""
    m = G.edge_count
    components = connected_components(G)
    if m != G.n - len(components):
        raise BadSpec(
            f"tree DP route needs a forest, got a graph with a cycle "
            f"({G.n} vertices, {m} edges)"
        )
    masks = _adjacency_masks(G)
    size = _tier_size(G.n)
    places = _places(size)
    top = places[G.n + 1]
    total: dict = {0: 1}
    for component in components:
        # Rooted at a leg tip, the DP would copy the hub's table down the leg.
        root = max(component, key=lambda v: masks[v].bit_count())
        table = _rooted_table(root, masks, top, places)
        product: dict = {}
        for kx, x in total.items():
            for ky, y in table.items():
                key = kx + _closed(ky, top, places)
                product[key] = product.get(key, 0) + x * y
        total = product
    return "p", G.n, (total,), size


# -- path recurrence ----------------------------------------------------------
#
# The family recurrences key their terms by the mixed-radix integers of
# ``symfunc``'s packed keys.  The outermost call picks the tier (64 or 255)
# from the result's degree for every term it builds.  Layer j of a result
# maps the key of each partition with no part 1 to the coefficient of that
# partition plus j ones, whose key is j more (B[1] = 1).  A path term has
# at most one part 1, a spider term two, a broom term three.
#
# The path series is E(z) Q(z), E = sum_i e_i z^i, Q = 1 / (1 - sum_{k>=2}
# (k-1) e_k z^k) (Stanley 1995; Shareshian and Wachs 2016), so X(P_m) is
# e_1 Q_{m-1} + C_m, C_m = sum_{k>=2} k e_k Q_{m-k}, for m >= 1.  At lam of
# no part 1, a_k parts k and length l, Q(lam) = l! prod (k-1)^a_k / a_k!
# and C(lam) sums k Q(lam - k) over lam's distinct parts.  With k lam's
# largest part and mu = lam - k, a_k = mu // B[k] + 1 (k is mu's top digit):
#   Q(lam) = Q(mu) (l(mu) + 1) (k - 1) / a_k,
#   C(lam) = ((k - 1) l(mu) C(mu) + k Q(mu)) / a_k, both exact.


class _Tier:
    """The place values ``places`` of the keys of degree at most ``size``,
    and the two layers of X(P_m): ``cores[m]`` maps every partition of m
    with no part 1 (all are terms, by Wolfe's formula) to its coefficient
    C_m, and ``ones[m + 1]`` lists Q_m, layer 1 of X(P_{m+1}), in
    ``cores[m]``'s ascending key order.  The keys with no part above k are
    a prefix, ``ends[m][k]`` long; ``lengths[m]`` holds the keys' lengths.
    Never handed out: callers copy."""

    def __init__(self, size: int):
        self.size, self.places = size, _places(size)
        self.cores, self.ones, self.lengths, self.ends = {0: {0: 1}}, {0: [], 1: [1]}, {0: b"\0"}, {0: [1]}


_TIERS = tuple(map(_Tier, _TIER_SIZES))


def _tier(n: int) -> _Tier:
    """The smallest tier that keys degree n."""
    if n > _TIERS[-1].size:
        raise TooLarge(f"the family recurrences key part multiplicities as integer digits "
                       f"and stop at {_TIERS[-1].size} vertices, got {n}")
    return _TIERS[0] if n <= _TIERS[0].size else _TIERS[1]


def _path_terms(n: int, tier: _Tier) -> tuple[dict, dict]:
    """``tier.cores`` and ``tier.ones``, filled bottom-up to n in a loop so
    that no call recurses.  Degree m visits each key once: mu + B[k] for
    k = 2..m and mu in the prefix of degree m - k with no part above k.
    ``len(cores)`` marks the degrees filled, so ``cores[m]`` is stored last
    and degree m after all below it: concurrent fillers store equal tables."""
    cores, ones, lengths, ends, places = tier.cores, tier.ones, tier.lengths, tier.ends, tier.places
    for m in range(len(cores), n + 1):
        keys, cs, qs, ls, bounds = [], [], [], bytearray(), [0, 0]
        for k in range(2, m + 1):
            j, part, low = m - k, places[k], k - 1
            for l, (mu, c), q in zip(lengths[j][:ends[j][min(k, j)]], cores[j].items(), ones[j + 1]):
                a = mu // part + 1
                keys.append(mu + part)
                cs.append((low * l * c + k * q) // a)
                qs.append(q * (l + 1) * low // a)
                ls.append(l + 1)
            bounds.append(len(keys))
        lengths.setdefault(m, bytes(ls))
        ends.setdefault(m, bounds)
        ones.setdefault(m + 1, qs)
        cores.setdefault(m, dict(zip(keys, cs)))
    return cores, ones


def _packed_e(n: int, layers) -> tuple:
    """A recurrence's degree-n e-layers as a packed result (see
    ``symfunc._decoded``), keyed in the tier of n."""
    return "e", n, layers, _tier(n).size


def _path_packed(n: int) -> tuple[int, tuple]:
    """Degree and packed e-layers of the n-vertex path: the memo's own cores."""
    if n < 0:
        raise BadSpec(f"path length must be nonnegative, got {n}")
    cores, ones = _path_terms(n, _tier(n))
    return n, (cores[n], dict(zip(cores.get(n - 1, ()), ones[n])))


@lru_cache(maxsize=None)
def path_csf_e(n: int) -> SymFunc:
    """Elementary-basis CSF of the n-vertex path.

    X(P_0) = 1 (the empty graph's CSF is the empty product), and
    X(P_n) = e_n + sum over k in 2..n of (k-1) e_k X(P_{n-k}); the series
    starts 1, e_1, 2 e_2, 3 e_3 + e_{2,1}, ...  Equivalently X(P_n) =
    sum over i in 1..n of i e_i Q_{n-i}, where Q = 1 / (1 - sum over k >= 2
    of (k-1) e_k z^k).  It is computed on packed keys into one memo per
    key tier, in layers by the number of parts 1, each entry from one of a
    lower degree (37,337 visits up to 40 vertices); this call decodes the
    keys of degree n.  The spider and broom recurrences read those memos,
    never the SymFunc returned here, whose terms are read-only.  Raises
    TooLarge past 255 vertices, the largest tier.
    """
    return _decoded(*_packed_e(*_path_packed(n)))


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


def _add_product(out: dict, left, right, sign: int) -> None:
    """``out[lam + mu] += sign * x * y`` over the (key, coefficient) pairs of
    two layers, ``right`` once per pair of ``left``; every key is in ``out``."""
    for lam, x in left:
        x *= sign
        # About 43% of the products have x = 1 or -1: no multiply.
        if x == 1:
            for mu, y in right:
                out[lam + mu] += y
        elif x == -1:
            for mu, y in right:
                out[lam + mu] -= y
        else:
            for mu, y in right:
                out[lam + mu] += x * y


def _spider_packed(a: int, b: int, c: int, tier: _Tier | None = None) -> tuple[int, tuple]:
    """Degree and packed e-layers (up to two parts 1) of the spider
    S(a, b, c), as fresh dicts: the path terms plus the signed pairwise
    products, in ``tier``'s keys (by default, those of its own degree)."""
    if not (a >= b >= c >= 1):
        raise BadSpec(f"spider legs must satisfy a >= b >= c >= 1, got ({a}, {b}, {c})")
    n = a + b + c + 1
    tier = tier or _tier(n)
    cores, ones = _path_terms(n, tier)
    # X(P_n) + e_1 X(P_{n-1}), the sum's first product, holds every key
    # that the other products reach.
    layers = (cores[n].copy(), dict(zip(cores[n - 1], map(add, ones[n], cores[n - 1].values()))),
              dict(zip(cores[n - 2], ones[n - 1])))
    pairs = [(i, n - i, 1) for i in range(2, c + 1)] + [(b + i, n - b - i, -1) for i in range(1, c + 1)]
    for left, right, sign in pairs:
        (x0, x1), (y0, y1) = ((cores[m].items(), list(zip(cores[m - 1], ones[m]))) for m in (left, right))
        for out, xs, ys in ((0, x0, y0), (1, x0, y1), (1, x1, y0), (2, x1, y1)):
            _add_product(layers[out], xs, ys, sign)
    return n, layers


def spider_csf(a: int, b: int, c: int) -> SymFunc:
    """Elementary-basis CSF of the three-leg spider with legs a >= b >= c.

    X(S(a,b,c)) = X(P_n) + sum over i in 1..c of
    (X(P_i) X(P_{n-i}) - X(P_{b+i}) X(P_{n-b-i})) with n = a+b+c+1,
    summed on packed keys, in layers by the number of parts 1, whose keys
    are decoded once at the end.  The result stays sparse (every term has
    at most two parts equal to 1), so this route reaches degrees far
    beyond the full-expansion cap.  Raises TooLarge past 255 vertices.
    """
    return _decoded(*_packed_e(*_spider_packed(a, b, c)))


def _broom_packed(middle: int) -> tuple[int, tuple]:
    """Degree and packed e-layers (three) of the double broom br'(2, middle, 2)."""
    if middle < 1 or middle % 2 == 0:
        raise BadSpec(f"broom_csf needs an odd positive middle, got {middle}")
    p = (middle + 1) // 2
    tier = _tier(2 * p + 4)
    n, (core, one, two) = _spider_packed(2 * p + 1, 1, 1, tier)
    # e_1 moves each layer of X(br(2p, 2)) up one, onto layers whose keys
    # come in the same order (those of cores[n - 1], cores[n - 2]).
    lower = _spider_packed(2 * p, 1, 1, tier)[1]
    layers = (core, dict(zip(one, map(add, one.values(), lower[0].values()))),
              dict(zip(two, map(add, two.values(), lower[1].values()))), lower[2])
    part = tier.places[2]
    for layer, terms in zip(layers, _spider_packed(2 * p - 1, 1, 1, tier)[1]):
        for lam, x in terms.items():
            layer[lam + part] -= 2 * x
    return n, layers


def broom_csf(middle: int) -> SymFunc:
    """Elementary-basis CSF of the double broom br'(2, middle, 2) with odd
    middle 2p-1, by the one-step edge-addition identity

        e_1 X(br(2p, 2)) + X(br(2p+1, 2)) - 2 e_2 X(br(2p-1, 2)),

    where each two-leaf broom br(h, 2) is the spider S(h, 1, 1); the three
    are combined on the spiders' packed dicts.  Raises TooLarge past 255
    vertices.
    """
    return _decoded(*_packed_e(*_broom_packed(middle)))


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


# -- dispatch -----------------------------------------------------------------


def _family_recurrence(G: Graph):
    """The closed family recurrence for G as a call with no arguments that
    returns (degree, packed e-layers), or None when none applies; the
    graph's memoised shape answers all three tests."""
    if _hub_arms(G) == ():
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


@lru_cache(maxsize=_GRAPHS_KEPT)
def _generic_csf(G: Graph, route: str) -> tuple:
    """The stable-m, edge-p or tree-p expansion of G as a packed result,
    memoised so that every later question about the same graph reuses it.
    Family recurrences are not memoised here: their term count grows with
    the number of partitions of n, and their building blocks already sit
    in the path-series memo."""
    if route == "tree-p":
        return _tree_p(G)
    return _encoded(csf_via_stable_partitions(G) if route == "stable-m" else csf_via_edge_subsets(G))


def compute_csf(
    G: Graph, route: str = "auto", basis: str | None = None, cap: int = DEFAULT_DEGREE_CAP
) -> CsfResult:
    """Compute the CSF by the requested route, in ``basis`` when one is
    given, else in the route's own.

    "auto" picks the route from the graph and the target, in one fixed
    order: a family recurrence when the target is e or not given (its
    e-expansion needs no conversion), then tree-p for every other forest,
    stable-m up to 12 vertices, and edge-p up to 24 edges.  Once the route
    is chosen, a graph of more than ``cap`` vertices is refused with
    TooLarge before anything is built, on every route and for every
    target, except a family recurrence answering e or no basis.
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
            return CsfResult(G, route, _packed_e(*family()))
    if G.n > cap:
        raise TooLarge(f"{G.n} vertices exceed the cap {cap}")
    # The memo key ignores the graph's label (Graph equality does), so the
    # result wraps the caller's graph, not the one first cached.
    packed = _packed_e(*family()) if family else _generic_csf(G, route)
    return CsfResult(G, route, packed if basis is None else _convert(packed, basis))
