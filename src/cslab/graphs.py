"""Simple graphs, parameterized tree families, and stable-partition counting.

Vertices are the integers 0..n-1.  Family builders freeze a documented
labeling so coefficient traces and golden files are reproducible:

- ``path(n)``: 0 -- 1 -- ... -- n-1.
- ``cycle(n)``: the ring 0 -- 1 -- ... -- n-1 -- 0.
- ``star(l)``: leaves 0..l-1, center l.
- ``spider(legs)``: legs laid out consecutively, each from tip inward, and
  the shared center last (vertex n-1).
- ``broom(p, l)``: a handle path on p vertices labeled from the free end
  (0 is the tip), the junction vertex p, and l leaves p+1..p+l on it.
- ``double_broom(l, p, l2)``: l leaves 0..l-1 attached at vertex l, a
  central path l..l+p on p+1 vertices, and l2 leaves l+p+1..n-1 attached
  at vertex l+p.

A stable set spans no edge; a stable partition splits the vertex set into
stable blocks.  Counting stable partitions by block-size type is the
monomial-coefficient side of the chromatic symmetric function, so all
counting here is exact integer arithmetic.  All types at once come from a
subset DP over vertex bitmasks (``enumerate_stable_partitions``); one type
at a time from a backtracking count over vertices
(``count_stable_partitions``), which shares no code with the DP.

Each graph is walked once, by one breadth-first search, and ``_shape``
keeps four facts from it: the components, the hub arms of a tree, the
visiting order that the backtracking count follows, and the vertices at
odd depth, which ``balanced_stable_bipartition`` reads as a 2-colouring.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from functools import lru_cache
from operator import add, itemgetter

from .errors import (
    BadSpec,
    DegreeMismatch,
    NotBipartite,
    NotConnected,
    TooLarge,
    TooManyBlocks,
)
from .partitions import Partition, _part_tuples, _Record


class Graph(_Record):
    """An undirected simple graph on vertices 0..n-1.

    Edges are stored as sorted pairs (u, v) with u < v; loops are rejected
    and duplicate or reversed pairs collapse.  The label is cosmetic (used
    in reports) and does not participate in equality or hashing.
    """

    n: int
    edges: frozenset = frozenset()
    label: str = ""

    def __post_init__(self) -> None:
        if self.n < 0:
            raise BadSpec(f"vertex count must be nonnegative, got {self.n}")
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise BadSpec(f"loop at vertex {u} is not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise BadSpec(f"edge {edge} out of range for {self.n} vertices")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return _adjacency_masks(self)[v].bit_count()

    def __eq__(self, other) -> bool:
        same = other.__class__ is self.__class__
        return (self.n == other.n and self.edges == other.edges) if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        tag = f", label={self.label!r}" if self.label else ""
        return f"Graph(n={self.n}, edges={sorted(self.edges)}{tag})"


#: Graphs kept by each per-graph memo, here and in ``csf._generic_csf``: a
#: question asks all it needs of one graph in a row, and a sweep or a census
#: meets new graphs without end.
_GRAPHS_KEPT = 128

#: Entries kept by each memo keyed by a graph and a partition type: 64 types
#: for each of ``_GRAPHS_KEPT`` graphs (a 12-vertex graph has 77 types).
_TYPES_KEPT = 64 * _GRAPHS_KEPT


@lru_cache(maxsize=_GRAPHS_KEPT)
def _adjacency_masks(G: Graph) -> tuple:
    """Neighbor bitmasks, one per vertex."""
    masks = [0] * G.n
    for u, v in G.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def connected_components(G: Graph) -> tuple:
    """Vertex sets of the components as a tuple of sorted tuples, ordered by
    least vertex."""
    return _shape(G)[0]


@lru_cache(maxsize=_GRAPHS_KEPT)
def _shape(G: Graph) -> tuple:
    """(components, hub arms, search order, odd) of G: the three results of
    ``_components`` and, on a tree, ``_walk_arms``, found in one walk per
    graph and kept for the questions that follow."""
    masks = _adjacency_masks(G)
    components, order, odd = _components(masks)
    tree = len(components) == 1 and len(G.edges) == G.n - 1
    return components, (_walk_arms(masks) if tree else None), order, odd


def _components(masks: tuple) -> tuple:
    """One breadth-first search of the graph with neighbour bitmasks
    ``masks``, from the least vertex of each component, taking neighbours
    in increasing order.  Returns the components as
    ``connected_components`` lays them out; the visiting order, in which
    every vertex after a component's first touches an earlier one, so a
    block assignment in that order prunes on adjacency early; and the
    bitmask of the vertices at odd depth, a proper 2-colouring when the
    graph has one."""
    seen = 0
    odd = 0
    order = []
    components = []
    for start in range(len(masks)):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        first = len(order)
        order.append(start)
        i = first
        while i < len(order):
            v = order[i]
            i += 1
            fresh = masks[v] & ~seen
            seen |= fresh
            if not odd >> v & 1:
                odd |= fresh
            while fresh:
                bit = fresh & -fresh
                fresh ^= bit
                order.append(bit.bit_length() - 1)
        components.append(tuple(sorted(order[first:])))
    return tuple(components), tuple(order), odd


def is_forest(G: Graph) -> bool:
    return len(G.edges) == G.n - len(connected_components(G))


# -- family builders ----------------------------------------------------------


def _int_params(name: str, params, count: int | None = None):
    values = []
    for p in params:
        if not isinstance(p, int) or isinstance(p, bool):
            raise BadSpec(f"{name} parameters must be integers, got {p!r}")
        values.append(p)
    if count is not None and len(values) != count:
        raise BadSpec(f"{name} takes {count} parameter(s), got {len(values)}")
    return values


def build_family(name: str, *params: int) -> Graph:
    """Construct a named family member with its frozen labeling.

    Families: path(n>=1), cycle(n>=3), star(l>=1), complete(n>=1), claw,
    spider(legs: >=3 parts, each >=1), broom(p>=1, l>=1),
    double_broom(l>=1, p>=1, l2>=1).  Degenerate parameters raise BadSpec
    rather than being normalized away.
    """
    if name == "path":
        (n,) = _int_params(name, params, 1)
        if n < 1:
            raise BadSpec(f"path needs at least 1 vertex, got {n}")
        return Graph(n, frozenset((i, i + 1) for i in range(n - 1)), label=f"path:{n}")
    if name == "cycle":
        (n,) = _int_params(name, params, 1)
        if n < 3:
            raise BadSpec(f"cycle needs at least 3 vertices, got {n}")
        edges = {(i, i + 1) for i in range(n - 1)}
        edges.add((0, n - 1))
        return Graph(n, frozenset(edges), label=f"cycle:{n}")
    if name == "star":
        (leaves,) = _int_params(name, params, 1)
        if leaves < 1:
            raise BadSpec(f"star needs at least 1 leaf, got {leaves}")
        return Graph(
            leaves + 1,
            frozenset((i, leaves) for i in range(leaves)),
            label=f"star:{leaves}",
        )
    if name == "complete":
        (n,) = _int_params(name, params, 1)
        if n < 1:
            raise BadSpec(f"complete graph needs at least 1 vertex, got {n}")
        return Graph(
            n,
            frozenset((u, v) for u in range(n) for v in range(u + 1, n)),
            label=f"complete:{n}",
        )
    if name == "claw":
        if params:
            raise BadSpec("claw takes no parameters")
        star = build_family("star", 3)
        return Graph(star.n, star.edges, label="claw")
    if name == "spider":
        legs = _int_params(name, params)
        if len(legs) < 3:
            raise BadSpec(f"spider needs at least 3 legs, got {len(legs)}")
        if any(leg < 1 for leg in legs):
            raise BadSpec(f"spider legs must be positive, got {legs}")
        n = sum(legs) + 1
        center = n - 1
        edges = set()
        offset = 0
        for leg in legs:
            for i in range(leg - 1):
                edges.add((offset + i, offset + i + 1))
            edges.add((offset + leg - 1, center))
            offset += leg
        label = "spider:" + ",".join(str(leg) for leg in legs)
        return Graph(n, frozenset(edges), label=label)
    if name == "broom":
        handle, leaves = _int_params(name, params, 2)
        if handle < 1 or leaves < 1:
            raise BadSpec(f"broom parameters must be positive, got ({handle}, {leaves})")
        n = handle + leaves + 1
        edges = {(i, i + 1) for i in range(handle)}
        edges.update((handle, handle + 1 + j) for j in range(leaves))
        return Graph(n, frozenset(edges), label=f"broom:{handle},{leaves}")
    if name in ("double_broom", "dbroom"):
        left, mid, right = _int_params(name, params, 3)
        if left < 1 or mid < 1 or right < 1:
            raise BadSpec(
                f"double_broom parameters must be positive, got ({left}, {mid}, {right})"
            )
        n = left + mid + right + 1
        edges = {(j, left) for j in range(left)}
        edges.update((i, i + 1) for i in range(left, left + mid))
        edges.update((left + mid, left + mid + 1 + j) for j in range(right))
        return Graph(n, frozenset(edges), label=f"dbroom:{left},{mid},{right}")
    raise BadSpec(f"unknown graph family {name!r}")


def parse_graph_spec(text: str) -> Graph:
    """Parse the graph mini-language used by the CLI and JSON inputs.

    Forms: "claw", "path:7", "cycle:5", "star:4", "complete:5",
    "spider:4,4,2", "broom:6,2", "dbroom:2,5,3", and
    "edges:7:0-1,1-2" (vertex count, then dash-separated pairs).
    """
    text = text.strip()
    if not text:
        raise BadSpec("empty graph spec")
    head, _, rest = text.partition(":")
    if head == "claw":
        if rest:
            raise BadSpec("claw takes no parameters")
        return build_family("claw")
    if head == "edges":
        n_text, sep, pairs_text = rest.partition(":")
        if not sep:
            raise BadSpec(f"edges spec needs a vertex count and a pair list: {text!r}")
        try:
            n = int(n_text)
        except ValueError as exc:
            raise BadSpec(f"bad vertex count in {text!r}") from exc
        edges = set()
        if pairs_text:
            for chunk in pairs_text.split(","):
                u_text, sep2, v_text = chunk.partition("-")
                if not sep2:
                    raise BadSpec(f"bad edge {chunk!r} in {text!r}")
                try:
                    edges.add((int(u_text), int(v_text)))
                except ValueError as exc:
                    raise BadSpec(f"bad edge {chunk!r} in {text!r}") from exc
        return Graph(n, frozenset(edges), label=text)
    if head in ("path", "cycle", "star", "complete", "spider", "broom", "dbroom"):
        if not rest:
            raise BadSpec(f"{head} needs parameters: {text!r}")
        try:
            params = tuple(int(piece) for piece in rest.split(","))
        except ValueError as exc:
            raise BadSpec(f"bad parameters in {text!r}") from exc
        return build_family(head, *params)
    raise BadSpec(f"unknown graph spec {text!r}")


def random_tree(n: int, rng: random.Random) -> Graph:
    """A uniformly random labeled tree, decoded from a random code sequence."""
    if n < 1:
        raise BadSpec(f"tree needs at least 1 vertex, got {n}")
    label = f"random-tree:{n}"
    if n == 1:
        return Graph(1, frozenset(), label=label)
    if n == 2:
        return Graph(2, frozenset({(0, 1)}), label=label)
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = set()
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(edges), label=label)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Each of the C(n,2) possible edges included independently with probability p."""
    if n < 0:
        raise BadSpec(f"vertex count must be nonnegative, got {n}")
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    }
    return Graph(n, frozenset(edges), label=f"random-graph:{n}")


def _hub_arms(G: Graph):
    """Each vertex of degree >= 3 of a tree (a hub), paired with its arms
    as (length, end) pairs: the walk from the hub through vertices of
    degree 2, stopped at the first vertex of another degree.  A tuple of
    (hub, arms) in increasing hub order; None unless G is a tree."""
    return _shape(G)[1]


def _walk_arms(masks: tuple) -> tuple:
    """``_hub_arms`` of the tree with neighbour bitmasks ``masks``."""
    arms = []
    for hub in range(len(masks)):
        mask = masks[hub]
        if mask.bit_count() < 3:
            continue
        walks = []
        while mask:
            bit = mask & -mask
            mask ^= bit
            prev, cur = hub, bit.bit_length() - 1
            length = 1
            while masks[cur].bit_count() == 2:
                prev, cur = cur, (masks[cur] & ~(1 << prev)).bit_length() - 1
                length += 1
            walks.append((length, cur))
        arms.append((hub, tuple(walks)))
    return tuple(arms)


def spider_legs(G: Graph):
    """Leg-length partition if G is a spider, else None.

    A spider is a tree with exactly one vertex of degree at least 3; its
    legs are the paths from that center to the leaves.
    """
    arms = _hub_arms(G)
    if arms is None or len(arms) != 1:
        return None
    ((_, walks),) = arms
    return Partition(sorted((length for length, _ in walks), reverse=True))


def _double_broom_shape(G: Graph):
    """(left, middle, right) if G is a double broom with both leaf bundles
    of size >= 2, else None: a tree with two hubs, one arm between them
    and every other arm a single leaf."""
    arms = _hub_arms(G)
    if arms is None or len(arms) != 2:
        return None
    (first, left), (hub, right) = arms
    (middle,) = [length for length, end in left if end == hub]
    if any(length > 1 for length, end in left + right if end not in (first, hub)):
        return None
    return len(left) - 1, middle, len(right) - 1


# -- stable partitions --------------------------------------------------------


class StablePartitionCount(_Record):
    """Stable-partition counts of one type.

    ``count`` is the number of unordered stable partitions with the given
    block sizes; ``semi_ordered_count`` additionally orders blocks of equal
    size, so it always equals count times the type's multiplicity factorial.
    """

    type: Partition
    count: int
    semi_ordered_count: int

    def __post_init__(self) -> None:
        expected = self.count * self.type.multiplicity_factorial()
        if self.semi_ordered_count != expected:
            raise ValueError(
                f"semi-ordered count {self.semi_ordered_count} does not equal "
                f"count x multiplicity factorial = {expected}"
            )


def _ordered_stable_count(G: Graph, lam: Partition) -> int:
    """Assignments of vertices to distinguishable blocks with sizes lam and
    no edge inside a block.

    Interchangeable branches into still-empty blocks of equal capacity are
    explored once and multiplied, which keeps the search near the number of
    genuinely distinct partial partitions.
    """
    order = _shape(G)[2]
    masks = _adjacency_masks(G)
    return _assign(0, G.n, order, masks, list(lam), [0] * lam.length, range(lam.length))


def _assign(i: int, n: int, order: tuple, masks, remaining: list, members: list, blocks) -> int:
    """Completions of a partial assignment of ``order[:i]``, the first i of
    n vertices, to the blocks indexed by ``blocks``: ``members[b]`` holds
    block b's vertex bitmask and ``remaining[b]`` its free capacity; both
    are restored before returning."""
    if i == n:
        return 1
    v = order[i]
    conflict = masks[v]
    bit = 1 << v
    total = 0
    tried_empty = set()
    for b in blocks:
        if remaining[b] == 0 or members[b] & conflict:
            continue
        if members[b] == 0:
            cap = remaining[b]
            if cap in tried_empty:
                continue
            tried_empty.add(cap)
            twins = sum(1 for j in blocks if members[j] == 0 and remaining[j] == cap)
        else:
            twins = 1
        members[b] |= bit
        remaining[b] -= 1
        total += twins * _assign(i + 1, n, order, masks, remaining, members, blocks)
        remaining[b] += 1
        members[b] &= ~bit
    return total


#: Default block cap of ``count_stable_partitions``.
_BLOCK_CAP = 8


def _check_blocks(lam: Partition, max_blocks: int = _BLOCK_CAP) -> None:
    """Refuse a type of more than ``max_blocks`` blocks, the cap that
    guards stable-partition counting's exponential regime."""
    if lam.length > max_blocks:
        raise TooManyBlocks(f"type has {lam.length} blocks, cap is {max_blocks}")


def count_stable_partitions(
    G: Graph, type_, max_blocks: int = _BLOCK_CAP
) -> StablePartitionCount:
    """Count the stable partitions of G with the given block-size type.

    Exact backtracking over vertices in a connectivity-friendly order; on a
    tree with k blocks the effective branching factor is about k-1, so long
    thin trees stay fast even past 20 vertices.  The block cap guards the
    exponential regime; raise it deliberately if needed.
    """
    lam = Partition(type_)
    if lam.n != G.n:
        raise DegreeMismatch(
            f"type sums to {lam.n} but the graph has {G.n} vertices"
        )
    _check_blocks(lam, max_blocks)
    ordered = _ordered_stable_count(G, lam)
    lam_fact = lam.multiplicity_factorial()
    count, rem = divmod(ordered, lam_fact)
    if rem:
        raise AssertionError(
            f"ordered count {ordered} is not a multiple of {lam_fact}"
        )
    return StablePartitionCount(type=lam, count=count, semi_ordered_count=ordered)


def _part_insertions(n: int) -> tuple:
    """Partitions of 0..n and the maps that add one part to them.

    ``parts[m]`` lists the partitions of m as plain tuples in
    reverse-lexicographic order; a count vector over the partitions of m is
    indexed by that rank and ends in a zero sentinel.  ``insert[k][m]``
    carries such a vector over the partitions of m - k to one over the
    partitions of m, each entry moving to the partition with one more part
    k; partitions of m with no part k read the sentinel (index -1).
    """
    parts = [list(_part_tuples(m, m)) for m in range(n + 1)]
    rank = [{p: i for i, p in enumerate(ps)} for ps in parts]
    insert = [[None] * (n + 1) for _ in range(n + 1)]
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            below = rank[m - k]
            sources = []
            for q in parts[m]:
                if k in q:
                    at = q.index(k)
                    sources.append(below[q[:at] + q[at + 1 :]])
                else:
                    sources.append(-1)
            insert[k][m] = itemgetter(*sources, -1)
    return parts, insert


def _stable_counts(mask: int, memo: dict, masks: tuple, insert: list) -> tuple:
    """Stable partitions of the vertex set ``mask`` counted by type, as a
    count vector over the partitions of its size (see ``_part_insertions``).

    The block holding the lowest vertex v of the mask is v plus an
    independent set S of v's non-neighbours in the mask, and the rest of
    the mask is partitioned on its own; so the vector is the sum over S of
    the vector of mask - v - S with a part |S| + 1 added.  The remainders
    are grouped by |S| so each size is summed before its parts are added.
    """
    low = mask & -mask
    rest = mask ^ low
    free = rest & ~masks[low.bit_length() - 1]
    by_size = [[rest]]
    while free:
        bit = free & -free
        free ^= bit
        conflict = masks[bit.bit_length() - 1] & mask
        for s in range(len(by_size) - 1, -1, -1):
            grown = [r ^ bit for r in by_size[s] if not conflict & ~r]
            if not grown:
                continue
            if s + 1 == len(by_size):
                by_size.append(grown)
            else:
                by_size[s + 1].extend(grown)
    size = mask.bit_count()
    out = None
    for s, remainders in enumerate(by_size):
        vectors = [
            memo.get(r) or _stable_counts(r, memo, masks, insert) for r in remainders
        ]
        summed = vectors[0] if len(vectors) == 1 else tuple(map(sum, zip(*vectors)))
        moved = insert[s + 1][size](summed)
        out = moved if out is None else tuple(map(add, out, moved))
    memo[mask] = out
    return out


def enumerate_stable_partitions(G: Graph) -> dict:
    """All stable-partition counts of G, keyed by type.

    A subset DP over vertex bitmasks (``_stable_counts``): each remaining
    vertex set is solved once, so the work follows the number of vertex
    sets left after removing whole blocks, not the number of stable
    partitions.  The memo of solved sets lives only for this call.  The
    vertex budget bounds the 2^n possible vertex sets.
    """
    if G.n > 16:
        raise TooLarge(
            f"stable-partition enumeration is capped at 16 vertices, got {G.n}"
        )
    parts, insert = _part_insertions(G.n)
    memo = {0: (1, 0)}
    full = (1 << G.n) - 1
    counts = _stable_counts(full, memo, _adjacency_masks(G), insert) if full else memo[0]
    return {Partition(lam): c for lam, c in zip(parts[G.n], counts) if c}


# -- connected partitions -----------------------------------------------------


def _component_sizes(n: int, edges) -> tuple:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    sizes: dict = {}
    for v in range(n):
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def _connected_sets(
    masks, allowed: int, size: int, cur: int, count: int, ext: int, banned: int
) -> Iterator[int]:
    """Bitmasks of connected ``size``-vertex sets within ``allowed`` that
    grow the connected set ``cur`` of ``count`` vertices through the
    frontier ``ext`` and avoid ``banned``, each yielded exactly once.  Start
    from one seed vertex with its neighbours in ``allowed`` as the frontier.
    """
    if count == size:
        yield cur
        return
    while ext:
        vbit = ext & -ext
        ext ^= vbit
        grown = cur | vbit
        fresh = masks[vbit.bit_length() - 1] & allowed & ~grown & ~banned & ~ext
        yield from _connected_sets(
            masks, allowed, size, grown, count + 1, ext | fresh, banned
        )
        banned |= vbit


def _connected_split(masks, unused: int, sizes: tuple) -> bool:
    """True iff the vertex set ``unused`` splits into connected blocks of
    the descending ``sizes``: the block of its lowest vertex is tried at
    each distinct size, and the rest is split recursively."""
    if not unused:
        return True
    seed = unused & -unused
    frontier = masks[seed.bit_length() - 1] & unused
    for idx, size in enumerate(sizes):
        if idx and sizes[idx - 1] == size:
            continue
        rest = sizes[:idx] + sizes[idx + 1 :]
        for block in _connected_sets(masks, unused, size, seed, 1, frontier, 0):
            if _connected_split(masks, unused & ~block, rest):
                return True
    return False


# Bounded like the per-graph memos: a sweep or a census meets new graphs without end.
@lru_cache(maxsize=_TYPES_KEPT)
def _has_connected_partition(G: Graph, lam: Partition) -> bool:
    if is_forest(G):
        if G.n > 20:
            raise TooLarge(
                f"forest connected-partition search is capped at 20 vertices, got {G.n}"
            )
    elif G.n > 16:
        raise TooLarge(
            f"connected-partition search is capped at 16 vertices, got {G.n}"
        )
    return _connected_split(_adjacency_masks(G), (1 << G.n) - 1, tuple(lam))


def has_connected_partition(G: Graph, type_) -> bool:
    """True iff the vertices split into blocks of the given sizes, each
    inducing a connected subgraph.

    A pruned backtracking search over connected vertex sets, up to 20
    vertices for forests and 16 for other graphs (the positivity cover
    searches only the latter, and reads a tree's types from tree-p).
    """
    lam = Partition(type_)
    if lam.n != G.n:
        raise DegreeMismatch(
            f"type sums to {lam.n} but the graph has {G.n} vertices"
        )
    return _has_connected_partition(G, lam)


# -- bipartition, colorings, independence ------------------------------------


def balanced_stable_bipartition(G: Graph) -> bool:
    """True iff the two color classes of connected bipartite G differ in
    size by at most one."""
    if G.n == 0:
        raise NotConnected("the empty graph has no bipartition classes")
    components, _, order, odd = _shape(G)
    masks = _adjacency_masks(G)
    reached = len(components[0])
    for v in order[:reached]:
        same = masks[v] & (odd if odd >> v & 1 else ~odd)
        if same:
            w = (same & -same).bit_length() - 1
            raise NotBipartite(f"vertices {v} and {w} are adjacent with equal color")
    if reached != G.n:
        raise NotConnected(f"only {reached} of {G.n} vertices are reachable")
    return abs(G.n - 2 * odd.bit_count()) <= 1


def chromatic_polynomial(G: Graph, k: int) -> int:
    """Number of proper colorings with k colors.

    Deletion-contraction with component splitting and memoization on the
    relabeled edge list; no closed-form shortcuts, so tree and cycle
    formulas remain genuine cross-checks.
    """
    if G.n > 20:
        raise TooLarge(f"chromatic polynomial is capped at 20 vertices, got {G.n}")
    if k < 0:
        raise BadSpec(f"color count must be nonnegative, got {k}")
    return _chromatic_value(G.n, tuple(sorted(G.edges)), k)


def _relabel(vertices, edges) -> tuple:
    index = {v: i for i, v in enumerate(vertices)}
    return tuple(
        sorted(
            (min(index[u], index[v]), max(index[u], index[v]))
            for u, v in edges
        )
    )


@lru_cache(maxsize=None)
def _chromatic_value(n: int, edges: tuple, k: int) -> int:
    if not edges:
        return k**n
    # Uncached: the graphs of deletion-contraction would crowd the questions'
    # graphs out of the per-graph memos.
    components = _components(_adjacency_masks.__wrapped__(Graph(n, frozenset(edges))))[0]
    if len(components) > 1:
        value = 1
        for comp in components:
            comp_set = set(comp)
            comp_edges = [e for e in edges if e[0] in comp_set]
            value *= _chromatic_value(len(comp), _relabel(comp, comp_edges), k)
        return value
    u, v = edges[0]
    deleted = edges[1:]
    merged = set()
    for a, b in deleted:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            merged.add((min(a2, b2), max(a2, b2)))
    survivors = [w for w in range(n) if w != v]
    contracted = _relabel(survivors, merged)
    return _chromatic_value(n, deleted, k) - _chromatic_value(n - 1, contracted, k)

