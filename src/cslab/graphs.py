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
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, itemgetter
from typing import Iterator

from .errors import (
    BadSpec,
    DegreeMismatch,
    NotBipartite,
    NotConnected,
    TooLarge,
    TooManyBlocks,
)
from .partitions import Partition


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices 0..n-1.

    Edges are stored as sorted pairs (u, v) with u < v; loops are rejected
    and duplicate or reversed pairs collapse.  The label is cosmetic (used
    in reports) and does not participate in equality or hashing.
    """

    n: int
    edges: frozenset = frozenset()
    label: str = field(default="", compare=False)

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

    def __repr__(self) -> str:
        tag = f", label={self.label!r}" if self.label else ""
        return f"Graph(n={self.n}, edges={sorted(self.edges)}{tag})"


@lru_cache(maxsize=None)
def _adjacency_masks(G: Graph) -> tuple:
    """Neighbor bitmasks, one per vertex."""
    masks = [0] * G.n
    for u, v in G.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def connected_components(G: Graph) -> list:
    """Vertex sets of the components, each sorted, ordered by least vertex."""
    masks = _adjacency_masks(G)
    seen = 0
    components = []
    for start in range(G.n):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        stack = [start]
        members = [start]
        while stack:
            v = stack.pop()
            fresh = masks[v] & ~seen
            while fresh:
                bit = fresh & -fresh
                fresh ^= bit
                seen |= bit
                w = bit.bit_length() - 1
                stack.append(w)
                members.append(w)
        components.append(tuple(sorted(members)))
    return components


def is_connected(G: Graph) -> bool:
    return G.n <= 1 or len(connected_components(G)) == 1


def is_forest(G: Graph) -> bool:
    return len(G.edges) == G.n - len(connected_components(G))


def is_tree(G: Graph) -> bool:
    return G.n >= 1 and is_connected(G) and len(G.edges) == G.n - 1


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


def spider_legs(G: Graph):
    """Leg-length partition if G is a spider, else None.

    A spider is a tree with exactly one vertex of degree at least 3; its
    legs are the paths from that center to the leaves.
    """
    if not is_tree(G):
        return None
    masks = _adjacency_masks(G)
    centers = [v for v in range(G.n) if masks[v].bit_count() >= 3]
    if len(centers) != 1:
        return None
    center = centers[0]
    legs = []
    mask = masks[center]
    while mask:
        bit = mask & -mask
        mask ^= bit
        prev, cur = center, bit.bit_length() - 1
        length = 1
        while True:
            onward = masks[cur] & ~(1 << prev)
            if not onward:
                break
            prev, cur = cur, onward.bit_length() - 1
            length += 1
        legs.append(length)
    return Partition(sorted(legs, reverse=True))


# -- stable partitions --------------------------------------------------------


@dataclass(frozen=True)
class StablePartitionCount:
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


def _search_order(G: Graph) -> list:
    """Vertices ordered so each one (after the first per component) touches
    an earlier one, which lets block assignment prune on adjacency early."""
    masks = _adjacency_masks(G)
    order = []
    seen = 0
    for start in range(G.n):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            fresh = masks[v] & ~seen
            while fresh:
                bit = fresh & -fresh
                fresh ^= bit
                seen |= bit
                queue.append(bit.bit_length() - 1)
    return order


def _ordered_stable_count(G: Graph, lam: Partition) -> int:
    """Assignments of vertices to distinguishable blocks with sizes lam and
    no edge inside a block.

    Interchangeable branches into still-empty blocks of equal capacity are
    explored once and multiplied, which keeps the search near the number of
    genuinely distinct partial partitions.
    """
    order = _search_order(G)
    masks = _adjacency_masks(G)
    return _assign(0, G.n, order, masks, list(lam), [0] * lam.length, range(lam.length))


def _assign(i: int, n: int, order: list, masks, remaining: list, members: list, blocks) -> int:
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


def count_stable_partitions(
    G: Graph, type_, max_blocks: int = 8
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
    if lam.length > max_blocks:
        raise TooManyBlocks(
            f"type has {lam.length} blocks, cap is {max_blocks}"
        )
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
    # Built here rather than by enumerate_partitions, whose validated
    # Partition objects double the cost of this per-call table.
    ranked = {(0, 0): [()]}
    for m in range(1, n + 1):
        for cap in range(1, m + 1):
            ranked[m, cap] = [
                (first,) + rest
                for first in range(cap, 0, -1)
                for rest in ranked[m - first, min(first, m - first)]
            ]
    parts = [ranked[m, m] for m in range(n + 1)]
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


@lru_cache(maxsize=None)
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

    A pruned backtracking search over connected vertex sets.  Forests are
    searched up to 20 vertices, other graphs up to 16.
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
    masks = _adjacency_masks(G)
    color = [-1] * G.n
    color[0] = 0
    queue = deque([0])
    visited = 1
    while queue:
        v = queue.popleft()
        mask = masks[v]
        while mask:
            bit = mask & -mask
            mask ^= bit
            w = bit.bit_length() - 1
            if color[w] == -1:
                color[w] = 1 - color[v]
                visited += 1
                queue.append(w)
            elif color[w] == color[v]:
                raise NotBipartite(
                    f"vertices {v} and {w} are adjacent with equal color"
                )
    if visited != G.n:
        raise NotConnected(f"only {visited} of {G.n} vertices are reachable")
    ones = sum(color)
    return abs(G.n - 2 * ones) <= 1


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
    components = connected_components(Graph(n, frozenset(edges)))
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

