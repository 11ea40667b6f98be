"""Graph families, stable-partition counting, and coloring counts against
brute enumeration."""

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_connected_partition,
    brute_stable_type_counts,
    chromatic_by_colorings,
    cycle_chromatic,
    falling_factorial,
    tree_chromatic,
)

import cslab.csf
import cslab.graphs
import cslab.rimhook
from cslab import (
    BadSpec,
    Graph,
    NotBipartite,
    NotConnected,
    Partition,
    TooLarge,
    TooManyBlocks,
    balanced_stable_bipartition,
    build_family,
    change_basis,
    chromatic_polynomial,
    compute_csf,
    count_stable_partitions,
    e_positivity,
    enumerate_partitions,
    enumerate_stable_partitions,
    has_connected_partition,
    parse_graph_spec,
    random_graph,
    random_tree,
    run_sweep,
    schur_positivity,
    specialize_ones,
    spider_legs,
)
from cslab.graphs import _double_broom_shape, connected_components


def _relabelled(G: Graph, rng: random.Random) -> Graph:
    """G with its vertices permuted at random."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Graph(G.n, frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in G.edges))


def _reach(G: Graph, start: int) -> set:
    """Vertices joined to ``start`` by a path, found by a plain search."""
    adjacency = {v: set() for v in range(G.n)}
    for u, v in G.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adjacency[v] - seen:
            seen.add(w)
            stack.append(w)
    return seen


def _induced(G: Graph, vertices) -> Graph:
    """The subgraph induced on ``vertices``, relabelled 0..k-1 in order."""
    index = {v: i for i, v in enumerate(sorted(vertices))}
    return Graph(len(index), frozenset(
        (index[u], index[v]) for u, v in G.edges if u in index and v in index
    ))


def is_connected(G: Graph) -> bool:
    return G.n == 0 or len(_reach(G, 0)) == G.n


class TestGraphBasics:
    def test_normalizes_edges(self):
        G = Graph(3, frozenset({(2, 0), (0, 1)}))
        assert G.edges == frozenset({(0, 2), (0, 1)})

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(BadSpec):
            Graph(3, frozenset({(1, 1)}))
        with pytest.raises(BadSpec):
            Graph(3, frozenset({(0, 3)}))

    def test_degree(self):
        G = build_family("star", 4)
        degrees = sorted(G.degree(v) for v in range(G.n))
        assert degrees == [1, 1, 1, 1, 4]


class TestFamilies:
    def test_path_cycle_star_complete_shapes(self):
        path = build_family("path", 5)
        assert (path.n, path.edge_count) == (5, 4)
        assert max(path.degree(v) for v in range(5)) == 2

        cycle = build_family("cycle", 5)
        assert (cycle.n, cycle.edge_count) == (5, 5)
        assert all(cycle.degree(v) == 2 for v in range(5))

        complete = build_family("complete", 5)
        assert complete.edge_count == 10

        claw = build_family("claw")
        star = build_family("star", 3)
        assert claw.n == 4 and claw.edges == star.edges

    def test_spider_legs_meet_at_one_center(self):
        G = build_family("spider", 4, 2, 1)
        assert (G.n, G.edge_count) == (8, 7)
        degrees = sorted(G.degree(v) for v in range(G.n))
        assert degrees == [1, 1, 1, 2, 2, 2, 2, 3]
        assert spider_legs(G) == Partition((4, 2, 1))

    def test_broom_is_path_plus_pendant_leaves(self):
        G = build_family("broom", 5, 3)
        assert (G.n, G.edge_count) == (9, 8)
        assert spider_legs(G) == Partition((5, 1, 1, 1))

    def test_double_broom_has_two_leaf_bundles(self):
        # dbroom:l,p,r — l and r leaves on two hubs at path distance p.
        G = build_family("dbroom", 2, 3, 4)
        assert (G.n, G.edge_count) == (10, 9)
        degrees = sorted(G.degree(v) for v in range(G.n))
        assert degrees.count(1) == 6
        assert degrees[-2:] == [3, 5]

    def test_spider_legs_rejects_non_spiders(self):
        assert spider_legs(build_family("cycle", 5)) is None
        assert spider_legs(build_family("dbroom", 2, 1, 2)) is None
        # A bare path has no branch vertex, so it is not a spider here.
        assert spider_legs(build_family("path", 5)) is None
        assert spider_legs(build_family("claw")) == Partition((1, 1, 1))

    def test_double_broom_shape_survives_relabelling(self):
        # Every dbroom:l,m,r with l, r >= 2 on at most 16 vertices.
        rng = random.Random(5)
        shapes = [(l, m, r) for l in range(2, 14) for m in range(1, 14) for r in range(2, 14)
                  if l + m + r + 1 <= 16]
        assert len(shapes) == 286
        for left, middle, right in shapes:
            G = _relabelled(build_family("dbroom", left, middle, right), rng)
            shape = _double_broom_shape(G)
            assert shape is not None and shape[1] == middle, (left, middle, right)
            assert sorted((shape[0], shape[2])) == sorted((left, right)), (left, middle, right)

    @pytest.mark.parametrize(
        "spec",
        ["spider:4,2,1", "spider:3,3,3,3", "broom:5,3", "path:1", "path:7", "cycle:8",
         "star:6",
         # Three vertices of degree 3 in a row.
         "edges:8:0-1,1-4,1-2,2-5,2-3,3-6,3-7",
         # dbroom:2,4,2 with a pendant on the middle path.
         "edges:10:0-2,1-2,2-3,3-4,4-5,5-6,6-7,6-8,4-9",
         # Two hubs, but one arm is two edges long rather than a leaf.
         "edges:8:0-2,1-2,2-3,3-4,4-5,4-6,6-7"],
    )
    def test_double_broom_shape_rejects_other_graphs(self, spec):
        G = parse_graph_spec(spec)
        assert _double_broom_shape(G) is None
        assert _double_broom_shape(_relabelled(G, random.Random(7))) is None

    @pytest.mark.parametrize("legs", [(1, 1, 1), (4, 2, 1), (5, 5, 2), (3, 2, 2, 1), (6, 1, 1, 1, 1)])
    def test_spider_legs_survive_relabelling(self, legs):
        G = _relabelled(build_family("spider", *legs), random.Random(sum(legs)))
        assert spider_legs(G) == Partition(legs)

    def test_families_are_connected(self):
        for spec in ("path:6", "cycle:6", "star:5", "complete:4", "claw",
                     "spider:3,2,2", "broom:4,2", "dbroom:3,2,3"):
            assert is_connected(parse_graph_spec(spec)), spec


class TestShapeMemo:
    """Components and hub arms are found once per graph, kept for at most
    128 graphs, and handed out as tuples that no caller can change."""

    def test_one_sweep_instance_walks_its_graph_once(self):
        cslab.graphs._shape.cache_clear()
        run_sweep("spider:a,2,1", "a", 8, 8)
        assert cslab.graphs._shape.cache_info().misses == 1
        cslab.graphs._shape.cache_clear()
        run_sweep("dbroom:2,p,3", "p", 5, 5)
        assert cslab.graphs._shape.cache_info().misses == 1

    def test_labels_share_an_entry(self):
        G = build_family("spider", 4, 2, 1)
        twin = Graph(G.n, G.edges, label="another name")
        cslab.graphs._shape.cache_clear()
        assert spider_legs(G) == spider_legs(twin) == Partition((4, 2, 1))
        assert connected_components(twin) == (tuple(range(G.n)),)
        info = cslab.graphs._shape.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_results_are_tuples_no_caller_can_change(self):
        components = connected_components(Graph(5, frozenset({(0, 3), (1, 2)})))
        assert components == ((0, 3), (1, 2), (4,))
        assert type(components) is tuple and all(type(c) is tuple for c in components)
        with pytest.raises(TypeError):
            components[0] = (4,)
        arms = cslab.graphs._hub_arms(build_family("dbroom", 2, 3, 3))
        assert arms == ((2, ((1, 0), (1, 1), (3, 5))), (5, ((3, 2), (1, 6), (1, 7), (1, 8))))
        with pytest.raises(AttributeError):
            arms[0][1].append((1, 9))
        assert connected_components(Graph(5, frozenset({(0, 3), (1, 2)}))) is components

    def test_search_order_and_odd_depths(self):
        rng = random.Random(11)
        for i in range(300):
            n = rng.randrange(0, 12)
            G = random_tree(n, rng) if i % 3 == 0 and n else random_graph(n, rng.random() / 2, rng)
            components, _, order, odd = cslab.graphs._shape(G)
            assert sorted(order) == list(range(G.n))
            masks = cslab.graphs._adjacency_masks(G)
            at = 0
            for component in components:
                assert order[at] == component[0]
                earlier = 1 << order[at]
                for v in order[at + 1 : at + len(component)]:
                    assert masks[v] & earlier, (G, v)
                    earlier |= 1 << v
                assert sorted(order[at : at + len(component)]) == list(component)
                at += len(component)
            if chromatic_by_colorings(G, 2):
                assert all((odd >> u & 1) != (odd >> v & 1) for u, v in G.edges)

    @pytest.mark.parametrize("spec", ["dbroom:2,13,3", "cycle:8"])
    def test_both_questions_walk_the_graph_once(self, spec, monkeypatch):
        # Past the cap, dbroom:2,13,3's Schur question counts the targeted
        # tabloid contents one type at a time.
        walks = []
        walk = cslab.graphs._components
        monkeypatch.setattr(
            cslab.graphs, "_components", lambda masks: walks.append(masks) or walk(masks)
        )
        cslab.graphs._shape.cache_clear()
        cslab.rimhook._semi_ordered_count.cache_clear()
        G = parse_graph_spec(spec)
        e_positivity(G)
        schur_positivity(G)
        assert len(walks) == 1
        if G.n > 12:
            assert cslab.rimhook._semi_ordered_count.cache_info().misses > 0

    def test_deletion_contraction_keeps_out_of_the_memos(self):
        G = random_tree(16, random.Random(5))
        memos = (cslab.graphs._adjacency_masks, cslab.graphs._shape)
        for memo in memos + (cslab.graphs._chromatic_value,):
            memo.cache_clear()
        assert chromatic_polynomial(G, 3) == 3 * 2**15
        assert [memo.cache_info().currsize for memo in memos] == [0, 0]

    def test_two_hundred_graphs_leave_at_most_128_in_each_memo(self):
        rng = random.Random(3)
        graphs = {random_tree(12, rng) for _ in range(400)}
        graphs = sorted(graphs, key=lambda G: sorted(G.edges))[:200]
        assert len(graphs) == 200
        memos = (cslab.graphs._adjacency_masks, cslab.graphs._shape, cslab.csf._generic_csf)
        for G in graphs:
            compute_csf(G, "tree-p")
        for memo in memos:
            assert memo.cache_info().maxsize == 128
            assert memo.cache_info().currsize == 128, memo


class TestTypeMemos:
    """The memos keyed by a graph and a partition type keep 64 types for
    each of the 128 graphs the per-graph memos keep."""

    BOUND = 64 * cslab.graphs._GRAPHS_KEPT

    def test_two_hundred_graphs_leave_at_most_the_bound_of_connected_partitions(self):
        rng = random.Random(4)
        trees = sorted({random_tree(11, rng) for _ in range(400)}, key=lambda G: sorted(G.edges))
        assert len(trees) >= 200
        memo = cslab.graphs._has_connected_partition
        memo.cache_clear()
        types = list(enumerate_partitions(11))
        for G in trees[:200]:
            for lam in types:
                has_connected_partition(G, lam)
        # 200 graphs times 56 types ask for 11,200 entries.
        assert (memo.cache_info().maxsize, memo.cache_info().currsize) == (self.BOUND, self.BOUND)

    def test_two_hundred_graphs_leave_at_most_the_bound_of_semi_ordered_counts(self):
        # Complete graphs less one edge end each count within a few vertices.
        n = 20
        full = frozenset((u, v) for u in range(n) for v in range(u + 1, n))
        graphs = [Graph(n, full - {edge}) for edge in sorted(full)[:200]]
        types = [lam for lam in enumerate_partitions(n) if lam.length <= 3]
        memo = cslab.rimhook._semi_ordered_count
        memo.cache_clear()
        for G in graphs:
            for lam in types:
                memo(G, lam)
        # 200 graphs times 44 types ask for 8,800 entries.
        assert (memo.cache_info().maxsize, memo.cache_info().currsize) == (self.BOUND, self.BOUND)


class TestParsing:
    def test_parses_edge_lists(self):
        G = parse_graph_spec("edges:4:0-1,1-2,2-3")
        assert G.n == 4 and G.edge_count == 3

    def test_round_trips_family_specs(self):
        for spec, n in (("claw", 4), ("path:7", 7), ("spider:4,4,2", 11),
                        ("broom:6,2", 9), ("dbroom:2,5,3", 11)):
            assert parse_graph_spec(spec).n == n, spec

    @pytest.mark.parametrize(
        "bad", ["", "path", "path:", "path:x", "spider:4", "unknown:3",
                "edges:3:0-1,0-5", "edges:3:0"]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises((BadSpec, ValueError)):
            parse_graph_spec(bad)


class TestStablePartitions:
    @pytest.mark.parametrize(
        "spec",
        ["path:5", "cycle:5", "claw", "complete:4", "spider:2,2,1", "edges:5:0-1,2-3"],
    )
    def test_counts_match_brute_set_partitions(self, spec):
        G = parse_graph_spec(spec)
        assert enumerate_stable_partitions(G) == brute_stable_type_counts(G)

    def test_count_single_type_matches_enumeration(self):
        G = build_family("spider", 3, 2, 1)
        table = enumerate_stable_partitions(G)
        for lam, count in table.items():
            record = count_stable_partitions(G, lam)
            assert record.count == count
            assert record.semi_ordered_count == count * lam.multiplicity_factorial()

    def test_count_scales_past_full_enumeration(self):
        G = build_family("path", 20)
        record = count_stable_partitions(G, Partition((10, 10)))
        assert record.count > 0
        assert record.semi_ordered_count == 2 * record.count

    def test_block_bound_is_enforced(self):
        G = build_family("path", 18)
        with pytest.raises(TooManyBlocks):
            count_stable_partitions(G, Partition((2,) * 9))

    def test_complete_graph_admits_only_singletons(self):
        G = build_family("complete", 5)
        assert enumerate_stable_partitions(G) == {Partition((1,) * 5): 1}

    def test_vertex_cap_is_enforced(self):
        with pytest.raises(TooLarge):
            enumerate_stable_partitions(build_family("path", 17))

    def test_reaches_fourteen_vertex_trees(self):
        G = random_tree(14, random.Random(14))
        stable = compute_csf(G, "stable-m").value
        assert change_basis(compute_csf(G, "edge-p").value, "m") == stable
        for k in range(1, 4):
            assert specialize_ones(stable, k) == chromatic_polynomial(G, k)

    def test_memo_is_released_on_return(self):
        # A memo caught in a reference cycle would outlive the call until a
        # full collection.  The collection below runs under DEBUG_SAVEALL,
        # so such garbage stays counted while the interpreter's free lists,
        # which hold on to small tuples, are emptied on both sides.
        G = random_tree(12, random.Random(12))
        enumerate_stable_partitions(G)
        gc.disable()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            enumerate_stable_partitions(G)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            tracemalloc.stop()
            gc.enable()
        assert after - before < 64 * 1024

    def test_single_type_count_leaves_no_cycles(self):
        G = build_family("spider", 3, 2, 1)
        lam = Partition((3, 2, 2))
        count_stable_partitions(G, lam)
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                count_stable_partitions(G, lam)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _random_forest(n: int, keep: float, rng: random.Random) -> Graph:
    """A random tree on n vertices that keeps each edge with probability
    ``keep``, relabelled at random: several components, some of them
    isolated vertices, when ``keep`` is low."""
    tree = random_tree(n, rng)
    return _relabelled(Graph(n, frozenset(e for e in tree.edges if rng.random() < keep)), rng)


def _forest_rule_types(n: int) -> list:
    """The types a forest counts from its 2-colouring: (s1), (s1, s2) and
    (s1, s2, 1)."""
    return [lam for lam in enumerate_partitions(n)
            if lam.length <= 2 or lam.length == 3 and lam[2] == 1]


def _backtracked(G: Graph, lam: Partition) -> int:
    """The ordered count of ``_assign`` alone, called directly."""
    order = cslab.graphs._shape(G)[2]
    masks = cslab.graphs._adjacency_masks(G)
    return cslab.graphs._assign(0, G.n, order, masks, list(lam), [0] * lam.length, range(lam.length))


class TestForestRule:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.sampled_from((0.3, 0.7, 1.0)), st.integers(0, 10**6))
    def test_matches_brute_set_partitions(self, n, keep, seed):
        G = _random_forest(n, keep, random.Random(seed))
        brute = brute_stable_type_counts(G)
        for lam in _forest_rule_types(n):
            assert count_stable_partitions(G, lam).count == brute.get(lam, 0), (G, lam)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.sampled_from((0.3, 0.7, 1.0)), st.integers(0, 10**6))
    def test_matches_the_backtracking(self, n, keep, seed):
        G = _random_forest(n, keep, random.Random(seed))
        for lam in _forest_rule_types(n):
            assert cslab.graphs._ordered_stable_count(G, lam) == _backtracked(G, lam), (G, lam)

    def test_empty_graph_counts_one_empty_partition(self):
        record = count_stable_partitions(Graph(0), ())
        assert (record.count, record.semi_ordered_count) == (1, 1)

    @pytest.mark.parametrize(
        "spec, type_",
        [("cycle:6", (3, 3)), ("cycle:7", (3, 3, 1)), ("edges:5:0-1,1-2,0-2,3-4", (2, 2, 1)),
         ("spider:3,2,1", (3, 2, 2)), ("path:8", (3, 3, 2)), ("edges:7:0-1,2-3,3-4", (2, 2, 2, 1))],
    )
    def test_other_graphs_and_types_backtrack(self, spec, type_, monkeypatch):
        G, lam = parse_graph_spec(spec), Partition(type_)
        calls = []
        assign = cslab.graphs._assign
        monkeypatch.setattr(cslab.graphs, "_assign", lambda *args: calls.append(1) or assign(*args))
        record = count_stable_partitions(G, lam)
        assert calls
        assert record.semi_ordered_count == _backtracked(G, lam)
        assert record.count == brute_stable_type_counts(G).get(lam, 0)

    def test_forest_types_do_not_backtrack(self, monkeypatch):
        G = parse_graph_spec("edges:9:0-1,1-2,2-3,5-6,6-7")
        brute = brute_stable_type_counts(G)
        monkeypatch.setattr(cslab.graphs, "_assign", None)
        for lam in _forest_rule_types(G.n):
            assert count_stable_partitions(G, lam).count == brute.get(lam, 0), lam


class TestConnectedPartitions:
    def test_path_has_all_types(self):
        G = build_family("path", 7)
        assert all(has_connected_partition(G, lam) for lam in enumerate_partitions(7))

    def test_claw_misses_the_two_two_split(self):
        claw = build_family("claw")
        assert not has_connected_partition(claw, Partition((2, 2)))
        assert has_connected_partition(claw, Partition((3, 1)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9), st.sampled_from((0.2, 0.45, 0.7)), st.integers(0, 10**6))
    def test_property_matches_brute_on_graphs(self, n, p, seed):
        G = random_graph(n, p, random.Random(seed))
        realized = brute_connected_partition(G)
        for lam in enumerate_partitions(n):
            assert has_connected_partition(G, lam) == (lam in realized), lam

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 10**6))
    def test_property_matches_brute_on_forests(self, n, seed):
        rng = random.Random(seed)
        tree = random_tree(n, rng)
        G = Graph(n, frozenset(e for e in sorted(tree.edges) if rng.random() >= 1 / 3))
        realized = brute_connected_partition(G)
        for lam in enumerate_partitions(n):
            assert has_connected_partition(G, lam) == (lam in realized), lam

    def test_twenty_vertex_forest_answers(self):
        G = random_tree(20, random.Random(7))
        assert has_connected_partition(G, Partition((20,)))
        assert has_connected_partition(G, Partition((1,) * 20))
        assert has_connected_partition(
            build_family("path", 20), Partition((5, 5, 4, 3, 2, 1))
        )
        assert not has_connected_partition(build_family("star", 19), Partition((10, 10)))

    @pytest.mark.parametrize("spec", ["spider:3,2,1", "cycle:7"])
    def test_search_leaves_no_cycles(self, spec):
        G = parse_graph_spec(spec)
        search = cslab.graphs._has_connected_partition.__wrapped__
        search(G, Partition((4, 3)))
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                search(G, Partition((4, 3)))
                search(G, Partition((2, 2, 2, 1)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_vertex_caps(self):
        with pytest.raises(TooLarge, match="forest .* capped at 20 vertices"):
            has_connected_partition(build_family("path", 21), Partition((21,)))
        with pytest.raises(TooLarge, match="capped at 16 vertices"):
            has_connected_partition(build_family("cycle", 17), Partition((17,)))


class TestBipartition:
    def test_balanced_and_unbalanced_trees(self):
        assert balanced_stable_bipartition(build_family("path", 6))
        assert not balanced_stable_bipartition(build_family("star", 4))

    def test_odd_cycle_is_not_bipartite(self):
        with pytest.raises(NotBipartite):
            balanced_stable_bipartition(build_family("cycle", 5))

    def test_matches_brute_force_two_colourings(self):
        # A non-bipartite component of vertex 0 is reported before a second
        # component; a connected bipartite graph has exactly two colourings,
        # which swap its classes.
        rng = random.Random(24)
        seen = set()
        for _ in range(400):
            n = rng.randrange(1, 11)
            G = random_graph(n, rng.choice([0.1, 0.2, 0.35, 0.6]), rng)
            first = _induced(G, _reach(G, 0))
            try:
                balanced = balanced_stable_bipartition(G)
            except NotBipartite as exc:
                seen.add("not bipartite")
                assert chromatic_by_colorings(first, 2) == 0
                v, w = (int(word) for word in str(exc).split()[1:4:2])
                assert (min(v, w), max(v, w)) in G.edges
                continue
            except NotConnected:
                seen.add("not connected")
                assert chromatic_by_colorings(first, 2) > 0 and first.n < G.n
                continue
            seen.add(balanced)
            assert chromatic_by_colorings(G, 2) == 2
            sizes = {
                abs(n - 2 * sum(colours))
                for colours in itertools.product((0, 1), repeat=n)
                if all(colours[u] != colours[v] for u, v in G.edges)
            }
            assert balanced == (sizes.pop() <= 1)
        assert seen == {"not bipartite", "not connected", True, False}

    def test_empty_graph_is_not_connected(self):
        with pytest.raises(NotConnected, match="empty graph"):
            balanced_stable_bipartition(Graph(0))


class TestChromaticPolynomial:
    def test_small_graphs_match_coloring_enumeration(self):
        rng = random.Random(3)
        for _ in range(10):
            G = random_graph(5, 0.5, rng)
            for k in range(0, 4):
                assert chromatic_polynomial(G, k) == chromatic_by_colorings(G, k)

    def test_tree_cycle_complete_closed_forms(self):
        for n in range(2, 8):
            tree = random_tree(n, random.Random(n))
            cycle = build_family("cycle", max(n, 3))
            complete = build_family("complete", n)
            for k in range(1, 6):
                assert chromatic_polynomial(tree, k) == tree_chromatic(n, k)
                assert chromatic_polynomial(cycle, k) == cycle_chromatic(max(n, 3), k)
                assert chromatic_polynomial(complete, k) == falling_factorial(k, n)


class TestRandomGenerators:
    def test_random_tree_is_a_spanning_tree(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 12)
            G = random_tree(n, rng)
            assert G.edge_count == n - 1 if n else 0
            assert is_connected(G)

    def test_seeded_generators_are_deterministic(self):
        a = random_tree(9, random.Random(5))
        b = random_tree(9, random.Random(5))
        assert a == b
        c = random_graph(8, 0.4, random.Random(5))
        d = random_graph(8, 0.4, random.Random(5))
        assert c == d


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.sampled_from((0.2, 0.45, 0.7)), st.integers(0, 10**6))
def test_property_stable_counts_match_brute(n, p, seed):
    G = random_graph(n, p, random.Random(seed))
    assert enumerate_stable_partitions(G) == brute_stable_type_counts(G)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.sampled_from((0.2, 0.45, 0.7)), st.integers(0, 10**6))
def test_property_enumeration_matches_single_type_counts(n, p, seed):
    G = random_graph(n, p, random.Random(seed))
    for lam, count in enumerate_stable_partitions(G).items():
        assert count_stable_partitions(G, lam, max_blocks=G.n).count == count, lam
