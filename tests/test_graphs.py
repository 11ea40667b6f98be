"""Graph families, stable-partition counting, and coloring counts against
brute enumeration."""

import gc
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

import cslab.graphs
from cslab import (
    BadSpec,
    Graph,
    NotBipartite,
    Partition,
    TooLarge,
    TooManyBlocks,
    balanced_stable_bipartition,
    build_family,
    change_basis,
    chromatic_polynomial,
    compute_csf,
    count_stable_partitions,
    enumerate_partitions,
    enumerate_stable_partitions,
    has_connected_partition,
    parse_graph_spec,
    random_graph,
    random_tree,
    specialize_ones,
    spider_legs,
)


def is_connected(G: Graph) -> bool:
    if G.n == 0:
        return True
    seen = {0}
    stack = [0]
    adjacency = {v: set() for v in range(G.n)}
    for u, v in G.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    while stack:
        v = stack.pop()
        for w in adjacency[v] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == G.n


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

    def test_families_are_connected(self):
        for spec in ("path:6", "cycle:6", "star:5", "complete:4", "claw",
                     "spider:3,2,2", "broom:4,2", "dbroom:3,2,3"):
            assert is_connected(parse_graph_spec(spec)), spec


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
