"""Chromatic symmetric functions: every route against the coloring count.

The one non-negotiable oracle is direct enumeration of proper colorings:
restricted to nv variables, the CSF must count colorings monomial by
monomial.  Everything else (edge-subset signs, family recurrences, the
closed path-coefficient formula) is then cross-checked route against
route.
"""

import gc
import pickle
import random
import sys
import threading
import tracemalloc
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    csf_by_colorings,
    expand_symfunc,
    odd_broom_e,
    orientations_by_sinks,
    path_e_terms,
    pendant_spider_e,
    tree_chromatic,
)

from cslab import (
    BadSpec,
    DegreeMismatch,
    EmptyFunction,
    Graph,
    NotStableTriple,
    Partition,
    ROUTES,
    SymFunc,
    TooLarge,
    broom_csf,
    build_family,
    change_basis,
    chromatic_polynomial,
    compute_csf,
    csf_via_edge_subsets,
    csf_via_stable_partitions,
    csf_via_tree_dp,
    enumerate_partitions,
    parse_graph_spec,
    path_csf_e,
    random_tree,
    specialize_ones,
    spider_csf,
    triple_deletion,
    wolfe_path_coefficient,
)
from cslab import csf as csf_module
from cslab.csf import CsfResult
from cslab.graphs import is_forest
from cslab.symfunc import _beads_shape, _decode, _packed_coefficient, _places


@pytest.fixture
def fresh_tiers(monkeypatch):
    """Both key tiers with empty path memos, so that a test sees every
    memo entry the code under test adds."""
    monkeypatch.setattr(csf_module, "_TIERS", (csf_module._Tier(64), csf_module._Tier(255)))


def _memo_entries() -> int:
    """Path-series degrees stored across every key tier."""
    return sum(len(tier.cores) for tier in csf_module._TIERS)


def _layered(n: int, terms: dict) -> tuple:
    """Flat packed terms of degree n split into the recurrences' layers by
    their number of parts equal to 1, the low digit of a key."""
    radix = csf_module._tier(n).places[2]
    layers: list = []
    for key, c in terms.items():
        j = key % radix
        layers += [{} for _ in range(j + 1 - len(layers))]
        layers[j][key - j] = c
    return tuple(layers)


def e(parts, coeff=1):
    return SymFunc.single("e", Partition(parts), coeff)


class TestColoringOracle:
    @pytest.mark.parametrize(
        "spec",
        ["path:5", "cycle:5", "claw", "complete:4", "spider:2,2,1",
         "edges:5:0-1,1-2,2-3,3-4,0-4,1-4", "edges:6:0-1,2-3"],
    )
    def test_stable_route_counts_colorings(self, spec):
        G = parse_graph_spec(spec)
        f = csf_via_stable_partitions(G)
        for nv in (G.n - 1, G.n):
            assert expand_symfunc(f, nv) == csf_by_colorings(G, nv), (spec, nv)

    @pytest.mark.parametrize("spec", ["path:5", "cycle:4", "claw"])
    def test_edge_route_counts_colorings(self, spec):
        G = parse_graph_spec(spec)
        f = csf_via_edge_subsets(G)
        assert expand_symfunc(f, G.n) == csf_by_colorings(G, G.n)


class TestGoldens:
    def test_path_series_smallest_cases(self):
        assert path_csf_e(0) == SymFunc.one("e")
        assert path_csf_e(1) == e([1])
        assert path_csf_e(2) == e([2], 2)
        assert path_csf_e(3) == e([3], 3) + e([2, 1])
        assert path_csf_e(4) == e([4], 4) + e([3, 1], 2) + e([2, 2], 2)

    def test_complete_graph_is_scaled_elementary(self):
        for n in range(1, 6):
            G = build_family("complete", n)
            f = change_basis(csf_via_stable_partitions(G), "e")
            assert f == e([n], factorial(n))

    def test_claw_elementary_golden(self):
        G = build_family("claw")
        f = change_basis(csf_via_stable_partitions(G), "e")
        assert f == e([4], 4) + e([3, 1], 5) + e([2, 2], -2) + e([2, 1, 1])

    def test_claw_schur_golden(self):
        G = build_family("claw")
        f = change_basis(csf_via_stable_partitions(G), "s")
        expected = {
            Partition((3, 1)): 1,
            Partition((2, 2)): -1,
            Partition((2, 1, 1)): 5,
            Partition((1, 1, 1, 1)): 8,
        }
        assert f.terms == expected


class TestRouteAgreement:
    @pytest.mark.parametrize(
        "spec",
        ["path:7", "cycle:6", "star:5", "spider:3,2,1", "broom:4,2",
         "dbroom:2,3,2", "dbroom:3,2,4", "edges:7:0-1,1-2,1-3,3-4,4-5,4-6"],
    )
    def test_stable_and_edge_routes_agree(self, spec):
        G = parse_graph_spec(spec)
        stable = csf_via_stable_partitions(G)
        edges = csf_via_edge_subsets(G)
        assert change_basis(edges, "m") == stable
        if is_forest(G):
            tree = csf_via_tree_dp(G)
            assert tree.terms == edges.terms
            assert change_basis(tree, "m") == stable

    @pytest.mark.parametrize(
        "spec", ["path:8", "spider:4,2,1", "spider:3,3,3", "dbroom:2,3,2", "claw"]
    )
    def test_family_recurrence_agrees(self, spec):
        G = parse_graph_spec(spec)
        result = compute_csf(G, route="family-recurrence")
        assert result.route == "family-recurrence"
        assert change_basis(result.value, "m") == csf_via_stable_partitions(G)

    def test_auto_prefers_family_then_tree_then_stable_then_edges(self):
        assert compute_csf(build_family("path", 30)).route == "family-recurrence"
        assert compute_csf(build_family("cycle", 6)).route == "stable-m"
        assert compute_csf(build_family("star", 14)).route == "tree-p"
        assert compute_csf(parse_graph_spec("dbroom:3,8,3")).route == "tree-p"
        assert compute_csf(build_family("cycle", 14)).route == "edge-p"
        with pytest.raises(TooLarge):
            compute_csf(build_family("complete", 14))
        # With a target basis the family recurrence goes first only for e,
        # whose expansion needs no conversion; forests otherwise take the
        # tree DP, and graphs with a cycle keep stable-m or edge-p.
        for basis in ("m", "e", "p", "s"):
            spider = compute_csf(parse_graph_spec("spider:4,2,1"), basis=basis)
            assert spider.route == ("family-recurrence" if basis == "e" else "tree-p")
            assert spider.value.basis == basis
            dbroom = compute_csf(parse_graph_spec("dbroom:2,3,3"), basis=basis)
            assert dbroom.route == "tree-p"
            assert compute_csf(build_family("cycle", 6), basis=basis).route == "stable-m"
            assert compute_csf(build_family("cycle", 14), basis=basis).route == "edge-p"
            with pytest.raises(TooLarge, match="no route"):
                compute_csf(build_family("complete", 14), basis=basis)
        # Past the cap every other target still goes to the tree DP, which
        # is refused by vertex count; the recurrence never serves it.
        path = build_family("path", 30)
        assert compute_csf(path, basis="e").route == "family-recurrence"
        with pytest.raises(TooLarge, match="30 vertices exceed the cap 24"):
            compute_csf(path, basis="s")
        assert compute_csf(path, basis="p", cap=30).route == "tree-p"

    def test_capped_conversion_refuses_before_the_recurrence_runs(self, fresh_tiers):
        # Past the cap, a forced recurrence converting to another basis and
        # auto's tree DP are both refused by vertex count before anything is
        # built, so no path memo grows.
        n = 30
        spider = parse_graph_spec(f"spider:{n - 3},1,1")
        for G, basis in ((build_family("path", n), "s"), (spider, "p")):
            for route in ("family-recurrence", "auto"):
                with pytest.raises(TooLarge, match=f"{n} vertices exceed the cap 24"):
                    compute_csf(G, route, basis=basis)
        assert _memo_entries() == 2

    @pytest.mark.parametrize("route", ["auto", "tree-p"])
    @pytest.mark.parametrize("basis", [None, "m", "e", "p", "s"])
    def test_forest_past_the_cap_is_refused_naming_the_cap(self, route, basis):
        # The cap counts the forest's 9 vertices, not its 7 edges, whatever
        # the target.
        forest = parse_graph_spec("edges:9:0-1,1-2,2-3,4-5,5-6,5-7,5-8")
        for cap in (6, 7, 8):
            with pytest.raises(TooLarge, match=f"9 vertices exceed the cap {cap}"):
                compute_csf(forest, route, basis, cap=cap)
        result = compute_csf(forest, route, basis, cap=9)
        assert result.route == "tree-p"
        assert result.value.basis == (basis or "p")

    @pytest.mark.parametrize("basis", [None, "m", "e", "p", "s"])
    @pytest.mark.parametrize(
        "spec, route",
        [("path:8", route) for route in ("auto",) + ROUTES]
        + [("cycle:6", route) for route in ("auto", "stable-m", "edge-p")],
    )
    def test_cap_counts_vertices_on_every_route(self, spec, route, basis, monkeypatch):
        # At n = cap the call runs; at n = cap + 1 it is refused before any
        # expansion or conversion starts, except a recurrence answering e.
        G = parse_graph_spec(spec)
        answers_e = basis in (None, "e") and (
            route == "family-recurrence" or (route == "auto" and spec == "path:8")
        )
        expected = compute_csf(G, route, basis, cap=G.n)
        assert expected.value.degree == G.n
        if answers_e:
            result = compute_csf(G, route, basis, cap=G.n - 1)
            assert result.route == "family-recurrence"
            assert result.value == expected.value
            return

        def must_not_run(*args, **kwargs):
            raise AssertionError("built past the cap")

        for name in ("_generic_csf", "_path_packed", "_spider_packed", "_broom_packed",
                     "_convert"):
            monkeypatch.setattr(csf_module, name, must_not_run)
        with pytest.raises(TooLarge, match=f"^{G.n} vertices exceed the cap {G.n - 1}$"):
            compute_csf(G, route, basis, cap=G.n - 1)

    def test_tree_dp_past_24_edges_matches_the_recurrences(self):
        spider = compute_csf(parse_graph_spec("spider:20,4,1"), "tree-p", "e", cap=26)
        assert spider.value == spider_csf(20, 4, 1)
        path = build_family("path", 26)
        tree = compute_csf(path, basis="m", cap=26)
        assert tree.route == "tree-p"
        assert tree.value == compute_csf(path, "family-recurrence", "m", cap=26).value

    @pytest.mark.parametrize("spec", ["path:26", "spider:12,8,5", "dbroom:2,21,2"])
    def test_recurrence_meets_tree_dp_in_p_past_24_edges(self, spec):
        # In p the two share no step: the recurrence's e-terms go into p by
        # Newton's identity, and tree-p needs no conversion.
        G = parse_graph_spec(spec)
        assert G.n == 26
        recurrence = compute_csf(G, "family-recurrence", "p", cap=26)
        assert recurrence.value == compute_csf(G, "tree-p", "p", cap=26).value
        # Newton's rows divide by k, and the integral quotients leave e->p
        # as ints, so no later step multiplies Fractions.
        assert {type(c) for layer in recurrence._packed[2] for c in layer.values()} == {int}

    def test_unknown_route_is_rejected(self):
        with pytest.raises(BadSpec):
            compute_csf(build_family("claw"), route="magic")
        with pytest.raises(BadSpec):
            compute_csf(build_family("claw"), route="triple-deletion")

    def test_every_listed_route_dispatches(self):
        G = build_family("path", 5)
        expansions = []
        for route in ROUTES:
            result = compute_csf(G, route)
            assert result.route == route
            expansions.append(change_basis(result.value, "m"))
        assert all(f == expansions[0] for f in expansions)


def _small_benchmark_specs() -> list:
    """Every double broom of the 12-vertex census (2 <= L <= R, R >= 3)
    and every member of the swept spider and double-broom families with at
    most 12 vertices."""
    census = [
        f"dbroom:{left},{middle},{right}"
        for left in range(2, 12)
        for right in range(max(left, 3), 12)
        for middle in range(1, 12)
        if left + middle + right + 1 <= 12
    ]
    swept = [
        template.replace(var, str(value))
        for template, var, lower in (
            ("spider:a,2,1", "a", 2), ("spider:a,4,1", "a", 4),
            ("spider:a,4,2", "a", 4), ("spider:a,1,1", "a", 2),
            ("dbroom:2,p,2", "p", 1), ("dbroom:2,p,3", "p", 1),
        )
        for value in range(lower, 12)
    ]
    return [
        spec for spec in dict.fromkeys(census + swept) if parse_graph_spec(spec).n <= 12
    ]


@pytest.mark.parametrize("spec", _small_benchmark_specs())
def test_target_basis_matches_stable_partitions(spec):
    G = parse_graph_spec(spec)
    stable = csf_via_stable_partitions(G)
    for basis in ("e", "s"):
        assert compute_csf(G, basis=basis).value == change_basis(stable, basis), basis


def _random_forest(n: int, rng: random.Random):
    """A random tree on n vertices with each edge dropped with chance 1/3."""
    tree = random_tree(n, rng)
    kept = frozenset(edge for edge in sorted(tree.edges) if rng.random() >= 1 / 3)
    return Graph(n, kept)


class TestTreeDp:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10**6))
    def test_property_matches_edge_subsets_on_forests(self, n, seed):
        G = _random_forest(n, random.Random(seed))
        assert csf_via_tree_dp(G).terms == csf_via_edge_subsets(G).terms

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10**6))
    def test_property_counts_colorings(self, n, seed):
        G = _random_forest(n, random.Random(seed))
        assert expand_symfunc(csf_via_tree_dp(G), n) == csf_by_colorings(G, n)

    @pytest.mark.parametrize("n, seed", [(14, 1), (15, 2), (16, 3)])
    def test_matches_edge_subsets_past_stable_range(self, n, seed):
        G = random_tree(n, random.Random(seed))
        assert csf_via_tree_dp(G).terms == csf_via_edge_subsets(G).terms

    def test_empty_and_single_vertex(self):
        assert csf_via_tree_dp(Graph(0, frozenset())) == SymFunc.one("p")
        single = csf_via_tree_dp(Graph(1, frozenset()))
        assert single == SymFunc.single("p", Partition((1,)))

    @pytest.mark.parametrize("n", [0, 1, 300])
    def test_edgeless_graphs(self, n):
        # p_{1^300} holds a multiplicity past one byte, so the field widens.
        f = csf_via_tree_dp(Graph(n, frozenset()))
        assert f == SymFunc.single("p", Partition((1,) * n))

    def test_star_at_the_edge_cap(self):
        # Keeping j of the 24 edges joins the centre and j leaves, so
        # X(star:24) is the sum over j of (-1)^j C(24, j) p_{j+1, 1^(24-j)}.
        f = csf_via_tree_dp(parse_graph_spec("star:24"))
        assert f.terms == {
            Partition((j + 1,) + (1,) * (24 - j)): (-1) ** j * comb(24, j) for j in range(25)
        }

    def test_forest_of_one_to_six_vertex_trees(self):
        rng = random.Random(7)
        trees = [random_tree(n, rng) for n in range(1, 7)]
        edges, base = set(), 0
        for tree in trees:
            edges |= {(u + base, v + base) for u, v in tree.edges}
            base += tree.n
        f = csf_via_tree_dp(Graph(base, frozenset(edges)))
        assert f.terms == csf_via_edge_subsets(Graph(base, frozenset(edges))).terms
        product = SymFunc.one("p")
        for tree in trees:
            product = product * csf_via_tree_dp(tree)
        assert f == product

    @pytest.mark.parametrize("n, seed", [(17, 4), (18, 5), (20, 6)])
    def test_matches_edge_subsets_on_larger_random_forests(self, n, seed):
        G = _random_forest(n, random.Random(seed))
        assert csf_via_tree_dp(G).terms == csf_via_edge_subsets(G).terms

    def test_isolated_vertices(self):
        G = Graph(4, frozenset({(1, 2)}))
        f = csf_via_tree_dp(G)
        expected = {Partition((1, 1, 1, 1)): 1, Partition((2, 1, 1)): -1}
        assert f.terms == expected
        assert f.terms == csf_via_edge_subsets(G).terms

    def test_forest_of_two_paths(self):
        G = parse_graph_spec("edges:7:0-1,1-2,3-4,4-5,5-6")
        f = csf_via_tree_dp(G)
        assert f.terms == csf_via_edge_subsets(G).terms
        # p is multiplicative, so the forest is the product of its paths.
        p3 = csf_via_tree_dp(build_family("path", 3))
        p4 = csf_via_tree_dp(build_family("path", 4))
        assert f == p3 * p4

    # Sum of |table| * 2|child| over the joins of the census double brooms
    # and of every three-leg spider of at most 16 vertices, counted as in
    # ``_join_work`` when each vertex joined its children in vertex-index
    # order.
    INDEX_ORDER_WORK = {"census": 11814, "spiders": 148630}

    @staticmethod
    def _join_work(monkeypatch, graphs) -> int:
        """Pairs of (table state, child move) that ``_join`` multiplies
        while tree-p expands the graphs: a child of s states makes 2s moves."""
        work = [0]
        join = csf_module._join

        def counted(table, child, top, places):
            work[0] += len(table) * 2 * len(child)
            return join(table, child, top, places)

        monkeypatch.setattr(csf_module, "_join", counted)
        for G in graphs:
            csf_via_tree_dp(G)
        monkeypatch.undo()
        return work[0]

    def test_leaves_first_joins_cut_the_census_work(self, monkeypatch):
        census = [build_family("dbroom", left, middle, right)
                  for left in range(2, 12) for right in range(max(left, 3), 12)
                  for middle in range(1, 12) if left + middle + right + 1 <= 12]
        assert len(census) == 43
        work = self._join_work(monkeypatch, census)
        assert work <= 0.7 * self.INDEX_ORDER_WORK["census"], work

    def test_leaves_first_joins_cost_spiders_nothing_in_total(self, monkeypatch):
        # A hub with one leaf and two long legs, as in S(7, 7, 1), costs up
        # to 3.6% more than in vertex-index order; the total must not rise.
        spiders = [build_family("spider", a, b, c) for n in range(4, 17) for c in range(1, n)
                   for b in range(c, n) for a in [n - 1 - b - c] if a >= b]
        assert len(spiders) == 102
        work = self._join_work(monkeypatch, spiders)
        assert work <= self.INDEX_ORDER_WORK["spiders"], work

    def test_rejects_graphs_with_cycles(self):
        with pytest.raises(BadSpec):
            csf_via_tree_dp(build_family("cycle", 5))
        with pytest.raises(BadSpec):
            compute_csf(build_family("cycle", 5), route="tree-p")

    def test_leaves_no_cycles(self):
        G = parse_graph_spec("dbroom:3,4,3")
        csf_via_tree_dp(G)
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                csf_via_tree_dp(G)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPathSeries:
    def test_coefficients_are_positive_with_at_most_one_unit_part(self):
        for n in range(1, 13):
            f = path_csf_e(n)
            for lam, coeff in f.terms.items():
                assert coeff > 0, (n, lam)
                assert list(lam).count(1) <= 1, (n, lam)

    def test_closed_form_matches_series(self):
        for d in range(0, 11):
            series = path_csf_e(d)
            for lam in enumerate_partitions(d):
                assert wolfe_path_coefficient(lam, d) == series.coefficient(lam)

    def test_closed_form_zeroes_out_double_units(self):
        assert wolfe_path_coefficient(Partition((3, 1, 1)), 5) == 0
        assert wolfe_path_coefficient(Partition((5, 1, 1, 1)), 8) == 0

    def test_closed_form_rejects_size_mismatch(self):
        with pytest.raises(DegreeMismatch):
            wolfe_path_coefficient(Partition((3, 1)), 5)


class TestSpiderRecurrence:
    def test_matches_generic_route_exhaustively(self):
        for n in range(4, 10):
            for legs in enumerate_partitions(n - 1):
                if legs.length != 3:
                    continue
                a, b, c = legs
                G = build_family("spider", a, b, c)
                direct = change_basis(csf_via_stable_partitions(G), "e")
                assert spider_csf(a, b, c) == direct, legs

    def test_rejects_unsorted_or_degenerate_legs(self):
        with pytest.raises(BadSpec):
            spider_csf(2, 3, 1)
        with pytest.raises(BadSpec):
            spider_csf(3, 2, 0)


class TestBroomIdentities:
    def test_pendant_spider_matches_spider(self):
        for a, b in ((2, 2), (4, 3), (5, 2), (6, 6)):
            assert pendant_spider_e(a, b) == spider_csf(a, b, 1)

    def test_odd_broom_matches_generic(self):
        for handle in (1, 3, 5, 7):
            G = build_family("broom", handle, 2)
            direct = change_basis(csf_via_stable_partitions(G), "e")
            assert odd_broom_e(handle) == direct, handle

    def test_odd_double_broom_matches_generic(self):
        for middle in (1, 3, 5):
            G = build_family("dbroom", 2, middle, 2)
            direct = change_basis(csf_via_stable_partitions(G), "e")
            assert broom_csf(middle) == direct, middle

    def test_rejects_even_or_missing_parameters(self):
        with pytest.raises(BadSpec):
            broom_csf(4)
        with pytest.raises(BadSpec):
            broom_csf(0)


class TestRecurrencesPastStableRange:
    """The recurrences against the tree DP at 14-20 vertices, past the
    reach of the stable-m comparisons above."""

    @pytest.mark.parametrize("legs", [(12, 4, 1), (15, 3, 1), (16, 1, 1), (10, 4, 2)])
    def test_spider_matches_tree_dp(self, legs):
        G = build_family("spider", *legs)
        assert G.n > 12
        assert spider_csf(*legs) == change_basis(csf_via_tree_dp(G), "e")

    @pytest.mark.parametrize("middle", [9, 13, 15])
    def test_odd_double_broom_matches_tree_dp(self, middle):
        G = build_family("dbroom", 2, middle, 2)
        assert G.n > 12
        assert broom_csf(middle) == change_basis(csf_via_tree_dp(G), "e")

    def test_spider_matches_tree_dp_past_the_default_cap(self):
        G = parse_graph_spec("spider:19,4,1")
        assert G.n == 25
        assert change_basis(csf_via_tree_dp(G), "e", cap=25) == spider_csf(19, 4, 1)

    def test_mutating_a_result_leaves_later_answers_intact(self):
        spider = dict(spider_csf(5, 3, 2).terms)
        broom = dict(broom_csf(5).terms)
        path = path_csf_e(7)
        with pytest.raises(AttributeError):
            spider_csf(5, 3, 2).terms.clear()
        with pytest.raises(TypeError):
            broom_csf(5).terms[Partition((10,))] = 99
        # S(5, 3, 2) and br'(2, 5, 2) both use the 7-vertex path series.
        with pytest.raises(AttributeError):
            path.terms.clear()
        assert spider_csf(5, 3, 2).terms == spider
        assert broom_csf(5).terms == broom
        assert path_csf_e(8) == change_basis(csf_via_tree_dp(build_family("path", 8)), "e")


class TestRecurrenceInvariants:
    """X_T(1^k) = k (k-1)^(n-1), the proper k-colorings of an n-vertex tree,
    read from the recurrences' e-expansions (e_lam(1^k) = prod C(k, lam_i))
    up to sizes no full route reaches, for k in {2, 3, 5, n}; and Stanley's
    sink theorem, the e-coefficients summed by number of parts against the
    tree's orientations counted by sinks."""

    @staticmethod
    def assert_colorings(f: SymFunc, label):
        n = f.degree
        for k in {2, 3, 5, n}:
            assert specialize_ones(f, k) == tree_chromatic(n, k), (label, k)

    @staticmethod
    def assert_sinks(f: SymFunc, G: Graph):
        by_length = [0] * (G.n + 1)
        for lam, c in f.terms.items():
            by_length[lam.length] += c
        assert by_length == orientations_by_sinks(G), G.label

    def test_sinks_of_paths_up_to_40_vertices(self):
        for n in range(1, 41):
            self.assert_sinks(path_csf_e(n), build_family("path", n))

    def test_sinks_of_every_spider_up_to_20_vertices(self):
        legs = [lam for n in range(4, 21) for lam in enumerate_partitions(n - 1) if lam.length == 3]
        assert len(legs) == 204
        for a, b, c in legs:
            self.assert_sinks(spider_csf(a, b, c), build_family("spider", a, b, c))

    def test_sinks_of_seeded_spiders_up_to_40_vertices(self):
        rng = random.Random(28)
        legs: set = set()
        while len(legs) < 20:
            a, b, c = sorted((rng.randint(1, 37) for _ in range(3)), reverse=True)
            if a + b + c < 40:
                legs.add((a, b, c))
        for a, b, c in sorted(legs):
            self.assert_sinks(spider_csf(a, b, c), build_family("spider", a, b, c))

    def test_sinks_of_odd_double_brooms_up_to_middle_35(self):
        for middle in range(1, 36, 2):
            self.assert_sinks(broom_csf(middle), build_family("dbroom", 2, middle, 2))

    def test_paths_up_to_40_vertices(self):
        for n in range(1, 41):
            self.assert_colorings(path_csf_e(n), f"path:{n}")

    def test_every_spider_up_to_24_vertices(self):
        legs = [lam for n in range(4, 25) for lam in enumerate_partitions(n - 1) if lam.length == 3]
        assert len(legs) == 358
        for a, b, c in legs:
            self.assert_colorings(spider_csf(a, b, c), (a, b, c))

    @pytest.mark.parametrize("legs", [(36, 2, 1), (33, 4, 1), (32, 4, 2)])
    def test_largest_swept_spiders(self, legs):
        self.assert_colorings(spider_csf(*legs), legs)

    def test_odd_double_brooms_up_to_middle_35(self):
        for middle in range(1, 36, 2):
            self.assert_colorings(broom_csf(middle), f"dbroom:2,{middle},2")


@st.composite
def _spider_legs(draw, total=17):
    """Legs a >= b >= c >= 1 of a spider with at most total + 1 vertices."""
    c = draw(st.integers(1, 5))
    b = draw(st.integers(c, (total - c) // 2))
    a = draw(st.integers(b, total - b - c))
    return a, b, c


#: Every path, spider and double broom whose e-verdict family-sweep reads
#: from a family recurrence, as (spec template, parameter values).
_SWEEP_FAMILIES = [
    ("path:{}", range(1, 41)),
    ("spider:{},2,1", range(2, 37)),
    ("spider:{},4,1", range(4, 35)),
    ("spider:{},4,2", range(4, 33)),
    ("spider:{},1,1", range(2, 31)),
    ("dbroom:2,{},2", range(1, 10, 2)),
]


class TestPackedRecurrences:
    """The recurrences on packed multiplicity keys: values pinned from the
    tuple implementation they replaced, and the 255-vertex bound."""

    @pytest.mark.parametrize(
        "f, spec, terms, lam, coeff",
        [
            (lambda: spider_csf(36, 2, 1), "spider:36,2,1", 15700,
             (5, 4) + (3,) * 9 + (2, 2), -3336960),
            (lambda: spider_csf(34, 4, 1), "spider:34,4,1", 15700, (5,) * 7 + (3, 2), -86016),
            (lambda: spider_csf(32, 4, 2), "spider:32,4,2", 13205,
             (5, 5) + (3,) * 9 + (2,), -800768),
            (lambda: spider_csf(30, 1, 1), "spider:30,1,1", 4539,
             (5, 4, 4, 3, 3) + (2,) * 7, -900720),
            (lambda: broom_csf(17), "dbroom:2,17,2", 616, (5, 4, 4, 3, 2, 2, 2), -6408),
            (lambda: broom_csf(25), "dbroom:2,25,2", 3167,
             (6, 5, 4, 4, 3, 2, 2, 2, 2), -458640),
        ],
        ids=["S(36,2,1)", "S(34,4,1)", "S(32,4,2)", "S(30,1,1)", "br17", "br25"],
    )
    def test_pinned_values(self, f, spec, terms, lam, coeff):
        pinned = (Partition(lam), coeff)
        assert compute_csf(parse_graph_spec(spec)).min_coefficient() == pinned
        value = f()
        assert len(value.terms) == terms
        assert value.min_coefficient() == pinned

    @pytest.mark.parametrize(
        "template, values", _SWEEP_FAMILIES, ids=[t for t, _ in _SWEEP_FAMILIES]
    )
    def test_packed_minimum_matches_materialised(self, template, values):
        for value in values:
            G = parse_graph_spec(template.format(value))
            result = compute_csf(G)
            assert result.route == "family-recurrence", G.label
            packed = result.min_coefficient()
            assert type(packed[0]) is Partition, G.label
            assert packed == compute_csf(G).value.min_coefficient(), G.label

    def test_packed_minimum_reads_the_raw_terms_as_decoded(self):
        # The raw spider and broom dicts keep the keys whose terms cancelled
        # to zero; on e-positive spiders such as S(6, 2, 1) the minimum is
        # then the smallest nonzero coefficient, not 0.
        zero_below_positive = []
        for template, values in _SWEEP_FAMILIES[1:]:
            for value in values:
                spec = template.format(value)
                packed = csf_module._packed_e(*csf_module._family_recurrence(parse_graph_spec(spec))())
                if min(min(layer.values()) for layer in packed[2] if layer) == 0:
                    zero_below_positive.append(spec)
                expected = csf_module._decoded(*packed).min_coefficient()
                assert csf_module._packed_min(*packed) == expected, spec
        assert "spider:6,2,1" in zero_below_positive

    @pytest.mark.parametrize("coeffs, pinned", [
        ({(4, 4): -5, (5, 2, 1): -5, (3, 3, 1, 1): -5, (3, 3, 2): 7}, ((3, 3, 1, 1), -5)),
        ({(4, 4): 0, (5, 2, 1): 2, (3, 3, 1, 1): 2, (2, 2, 2, 2): 3, (2, 2, 2, 1, 1): 0}, ((3, 3, 1, 1), 2)),
    ], ids=["negative", "zeros-below"])
    def test_packed_minimum_breaks_a_tie_across_layers(self, coeffs, pinned):
        # The minimum sits in layers 0, 1 and 2, or in 1 and 2 with zeros
        # below it in 0 and 2; the reverse-lexicographically smallest
        # partition wins, from the highest layer.
        tier = csf_module._tier(8)
        terms = {sum(tier.places[k] for k in lam): c for lam, c in coeffs.items()}
        packed = csf_module._packed_e(8, _layered(8, terms))
        assert len(packed[2]) == 3
        assert csf_module._packed_min(*packed) == csf_module._decoded(*packed).min_coefficient()
        assert csf_module._packed_min(*packed) == (Partition(pinned[0]), pinned[1])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_packed_minimum_of_random_terms(self, data):
        # Few distinct coefficients, zero among them, so that minima repeat
        # and zeros sit below a positive minimum.
        n = data.draw(st.integers(0, 12))
        tier = csf_module._tier(n)
        lams = data.draw(st.lists(st.sampled_from(list(enumerate_partitions(n))), unique=True))
        coeffs = st.sampled_from([0, 0, 1, 2, -1, -3, 5])
        terms = {
            sum(tier.places[k] for k in lam): data.draw(coeffs, label=str(tuple(lam)))
            for lam in lams
        }
        packed = csf_module._packed_e(n, _layered(n, terms))
        if any(terms.values()):
            expected = csf_module._decoded(*packed).min_coefficient()
            assert csf_module._packed_min(*packed) == expected
        else:
            with pytest.raises(EmptyFunction):
                csf_module._packed_min(*packed)

    @settings(max_examples=25, deadline=None)
    @given(_spider_legs(39))
    def test_packed_minimum_matches_materialised_on_random_spiders(self, legs):
        G = build_family("spider", *legs)
        assert G.n <= 40
        assert compute_csf(G).min_coefficient() == spider_csf(*legs).min_coefficient()

    def test_path_memo_keys_decode_to_their_partition(self):
        # Every key of the 40-vertex path series, in each tier, decodes (as
        # part of a result of that tier's largest degree) to a partition of
        # its path length whose digits rebuild the key.
        for tier in csf_module._TIERS:
            cores, ones = csf_module._path_terms(40, tier)
            for m in range(41):
                one_keys = [key + 1 for key in cores[m - 1]] if m else []
                for key in [*cores[m], *one_keys]:
                    lam = _decode(tier.size, key)
                    assert type(lam) is Partition and lam.n == m
                    pairs = lam.multiplicities().pairs
                    assert sum(count * tier.places[part] for part, count in pairs) == key

    def test_one_part_lists_follow_the_cores_below(self):
        # No core key holds a part 1 (its low digit is 0), and ones[m] lists
        # the coefficient of key + 1 for each key of cores[m - 1], in order.
        tier = csf_module._Tier(64)
        cores, ones = csf_module._path_terms(40, tier)
        radix = tier.places[2]
        assert ones[0] == []
        for m in range(41):
            assert all(key % radix == 0 for key in cores[m]), m
            if m:
                assert len(ones[m]) == len(cores[m - 1]), m
        for m in range(1, 25):
            for key, c in zip(cores[m - 1], ones[m]):
                lam = _decode(tier.size, key + 1)
                assert c == wolfe_path_coefficient(lam, m), (m, lam)
        assert sum(map(len, cores.values())) == 37338
        assert sum(map(len, ones.values())) == 37338

    @pytest.mark.parametrize("first_tier", [64, 8], ids=["N=64", "N=8,255"])
    def test_one_part_layer_is_the_denominator_series(self, monkeypatch, first_tier):
        # ones[m + 1] is Q_m, the degree-m part of 1 / (1 - sum_k (k-1) e_k),
        # in cores[m]'s key order: at lam with a_j parts j (none equal to 1)
        # and length l, l! / prod a_j! * prod (j - 1)^a_j.  Past degree 0,
        # cores[m] sums k e_k Q_{m-k}; Q_m's coefficients sum to 2^(m-2).
        tiers = (csf_module._Tier(first_tier), csf_module._Tier(255))
        monkeypatch.setattr(csf_module, "_TIERS", tiers)

        def q(parts) -> int:
            value = factorial(len(parts))
            for j in set(parts):
                value = value // factorial(parts.count(j)) * (j - 1) ** parts.count(j)
            return value

        for m in range(41):
            tier = csf_module._tier(m)
            cores, ones = csf_module._path_terms(m, tier)
            assert len(ones[m + 1]) == len(cores[m]), m
            if m >= 2:
                assert sum(ones[m + 1]) == 2 ** (m - 2), m
            if m > 30:
                continue
            series = dict(zip(cores[m], ones[m + 1]))
            lams = [tuple(lam) for lam in enumerate_partitions(m) if 1 not in lam]
            assert len(series) == len(lams), m
            for lam in lams:
                key = sum(tier.places[part] for part in lam)
                assert series[key] == q(lam), lam
                if not lam:
                    continue
                lower = {i: lam[:lam.index(i)] + lam[lam.index(i) + 1:] for i in set(lam)}
                assert cores[m][key] == sum(i * q(rest) for i, rest in lower.items()), lam

    @pytest.mark.parametrize("first_tier", [64, 8], ids=["N=64", "N=8,255"])
    def test_path_memo_matches_the_recurrence_oracle(self, monkeypatch, first_tier):
        # Both layers of every degree up to 18 against X(P_m) = e_m +
        # sum_k (k-1) e_k X(P_{m-k}), expanded by the oracle's own products;
        # a first tier of 8 vertices hands degrees 9-18 to the tier of 255.
        tiers = (csf_module._Tier(first_tier), csf_module._Tier(255))
        monkeypatch.setattr(csf_module, "_TIERS", tiers)
        for m in range(19):
            tier = csf_module._tier(m)
            cores, ones = csf_module._path_terms(m, tier)
            layers: tuple = ({}, {})
            for lam, c in path_e_terms(m).items():
                ones_count = lam.count(1)
                assert ones_count <= 1, lam
                key = sum(tier.places[part] for part in lam if part > 1)
                layers[ones_count][key] = c
            assert cores[m] == layers[0], m
            assert dict(zip(cores.get(m - 1, ()), ones[m])) == layers[1], m

    def test_fill_in_steps_stores_the_one_shot_tables(self):
        # Each degree's keys ascend, grouped by largest part: ends[m][k]
        # counts the keys with no part above k, lengths[m] their lengths.
        # Filling 7, then 19, then 40 stores what one fill to 40 does.
        steps, once = csf_module._Tier(64), csf_module._Tier(64)
        for n in (7, 19, 40):
            csf_module._path_terms(n, steps)
        csf_module._path_terms(40, once)
        for m in range(41):
            assert list(steps.cores[m].items()) == list(once.cores[m].items()), m
            assert steps.ones[m + 1] == once.ones[m + 1], m
            assert (steps.lengths[m], steps.ends[m]) == (once.lengths[m], once.ends[m]), m
            keys = list(once.cores[m])
            assert keys == sorted(keys), m
            lams = [_decode(64, key) for key in keys]
            assert list(once.lengths[m]) == [lam.length for lam in lams], m
            assert once.ends[m] == [sum(max(lam, default=0) <= k for lam in lams)
                                    for k in range(m + 1)], m

    def test_two_threads_fill_one_tier_to_the_same_tables(self):
        # Both start on one fresh tier; with a short switch interval their
        # degrees interleave, and each store must leave every table whole.
        shared, once = csf_module._Tier(64), csf_module._Tier(64)
        csf_module._path_terms(30, once)
        start = threading.Barrier(2)
        errors: list = []

        def fill():
            try:
                start.wait(timeout=10)
                csf_module._path_terms(30, shared)
            except Exception as exc:  # a thread's exception would only be printed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for name in ("cores", "ones", "lengths", "ends"):
            assert getattr(shared, name) == getattr(once, name), name
        for m in range(31):
            assert list(shared.cores[m]) == list(once.cores[m]), m

    def test_path_layers_take_under_four_fifths_of_flat_dicts(self):
        # The 40-vertex fill of one tier, with its key lengths and group
        # ends, against the same terms held as one flat dict per path
        # length, each key and coefficient an int object of its own (x + 0
        # is a new int past the cached small ones).
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cores, ones = csf_module._path_terms(40, csf_module._Tier(64))
            layered = tracemalloc.get_traced_memory()[0] - start
            start = tracemalloc.get_traced_memory()[0]
            flat = {}
            for m in range(41):
                terms = flat[m] = {key + 0: c + 0 for key, c in cores[m].items()}
                if m:
                    terms.update((key + 1, c + 0) for key, c in zip(cores[m - 1], ones[m]))
            flat_bytes = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert sum(map(len, flat.values())) == 68523
        assert layered < 0.8 * flat_bytes, (layered, flat_bytes)

    def test_path_fill_peaks_within_a_megabyte_of_what_it_keeps(self):
        # The fill builds each degree's keys and both sums in lists before
        # storing them; those of the largest degree are the only thing it
        # holds beyond its tables.
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tables = csf_module._path_terms(40, csf_module._Tier(64))
            kept, peak = (size - start for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(tables[0]) == 41
        assert peak - kept < 1_000_000, (kept, peak)

    def test_pinned_path_series(self):
        f = path_csf_e(40)
        assert len(f.terms) == 11323
        assert sum(f.terms.values()) == 2**39

    @settings(max_examples=40, deadline=None)
    @given(_spider_legs())
    def test_spider_matches_tree_dp(self, legs):
        G = build_family("spider", *legs)
        assert G.n <= 18
        assert spider_csf(*legs) == change_basis(csf_via_tree_dp(G), "e")

    @pytest.mark.parametrize(
        "f",
        [lambda: path_csf_e(0), lambda: path_csf_e(23), lambda: spider_csf(20, 6, 3),
         lambda: spider_csf(9, 9, 9), lambda: broom_csf(1), lambda: broom_csf(21)],
        ids=["P0", "P23", "S(20,6,3)", "S(9,9,9)", "br1", "br21"],
    )
    def test_keys_are_partitions_and_coefficients_nonzero(self, f):
        value = f()
        assert value.terms
        for lam, c in value.terms.items():
            assert type(lam) is Partition and lam.n == value.degree
            assert c != 0

    @pytest.mark.parametrize(
        "f",
        [lambda: path_csf_e(2000), lambda: path_csf_e(256),
         lambda: spider_csf(200, 50, 5), lambda: broom_csf(251)],
        ids=["P2000", "P256", "S(200,50,5)", "br251"],
    )
    def test_past_the_byte_width_raises_at_once(self, f, fresh_tiers):
        with pytest.raises(TooLarge, match="stop at 255 vertices, got"):
            f()
        assert _memo_entries() == 2


@st.composite
def _forests(draw, most=12):
    """A forest of 0 to ``most`` vertices: each vertex after the first joins
    an earlier one, or none."""
    n = draw(st.integers(0, most))
    parents = [draw(st.integers(-1, v - 1)) for v in range(1, n)]
    return Graph(n, frozenset((u, v) for v, u in enumerate(parents, 1) if u >= 0))


class TestPackedConversions:
    """Forest questions in e or s keep the converted terms packed, and
    decode only the keys that hold the minimum."""

    @settings(max_examples=150, deadline=None)
    @given(_forests(), st.sampled_from("es"))
    @example(parse_graph_spec("edges:0:"), "e")
    @example(parse_graph_spec("edges:0:"), "s")
    @example(parse_graph_spec("edges:1:"), "e")
    @example(parse_graph_spec("edges:1:"), "s")
    def test_minimum_and_value_of_random_forests(self, G, target):
        lazy = compute_csf(G, basis=target).min_coefficient()
        value = compute_csf(G, basis=target).value
        assert lazy == value.min_coefficient()
        assert type(lazy[0]) is Partition
        tree = compute_csf(G, "tree-p").value
        assert value == change_basis(tree, target)
        assert tree.terms == csf_via_edge_subsets(G).terms

    @pytest.mark.parametrize("spec", ["dbroom:3,4,3", "spider:4,2,1"])
    @pytest.mark.parametrize("target", ["e", "s"])
    def test_packed_results_pickle(self, spec, target):
        # A packed result carries its decoder, which must pickle as well.
        result = compute_csf(parse_graph_spec(spec), basis=target)
        copy = pickle.loads(pickle.dumps(result))
        assert copy.min_coefficient() == result.min_coefficient()
        assert copy.value == result.value

    @pytest.mark.parametrize(
        "spec, target, tied, low",
        [
            ("star:4", "s", [(2, 2, 1), (3, 2)], -1),
            ("star:7", "s", [(2, 2, 2, 2), (3, 2, 2, 1)], -84),
            ("edges:8:0-2,1-5,1-6,2-3,2-4,4-5,4-7", "e", [(4, 2, 2), (4, 4)], -4),
            ("edges:4:0-1,2-3", "s", [(1, 1, 1, 1), (2, 1, 1), (2, 2)], 4),
        ],
    )
    def test_tied_minimum_takes_the_smallest_partition(self, spec, target, tied, low):
        G = parse_graph_spec(spec)
        result = compute_csf(G, basis=target)
        assert result.route == "tree-p"
        assert result.min_coefficient() == (Partition(tied[0]), low)
        value = compute_csf(G, basis=target).value
        assert sorted(lam for lam, c in value.terms.items() if c == low) == [Partition(t) for t in tied]
        assert value.min_coefficient() == (Partition(tied[0]), low)


def _tree_e(G) -> SymFunc:
    return change_basis(csf_via_tree_dp(G), "e")


@st.composite
def _partition_pair(draw, size):
    """Two part lists whose sizes add up to at most ``size``."""
    left, parts = draw(st.integers(0, size)), []
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    sides = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
    return [p for p, s in zip(parts, sides) if s], [p for p, s in zip(parts, sides) if not s]


class TestKeyTiers:
    """The mixed-radix keys of the family recurrences: every digit fits
    below the next place, a sum of keys within a tier's degree is the key
    of the union, and the recurrences match their oracles on both sides
    of a tier boundary."""

    @pytest.mark.parametrize("tier", range(2), ids=["N=64", "N=255"])
    def test_largest_digit_fits_below_the_next_place(self, tier):
        # The largest multiplicity of part k is N // k: k^(N // k) keeps it
        # below B[k + 1], and decodes back.
        tier = csf_module._TIERS[tier]
        places = tier.places
        assert places[:2] == [0, 1] and len(places) == tier.size + 2
        for k in range(1, tier.size + 1):
            count = tier.size // k
            assert places[k] * count < places[k + 1]
            assert _decode(tier.size, places[k] * count) == Partition((k,) * count)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("tier", range(2), ids=["N=64", "N=255"])
    def test_sum_of_keys_is_the_key_of_the_union(self, tier, data):
        tier = csf_module._TIERS[tier]
        lam, mu = data.draw(_partition_pair(tier.size))
        key = sum(tier.places[k] for k in lam) + sum(tier.places[k] for k in mu)
        assert _decode(tier.size, key) == Partition(sorted(lam + mu, reverse=True))

    def test_recurrences_agree_across_a_tier_boundary(self, monkeypatch):
        # A first tier of 8 vertices takes degrees 6-8 and the next one
        # 9-12.  The brooms of degree 10 and 12 build their sub-spiders
        # (degrees 8-11) and every short path in the broom's own tier.
        monkeypatch.setattr(csf_module, "_TIERS", (csf_module._Tier(8), csf_module._Tier(255)))
        results = []
        for n in range(6, 13):
            path = csf_module._decoded(*csf_module._packed_e(*csf_module._path_packed(n)))
            oracle = {Partition(lam): c for lam, c in path_e_terms(n).items()}
            assert path == SymFunc("e", n, oracle) == _tree_e(build_family("path", n)), n
            results.append((build_family("path", n), path))
        for n in range(6, 13):
            for a, b, c in (lam for lam in enumerate_partitions(n - 1) if lam.length == 3):
                spider = spider_csf(a, b, c)
                assert spider == _tree_e(build_family("spider", a, b, c)), (a, b, c)
                if c == 1:
                    assert spider == pendant_spider_e(a, b), (a, b, c)
                if b == 1 and a % 2:
                    assert spider == odd_broom_e(a), (a, b, c)
                results.append((build_family("spider", a, b, c), spider))
        for middle in (1, 3, 5, 7):
            broom = broom_csf(middle)
            G = build_family("dbroom", 2, middle, 2)
            assert broom == _tree_e(G), middle
            results.append((G, broom))
        for G, value in results:
            assert compute_csf(G).min_coefficient() == value.min_coefficient(), G.label
        assert [len(tier.cores) for tier in csf_module._TIERS] == [9, 13]
        assert [len(tier.ones) for tier in csf_module._TIERS] == [10, 14]


    @pytest.mark.parametrize("leaves", [1, 63, 64, 65, 254, 255, 300])
    def test_star_tree_p_on_both_sides_of_each_tier(self, leaves):
        # star:l has l + 1 vertices, so these key tree-p's states in the
        # tiers 64, 255 and one sized to 256 or 301 vertices:
        # X(star_l) = sum over k of (-1)^k C(l, k) p_(k+1) p_1^(l-k).
        G = build_family("star", leaves)
        closed_form = {
            Partition((k + 1,) + (1,) * (leaves - k)): (-1) ** k * comb(leaves, k)
            for k in range(leaves + 1)
        }
        assert csf_via_tree_dp(G) == SymFunc("p", leaves + 1, closed_form)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("size", [64, 255, 256, 300])
    def test_keys_round_trip_in_every_tier(self, size, data):
        # A partition of degree at most the tier's size, encoded by its place
        # values, decodes back, and is the key a packed result reads for it.
        left, right = data.draw(_partition_pair(size))
        lam = Partition(sorted(left + right, reverse=True))
        places = _places(size)
        key = sum(places[k] for k in lam)
        assert _decode(size, key) == lam
        packed = ("p", lam.n, ({key: 7},), size)
        assert _packed_coefficient(*packed, lam) == 7


class TestTripleDeletion:
    def build(self):
        # A 7-vertex tree with 0, 2, 4 pairwise nonadjacent.
        return parse_graph_spec("edges:7:0-1,1-2,2-3,3-4,4-5,5-6")

    def test_two_edge_identity(self):
        G = self.build()
        u, v, w = 0, 2, 4
        lhs = triple_deletion(G, u, v, w, {1, 2})
        rhs = (
            triple_deletion(G, u, v, w, {1})
            + triple_deletion(G, u, v, w, {2, 3})
            - triple_deletion(G, u, v, w, {3})
        )
        assert lhs == rhs

    def test_three_edge_identity(self):
        G = self.build()
        u, v, w = 0, 2, 4
        lhs = triple_deletion(G, u, v, w, {1, 2, 3})
        rhs = (
            triple_deletion(G, u, v, w, {1, 2})
            + triple_deletion(G, u, v, w, {2, 3})
            - triple_deletion(G, u, v, w, {2})
        )
        assert lhs == rhs

    def test_matches_direct_expansion(self):
        G = self.build()
        direct = csf_via_stable_partitions(
            Graph(7, G.edges | {(0, 2), (2, 4)})
        )
        assert triple_deletion(G, 0, 2, 4, {1, 2}) == direct

    def test_requires_a_stable_triple(self):
        G = self.build()
        with pytest.raises(NotStableTriple):
            triple_deletion(G, 0, 1, 3, {1})


def _decodes() -> int:
    """Keys decoded so far, by either decoder, memo hits included."""
    return sum(info.hits + info.misses for info in (_decode.cache_info(), _beads_shape.cache_info()))


class TestCoefficients:
    def test_extract_converts_bases_when_needed(self):
        f = path_csf_e(4)
        assert f.coefficient(Partition((2, 2))) == 2
        assert change_basis(f, "p").coefficient(Partition((4,))) != 0
        assert change_basis(f, "m").coefficient(Partition((1, 1, 1, 1))) == 24

    def test_specialization_equals_chromatic_polynomial(self):
        for spec in ("path:6", "cycle:5", "claw", "spider:2,2,1"):
            G = parse_graph_spec(spec)
            f = compute_csf(G).value
            for k in range(1, 6):
                assert specialize_ones(f, k) == chromatic_polynomial(G, k), (spec, k)

    @settings(max_examples=100, deadline=None)
    @given(_forests(), st.sampled_from("meps"))
    def test_result_reads_one_key_as_the_value_reads_it(self, G, basis):
        # Every partition of the degree, absent ones included, and one of
        # another degree; in every basis the result stays packed, so
        # reading its coefficients decodes no key.
        result, value = compute_csf(G, basis=basis), compute_csf(G, basis=basis).value
        decodes = _decodes()
        for lam in [*enumerate_partitions(G.n), Partition((G.n + 1,))]:
            assert result.coefficient(lam) == value.coefficient(lam), lam
        assert _decodes() == decodes

    @pytest.mark.parametrize("first_tier", [64, 8], ids=["N=64", "N=255"])
    @pytest.mark.parametrize("spec, layers", [("path:22", 2), ("spider:12,7,4", 3),
                                              ("spider:9,9,3", 3), ("dbroom:2,17,2", 4)])
    def test_recurrence_result_reads_the_layer_of_its_parts_1(
        self, monkeypatch, first_tier, spec, layers
    ):
        # A first tier of 8 vertices keys these 22- to 24-vertex recurrences
        # in the tier of 255.  Paths hold up to one part 1, spiders two and
        # brooms three; every other partition of n is absent.
        monkeypatch.setattr(csf_module, "_TIERS", (csf_module._Tier(first_tier), csf_module._Tier(255)))
        G = parse_graph_spec(spec)
        result, value = compute_csf(G), compute_csf(G).value
        assert result._packed[3] == (64 if first_tier == 64 else 255)
        assert len(result._packed[2]) == layers
        assert {lam.count(1) for lam in value.terms} == set(range(layers))
        decodes = _decodes()
        for lam in enumerate_partitions(G.n):
            assert result.coefficient(lam) == value.coefficient(lam), lam
        assert _decodes() == decodes

    def test_result_guards_degree(self):
        with pytest.raises(DegreeMismatch):
            CsfResult(build_family("path", 3), "stable-m", ("m", 4, ({},), 64))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_property_tree_routes_agree(n, seed):
    G = random_tree(n, random.Random(seed))
    stable = csf_via_stable_partitions(G)
    assert change_basis(csf_via_edge_subsets(G), "m") == stable
