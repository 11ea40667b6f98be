"""Chromatic symmetric functions: every route against the coloring count.

The one non-negotiable oracle is direct enumeration of proper colorings:
restricted to nv variables, the CSF must count colorings monomial by
monomial.  Everything else (edge-subset signs, family recurrences, the
closed path-coefficient formula) is then cross-checked route against
route.
"""

import gc
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csf_by_colorings, expand_symfunc, odd_broom_e, pendant_spider_e

from cslab import (
    BadSpec,
    DegreeMismatch,
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
    extract_coefficient,
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

    def test_auto_prefers_family_then_stable_then_tree_then_edges(self):
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
        # Past the tree DP's 24 edges the recurrence serves every target;
        # here the basis change then meets its degree cap.
        path = build_family("path", 30)
        assert compute_csf(path, basis="e").route == "family-recurrence"
        with pytest.raises(TooLarge, match="basis-change cap 24"):
            compute_csf(path, basis="s")

    def test_capped_conversion_refuses_before_the_recurrence_runs(self):
        # The conversion would refuse a family recurrence's e-terms past the
        # cap, so they are never built: the path series does not grow.
        filled = len(csf_module._PATH_TERMS)
        n = max(filled, 30)
        spider = parse_graph_spec(f"spider:{n - 3},1,1")
        for G, basis in ((build_family("path", n), "s"), (spider, "p")):
            for route in ("auto", "family-recurrence"):
                with pytest.raises(TooLarge, match="basis-change cap 24"):
                    compute_csf(G, route, basis=basis)
        assert len(csf_module._PATH_TERMS) == filled

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
    tuple implementation they replaced, and the byte-width bound."""

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

    @settings(max_examples=25, deadline=None)
    @given(_spider_legs(39))
    def test_packed_minimum_matches_materialised_on_random_spiders(self, legs):
        G = build_family("spider", *legs)
        assert G.n <= 40
        assert compute_csf(G).min_coefficient() == spider_csf(*legs).min_coefficient()

    def test_path_memo_keys_decode_to_their_partition(self):
        csf_module._path_terms(40)
        for m in range(41):
            for key in csf_module._PATH_TERMS[m]:
                lam = csf_module._decode(key)
                assert type(lam) is Partition and lam.n == m
                pairs = lam.multiplicities().pairs
                assert sum(count << 8 * part for part, count in pairs) == key

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
    def test_past_the_byte_width_raises_at_once(self, f):
        filled = len(csf_module._PATH_TERMS)
        with pytest.raises(TooLarge, match="255 vertices"):
            f()
        assert len(csf_module._PATH_TERMS) == filled


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


class TestCoefficients:
    def test_extract_converts_bases_when_needed(self):
        f = path_csf_e(4)
        assert extract_coefficient(f, "e", Partition((2, 2))) == 2
        assert extract_coefficient(f, "p", Partition((4,))) != 0
        assert extract_coefficient(f, "m", Partition((1, 1, 1, 1))) == 24

    def test_specialization_equals_chromatic_polynomial(self):
        for spec in ("path:6", "cycle:5", "claw", "spider:2,2,1"):
            G = parse_graph_spec(spec)
            f = compute_csf(G).value
            for k in range(1, 6):
                assert specialize_ones(f, k) == chromatic_polynomial(G, k), (spec, k)

    def test_result_guards_degree(self):
        with pytest.raises(DegreeMismatch):
            CsfResult(build_family("path", 3), "stable-m", path_csf_e(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_property_tree_routes_agree(n, seed):
    G = random_tree(n, random.Random(seed))
    stable = csf_via_stable_partitions(G)
    assert change_basis(csf_via_edge_subsets(G), "m") == stable
