"""Symmetric-function arithmetic against exact polynomial expansion.

The oracle restricts a symmetric function to a concrete polynomial in nv
variables straight from each basis's definition; any two expressions that
claim to be the same function must restrict identically once nv reaches
the degree.
"""

import copy
import json
import pickle
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_border_strips,
    brute_kostka,
    expand_symfunc,
    falling_factorial,
)

from cslab import (
    BasisMismatch,
    DegreeMismatch,
    EmptyFunction,
    Partition,
    SymFunc,
    TooLarge,
    change_basis,
    enumerate_partitions,
    kostka_number,
    specialize_ones,
)
from cslab import symfunc
from cslab.csf import csf_via_tree_dp
from cslab.graphs import parse_graph_spec
from cslab.symfunc import (
    BASES,
    _add_strips,
    _beads_shape,
    _json_text,
    _peel_from_m,
    _to_m,
    from_json_dict,
    to_json_dict,
)

small_partitions = [
    lam for n in range(0, 7) for lam in enumerate_partitions(n)
]


def polys_equal(f: SymFunc, g: SymFunc, nv: int) -> bool:
    return expand_symfunc(f, nv) == expand_symfunc(g, nv)


class TestConstruction:
    def test_drops_zero_terms_and_normalizes(self):
        f = SymFunc("m", 3, {Partition((3,)): 2, Partition((2, 1)): 0})
        assert f.terms == {Partition((3,)): 2}

    def test_rejects_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            SymFunc("m", 3, {Partition((2,)): 1})

    def test_rejects_unknown_basis(self):
        with pytest.raises(BasisMismatch):
            SymFunc("q", 2, {Partition((2,)): 1})

    def test_one_and_zero(self):
        assert SymFunc.one("e").terms == {Partition(): 1}
        assert SymFunc.zero("e", 4).is_zero


class TestRingOperations:
    def test_add_sub_round_trip(self):
        f = SymFunc("m", 2, {Partition((2,)): 3, Partition((1, 1)): -1})
        g = SymFunc("m", 2, {Partition((1, 1)): 5})
        assert (f + g) - g == f

    def test_add_requires_matching_basis_and_degree(self):
        f = SymFunc("m", 2, {Partition((2,)): 1})
        with pytest.raises(BasisMismatch):
            f + SymFunc("e", 2, {Partition((2,)): 1})
        with pytest.raises(DegreeMismatch):
            f + SymFunc("m", 3, {Partition((3,)): 1})

    def test_scalar_multiple(self):
        f = SymFunc("e", 3, {Partition((2, 1)): 2})
        assert (f * 3).terms == {Partition((2, 1)): 6}
        assert f.scale(0).is_zero

    @pytest.mark.parametrize("basis", ["e", "p"])
    def test_multiplicative_basis_product_concatenates(self, basis):
        f = SymFunc.single(basis, Partition((3, 1)))
        g = SymFunc.single(basis, Partition((2,)), 5)
        assert (f * g).terms == {Partition((3, 2, 1)): 5}

    @pytest.mark.parametrize("basis", ["m", "s"])
    def test_non_multiplicative_basis_product_raises(self, basis):
        f = SymFunc.single(basis, Partition((2, 1)))
        with pytest.raises(BasisMismatch):
            f * SymFunc.single(basis, Partition((1,)))


def to_m(basis, lam):
    """Monomial expansion of the single basis element indexed by lam."""
    return change_basis(SymFunc.single(basis, lam), "m")


class TestBasisExpansions:
    @pytest.mark.parametrize("lam", [lam for lam in small_partitions if lam.n])
    def test_e_to_m_matches_definition(self, lam):
        assert polys_equal(SymFunc.single("e", lam), to_m("e", lam), lam.n)

    @pytest.mark.parametrize("lam", [lam for lam in small_partitions if lam.n])
    def test_p_to_m_matches_definition(self, lam):
        assert polys_equal(SymFunc.single("p", lam), to_m("p", lam), lam.n)

    @pytest.mark.parametrize("lam", [lam for lam in small_partitions if lam.n])
    def test_s_to_m_matches_definition(self, lam):
        assert polys_equal(SymFunc.single("s", lam), to_m("s", lam), lam.n)

    def test_fewer_variables_than_length_still_agree(self):
        lam = Partition((2, 1, 1))
        assert polys_equal(SymFunc.single("s", lam), to_m("s", lam), 2)


class TestKostka:
    def test_matches_brute_tableau_count(self):
        for n in range(1, 7):
            for shape in enumerate_partitions(n):
                for content in enumerate_partitions(n):
                    assert kostka_number(shape, content) == brute_kostka(
                        shape, content
                    ), (shape, content)

    def test_unit_diagonal_and_dominance_zeroes(self):
        assert kostka_number(Partition((3, 1)), Partition((3, 1))) == 1
        assert kostka_number(Partition((2, 2)), Partition((3, 1))) == 0


class TestChangeBasis:
    @pytest.mark.parametrize("source", ["e", "p", "s"])
    @pytest.mark.parametrize("target", ["m", "e", "p", "s"])
    def test_round_trips_preserve_the_function(self, source, target):
        for lam in enumerate_partitions(5):
            f = SymFunc.single(source, lam, 3) + SymFunc.single(
                source, Partition((1,) * 5), 1
            )
            g = change_basis(f, target)
            assert g.basis == target
            assert polys_equal(f, g, 5), (source, target, lam)
            back = change_basis(g, source)
            assert back == f

    def test_identity_when_target_matches(self):
        f = SymFunc.single("e", Partition((2, 1)))
        assert change_basis(f, "e") is f

    def test_cap_guards_large_degrees(self):
        f = SymFunc.single("e", Partition((25,)))
        with pytest.raises(TooLarge):
            change_basis(f, "m", cap=24)
        assert change_basis(f, "m", cap=25).degree == 25

    def test_rejects_unknown_target(self):
        with pytest.raises(BasisMismatch):
            change_basis(SymFunc.one("m"), "q")


def _kostka_lookups() -> list:
    tables = (symfunc.kostka_number, symfunc._s_to_m_terms)
    return [t.cache_info().hits + t.cache_info().misses for t in tables]


@pytest.fixture
def row_pairs(monkeypatch):
    """The basis pair of every row lookup, recorded as it is made."""
    pairs = []
    row = symfunc._row

    def recording_row(pair, size, mu):
        pairs.append(pair)
        return row(pair, size, mu)

    monkeypatch.setattr(symfunc, "_row", recording_row)
    return pairs


def z(mu: Partition) -> int:
    """Size of the centralizer of a permutation of cycle type mu."""
    out = mu.multiplicity_factorial()
    for part in mu:
        out *= part
    return out


class TestPowerSumConversions:
    @pytest.mark.parametrize("target", ["e", "s"])
    @pytest.mark.parametrize("mu", [mu for mu in small_partitions if mu.n])
    def test_matches_polynomial_expansion(self, mu, target):
        f = SymFunc.single("p", mu, 2)
        assert polys_equal(f, change_basis(f, target), mu.n)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_characters_are_orthonormal(self, n):
        shapes = list(enumerate_partitions(n))
        chi = {mu: change_basis(SymFunc.single("p", mu), "s").terms for mu in shapes}
        for lam in shapes:
            for nu in shapes:
                inner = sum(
                    Fraction(chi[mu].get(lam, 0) * chi[mu].get(nu, 0), z(mu)) for mu in shapes
                )
                assert inner == (1 if lam == nu else 0), (n, lam, nu)

    @staticmethod
    def _small_and_tree():
        small = SymFunc("p", 7, {Partition((4, 2, 1)): 3, Partition((1,) * 7): -1})
        tree = csf_via_tree_dp(parse_graph_spec("dbroom:3,9,3"))
        assert tree.degree == 16
        return small, tree

    def test_makes_no_lookups_in_the_m_tables(self, row_pairs):
        for f in self._small_and_tree():
            for target in ("e", "s"):
                before = _kostka_lookups()
                row_pairs.clear()
                change_basis(f, target)
                assert _kostka_lookups() == before
                assert set(row_pairs) == {("p", target)}

    def test_m_targets_make_no_kostka_lookups(self, row_pairs):
        small, tree = self._small_and_tree()
        for f in (small, tree, change_basis(small, "e")):
            before = _kostka_lookups()
            row_pairs.clear()
            change_basis(f, "m")
            assert _kostka_lookups() == before
            assert set(row_pairs) == {(f.basis, "m")}

    @pytest.mark.parametrize("target", ["e", "s"])
    def test_constant_term(self, target):
        f = SymFunc("p", 0, {Partition(): -7})
        assert change_basis(f, target) == SymFunc(target, 0, {Partition(): -7})

    @pytest.mark.parametrize("target", ["e", "s"])
    def test_zero_function_keeps_its_degree(self, target):
        g = change_basis(SymFunc.zero("p", 6), target)
        assert g.is_zero
        assert (g.basis, g.degree) == (target, 6)

    @pytest.mark.parametrize("target", ["e", "s"])
    def test_fraction_coefficients(self, target):
        f = SymFunc(
            "p",
            4,
            {
                Partition((4,)): Fraction(1, 4),
                Partition((2, 2)): Fraction(-1, 8),
                Partition((2, 1, 1)): Fraction(1, 4),
                Partition((1,) * 4): Fraction(1, 24),
            },
        )
        g = change_basis(f, target)
        assert polys_equal(f, g, 4)
        assert g == _peel_from_m(_to_m(f), target)
        assert any(isinstance(c, Fraction) for c in g.terms.values())

    @pytest.mark.parametrize("n", [255, 300])
    def test_multiplicities_past_a_byte(self, n):
        # p_1 = e_1 and p_2 = e_1^2 - 2 e_2, so
        # p_1^n + p_2 p_1^(n-2) = 2 e_1^n - 2 e_2 e_1^(n-2).
        ones, two = Partition((1,) * n), Partition((2,) + (1,) * (n - 2))
        f = SymFunc("p", n, {ones: 1, two: 1})
        assert change_basis(f, "e", cap=n).terms == {ones: 2, two: -2}

    def test_cancelling_terms_leave_no_zero_coefficients(self):
        # p_1^2 - p_2 = 2 e_2 and = 2 s_{1,1}; the e_{1,1} and s_2 terms cancel.
        f = SymFunc("p", 2, {Partition((1, 1)): 1, Partition((2,)): -1})
        assert change_basis(f, "e").terms == {Partition((2,)): 2}
        assert change_basis(f, "s").terms == {Partition((1, 1)): 2}


def _beads(nu, n: int) -> int:
    """The degree-n beta-set of nu: the bead of row i at nu_i - i + n."""
    rows = tuple(nu) + (0,) * (n - len(nu))
    return sum(1 << part - i + n for i, part in enumerate(rows))


def _standard_tableaux(lam) -> int:
    """f^lam, the number of standard tableaux, by the hook-length formula."""
    cols = Partition(lam).conjugate()
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(lam)) // hooks


class TestBorderStrips:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_brute_force(self, k):
        for size in range(0, 11):
            n = size + k
            for nu in enumerate_partitions(size):
                beads = _beads(nu, n)
                assert _beads_shape(beads, n) == nu
                got = [(_beads_shape(lam, n), sign) for lam, sign in _add_strips(beads, k)]
                assert dict(got) == brute_border_strips(nu, k), (nu, k)
                assert len(got) == len(dict(got)), (nu, k)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_power_of_ones_counts_standard_tableaux(self, n):
        # p_1^n = sum over lam of f^lam s_lam.
        f = change_basis(SymFunc.single("p", Partition((1,) * n)), "s")
        assert f.terms == {lam: _standard_tableaux(lam) for lam in enumerate_partitions(n)}

    def test_rows_are_never_reused_across_degrees(self):
        # A beta-set means a different shape at each degree, so each row is
        # memoised per degree; both orders must agree with peeling from m.
        functions = [
            SymFunc.single("p", mu, 1) for n in range(0, 9) for mu in enumerate_partitions(n)
        ]
        for f in functions + functions[::-1]:
            assert change_basis(f, "s") == _peel_from_m(_to_m(f), "s"), f


class TestSpecializeOnes:
    @pytest.mark.parametrize("basis", ["m", "e", "p", "s"])
    def test_matches_coefficient_sum_of_expansion(self, basis):
        for lam in enumerate_partitions(5):
            f = SymFunc.single(basis, lam, 2)
            for k in range(0, 6):
                expected = sum(expand_symfunc(f, k).values())
                assert specialize_ones(f, k) == expected, (basis, lam, k)

    def test_schur_hook_content_matches_the_m_route(self):
        for n in range(0, 9):
            for lam in enumerate_partitions(n):
                f = SymFunc.single("s", lam, 3)
                fm = _to_m(f)
                for k in range(0, 7):
                    assert specialize_ones(f, k) == specialize_ones(fm, k), (lam, k)

    def test_schur_input_makes_no_kostka_lookups(self):
        # s_{3,3,2,2} vanishes on three variables: it has four rows.
        f = SymFunc("s", 10, {Partition((6, 3, 1)): 5, Partition((3, 3, 2, 2)): -2})
        expected = specialize_ones(_to_m(f), 3)
        before = symfunc.kostka_number.cache_info()
        assert specialize_ones(f, 3) == expected
        assert symfunc.kostka_number.cache_info() == before

    def test_schur_column_counts_binomials(self):
        # s_{1^n} = e_n, so k variables give C(k, n) fillings.
        assert specialize_ones(SymFunc.single("s", Partition((1, 1, 1))), 5) == 10

    def test_complete_graph_power_basis(self):
        # n! e_n specializes to the falling factorial k(k-1)...(k-n+1).
        f = SymFunc.single("e", Partition((4,)), 24)
        for k in range(0, 7):
            assert specialize_ones(f, k) == falling_factorial(k, 4)

    def test_rejects_negative_variable_count(self):
        with pytest.raises(ValueError):
            specialize_ones(SymFunc.one("m"), -1)


class TestInspection:
    def test_min_coefficient_prefers_smallest_value_then_revlex(self):
        f = SymFunc(
            "e",
            4,
            {Partition((4,)): 5, Partition((2, 2)): -2, Partition((2, 1, 1)): -2},
        )
        lam, coeff = f.min_coefficient()
        assert coeff == -2
        assert lam == Partition((2, 1, 1))

    def test_min_coefficient_of_zero_function_raises(self):
        with pytest.raises(EmptyFunction):
            SymFunc.zero("e", 3).min_coefficient()

    def test_terms_sorted_descends(self):
        f = SymFunc("m", 3, {Partition((1, 1, 1)): 1, Partition((3,)): 1})
        assert [lam for lam, _ in f.terms_sorted()] == [
            Partition((3,)),
            Partition((1, 1, 1)),
        ]


@st.composite
def _symfuncs(draw):
    """Any basis and degree up to 7, with int, negative and Fraction
    coefficients; the zero function when no partition is drawn."""
    n = draw(st.integers(0, 7))
    shapes = draw(st.lists(st.sampled_from(list(enumerate_partitions(n))), unique=True))
    coeffs = st.one_of(st.integers(-(10**30), 10**30), st.fractions())
    return SymFunc(draw(st.sampled_from(BASES)), n, {lam: draw(coeffs) for lam in shapes})


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
# Further payload fields, beside the ones to_json_dict writes.
_json_heads = st.dictionaries(
    st.text().filter(lambda key: key not in ("basis", "degree", "terms")),
    _json_values,
    max_size=4,
)


class TestSerialization:
    @settings(max_examples=200, deadline=None)
    @given(_symfuncs(), _json_heads, st.booleans())
    @example(SymFunc.one("e"), {"graph": 'a"b\\c,d:e', "route": "tree-p"}, True)
    @example(SymFunc.zero("s", 5), {"graph": "spïder:3,2,1 \u2014 \U0001d54a"}, False)
    @example(SymFunc("p", 3, {(2, 1): Fraction(-7, 3)}), {"legs": [3, [2, {}]], "x": {}}, True)
    def test_json_text_equals_indented_json_dumps(self, f, head, head_first):
        payload = head | to_json_dict(f) if head_first else to_json_dict(f) | head
        assert _json_text(payload) == json.dumps(payload, indent=2)

    def test_json_round_trip_is_exact(self):
        f = SymFunc("s", 4, {Partition((2, 2)): -1, Partition((3, 1)): 10**30})
        blob = json.dumps(to_json_dict(f))
        assert from_json_dict(json.loads(blob)) == f

    def test_coefficients_serialize_as_strings(self):
        payload = to_json_dict(SymFunc.single("m", Partition((2,)), 7))
        assert payload["terms"][0]["coeff"] == "7"

    def test_pickle_round_trip(self):
        f = SymFunc("e", 4, {Partition((2, 2)): Fraction(1, 3), Partition((4,)): -2})
        g = pickle.loads(pickle.dumps(f))
        assert g == f
        assert g.terms == {Partition((2, 2)): Fraction(1, 3), Partition((4,)): -2}

    def test_deepcopy_is_equal(self):
        f = SymFunc("s", 3, {Partition((2, 1)): 5})
        assert copy.deepcopy(f) == f

    def test_terms_equal_a_plain_dict(self):
        terms = {Partition((3,)): 2, Partition((2, 1)): -1}
        f = SymFunc("m", 3, terms)
        assert f.terms == terms
        assert terms == f.terms


def _sharing_largest_part(k: int, rest: int):
    """Up to 6 terms of degree k + rest, each with largest part k."""
    shapes = [Partition((k,) + nu) for nu in enumerate_partitions(rest) if not nu or nu[0] <= k]
    return st.dictionaries(st.sampled_from(shapes), st.integers(-9, 9), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.integers(0, 8 - k).flatmap(lambda rest: _sharing_largest_part(k, rest))
    ),
    st.sampled_from(["e", "p", "s"]),
)
def test_property_conversion_preserves_restriction(terms, basis):
    # Terms that share their largest part form one Horner group, whose
    # remainder is converted and multiplied by one generator.
    f = SymFunc(basis, sum(next(iter(terms))), terms)
    assert polys_equal(f, change_basis(f, "m"), f.degree)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.dictionaries(
            st.sampled_from(list(enumerate_partitions(n))),
            st.integers(-50, 50),
            min_size=1,
            max_size=6,
        ).map(lambda terms: SymFunc("p", n, terms))
    ),
    st.sampled_from(["e", "s"]),
)
def test_property_power_sums_convert_like_peeling_from_m(f, target):
    assert change_basis(f, target) == _peel_from_m(_to_m(f), target)
