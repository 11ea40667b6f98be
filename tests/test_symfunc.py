"""Symmetric-function arithmetic against exact polynomial expansion.

The oracle restricts a symmetric function to a concrete polynomial in nv
variables straight from each basis's definition; any two expressions that
claim to be the same function must restrict identically once nv reaches
the degree.
"""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_border_strips,
    brute_kostka,
    e_terms_in_power,
    elementary_in_power,
    expand_symfunc,
    falling_factorial,
    newton_power_in_e,
)

from cslab import (
    BasisMismatch,
    DegreeMismatch,
    EmptyFunction,
    Partition,
    SingularSystem,
    SymFunc,
    TooLarge,
    change_basis,
    compute_csf,
    enumerate_partitions,
    kostka_number,
    specialize_ones,
)
from cslab import symfunc
from cslab.csf import csf_via_tree_dp
from cslab.cli import main
from cslab.graphs import parse_graph_spec, random_tree
from cslab.symfunc import (
    BASES,
    _beads_shape,
    _elementary_in_p,
    _json_text,
    _decode,
    _places,
    _power_in_e,
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


def _lookups(memo) -> int:
    info = memo.cache_info()
    return info.hits + info.misses


def _kostka_lookups() -> list:
    return [_lookups(symfunc.kostka_number), _lookups(symfunc._s_to_m_terms)]


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
                s_rows = _lookups(symfunc._s_row)
                row_pairs.clear()
                change_basis(f, target)
                assert _kostka_lookups() == before
                # p->s reads only its own rows, by shape rank; p->e only
                # the p->e rows.
                assert set(row_pairs) == ({("p", "e")} if target == "e" else set())
                assert (_lookups(symfunc._s_row) > s_rows) == (target == "s")

    def test_m_targets_make_no_kostka_lookups(self, row_pairs):
        small, tree = self._small_and_tree()
        for f in (small, tree, change_basis(small, "e")):
            before = _kostka_lookups()
            row_pairs.clear()
            change_basis(f, "m")
            assert _kostka_lookups() == before
            # e reaches m through the hub p.
            assert set(row_pairs) == ({("p", "m")} if f.basis == "p" else {("e", "p"), ("p", "m")})

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
        if target == "s":
            # Back to m through the Kostka table, which no p->s step reads.
            assert change_basis(g, "m", cap=g.degree) == change_basis(f, "m", cap=f.degree)
        assert any(isinstance(c, Fraction) for c in g.terms.values())

    @pytest.mark.parametrize("n", [255, 300])
    def test_multiplicities_past_a_byte(self, n):
        # p_1 = e_1 and p_2 = e_1^2 - 2 e_2, so
        # p_1^n + p_2 p_1^(n-2) = 2 e_1^n - 2 e_2 e_1^(n-2).
        ones, two = Partition((1,) * n), Partition((2,) + (1,) * (n - 2))
        f = SymFunc("p", n, {ones: 1, two: 1})
        assert change_basis(f, "e", cap=n).terms == {ones: 2, two: -2}

    @pytest.mark.parametrize("n", [64, 65, 255, 256, 300])
    def test_two_part_power_sums_in_m_at_the_tiers_edges(self, n):
        # p_a p_b = m_(a,b) + m_(a+b) for a != b, and p_a^2 = 2 m_(a,a) +
        # m_(2a).  64 and 255 fill the tiers of 64 and 255, 65 is the least
        # degree of the tier of 255, and 256 and 300 are keyed in tiers of
        # their own size.  Raising a part to a + b = n moves a count into
        # the tier's top digits, and the peel back into p reads them.
        for a in sorted({n - 1, n // 2 + 1, n - n // 2}):
            b = n - a
            p = SymFunc("p", n, {(a, b): 1})
            m = SymFunc("m", n, {(a, b): 2 if a == b else 1, (n,): 1})
            assert change_basis(p, "m", cap=n) == m, (a, b)
            assert change_basis(m, "p", cap=n) == p, (a, b)

    def test_cancelling_terms_leave_no_zero_coefficients(self):
        # p_1^2 - p_2 = 2 e_2 and = 2 s_{1,1}; the e_{1,1} and s_2 terms cancel.
        f = SymFunc("p", 2, {Partition((1, 1)): 1, Partition((2,)): -1})
        assert change_basis(f, "e").terms == {Partition((2,)): 2}
        assert change_basis(f, "s").terms == {Partition((1, 1)): 2}


def _beads(nu) -> int:
    """The beta-set of nu, one bead per row: the bead of row i of l at
    nu_i - i + l - 1."""
    return sum(1 << part - i + len(nu) - 1 for i, part in enumerate(nu))


def _standard_tableaux(lam) -> int:
    """f^lam, the number of standard tableaux, by the hook-length formula."""
    cols = Partition(lam).conjugate()
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(lam)) // hooks


def _strips_as_beads(shapes) -> dict:
    """Every filled strip table entry of ``shapes``, by beta-sets: (k,
    source) maps to the sorted beta-sets of sign +1 and of sign -1."""
    out = {}
    for (k, d), table in shapes.tables.items():
        up = shapes.beads[d + k]
        for rank, entry in enumerate(table):
            if entry is not None:
                out[k, shapes.beads[d][rank]] = tuple(sorted(up[r] for r in side) for side in entry)
    return out


def _check_registry(shapes) -> None:
    """Each degree's ranks are 0, 1, ... in order of first sight, each
    beta-set has one, and no degree holds more shapes than p(d)."""
    assert len(shapes.counts) == len(shapes.beads)
    assert sum(map(len, shapes.beads)) == len(shapes.ranks)
    for d, beads in enumerate(shapes.beads):
        assert len(beads) <= shapes.counts[d] == sum(1 for _ in enumerate_partitions(d)), d
        for rank, key in enumerate(beads):
            assert shapes.ranks[key] == rank and sum(_beads_shape(key)) == d, (d, rank)


class _YieldingRanks(dict):
    """A rank map that lets another thread run after each lookup, so a
    filler loses its turn between finding a beta-set unranked and ranking
    it."""

    def get(self, key, default=None):
        found = super().get(key, default)
        time.sleep(0)
        return found


class _YieldingCounts(list):
    """A list of p(d) that lets the other threads run after each length
    read, so a filler loses its turn between finding a degree missing and
    storing it.  It takes four switches, not one, for all four fillers to
    read before any of them stores."""

    def __len__(self):
        length = super().__len__()
        for _ in range(4):
            time.sleep(0)
        return length


class TestBorderStrips:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_brute_force(self, k):
        shapes = symfunc._Shapes()
        for size in range(0, 11):
            for nu in enumerate_partitions(size):
                beads = _beads(nu)
                assert _beads_shape(beads) == nu
                # One step by p_k from s_nu alone fills nu's entry.
                terms = [0] * shapes.count(size)
                terms[shapes.rank(beads, size)] = 1
                out = [0] * shapes.count(size + k)
                symfunc._add_strips(shapes, terms, k, size, out)
                up = shapes.beads[size + k]
                plus, minus = shapes.table(k, size)[shapes.ranks[beads]]
                want = brute_border_strips(nu, k)
                assert {_beads_shape(up[r]): c for r, c in enumerate(out) if c} == want, (nu, k)
                assert sorted(_beads_shape(up[r]) for r in plus) == sorted(
                    lam for lam, sign in want.items() if sign == 1
                ), (nu, k)
                assert sorted(_beads_shape(up[r]) for r in minus) == sorted(
                    lam for lam, sign in want.items() if sign == -1
                ), (nu, k)
                assert not set(plus) & set(minus), (nu, k)
                # Every beta-set is canonical: one bead per row, none for
                # an empty row below them.
                for rank in plus + minus:
                    key = up[rank]
                    lam = _beads_shape(key)
                    assert not key & 1 and key.bit_count() == len(lam), (nu, k, lam)
        _check_registry(shapes)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_power_of_ones_counts_standard_tableaux(self, n):
        # p_1^n = sum over lam of f^lam s_lam.
        f = change_basis(SymFunc.single("p", Partition((1,) * n)), "s")
        assert f.terms == {lam: _standard_tableaux(lam) for lam in enumerate_partitions(n)}

    def test_rows_are_shared_across_degrees(self):
        # A row holds ranks of its own degree, so one memoised row serves
        # every function that reaches it; both orders must agree with the
        # Kostka table, and with the polynomials where the degree allows.
        functions = [
            SymFunc.single("p", mu, 1) for n in range(0, 9) for mu in enumerate_partitions(n)
        ]
        for f in functions + functions[::-1]:
            g = change_basis(f, "s")
            assert change_basis(g, "m", cap=g.degree) == change_basis(f, "m", cap=f.degree), f
            assert f.degree > 6 or polys_equal(f, g, f.degree), f
        # p_(2,1)'s row is the tail of p_(3,2,1)'s, read at a lower degree.
        symfunc._s_row.cache_clear()
        change_basis(SymFunc.single("p", (3, 2, 1)), "s")
        misses = symfunc._s_row.cache_info().misses
        change_basis(SymFunc.single("p", (2, 1)), "s")
        assert symfunc._s_row.cache_info().misses == misses

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_a_single_power_is_its_signed_hooks(self, n):
        # p_n = sum over i < n of (-1)^i s_(n - i, 1^i); at 60 a degree of
        # 966,467 shapes, of which the answer holds 60.
        f = change_basis(SymFunc.single("p", (n,)), "s", cap=n)
        assert f.terms == {Partition((n - i,) + (1,) * i): (-1) ** i for i in range(n)}

    def test_refuses_a_degree_past_the_shape_limit(self):
        # p(81) = 18,004,327 shapes exceed the limit of 2^24; the refusal
        # comes before any list of them is made.
        with pytest.raises(TooLarge, match="18004327 shapes of degree 81"):
            change_basis(SymFunc.single("p", (81,)), "s", cap=81)
        assert len(symfunc._SHAPES.counts) <= 81

    def test_two_threads_fill_one_registry_to_the_same_ranks(self):
        # Two threads convert every function on one fresh registry in the
        # same order and two in the opposite order.  A switch after every
        # rank lookup and every read of the degrees stored makes the
        # fillers of one order meet each beta-set and degree together, so
        # without the registry's lock both would store it.
        # Each must get the answers of the process-wide registry, and the
        # registry must stay whole.
        rng, places = random.Random(33), _places(64)
        functions = [
            (n, {sum(places[k] for k in mu): rng.randint(-3, 3) for mu in enumerate_partitions(n)})
            for n in range(13)
        ]
        want = [symfunc._p_to_s(terms, 64, n) for n, terms in functions]
        shared = symfunc._Shapes()
        shared.ranks = _YieldingRanks(shared.ranks)
        shared.counts = _YieldingCounts(shared.counts)
        orders = (tuple(range(13)), tuple(range(12, -1, -1))) * 2
        start = threading.Barrier(len(orders))
        results: dict = {}
        errors: list = []

        def fill(thread, order):
            try:
                start.wait(timeout=10)
                results[thread] = [symfunc._p_to_s(functions[i][1], 64, functions[i][0], shared)
                                   for i in order]
            except Exception as exc:  # a thread's exception would only be printed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=pair) for pair in enumerate(orders)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for thread, order in enumerate(orders):
            assert [list(out.items()) for out in results[thread]] == [
                list(want[i].items()) for i in order]
        _check_registry(shared)
        once = symfunc._Shapes()
        for n, terms in functions:
            symfunc._p_to_s(terms, 64, n, once)
        assert _strips_as_beads(shared) == _strips_as_beads(once)


# The p->s answers of a fresh process: packed s terms, in order, and the
# stdout of ``cslab csf --basis s``, for each spec on the command line.
_FRESH_S = """
import contextlib, io, json, sys
from cslab import compute_csf, parse_graph_spec
from cslab.cli import main
out = []
for spec in sys.argv[1:]:
    layers = compute_csf(parse_graph_spec(spec), basis="s")._packed[2]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        main(["csf", "--graph", spec, "--basis", "s"])
    out.append([[[[key, str(c)] for key, c in layer.items()] for layer in layers], text.getvalue()])
print(json.dumps(out))
"""


def test_first_sight_ranks_reach_no_answer(capsys):
    # Random trees of 10 to 16 vertices in ascending and then descending
    # order in this process, whose ranks have seen other tests, against a
    # fresh process that meets them in descending order only.
    rng = random.Random(2112)
    specs = []
    for n in range(10, 17):
        G = random_tree(n, rng)
        specs.append(f"edges:{n}:" + ",".join(f"{a}-{b}" for a, b in sorted(G.edges)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_S, *specs[::-1]], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True,
    )
    fresh = dict(zip(specs[::-1], json.loads(done.stdout)))
    for spec in specs + specs[::-1]:
        layers = compute_csf(parse_graph_spec(spec), basis="s")._packed[2]
        assert [[[key, str(c)] for key, c in layer.items()] for layer in layers] == fresh[spec][0], spec
        capsys.readouterr()
        assert main(["csf", "--graph", spec, "--basis", "s"]) == 0
        assert capsys.readouterr().out == fresh[spec][1], spec


def test_peel_into_p_refuses_a_row_without_its_diagonal(rows_without_diagonal):
    f = SymFunc("m", 4, {Partition((2, 1, 1)): 2, Partition((3, 1)): -1})
    with pytest.raises(SingularSystem, match="does not reach its own monomial"):
        change_basis(f, "p")


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
                fm = change_basis(f, "m", cap=f.degree)
                for k in range(0, 7):
                    assert specialize_ones(f, k) == specialize_ones(fm, k), (lam, k)

    def test_schur_input_makes_no_kostka_lookups(self):
        # s_{3,3,2,2} vanishes on three variables: it has four rows.
        f = SymFunc("s", 10, {Partition((6, 3, 1)): 5, Partition((3, 3, 2, 2)): -2})
        expected = specialize_ones(change_basis(f, "m", cap=f.degree), 3)
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
    @given(_symfuncs(), _json_heads)
    @example(SymFunc.one("e"), {"graph": 'a"b\\c,d:e', "route": "tree-p"})
    @example(SymFunc.zero("s", 5), {"graph": "spïder:3,2,1 \u2014 \U0001d54a"})
    @example(SymFunc("p", 3, {(2, 1): Fraction(-7, 3)}), {"legs": [3, [2, {}]], "x": {}})
    def test_json_text_equals_indented_json_dumps(self, f, head):
        assert _json_text(head, f) == json.dumps(head | to_json_dict(f), indent=2)

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
    """Up to 6 terms of degree k + rest, each with largest part k, as
    (degree, terms)."""
    shapes = [Partition((k,) + nu) for nu in enumerate_partitions(rest) if not nu or nu[0] <= k]
    return st.dictionaries(
        st.sampled_from(shapes), st.integers(-9, 9), min_size=1, max_size=6
    ).map(lambda terms: (k + rest, terms))


@st.composite
def _full_support(draw):
    """Every partition of some n <= 8 with a nonzero coefficient, as
    (n, terms): Horner runs then share two or more leading parts, and
    remainders run out.  n = 0 is the degree-0 constant."""
    n = draw(st.integers(0, 8))
    nonzero = st.integers(-50, 50).filter(bool)
    return n, {lam: draw(nonzero) for lam in enumerate_partitions(n)}


#: Full-support terms, or the zero function of some degree up to 8.
_whole_or_zero = _full_support() | st.integers(0, 8).map(lambda n: (n, {}))


@settings(max_examples=90, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.integers(0, 8 - k).flatmap(lambda rest: _sharing_largest_part(k, rest))
    )
    | _whole_or_zero,
    st.sampled_from(["e", "p", "s"]),
)
@example((0, {(): -3}), "p")
@example((6, {}), "e")
def test_property_conversion_preserves_restriction(degree_terms, basis):
    # Terms that share their largest part form one Horner run, whose
    # remainders are converted and multiplied by one generator.
    f = SymFunc(basis, *degree_terms)
    g = change_basis(f, "m")
    assert (g.basis, g.degree) == ("m", f.degree)
    assert polys_equal(f, g, f.degree)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.dictionaries(
            st.sampled_from(list(enumerate_partitions(n))),
            st.integers(-50, 50),
            min_size=1,
            max_size=6,
        ).map(lambda terms: (n, terms))
    )
    | _whole_or_zero,
    st.sampled_from(["e", "s"]),
)
@example((0, {(): 5}), "e")
@example((8, {}), "s")
@example((9, dict.fromkeys(enumerate_partitions(9), 1)), "e")
@example((9, dict.fromkeys(enumerate_partitions(9), -1)), "s")
def test_property_power_sums_convert_like_peeling_from_m(degree_terms, target):
    # Degree 9 is the least in which two terms, (3, 2, 2, 2) and
    # (3, 2, 2, 1, 1), share three leading parts that are not all equal.
    # Each check reads none of the tables of the step it checks: e goes
    # back into p by the oracle's e_k, s into m by the Kostka table.
    f = SymFunc("p", *degree_terms)
    g = change_basis(f, target)
    assert f.degree > 6 or polys_equal(f, g, f.degree)
    if target == "e":
        assert e_terms_in_power(g.terms) == f.terms
    else:
        assert change_basis(g, "m", cap=g.degree) == change_basis(f, "m", cap=f.degree)


# The tables keyed in the tier of size 2**bits - 1: bits 8 is the top
# tier, 255, and bits 9 a tier sized to a degree past it, 511.


@pytest.mark.parametrize("bits", [8, 9])
@pytest.mark.parametrize("k", range(1, 11))
def test_newton_table_matches_peeling_from_m(k, bits):
    # The packed table of p_k in e against routes that never read it: the
    # polynomials where the degree allows, and e_k's closed form in p.
    size = (1 << bits) - 1
    table = {_decode(size, key): c for key, c in _power_in_e(k, size)}
    assert k > 6 or polys_equal(SymFunc("e", k, table), SymFunc.single("p", (k,)), k)
    assert e_terms_in_power(table) == {(k,): 1}


@pytest.mark.parametrize("bits", [8, 9])
@pytest.mark.parametrize("k", range(1, 17))
def test_elementary_table_matches_closed_form(k, bits):
    # e_k in p by Newton's identity against sum of (-1)^(k - l) p_lam / z_lam.
    size = (1 << bits) - 1
    table = {_decode(size, key): c for key, c in _elementary_in_p(k, size)}
    assert table == elementary_in_power(k)


@pytest.mark.parametrize("bits", [8, 9])
@pytest.mark.parametrize("k", range(1, 21))
def test_newton_table_matches_closed_form(k, bits):
    # Reverse-lexicographic order of the partitions is descending order of
    # their packed keys, the order in which the table lists them.
    places = _places((1 << bits) - 1)
    expected = tuple(
        (sum(places[part] for part in lam), c) for lam, c in newton_power_in_e(k)
    )
    assert _power_in_e(k, len(places) - 2) == expected
