"""Signed rim-hook tabloid counting against the linear-algebra route.

The combinatorial rule computes one Schur coefficient as a signed sum of
stable-partition counts over rim-hook tabloids; the independent route
expands the whole function in the monomial basis and solves the
triangular Schur system.  The two must agree coefficient by coefficient,
and the tabloid matrix must invert the Kostka matrix exactly.
"""

import random

import pytest

from cslab import (
    DegreeMismatch,
    Partition,
    TooLarge,
    build_family,
    change_basis,
    csf_via_edge_subsets,
    enumerate_partitions,
    enumerate_srht,
    inverse_kostka_matrix,
    kostka_number,
    parse_graph_spec,
    random_tree,
    schur_coefficient,
)
from cslab.rimhook import schur_expansion_solve


def content_sign_set(shape):
    return {
        (tabloid.content, tabloid.sign) for tabloid in enumerate_srht(Partition(shape))
    }


class TestTinyTabloidSets:
    def test_hook_two_one(self):
        assert content_sign_set((2, 1)) == {((3,), -1), ((2, 1), 1)}

    def test_column_three(self):
        assert content_sign_set((1, 1, 1)) == {
            ((1, 1, 1), 1),
            ((2, 1), -1),
            ((1, 2), -1),
            ((3,), 1),
        }

    def test_two_by_two(self):
        assert content_sign_set((2, 2)) == {((2, 2), 1), ((1, 3), -1)}

    def test_empty_shape_has_one_empty_tabloid(self):
        tabloids = enumerate_srht(Partition(()))
        assert len(tabloids) == 1
        assert tabloids[0].sign == 1


class TestTabloidStructure:
    def test_tiling_and_signs_for_all_small_shapes(self):
        for n in range(0, 10):
            for shape in enumerate_partitions(n):
                diagram = {
                    (r + 1, c + 1) for r, width in enumerate(shape) for c in range(width)
                }
                for tabloid in enumerate_srht(shape):
                    cells = [cell for hook in tabloid.hooks for cell in hook]
                    assert len(cells) == len(set(cells)), shape
                    assert set(cells) == diagram, shape
                    assert tabloid.content == tuple(len(h) for h in tabloid.hooks)
                    starts = [
                        min(r for r, c in hook if c == 1) for hook in tabloid.hooks
                    ]
                    assert all(a < b for a, b in zip(starts, starts[1:])), shape
                    spans = [
                        len({r for r, _ in hook}) for hook in tabloid.hooks
                    ]
                    assert tabloid.sign_exponent == sum(
                        1 for span in spans if span % 2 == 0
                    )

    def test_content_type_sorts_the_composition(self):
        for tabloid in enumerate_srht(Partition((2, 1))):
            assert tabloid.content_type == Partition(
                sorted(tabloid.content, reverse=True)
            )

    def test_caps(self):
        with pytest.raises(TooLarge):
            enumerate_srht(Partition((31,)), max_size=30)
        with pytest.raises(TooLarge):
            enumerate_srht(Partition((1,) * 13), max_rows=12)


class TestInverseKostka:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_two_sided_inverse(self, n):
        parts, inverse = inverse_kostka_matrix(n)
        size = len(parts)
        kostka = [
            [kostka_number(parts[i], parts[j]) for j in range(size)]
            for i in range(size)
        ]
        identity = [[int(i == j) for j in range(size)] for i in range(size)]
        def mul(a, b):
            return [
                [sum(a[i][t] * b[t][j] for t in range(size)) for j in range(size)]
                for i in range(size)
            ]
        assert mul(kostka, inverse) == identity
        assert mul(inverse, kostka) == identity


class TestSchurCoefficient:
    def test_claw_goldens(self):
        claw = build_family("claw")
        expected = {
            Partition((4,)): 0,
            Partition((3, 1)): 1,
            Partition((2, 2)): -1,
            Partition((2, 1, 1)): 5,
            Partition((1, 1, 1, 1)): 8,
        }
        for lam, value in expected.items():
            got, trace = schur_coefficient(claw, lam)
            assert got == value, lam
            assert trace.total == value
            assert sum(s * c for _, s, c in trace.tabloids) == value

    def test_single_edge_is_twice_the_column(self):
        K2 = build_family("complete", 2)
        value, _ = schur_coefficient(K2, Partition((1, 1)))
        assert value == 2
        f = schur_expansion_solve(K2)
        assert f.terms == {Partition((1, 1)): 2}

    @pytest.mark.parametrize("spec", ["path:6", "cycle:5", "claw", "spider:2,2,1"])
    def test_matches_linear_solve_everywhere(self, spec):
        # Up to 12 vertices both sides read one stable-partition
        # enumeration, so the edge-subset expansion is checked as well.
        G = parse_graph_spec(spec)
        solved = schur_expansion_solve(G)
        assert solved == change_basis(csf_via_edge_subsets(G), "s")
        for lam in enumerate_partitions(G.n):
            value, _ = schur_coefficient(G, lam)
            assert value == solved.coefficient(lam), (spec, lam)

    def test_random_trees_match_linear_solve(self):
        rng = random.Random(2)
        for _ in range(4):
            G = random_tree(6, rng)
            solved = schur_expansion_solve(G)
            for lam in enumerate_partitions(6):
                value, _ = schur_coefficient(G, lam)
                assert value == solved.coefficient(lam)

    def test_trace_reports_unrealizable_contents_with_zero_count(self):
        claw = build_family("claw")
        _, trace = schur_coefficient(claw, Partition((2, 2)))
        counts = {content: count for content, _, count in trace.tabloids}
        assert counts[(2, 2)] == 0  # the claw has no stable {2,2} partition
        assert counts[(1, 3)] == 1

    def test_hook_coefficients_of_trees_are_nonnegative(self):
        rng = random.Random(9)
        for _ in range(6):
            G = random_tree(7, rng)
            for k in range(0, 7):
                hook = Partition((7 - k,) + (1,) * k)
                value, _ = schur_coefficient(G, hook)
                assert value >= 0, (G, hook)

    def test_rejects_size_mismatch(self):
        with pytest.raises(DegreeMismatch):
            schur_coefficient(build_family("claw"), Partition((3,)))

    def test_solve_cap(self):
        with pytest.raises(TooLarge):
            schur_expansion_solve(build_family("path", 13), cap=12)
        f = schur_expansion_solve(build_family("path", 13), cap=13)
        assert f.basis == "s" and f.degree == 13


class TestAgainstBasisChange:
    def test_solver_equals_generic_basis_change(self):
        for spec in ("path:5", "claw", "cycle:4"):
            G = parse_graph_spec(spec)
            from cslab import csf_via_stable_partitions

            generic = change_basis(csf_via_stable_partitions(G), "s")
            assert schur_expansion_solve(G) == generic
