"""Partition arithmetic against definition-level oracles."""

import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_representable, partition_count

from cslab import (
    MultiplicityForm,
    Partition,
    SymFunc,
    enumerate_partitions,
    numerical_semigroup_gap,
    parse_partition,
    sort_to_partition,
)
from cslab.csf import _tier
from cslab.symfunc import _beads_shape, _decode, _places

partition_lists = st.lists(st.integers(1, 9), max_size=7).map(
    lambda parts: sorted(parts, reverse=True)
)


class TestPartition:
    def test_validates_weakly_decreasing(self):
        assert Partition((4, 2, 2, 1)) == (4, 2, 2, 1)
        with pytest.raises(ValueError):
            Partition((2, 3))
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((3, -1))

    @given(st.lists(st.integers(-2, 6), max_size=6))
    def test_accepts_exactly_positive_weakly_decreasing_parts(self, parts):
        valid = all(p > 0 for p in parts) and all(a >= b for a, b in zip(parts, parts[1:]))
        if valid:
            assert Partition(parts) == tuple(parts)
        else:
            with pytest.raises(ValueError):
                Partition(parts)

    @pytest.mark.parametrize("parts", [[2.7, 1], "21", [2, True], [2.0, 1], [3, "1"], [True]])
    def test_rejects_parts_that_are_not_ints(self, parts):
        bad = next(p for p in parts if type(p) is not int)
        with pytest.raises(ValueError, match=f"must be ints, got {bad!r}"):
            Partition(parts)

    def test_symfunc_terms_reject_parts_that_are_not_ints(self):
        with pytest.raises(ValueError, match="must be ints, got 2.9"):
            SymFunc("e", 3, {(2.9, 1): 1})

    def test_empty_partition_of_zero(self):
        empty = Partition()
        assert empty.n == 0
        assert empty.length == 0
        assert empty.conjugate() == ()

    def test_size_and_length(self):
        lam = Partition((5, 3, 3, 1))
        assert lam.n == 12
        assert lam.length == 4

    def test_conjugate_known(self):
        assert Partition((4, 2, 1)).conjugate() == (3, 2, 1, 1)
        assert Partition((3, 3)).conjugate() == (2, 2, 2)

    @given(partition_lists)
    def test_conjugate_is_an_involution(self, parts):
        lam = Partition(parts)
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().n == lam.n

    def test_factorials(self):
        lam = Partition((3, 2, 2, 1, 1, 1))
        assert lam.multiplicity_factorial() == 1 * 2 * 6

    def test_multiplicity_form_round_trip(self):
        lam = Partition((4, 4, 2, 1))
        form = lam.multiplicities()
        assert isinstance(form, MultiplicityForm)
        assert form.pairs == ((4, 2), (2, 1), (1, 1))


class TestUncheckedDecoders:
    """The decoders build their Partitions without the check, so each must
    emit what the checked constructor accepts unchanged, on any key."""

    @staticmethod
    def assert_checked_agrees(out):
        assert type(out) is Partition
        assert Partition(list(out)) == out

    @given(st.data(), st.sampled_from([10, 64, 200]))
    def test_family_recurrence_keys(self, data, n):
        tier = _tier(n)
        key = data.draw(st.integers(0, tier.places[tier.size + 1] - 1))
        self.assert_checked_agrees(_decode(tier.size, key))

    @given(st.data(), st.sampled_from([64, 255, 300]))
    def test_packed_e_keys(self, data, size):
        # Tree-p and the conversions key tiers past 255 too.
        key = data.draw(st.integers(0, _places(size)[size + 1] - 1))
        self.assert_checked_agrees(_decode(size, key))

    @given(st.integers(0, 1 << 60))
    def test_beta_set_keys(self, beads):
        # Bit 0 would be a row of length 0, which the strip moves drop.
        self.assert_checked_agrees(_beads_shape(beads & ~1))


class TestEnumeration:
    @pytest.mark.parametrize("n", range(0, 17))
    def test_count_matches_pentagonal_recurrence(self, n):
        assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)

    def test_order_is_reverse_lexicographic_descending(self):
        listed = list(enumerate_partitions(6))
        assert listed[0] == (6,)
        assert listed[-1] == (1,) * 6
        assert listed == sorted(listed, reverse=True)
        assert len(set(listed)) == len(listed)

    def test_enumeration_leaves_no_cycles(self):
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                list(enumerate_partitions(6))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @given(partition_lists)
    def test_sort_to_partition_accepts_any_order(self, parts):
        shuffled = list(reversed(parts)) + [0, 0]
        assert sort_to_partition(shuffled) == Partition(parts)


class TestSemigroupMembership:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_matches_brute_search(self, k):
        for n in range(1, k * k + 2 * k):
            assert numerical_semigroup_gap(k, n) == brute_representable(k, n), (k, n)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            numerical_semigroup_gap(1, 5)
        with pytest.raises(ValueError):
            numerical_semigroup_gap(3, 0)


class TestParsing:
    def test_parses_csv(self):
        assert parse_partition("4,2,1") == Partition((4, 2, 1))
        assert parse_partition("7") == Partition((7,))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_partition("4,x")
        with pytest.raises(ValueError):
            parse_partition("2,3")
