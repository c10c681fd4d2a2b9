"""Unit and property tests for :mod:`repro.util.bitset`.

The property suite uses Python ``set`` as the oracle.  Ids and offsets
reach past 2**16 so masks spanning many machine words (and sets whose
members sit far apart) are covered, not just single-word masks.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.bitset import BitSet, squeeze

_WIDE = 1 << 16

ids = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=_WIDE - 4, max_value=_WIDE + 4),
    st.integers(min_value=0, max_value=4 * _WIDE),
)
id_sets = st.sets(ids, max_size=40)
offsets = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=_WIDE - 8, max_value=2 * _WIDE + 3),
)


class TestConstruction:
    def test_empty(self):
        bs = BitSet()
        assert len(bs) == 0
        assert not bs
        assert list(bs) == []

    def test_from_iterable(self):
        bs = BitSet([3, 1, 4, 1, 5])
        assert sorted(bs) == [1, 3, 4, 5]
        assert len(bs) == 4

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            BitSet([-1])

    def test_from_bits(self):
        assert set(BitSet.from_bits(0b1011)) == {0, 1, 3}

    def test_from_bits_negative_rejected(self):
        with pytest.raises(ValueError):
            BitSet.from_bits(-1)

    def test_full(self):
        assert set(BitSet.full(4)) == {0, 1, 2, 3}
        assert set(BitSet.full(0)) == set()

    def test_full_negative_rejected(self):
        with pytest.raises(ValueError):
            BitSet.full(-2)


class TestMembershipAndMutation:
    def test_contains(self):
        bs = BitSet([2, 7])
        assert 2 in bs
        assert 7 in bs
        assert 3 not in bs
        assert -1 not in bs

    def test_add_discard(self):
        bs = BitSet()
        bs.add(5)
        assert 5 in bs
        bs.discard(5)
        assert 5 not in bs

    def test_discard_missing_is_noop(self):
        bs = BitSet([1])
        bs.discard(9)
        bs.discard(-3)
        assert set(bs) == {1}

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            BitSet().add(-2)

    def test_union_update(self):
        bs = BitSet([1, 2])
        bs.union_update(BitSet([2, 5]))
        assert set(bs) == {1, 2, 5}

    def test_union_update_leaves_other_unchanged(self):
        other = BitSet([3])
        BitSet([1]).union_update(other)
        assert set(other) == {3}

    def test_union_update_with_empty_is_noop(self):
        bs = BitSet([4])
        bs.union_update(BitSet())
        assert set(bs) == {4}


class TestAlgebra:
    def test_and(self):
        assert set(BitSet([1, 2, 3]) & BitSet([2, 3, 4])) == {2, 3}

    def test_or(self):
        assert set(BitSet([1]) | BitSet([2])) == {1, 2}

    def test_xor(self):
        assert set(BitSet([1, 2]) ^ BitSet([2, 3])) == {1, 3}

    def test_sub(self):
        assert set(BitSet([1, 2, 3]) - BitSet([2])) == {1, 3}

    def test_subset_superset(self):
        small, big = BitSet([1, 2]), BitSet([1, 2, 3])
        assert small.issubset(big)
        assert big.issuperset(small)
        assert not big.issubset(small)

    def test_disjoint(self):
        assert BitSet([1]).isdisjoint(BitSet([2]))
        assert not BitSet([1, 2]).isdisjoint(BitSet([2]))

    def test_equality_and_hash(self):
        assert BitSet([1, 2]) == BitSet([2, 1])
        assert hash(BitSet([1, 2])) == hash(BitSet([2, 1]))
        assert BitSet([1]) != BitSet([2])

    def test_copy_is_independent(self):
        original = BitSet([1])
        copy = original.copy()
        copy.add(2)
        assert set(original) == {1}

    def test_repr_lists_members(self):
        assert repr(BitSet([2, 0])) == "BitSet({0, 2})"

    def test_offset(self):
        assert set(BitSet([0, 2]).offset(3)) == {3, 5}

    def test_offset_zero_is_copy(self):
        original = BitSet([1, 4])
        shifted = original.offset(0)
        assert shifted == original
        shifted.add(9)
        assert set(original) == {1, 4}

    def test_offset_negative_rejected(self):
        with pytest.raises(ValueError):
            BitSet([1]).offset(-1)


class TestIncrementalMaintenance:
    def test_clear_bit_present(self):
        bs = BitSet([1, 5])
        assert bs.clear_bit(5) is True
        assert set(bs) == {1}

    def test_clear_bit_absent(self):
        bs = BitSet([1])
        assert bs.clear_bit(3) is False
        assert bs.clear_bit(-2) is False
        assert set(bs) == {1}

    def test_difference_update(self):
        bs = BitSet([1, 2, 3])
        bs.difference_update(BitSet([2, 9]))
        assert set(bs) == {1, 3}

    def test_difference_update_leaves_other_unchanged(self):
        other = BitSet([1, 2])
        BitSet([2]).difference_update(other)
        assert set(other) == {1, 2}

    def test_compact_renumbers(self):
        bs = BitSet([0, 2, 5])
        assert set(bs.compact({0: 0, 2: 1, 5: 2})) == {0, 1, 2}

    def test_compact_drops_unmapped(self):
        assert set(BitSet([0, 1, 2]).compact({1: 0})) == {0}

    def test_compact_returns_new_instance(self):
        original = BitSet([3])
        compacted = original.compact({3: 0})
        compacted.add(7)
        assert set(original) == {3}

    def test_compact_negative_target_rejected(self):
        with pytest.raises(ValueError):
            BitSet([1]).compact({1: -1})


class TestHypothesis:
    @given(id_sets, id_sets)
    def test_and_matches_set_intersection(self, a, b):
        assert set(BitSet(a) & BitSet(b)) == a & b

    @given(id_sets, id_sets)
    def test_or_matches_set_union(self, a, b):
        assert set(BitSet(a) | BitSet(b)) == a | b

    @given(id_sets, id_sets)
    def test_difference_matches_set_difference(self, a, b):
        assert set(BitSet(a) - BitSet(b)) == a - b

    @given(id_sets)
    def test_roundtrip_and_len(self, a):
        bs = BitSet(a)
        assert set(bs) == a
        assert len(bs) == len(a)

    @given(id_sets, id_sets)
    def test_subset_consistent(self, a, b):
        assert BitSet(a).issubset(BitSet(b)) == (a <= b)

    @given(id_sets)
    def test_iteration_sorted_ascending(self, a):
        assert list(BitSet(a)) == sorted(a)

    @given(id_sets, id_sets)
    def test_union_update_matches_set_union(self, a, b):
        bs = BitSet(a)
        bs.union_update(BitSet(b))
        assert set(bs) == a | b

    @given(id_sets, offsets)
    def test_offset_shifts_every_member(self, a, k):
        assert set(BitSet(a).offset(k)) == {i + k for i in a}

    @given(id_sets, id_sets, offsets)
    def test_offset_distributes_over_union(self, a, b, k):
        # Shift-then-OR == OR-then-shift.
        left = BitSet(a).offset(k) | BitSet(b).offset(k)
        right = (BitSet(a) | BitSet(b)).offset(k)
        assert left == right

    @given(id_sets, ids)
    def test_clear_bit_matches_set_discard(self, a, i):
        bs = BitSet(a)
        assert bs.clear_bit(i) == (i in a)
        assert set(bs) == a - {i}

    @given(id_sets, id_sets)
    def test_difference_update_matches_set_difference(self, a, b):
        bs = BitSet(a)
        bs.difference_update(BitSet(b))
        assert set(bs) == a - b

    @given(id_sets, id_sets)
    def test_compact_matches_mapped_survivors(self, a, survivors):
        # A dense renumbering of the survivor set.
        id_map = {i: n for n, i in enumerate(sorted(survivors))}
        expected = {id_map[i] for i in a & survivors}
        assert set(BitSet(a).compact(id_map)) == expected

    @given(id_sets)
    def test_compact_identity_map_roundtrips(self, a):
        identity = {i: i for i in a}
        assert set(BitSet(a).compact(identity)) == a

    @given(id_sets, id_sets)
    @example(a={0, 3, 300}, survivors=set())
    @example(a={0, 3, 300}, survivors=set(range(301)))
    @example(a=set(), survivors={1, 4})
    def test_squeeze_matches_mapped_survivors(self, a, survivors):
        # A dense renumbering of the survivor set, exactly as removals and
        # occurrence-column compaction build it; the examples pin an
        # empty and a full ``keep``.
        id_map = {i: n for n, i in enumerate(sorted(survivors))}
        expected = {id_map[i] for i in a & survivors}
        squeezed = squeeze(BitSet(a).bits, BitSet(survivors).bits)
        assert set(BitSet.from_bits(squeezed)) == expected

    @given(id_sets, id_sets)
    def test_overlap_matches_intersection_size(self, a, b):
        assert BitSet(a).overlap(BitSet(b)) == len(a & b)

    @given(id_sets, id_sets)
    def test_jaccard_matches_set_definition(self, a, b):
        expected = 1.0 if not (a | b) else len(a & b) / len(a | b)
        assert BitSet(a).jaccard(BitSet(b)) == expected

    @given(id_sets, id_sets)
    def test_jaccard_bounds_and_symmetry(self, a, b):
        left = BitSet(a).jaccard(BitSet(b))
        assert 0.0 <= left <= 1.0
        assert left == BitSet(b).jaccard(BitSet(a))

    @given(id_sets)
    def test_jaccard_self_is_one(self, a):
        assert BitSet(a).jaccard(BitSet(a)) == 1.0

    @given(id_sets, id_sets)
    def test_xor_matches_set_symmetric_difference(self, a, b):
        assert set(BitSet(a) ^ BitSet(b)) == a ^ b

    @given(id_sets, id_sets)
    def test_named_aliases_match_set_methods(self, a, b):
        assert set(BitSet(a).intersection(BitSet(b))) == a & b
        assert set(BitSet(a).union(BitSet(b))) == a | b
        assert set(BitSet(a).difference(BitSet(b))) == a - b

    @given(id_sets, id_sets)
    def test_intersection_count_matches_set_intersection(self, a, b):
        assert BitSet(a).intersection_count(BitSet(b)) == len(a & b)
        assert BitSet(a).isdisjoint(BitSet(b)) == a.isdisjoint(b)
        assert BitSet(a).issuperset(BitSet(b)) == (a >= b)

    @given(id_sets, id_sets)
    def test_equality_and_hash_follow_set_equality(self, a, b):
        assert (BitSet(a) == BitSet(b)) == (a == b)
        if a == b:
            assert hash(BitSet(a)) == hash(BitSet(b))

    @given(id_sets, ids)
    def test_add_discard_match_set(self, a, i):
        bs = BitSet(a)
        bs.add(i)
        assert set(bs) == a | {i}
        bs.discard(i)
        assert set(bs) == a - {i}

    @given(id_sets, ids)
    def test_copy_is_independent(self, a, i):
        bs = BitSet(a)
        dup = bs.copy()
        dup.add(i)
        dup.discard(min(a, default=0))
        assert set(bs) == a

    # Sets of up to ~200k members; slow under coverage tracing.
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=3 * _WIDE + 7))
    def test_full_is_range(self, n):
        full = BitSet.full(n)
        assert len(full) == n
        assert set(full) == set(range(n))

    @given(id_sets)
    def test_from_bits_matches_mask(self, a):
        mask = sum(1 << i for i in a)
        assert set(BitSet.from_bits(mask)) == a
        assert BitSet(a).bits == mask

    @given(id_sets, ids)
    def test_contains_matches_set(self, a, i):
        assert (i in BitSet(a)) == (i in a)
