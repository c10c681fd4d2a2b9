"""Property suite: :class:`repro.util.bitset.BitSet` on long runs and wide ids.

Python ``set`` is the oracle.  The id sets here mix scattered ids around
2**16 with long runs of consecutive ids (up to 300 members), and every
check compares the full observable state: members, length, truth value,
ascending iteration order and the raw mask.  ``compact`` is driven with
non-monotonic injective renumberings rather than the dense survivor maps
of ``tests/test_bitset.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitset import BitSet

_WIDE = 1 << 16

# Large runs and masks reaching past 4 * 2**16 bits can exceed
# Hypothesis's default 200 ms deadline on shared CI runners;
# correctness, not latency, is what this suite pins.
no_deadline = settings(deadline=None)

# Ids concentrated on the interesting coordinates: small, around 2**16,
# and a few multiples of it out.
_ids = st.one_of(
    st.integers(min_value=0, max_value=192),
    st.integers(min_value=_WIDE - 4, max_value=_WIDE + 4),
    st.integers(min_value=0, max_value=4 * _WIDE),
)

# A run of consecutive ids.
_runs = st.builds(
    lambda start, length: set(range(start, start + length)),
    st.integers(min_value=0, max_value=2 * _WIDE),
    st.integers(min_value=1, max_value=300),
)

_id_sets = st.one_of(
    st.lists(_ids, max_size=60).map(set),
    _runs,
    st.tuples(st.lists(_ids, max_size=30).map(set), _runs).map(
        lambda pair: pair[0] | pair[1]
    ),
)


def _check(value: BitSet, oracle: set[int]) -> None:
    """The full observational equality battery for one value."""
    assert set(value) == oracle
    assert len(value) == len(oracle)
    assert bool(value) == bool(oracle)
    assert list(value) == sorted(oracle)
    assert value.bits == sum(1 << i for i in oracle)


class TestConstruction:
    @no_deadline
    @given(_id_sets)
    def test_roundtrip_and_len(self, ids):
        _check(BitSet(ids), ids)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            BitSet([-1])
        with pytest.raises(ValueError):
            BitSet().add(-5)
        with pytest.raises(ValueError):
            BitSet([3, _WIDE, -_WIDE])


class TestMutation:
    @no_deadline
    @given(_id_sets, _ids)
    def test_clear_bit(self, ids, victim):
        value = BitSet(ids)
        assert value.clear_bit(victim) == (victim in ids)
        _check(value, ids - {victim})

    @no_deadline
    @given(_id_sets, _id_sets)
    def test_union_update(self, a, b):
        value = BitSet(a)
        value.union_update(BitSet(b))
        _check(value, a | b)

    @no_deadline
    @given(_id_sets, _id_sets)
    def test_difference_update(self, a, b):
        value = BitSet(a)
        value.difference_update(BitSet(b))
        _check(value, a - b)


class TestShiftingAndRemapping:
    @settings(max_examples=60, deadline=None)
    @given(_id_sets, st.integers(min_value=0, max_value=2 * _WIDE + 3))
    def test_offset(self, ids, k):
        _check(BitSet(ids).offset(k), {i + k for i in ids})

    @no_deadline
    @given(_id_sets, st.integers(min_value=0, max_value=40))
    def test_compact(self, ids, salt):
        # A non-monotonic but injective renumbering that drops every
        # third member.
        id_map = {
            i: (i * 7 + salt) % (5 * _WIDE)
            for n, i in enumerate(sorted(ids))
            if n % 3 != 0
        }
        if len(set(id_map.values())) != len(id_map):
            id_map = {i: n for n, i in enumerate(sorted(id_map))}
        expected = {id_map[i] for i in ids if i in id_map}
        _check(BitSet(ids).compact(id_map), expected)
