"""The run-carry support kernel's cached run masks across column edits.

``OccurrenceStore`` caches ``(inner, last)`` run masks and the
occurrence -> graph-id list on the first kernel call; ``add``,
``compact`` and an ``OccurrenceColumns.clear_graphs`` that clears a
column drop the cache, and ``remap_graphs`` renumbers its graph-id
list.  The state machine below interleaves every edit an
``OccurrenceColumns`` sees in the incremental updater with kernel
calls, and after every step compares ``support_count``/``support_mask``
with a brute-force count and owner mask over the live occurrences.  A
graph whose occurrences would be split must raise.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.occurrence_index import OccurrenceStore
from repro.exceptions import MiningError
from repro.incremental.delta import OccurrenceColumns

# Arbitrary masks wider than any store the machine builds, so they carry
# dead bits and bits past the last column.
_masks = st.lists(st.integers(min_value=0, max_value=(1 << 200) - 1),
                  max_size=4)


def _brute_support(model: list[int | None], bits: int) -> set[int]:
    return {
        gid for occ_id, gid in enumerate(model)
        if gid is not None and bits >> occ_id & 1
    }


class SupportRunsMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.columns = OccurrenceColumns()
        # Graph id (or None for a dead column) per column.
        self.model: list[int | None] = []
        self.masks: list[int] = []

    def _live(self) -> set[int]:
        return {gid for gid in self.model if gid is not None}

    @rule(data=st.data(), count=st.integers(min_value=1, max_value=4),
          masks=_masks)
    def append_run(self, data, count, masks):
        gid = data.draw(
            st.integers(min_value=0, max_value=40).filter(
                lambda g: g not in self._live()
            )
        )
        for _ in range(count):
            self.columns.append(gid, (0, 1))
            self.model.append(gid)
        self.masks = masks

    @rule(data=st.data(), masks=_masks)
    def clear_graphs(self, data, masks):
        live = sorted(self._live())
        removed = data.draw(st.sets(st.sampled_from(live))) if live else set()
        cleared = self.columns.clear_graphs(removed)
        expected = 0
        for occ_id, gid in enumerate(self.model):
            if gid in removed:
                self.model[occ_id] = None
                expected |= 1 << occ_id
        assert cleared == expected
        self.masks = masks

    @rule(data=st.data(), masks=_masks)
    def remap_shift_down(self, data, masks):
        # ``keep`` also holds ids that own no column here, as the
        # updater's surviving-graph mask does.
        extra = data.draw(st.sets(st.integers(min_value=0, max_value=40)))
        keep = self._live() | extra
        id_map = {gid: new for new, gid in enumerate(sorted(keep))}
        self.columns.remap_graphs(sum(1 << gid for gid in keep))
        self.model = [None if g is None else id_map[g] for g in self.model]
        self.masks = masks

    @rule(masks=_masks)
    def compact(self, masks):
        self.columns.compact()
        self.model = [g for g in self.model if g is not None]
        self.masks = masks

    @rule(masks=_masks)
    def rows_roundtrip(self, masks):
        rows = json.loads(json.dumps(self.columns.to_rows()))
        self.columns = OccurrenceColumns.from_rows(rows)
        self.masks = masks

    @invariant()
    def kernel_matches_live_occurrences(self):
        columns = self.columns
        assert [None if c is None else c[0] for c in columns] == self.model
        everything = (1 << (len(self.model) + 3)) - 1
        for bits in [0, columns.all_bits, everything, *self.masks]:
            expected = _brute_support(self.model, bits)
            assert columns.support_mask(bits) == sum(1 << g for g in expected)
            assert columns.support_count(bits) == len(expected)
        assert columns.support_count(columns.all_bits) == len(self._live())


SupportRunsMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestSupportRuns = SupportRunsMachine.TestCase


def test_store_rejects_split_graph():
    store = OccurrenceStore()
    store.add(0, (0, 1))
    store.add(1, (0, 1))
    with pytest.raises(MiningError, match="graph 0's occurrences are split"):
        store.add(0, (1, 0))


def test_columns_reject_split_graph():
    columns = OccurrenceColumns()
    columns.append(3, (0, 1))
    columns.append(5, (0, 1))
    with pytest.raises(MiningError, match="graph 3's occurrences are split"):
        columns.append(3, (1, 0))


def test_from_rows_rejects_split_graph():
    with pytest.raises(MiningError, match="graph 0's occurrences are split"):
        OccurrenceColumns.from_rows([[0, [0, 1]], [1, [0, 1]], [0, [1, 0]]])


def test_from_rows_rejects_graph_split_by_dead_column():
    with pytest.raises(MiningError, match="graph 2's occurrences are split"):
        OccurrenceColumns.from_rows([[2, [0, 1]], None, [2, [1, 0]]])


def test_cleared_graph_may_start_a_new_run():
    columns = OccurrenceColumns([(0, (0, 1)), (1, (0, 1))])
    columns.support_count(columns.all_bits)  # build the run masks
    columns.clear_graphs([0])
    columns.append(0, (1, 0))
    assert columns.support_mask(0b111) == 0b11  # graphs 0 and 1
    assert columns.support_count(0b001) == 0


def test_remap_after_clearing_nothing_keeps_the_run_masks(monkeypatch):
    columns = OccurrenceColumns([(1, (0, 1)), (1, (1, 0)), (3, (0, 1))])
    columns.support_count(columns.all_bits)  # build the run masks
    assert columns.clear_graphs([2]) == 0  # graph 2 owns no column here
    columns.remap_graphs(0b1011)  # graph 2 removed: 1 -> 1, 3 -> 2

    def rebuild(self):
        raise AssertionError("the run masks were rebuilt")

    monkeypatch.setattr(OccurrenceColumns, "_run_masks", rebuild)
    assert [column[0] for column in columns] == [1, 1, 2]
    assert columns.support_mask(0b111) == 0b110
    assert columns.support_count(0b001) == 1
