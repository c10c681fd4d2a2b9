"""The run-carry support kernel, on both of its owners.

``OccurrenceStore.support_count`` counts the runs (one per graph) that
``bits`` touches with four big-int operations; ``OccurrenceColumns``
inherits the same kernel and adds tombstoned (cleared) columns.  Every
answer must equal the popcount of ``support_mask(bits)``, and that mask
the owners of the live occurrences in ``bits``, on sparse masks
(``popcount * 4 < #graphs``) and dense ones alike, before and after the
columns are cleared, renumbered and compacted.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.occurrence_index import OccurrenceStore
from repro.incremental.delta import OccurrenceColumns

# Occurrences per graph; at least 8 graphs so sparse masks exist.
_per_graph = st.lists(st.integers(min_value=1, max_value=3), min_size=8,
                      max_size=60)


def _columns(per_graph: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    return [
        (gid, (0, 1)) for gid, count in enumerate(per_graph)
        for _ in range(count)
    ]


def _draw_masks(data, num_occurrences: int, num_graphs: int) -> list[int]:
    """Masks on both sides of the sparse/dense switch, plus the edges."""
    occ_ids = st.integers(min_value=0, max_value=num_occurrences - 1)
    sparse_max = max(0, (num_graphs - 1) // 4)
    sparse = data.draw(
        st.sets(occ_ids, min_size=1, max_size=max(1, sparse_max))
    )
    dense = data.draw(
        st.sets(occ_ids, min_size=min(num_occurrences, (num_graphs + 3) // 4))
    )
    masks = [sum(1 << i for i in ids) for ids in (sparse, dense)]
    assert masks[1].bit_count() * 4 >= num_graphs
    if sparse_max:
        assert masks[0].bit_count() * 4 < num_graphs
    return masks + [0, (1 << num_occurrences) - 1]


def _live_owners(columns, bits: int) -> int:
    """Brute-force graph-id mask of the live occurrences in ``bits``."""
    mask = 0
    for occ_id, column in enumerate(columns):
        if column is not None and bits >> occ_id & 1:
            mask |= 1 << column[0]
    return mask


@given(_per_graph, st.data())
def test_store_kernel_matches_support_set(per_graph, data):
    columns = _columns(per_graph)
    store = OccurrenceStore()
    for gid, nodes in columns:
        store.add(gid, nodes)
    for bits in _draw_masks(data, len(columns), len(per_graph)):
        mask = store.support_mask(bits)
        assert store.support_count(bits) == mask.bit_count()
        assert mask == _live_owners(columns, bits)


@given(_per_graph, st.data())
def test_columns_kernel_ignores_cleared_graphs(per_graph, data):
    columns = OccurrenceColumns(_columns(per_graph))
    removed = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(per_graph) - 1),
                max_size=len(per_graph) // 2)
    )
    # Warm the cached runs and owners first: every edit must reset them.
    assert columns.support_mask(columns.all_bits) == (1 << len(per_graph)) - 1
    columns.clear_graphs(removed)
    live_graphs = len(per_graph) - len(removed)
    # Masks may carry dead columns; they must count for nothing.
    for bits in _draw_masks(data, len(columns), live_graphs):
        mask = columns.support_mask(bits)
        assert columns.support_count(bits) == mask.bit_count()
        assert mask == _live_owners(list(columns), bits)
    assert columns.support_count(columns.all_bits) == live_graphs
    # Shift the survivors' graph ids down, then drop the dead columns.
    keep = ((1 << len(per_graph)) - 1) & ~sum(1 << gid for gid in removed)
    columns.remap_graphs(keep)
    for bits in _draw_masks(data, len(columns), live_graphs):
        mask = columns.support_mask(bits)
        assert mask == _live_owners(list(columns), bits)
    assert columns.support_mask(columns.all_bits) == (1 << live_graphs) - 1
    columns.compact()
    for bits in _draw_masks(data, len(columns), live_graphs):
        mask = columns.support_mask(bits)
        assert columns.support_count(bits) == mask.bit_count()
        assert mask == _live_owners(list(columns), bits)
