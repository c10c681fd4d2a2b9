"""Database deltas and the occurrence-id space they act on.

A :class:`DatabaseDelta` batches graph additions (as graph-database text,
parsed against the store's interners at apply time so label ids stay
consistent) with graph removals (pre-delta graph ids).

:class:`OccurrenceColumns` is the persistent replacement for
:class:`repro.core.occurrence_index.OccurrenceStore`: the occurrence-id
space of one pattern class, maintained across deltas.  New graphs append
bit columns; removals clear columns in place (tombstones keep surviving
occurrence ids stable); a compaction pass renumbers the survivors densely once the dead fraction
crosses a threshold.  It subclasses ``OccurrenceStore``, so
:func:`repro.core.specializer.specialize_class` runs the same
``all_bits`` / ``support_count`` / ``support_mask`` kernels on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.occurrence_index import OccurrenceStore
from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.io import parse_graph_database, serialize_graph_database
from repro.util.bitset import BitSet, squeeze
from repro.util.interner import LabelInterner

__all__ = ["DatabaseDelta", "OccurrenceColumns"]


@dataclass(frozen=True)
class DatabaseDelta:
    """A batched database change: graphs to add and graph ids to remove.

    ``add_text`` is graph-database text (see :mod:`repro.graphs.io`);
    keeping additions textual makes deltas picklable and defers label
    interning to apply time, against the owning store's interners.
    ``remove_ids`` are ids in the *pre-delta* database; removals are
    applied before additions, and surviving graphs keep their relative
    order (added graphs take the ids after them).
    """

    add_text: str = ""
    remove_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for gid in self.remove_ids:
            if gid < 0:
                raise MiningError(f"remove ids must be non-negative, got {gid}")
            if gid in seen:
                raise MiningError(f"duplicate remove id {gid}")
            seen.add(gid)

    @classmethod
    def adding(cls, database: GraphDatabase) -> "DatabaseDelta":
        """A pure-addition delta from an in-memory database."""
        return cls(add_text=serialize_graph_database(database))

    @classmethod
    def removing(cls, ids: Iterable[int]) -> "DatabaseDelta":
        """A pure-removal delta."""
        return cls(remove_ids=tuple(ids))

    @property
    def is_empty(self) -> bool:
        return not self.remove_ids and self.added_count == 0

    @property
    def added_count(self) -> int:
        """Number of graphs in ``add_text`` (one per ``t`` header)."""
        return sum(
            1
            for line in self.add_text.splitlines()
            if line.strip().startswith("t")
        )

    def size(self) -> int:
        """Total number of graphs touched (added + removed)."""
        return self.added_count + len(self.remove_ids)

    def added_database(
        self,
        node_labels: LabelInterner | None = None,
        edge_labels: LabelInterner | None = None,
    ) -> GraphDatabase:
        """Parse the additions; pass the store's interners for stable ids."""
        return parse_graph_database(self.add_text, node_labels, edge_labels)


class OccurrenceColumns(OccurrenceStore):
    """The maintained occurrence-id space of one stored pattern class.

    ``occurrences[occ_id]`` is ``(graph_id, mapped_nodes)`` for a live
    occurrence or ``None`` for a cleared (dead) one.  Dead columns keep
    their ids reserved, so a removal renumbers no surviving occurrence;
    they are reclaimed by :meth:`compact` when :attr:`dead_fraction`
    grows.
    The support kernels are :class:`OccurrenceStore`'s; dead columns
    belong to no run, so they count for nothing, and rows that split a
    graph's columns raise :class:`~repro.exceptions.MiningError`.
    """

    __slots__ = ()

    def __init__(
        self,
        columns: Iterable[tuple[int, tuple[int, ...]] | None] = (),
    ) -> None:
        super().__init__()
        for column in columns:
            if column is None:
                self.occurrences.append(None)
            else:
                gid, nodes = column
                self.append(gid, tuple(nodes))

    #: Register one occurrence in ``graph_id``; returns its column id.
    append = OccurrenceStore.add

    # -- maintenance ---------------------------------------------------------------

    def copy(self) -> "OccurrenceColumns":
        """Columns that maintenance may change while these stay as they
        are: the column list is copied, its immutable entries and the
        cached run masks are shared."""
        out = OccurrenceColumns.__new__(OccurrenceColumns)
        out.occurrences = list(self.occurrences)
        out._graph_ids = self._graph_ids
        out._runs = self._runs
        return out

    @property
    def live_count(self) -> int:
        return self.all_bits.bit_count()

    @property
    def dead_fraction(self) -> float:
        if not self.occurrences:
            return 0.0
        size = len(self.occurrences)
        return (size - self.live_count) / size

    def clear_graphs(self, removed: Iterable[int]) -> int:
        """Clear every column of the given graphs; returns the cleared mask."""
        removed = set(removed)
        occurrences = self.occurrences
        cleared = 0
        for occ_id, column in enumerate(occurrences):
            if column is not None and column[0] in removed:
                occurrences[occ_id] = None
                cleared |= 1 << occ_id
        self._graph_ids &= ~BitSet(removed).bits
        if cleared:
            self._runs = None
        return cleared

    def remap_graphs(self, keep: int) -> None:
        """Renumber live columns' graph ids after the graphs outside the
        mask ``keep`` were removed and later ids shifted down.

        Every live graph id must be in ``keep`` — clear removed graphs
        first with :meth:`clear_graphs`.  Ranks keep distinct ids
        distinct, so every run keeps its bits: cached run masks stay,
        and only their owner list is renumbered.
        """
        self._graph_ids = squeeze(self._graph_ids, keep)
        new_ids: dict[int, int] = {}  # old graph id -> rank in ``keep``
        for occ_id, column in enumerate(self.occurrences):
            if column is not None:
                gid = column[0]
                if gid not in new_ids:
                    new_ids[gid] = (keep & ((1 << gid) - 1)).bit_count()
                self.occurrences[occ_id] = (new_ids[gid], column[1])
        if self._runs is not None:
            inner, last, _owners = self._runs
            owners = [column and column[0] for column in self.occurrences]
            self._runs = (inner, last, owners)

    def compact(self) -> None:
        """Drop dead columns; live ones keep their order, so occurrence
        ``i`` becomes the ``i``-th set bit of the old :attr:`all_bits`
        (an occurrence set renumbers with ``squeeze(bits, all_bits)``)."""
        self.occurrences = [c for c in self.occurrences if c is not None]
        self._runs = None

    # -- persistence ---------------------------------------------------------------

    def to_rows(self) -> list[list | None]:
        """JSON-serializable view: ``[gid, [nodes...]]`` or ``None``."""
        return [
            None if column is None else [column[0], list(column[1])]
            for column in self.occurrences
        ]

    @classmethod
    def from_rows(cls, rows: Iterable[list | None]) -> "OccurrenceColumns":
        return cls(
            None if row is None else (int(row[0]), tuple(int(n) for n in row[1]))
            for row in rows
        )

    def __iter__(self) -> Iterator[tuple[int, tuple[int, ...]] | None]:
        return iter(self.occurrences)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OccurrenceColumns(live={self.live_count}, "
            f"dead={len(self.occurrences) - self.live_count})"
        )
