"""The persistent pattern store: one complete mining result on disk.

Layout (``format_version`` 2)::

    <store>/
      manifest.json      version, options fingerprint, checksums (written last)
      labels.json        interner name tables + taxonomy parent map
      database.graphs    the mined database (graph-db text format)
      classes.json       per class: DFS code, occurrence columns and the
                         class's Step-3 pattern set
      border.json        negative border: DFS code -> supporting graph ids
                         (a graph-id mask in memory)

A class's occurrence index (Step 2) is not stored: it is the projection
of the class's occurrence columns, through the original labels of
``database.graphs``, onto the working taxonomy, and
:func:`repro.core.occurrence_index.index_occurrences` rebuilds it from
exactly those three.  Version 1 stores, which kept a second copy of
every index as a SQLite file per class under ``oie/``, are refused.

Label ids are only meaningful relative to an interner, so ``labels.json``
stores the interner *name tables* plus the taxonomy as a ``label ->
parents`` item list in insertion order — the same rebuild recipe the
parallel runtime ships to workers, which reproduces the taxonomy (and
therefore DFS codes, children ordering and topological order)
bit-identical to the original.

``manifest.json`` is written last and carries SHA-256 checksums of every
other file; a torn or tampered store fails :meth:`PatternStore.open`
with :class:`repro.exceptions.StoreError` instead of producing silently
wrong supports.  ``open`` is an integrity check followed by a parse;
:meth:`PatternStore.is_committed_copy` runs the same check alone, so a
process that still holds the store it just committed can adopt a fresh
copy of its directory without parsing it.  Such a process updates a
copy-on-write :meth:`PatternStore.fork` of that store, so the committed
object itself never changes and a reader in the same process may keep
serving it.

Each class entry in ``classes.json`` also carries ``patterns``: the
class's Step-3 output at the store's own threshold, so a version's
pattern set is computed once, by whichever writer committed it, and the
reader loads it instead of running Step 3 again.  Each pattern holds
its position labels (node ``p`` of ``graph_from_code(class code)``),
its canonical code edges, its support count and its support mask (the
``support_mask`` int every pattern carries) in hex.  The list is sorted
by code edges rather than kept in Step-3 emission order, which the
parallel runtime does not return, so the sequential and parallel store
builds write the same list.
``support`` and ``class_id`` are derived on load.  The key is absent on
stores written before it existed; such a class is specialized on demand
and persisted by its first update.

Stores may optionally be *compressed*: when ``PatternStore.initialize``
is given a codec name (see :mod:`repro.util.compression`), every store
file is written as a self-describing compressed container, and the
manifest records a ``compression`` block (codec plus per-file
raw/stored sizes).  The block is absent on a raw store; checksums
always cover the on-disk (compressed) bytes.

Concurrency contract (the serving read path relies on it): every
:meth:`PatternStore.save` bumps a monotonic ``store_version`` in the
manifest, and :class:`~repro.incremental.updater.IncrementalTaxogram`
drops an ``update.inprogress`` marker file before mutating any store
file in place.  :func:`fence_state` reads ``(version, stable)`` without
loading the store; a reader that observes the same stable version before
and after a disk read has read a consistent snapshot (the manifest
itself is replaced atomically).
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from repro.core.results import TaxonomyPattern
from repro.exceptions import CompressionError, StoreError
from repro.graphs.database import GraphDatabase
from repro.graphs.io import parse_graph_database, serialize_graph_database
from repro.incremental.delta import OccurrenceColumns
from repro.mining.dfs_code import DFSCode, DFSEdge, graph_from_code
from repro.taxonomy.io import serialize_taxonomy
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.bitset import BitSet
from repro.util.compression import decode_container, encode_container
from repro.util.interner import LabelInterner

__all__ = [
    "PatternStore",
    "StoredClass",
    "StoredPattern",
    "FORMAT_VERSION",
    "fence_state",
    "stored_patterns",
    "taxonomy_fingerprint",
]

FORMAT_VERSION = 2

_MANIFEST = "manifest.json"
_UPDATE_MARKER = "update.inprogress"
_LABELS = "labels.json"
_DATABASE = "database.graphs"
_CLASSES = "classes.json"
_BORDER = "border.json"

_Code = tuple[DFSEdge, ...]


def fence_state(directory: str | Path) -> tuple[int | None, bool]:
    """``(committed store_version, stable)`` without loading the store.

    ``version`` is ``None`` when the manifest is missing or torn;
    ``stable`` is False whenever an update marker is present or the
    manifest is unreadable.  The marker is checked *before* the manifest
    is read: an update commits by atomically replacing the manifest and
    only then removing its marker, so a reader that sees no marker and
    then reads version ``V`` knows any concurrent mutation either had
    not started yet or already advanced the manifest past ``V``.
    Bracketing a disk read with two stable, equal-version fences
    therefore certifies the read as a consistent version-``V`` snapshot.
    """
    directory = Path(directory)
    stable = not (directory / _UPDATE_MARKER).exists()
    try:
        manifest = json.loads(
            (directory / _MANIFEST).read_text(encoding="utf-8")
        )
        version = int(manifest.get("store_version", 0))
    except (OSError, ValueError, TypeError):
        return None, False
    return version, stable


def taxonomy_fingerprint(taxonomy: Taxonomy) -> str:
    """SHA-256 of the canonical taxonomy serialization.

    Two taxonomies parsed from the same file (fresh interners) always
    fingerprint equal; a store refuses updates under a different one.
    """
    text = serialize_taxonomy(taxonomy)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class StoredPattern(NamedTuple):
    """One persisted Step-3 pattern of a class.

    ``labels[p]`` is the label of node ``p`` of the class structure
    ``graph_from_code(class code)``; ``support_mask`` has bit ``g`` set
    iff graph ``g`` supports the pattern.
    """

    labels: tuple[int, ...]
    code: _Code
    support_count: int
    support_mask: int

    @classmethod
    def of(cls, pattern: TaxonomyPattern) -> "StoredPattern":
        graph = pattern.graph
        return cls(
            labels=tuple(graph.node_label(p) for p in range(graph.num_nodes)),
            code=pattern.code.edges,
            support_count=pattern.support_count,
            support_mask=pattern.support_mask,
        )

    def to_pattern(
        self, class_code: _Code, class_id: int, database_size: int
    ) -> TaxonomyPattern:
        """The pattern :func:`~repro.core.specializer.specialize_class`
        emitted, rebuilt without touching the class's bit-sets."""
        graph = graph_from_code(class_code)
        for position, label in enumerate(self.labels):
            graph.relabel_node(position, label)
        return TaxonomyPattern(
            code=DFSCode(self.code),
            graph=graph,
            support_count=self.support_count,
            support=self.support_count / database_size,
            support_mask=self.support_mask,
            class_id=class_id,
        )

    def to_doc(self) -> dict:
        return {
            "labels": list(self.labels),
            "code": [list(edge) for edge in self.code],
            "count": self.support_count,
            "graphs": format(self.support_mask, "x"),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "StoredPattern":
        return cls(
            labels=tuple(int(label) for label in doc["labels"]),
            code=tuple(tuple(int(x) for x in edge) for edge in doc["code"]),
            support_count=int(doc["count"]),
            support_mask=int(doc["graphs"], 16),
        )


def stored_patterns(patterns: list[TaxonomyPattern]) -> list[StoredPattern]:
    """One class's Step-3 output in its persisted (code-sorted) order."""
    return sorted(
        (StoredPattern.of(pattern) for pattern in patterns),
        key=lambda stored: stored.code,
    )


@dataclass
class StoredClass:
    """One persisted pattern class: canonical code + occurrence state.

    ``patterns`` is the class's Step-3 output at the store's threshold,
    or ``None`` for a class loaded from a store that predates it.
    """

    code: _Code
    columns: OccurrenceColumns
    patterns: list[StoredPattern] | None = None

    @property
    def num_positions(self) -> int:
        return DFSCode(self.code).num_vertices


class PatternStore:
    """A mining result persisted under one directory.

    Create with :meth:`initialize` (mining a fresh store) or
    :meth:`open` (loading an existing one, with integrity checks); the
    incremental updater mutates the in-memory state and calls
    :meth:`save` once an update commits.
    """

    def __init__(
        self,
        directory: str | Path,
        database: GraphDatabase,
        taxonomy: Taxonomy,
        min_support: float,
        max_edges: int | None,
        artificial_root_name: str,
        compression: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.database = database
        self.taxonomy = taxonomy
        self.min_support = min_support
        self.max_edges = max_edges
        self.artificial_root_name = artificial_root_name
        # Codec name for the store files, or None for the raw layout.
        # Recorded in the manifest on save, restored on open, so an
        # updater re-saving a compressed store keeps its codec without
        # the caller re-negotiating.
        self.compression = compression
        # name -> {"raw": n, "stored": n} sizes from the last save/open.
        self.compression_stats: dict[str, dict[str, int]] = {}
        self.classes: list[StoredClass] = []
        # Negative border: DFS code -> support mask.
        self.border: dict[_Code, int] = {}
        self.store_version = 0
        # Application state committed atomically with the manifest: the
        # streaming applier stores its applied WAL offset here so that
        # "delta applied" and "offset advanced" are one atomic rename
        # (the crash-recovery protocol of repro.streaming depends on it).
        self.app_state: dict = {}
        # The manifest this object last wrote or read: a directory whose
        # verified manifest equals it holds exactly this in-memory state.
        self._committed_manifest: dict | None = None
        self._taxonomy_sha = taxonomy_fingerprint(taxonomy)

    # -- creation -------------------------------------------------------------------

    @classmethod
    def initialize(
        cls,
        directory: str | Path,
        database: GraphDatabase,
        taxonomy: Taxonomy,
        min_support: float,
        max_edges: int | None,
        artificial_root_name: str,
        compression: str | None = None,
    ) -> "PatternStore":
        """Prepare ``directory`` for a fresh store, wiping a previous one.

        A non-empty directory that is *not* a pattern store (no
        ``manifest.json``) is refused rather than destroyed.
        """
        directory = Path(directory)
        if directory.exists():
            occupied = any(directory.iterdir())
            if occupied and not (directory / _MANIFEST).exists():
                raise StoreError(
                    f"refusing to overwrite {directory}: directory is not "
                    "empty and does not contain a pattern store"
                )
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        return cls(
            directory,
            database,
            taxonomy,
            min_support,
            max_edges,
            artificial_root_name,
            compression=compression,
        )

    # -- class management ------------------------------------------------------------

    def add_mined_class(
        self, code: _Code, occurrences, patterns: list[TaxonomyPattern]
    ) -> StoredClass:
        """Register a freshly mined class: its occurrences (in occurrence-id
        order) become its columns, next to its Step-3 ``patterns``."""
        stored = StoredClass(
            code=code,
            columns=OccurrenceColumns(occurrences),
            patterns=stored_patterns(patterns),
        )
        self.classes.append(stored)
        return stored

    def with_own_labels(self) -> "PatternStore":
        """This store with copies of its label interners; everything else
        is shared.

        Interning into the copy — parsing a query that names an unknown
        label, or :func:`~repro.core.relabel.repair_taxonomy` adding its
        artificial root — leaves this store's interners, which
        :meth:`save` writes to ``labels.json``, as they are.  The
        database and the taxonomy share one node interner, as
        :meth:`open` builds them.
        """
        view = copy.copy(self)
        node_labels = self.taxonomy.interner.copy()
        view.taxonomy = self.taxonomy.with_interner(node_labels)
        view.database = self.database.with_interners(
            node_labels, self.database.edge_labels.copy()
        )
        return view

    def fork(self) -> "PatternStore":
        """A copy-on-write copy for one update; this store stays exactly
        as committed, so a reader may keep serving it meanwhile.

        On top of :meth:`with_own_labels`, the fork copies what
        :meth:`~repro.incremental.updater.IncrementalTaxogram.apply`
        mutates in place: each class's :class:`StoredClass` and its
        columns, and ``app_state``.  It shares what an update only reads
        or replaces wholesale: the graphs, the taxonomy's structure, the
        stored patterns and the border.
        """
        fork = self.with_own_labels()
        fork.classes = [
            StoredClass(stored.code, stored.columns.copy(), stored.patterns)
            for stored in self.classes
        ]
        fork.app_state = dict(self.app_state)
        return fork

    # -- update fencing ---------------------------------------------------------------

    def mark_update_in_progress(self) -> None:
        """Drop the marker readers use to detect in-place mutation.

        :meth:`save` removes it again once the update commits, so the
        marker's lifetime brackets exactly the window in which store
        files on disk may disagree with the manifest.
        """
        (self.directory / _UPDATE_MARKER).touch()

    # -- fingerprint ------------------------------------------------------------------

    @property
    def taxonomy_sha(self) -> str:
        return self._taxonomy_sha

    def fingerprint(self) -> dict:
        return {
            "taxonomy_sha256": self._taxonomy_sha,
            "min_support": self.min_support,
            "max_edges": self.max_edges,
            "artificial_root": self.artificial_root_name,
        }

    def fingerprint_mismatch(
        self,
        min_support: float | None = None,
        max_edges: "int | None | str" = "unset",
        taxonomy: Taxonomy | None = None,
    ) -> str | None:
        """First mismatch between the store and a requested run, or None.

        Only the supplied components are checked, so a CLI flag the user
        did not pass never conflicts.
        """
        if min_support is not None and min_support != self.min_support:
            return (
                f"store was mined at min_support={self.min_support}, "
                f"requested {min_support}"
            )
        if max_edges != "unset" and max_edges != self.max_edges:
            return (
                f"store was mined at max_edges={self.max_edges}, "
                f"requested {max_edges}"
            )
        if taxonomy is not None:
            sha = taxonomy_fingerprint(taxonomy)
            if sha != self._taxonomy_sha:
                return (
                    "store taxonomy fingerprint "
                    f"{self._taxonomy_sha[:12]}... does not match the "
                    f"requested taxonomy ({sha[:12]}...)"
                )
        return None

    # -- persistence ------------------------------------------------------------------

    def save(self) -> None:
        """Write every store file; the manifest (with checksums) goes last.

        Each save bumps ``store_version`` and replaces the manifest
        atomically, then clears any update-in-progress marker — the
        commit point of the fencing protocol (see :func:`fence_state`).
        """
        labels_doc = {
            "node_labels": self.taxonomy.interner.names(),
            "edge_labels": self.database.edge_labels.names(),
            "taxonomy_parents": [
                [label, list(parents)]
                for label, parents in self.taxonomy.parent_map().items()
            ],
        }
        classes_doc = {"classes": [_class_doc(s) for s in self.classes]}
        border_doc = {
            "border": [
                [[list(edge) for edge in code], list(BitSet.from_bits(mask))]
                for code, mask in sorted(self.border.items())
            ]
        }
        files = {
            _LABELS: json.dumps(labels_doc),
            _DATABASE: serialize_graph_database(self.database),
            _CLASSES: json.dumps(classes_doc),
            _BORDER: json.dumps(border_doc),
        }
        checksums: dict[str, str] = {}
        compression_stats: dict[str, dict[str, int]] = {}
        for name, text in files.items():
            data = text.encode("utf-8")
            if self.compression is not None:
                raw_len = len(data)
                data = encode_container(data, self.compression)
                compression_stats[name] = {
                    "raw": raw_len,
                    "stored": len(data),
                }
            (self.directory / name).write_bytes(data)
            # Checksums always cover the on-disk bytes, so integrity
            # verification on open never needs to decompress first.
            checksums[name] = hashlib.sha256(data).hexdigest()
        self.compression_stats = compression_stats
        self.store_version += 1
        manifest = {
            "format_version": FORMAT_VERSION,
            "store_version": self.store_version,
            "min_support": self.min_support,
            "max_edges": self.max_edges,
            "artificial_root": self.artificial_root_name,
            "taxonomy_sha256": self._taxonomy_sha,
            "database_size": len(self.database),
            "app_state": dict(self.app_state),
            "checksums": checksums,
        }
        if self.compression is not None:
            # Absent on a raw store: its absence means "raw layout".
            manifest["compression"] = {
                "codec": self.compression,
                "files": compression_stats,
            }
        manifest_path = self.directory / _MANIFEST
        tmp_path = manifest_path.with_name(_MANIFEST + ".tmp")
        tmp_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        tmp_path.replace(manifest_path)
        self._committed_manifest = manifest
        marker = self.directory / _UPDATE_MARKER
        if marker.exists():
            marker.unlink()

    @classmethod
    def open(cls, directory: str | Path) -> "PatternStore":
        """Load and integrity-check a persisted store."""
        directory = Path(directory)
        manifest, files = _verified_files(directory)
        return cls._parse(directory, manifest, files)

    def is_committed_copy(self, directory: str | Path) -> bool:
        """Does ``directory`` pass :meth:`open`'s integrity check and
        hold the manifest this store last committed?

        When it does, the directory's files are byte-for-byte the ones
        this object saved (the manifest pins every file checksum), so
        the caller may point :attr:`directory` at it
        instead of parsing it again.  Any failure answers False; the
        caller then falls back to :meth:`open`, which raises the error.
        """
        if self._committed_manifest is None:
            return False
        try:
            manifest, _files = _verified_files(Path(directory))
        except StoreError:
            return False
        return manifest == self._committed_manifest

    @classmethod
    def _parse(
        cls, directory: Path, manifest: dict, files: dict[str, bytes]
    ) -> "PatternStore":
        """Build the in-memory store from verified files."""
        compression_doc = manifest.get("compression")
        codec = compression_doc["codec"] if compression_doc else None
        texts: dict[str, str] = {}
        for name, data in files.items():
            if codec is not None:
                try:
                    data, _ = decode_container(data)
                except CompressionError as exc:
                    raise StoreError(f"store file {name}: {exc}") from exc
            texts[name] = data.decode("utf-8")

        labels_doc = json.loads(texts[_LABELS])
        node_labels = LabelInterner(labels_doc["node_labels"])
        edge_labels = LabelInterner(labels_doc["edge_labels"])
        taxonomy = Taxonomy(
            {
                int(label): tuple(int(p) for p in parents)
                for label, parents in labels_doc["taxonomy_parents"]
            },
            node_labels,
        )
        database = parse_graph_database(
            texts[_DATABASE], node_labels=node_labels, edge_labels=edge_labels
        )
        if len(database) != manifest["database_size"]:
            raise StoreError(
                f"store database has {len(database)} graphs, manifest "
                f"says {manifest['database_size']}"
            )

        store = cls(
            directory,
            database,
            taxonomy,
            manifest["min_support"],
            manifest["max_edges"],
            manifest["artificial_root"],
            compression=codec,
        )
        if compression_doc:
            store.compression_stats = {
                name: dict(sizes)
                for name, sizes in compression_doc.get("files", {}).items()
            }
        if store._taxonomy_sha != manifest["taxonomy_sha256"]:
            raise StoreError(
                "store taxonomy does not reproduce the fingerprint in "
                "the manifest"
            )
        store.store_version = int(manifest.get("store_version", 0))
        store.app_state = dict(manifest.get("app_state", {}))
        store._committed_manifest = manifest

        for entry in json.loads(texts[_CLASSES])["classes"]:
            code = tuple(tuple(int(x) for x in edge) for edge in entry["code"])
            patterns = entry.get("patterns")
            store.classes.append(
                StoredClass(
                    code=code,
                    columns=OccurrenceColumns.from_rows(entry["columns"]),
                    patterns=None
                    if patterns is None
                    else [StoredPattern.from_doc(doc) for doc in patterns],
                )
            )

        for code_doc, gids in json.loads(texts[_BORDER])["border"]:
            code = tuple(tuple(int(x) for x in edge) for edge in code_doc)
            store.border[code] = BitSet(int(g) for g in gids).bits
        return store


def _class_doc(stored: StoredClass) -> dict:
    doc = {
        "code": [list(edge) for edge in stored.code],
        "columns": stored.columns.to_rows(),
    }
    if stored.patterns is not None:
        doc["patterns"] = [pattern.to_doc() for pattern in stored.patterns]
    return doc


def _verified_files(directory: Path) -> tuple[dict, dict[str, bytes]]:
    """The integrity check shared by :meth:`PatternStore.open` and
    :meth:`PatternStore.is_committed_copy`.

    Returns the manifest and the on-disk bytes of every checksummed
    file after verifying the format version and every file checksum;
    raises :class:`StoreError` otherwise.
    """
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise StoreError(f"{directory} is not a pattern store (no manifest)")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(f"unreadable store manifest: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise StoreError(
            f"unsupported store format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    files: dict[str, bytes] = {}
    for name, expected in manifest["checksums"].items():
        path = directory / name
        if not path.exists():
            raise StoreError(f"store file {name} is missing")
        data = path.read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != expected:
            raise StoreError(
                f"store file {name} failed its integrity check "
                f"(expected {expected[:12]}..., got {actual[:12]}...)"
            )
        files[name] = data
    return manifest, files
