"""Unit and integration tests for :mod:`repro.incremental`.

The bit-identical equivalence of incremental updates against fresh
mining is covered by the randomized streams in ``test_differential.py``;
this module pins the subsystem's contracts: the occurrence-id space,
delta validation, store persistence + integrity checks, and the
updater's maintenance behaviors (demotion, promotion, compaction,
fallback).
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import replace

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.exceptions import MiningError, StoreError, TaxonomyError
from repro.graphs.database import GraphDatabase
from repro.incremental import (
    DatabaseDelta,
    IncrementalOptions,
    IncrementalTaxogram,
    OccurrenceColumns,
    PatternStore,
    mine_to_store,
)
from repro.incremental.store import FORMAT_VERSION, taxonomy_fingerprint
from repro.serving import StoreReader
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.util.bitset import BitSet, squeeze
from repro.util.interner import LabelInterner
from tests.conftest import (
    make_random_database,
    make_random_taxonomy,
    pattern_view,
    persisted_patterns,
    step3_oracle,
    strip_persisted_patterns,
)


def _flat_taxonomy():
    return taxonomy_from_parent_names({"b": "a", "c": "a"})


def _edge_db(taxonomy, edge_label_names):
    """One two-node graph per entry, distinguished by its edge label."""
    db = GraphDatabase(node_labels=taxonomy.interner)
    for name in edge_label_names:
        db.new_graph(["b", "c"], [(0, 1, name)])
    return db


def _store_case(tmp_path, edge_label_names, sigma):
    taxonomy = _flat_taxonomy()
    db = _edge_db(taxonomy, edge_label_names)
    store_dir = tmp_path / "store"
    result = Taxogram(
        TaxogramOptions(min_support=sigma, store_out=str(store_dir))
    ).mine(db, taxonomy)
    return taxonomy, db, store_dir, result


def _adds(taxonomy, edge_label_names):
    return DatabaseDelta.adding(_edge_db(taxonomy, edge_label_names))


class TestOccurrenceColumns:
    def test_append_and_duck_interface(self):
        cols = OccurrenceColumns()
        assert cols.append(0, (0, 1)) == 0
        assert cols.append(0, (1, 0)) == 1
        assert cols.append(2, (0, 1)) == 2
        assert len(cols) == 3
        assert cols.all_bits == 0b111
        assert cols.support_count(0b111) == 2
        assert cols.support_count(0b011) == 1
        assert cols.support_count(0) == 0
        assert cols.support_mask(0b100) == 0b100  # graph 2
        assert cols.support_mask(0b111) == 0b101  # graphs 0 and 2

    def test_clear_graphs_tombstones_columns(self):
        cols = OccurrenceColumns([(0, (0, 1)), (0, (1, 0)), (1, (0, 1))])
        cleared = cols.clear_graphs([0])
        assert cleared == 0b011
        assert cols.all_bits == 0b100
        assert cols.live_count == 1
        assert cols.dead_fraction == pytest.approx(2 / 3)
        assert cols.support_mask(cols.all_bits) == 0b10  # graph 1

    def test_clear_graphs_unknown_graph_is_noop(self):
        cols = OccurrenceColumns([(0, (0, 1))])
        assert cols.clear_graphs([7]) == 0
        assert cols.all_bits == 0b1

    def test_remap_graphs_renumbers_live_columns(self):
        cols = OccurrenceColumns([(0, (0, 1)), (2, (0, 1))])
        cols.clear_graphs([0])
        cols.remap_graphs(0b110)  # graph 0 removed: 1 -> 0, 2 -> 1
        assert cols.support_mask(cols.all_bits) == 0b10  # graph 1
        assert list(cols) == [None, (1, (0, 1))]

    def test_compaction_map_and_compact(self):
        cols = OccurrenceColumns([(0, (0, 1)), (1, (0, 1)), (2, (1, 0))])
        cols.clear_graphs([1])
        live = cols.all_bits
        assert live == 0b101
        assert squeeze(live, live) == 0b11  # occurrence 0 -> 0, 2 -> 1
        cols.compact()
        assert len(cols) == 2
        assert cols.dead_fraction == 0.0
        assert cols.all_bits == 0b11
        assert cols.support_mask(0b11) == 0b101  # graphs 0 and 2

    def test_rows_roundtrip_preserves_tombstones(self):
        cols = OccurrenceColumns([(0, (0, 1)), (1, (1, 0))])
        cols.clear_graphs([0])
        rebuilt = OccurrenceColumns.from_rows(
            json.loads(json.dumps(cols.to_rows()))
        )
        assert list(rebuilt) == list(cols)
        assert rebuilt.all_bits == cols.all_bits
        assert rebuilt.dead_fraction == cols.dead_fraction

    def test_empty_dead_fraction_zero(self):
        assert OccurrenceColumns().dead_fraction == 0.0
        assert OccurrenceColumns().all_bits == 0


class TestDatabaseDelta:
    def test_negative_remove_id_rejected(self):
        with pytest.raises(MiningError, match="non-negative"):
            DatabaseDelta(remove_ids=(-1,))

    def test_duplicate_remove_id_rejected(self):
        with pytest.raises(MiningError, match="duplicate remove id 3"):
            DatabaseDelta(remove_ids=(3, 1, 3))

    def test_adding_counts_graphs(self):
        taxonomy = _flat_taxonomy()
        delta = _adds(taxonomy, ["x", "x", "y"])
        assert delta.added_count == 3
        assert delta.size() == 3
        assert not delta.is_empty

    def test_removing(self):
        delta = DatabaseDelta.removing([2, 0])
        assert delta.remove_ids == (2, 0)
        assert delta.added_count == 0
        assert delta.size() == 2

    def test_empty(self):
        assert DatabaseDelta().is_empty

    def test_added_database_uses_given_interners(self):
        taxonomy = _flat_taxonomy()
        delta = _adds(taxonomy, ["x"])
        db = GraphDatabase(node_labels=taxonomy.interner)
        parsed = delta.added_database(db.node_labels, db.edge_labels)
        assert len(parsed) == 1
        assert parsed.node_labels is taxonomy.interner


class TestStoreBuildOptions:
    """A store build labels and validates its options like a plain mine,
    at every worker count."""

    @staticmethod
    def _case():
        rng = random.Random(11)
        taxonomy = make_random_taxonomy(rng, LabelInterner(), 6)
        # 8 graphs at sigma 0.5: min_count 4 keeps two shards.
        return make_random_database(rng, taxonomy, 8), taxonomy

    @pytest.mark.parametrize("workers", [1, 2])
    def test_algorithm_follows_caller_options(self, tmp_path, workers):
        db, taxonomy = self._case()
        # (a) and (c) off, (b) and (d) on: the store build forces (b)
        # and (d) off, yet the run is still the caller's "taxogram".
        for name, options in {
            "taxogram": TaxogramOptions(
                min_support=0.5,
                max_edges=2,
                enhancement_descendant_pruning=False,
                enhancement_occurrence_collapse=False,
                workers=workers,
            ),
            "baseline": replace(
                TaxogramOptions.baseline(min_support=0.5, max_edges=2),
                workers=workers,
            ),
        }.items():
            plain = Taxogram(options).mine(db, taxonomy)
            stored = Taxogram(
                replace(options, store_out=str(tmp_path / name))
            ).mine(db, taxonomy)
            assert plain.algorithm == name
            assert stored.algorithm == name
            assert stored.report.algorithm == name
            assert bool(stored.worker_seconds) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_index_backend_rejected(self, tmp_path, workers):
        db, taxonomy = self._case()
        options = TaxogramOptions(
            min_support=0.5,
            max_edges=2,
            workers=workers,
            occurrence_index_backend="tape",
            store_out=str(tmp_path / "store"),
        )
        with pytest.raises(MiningError, match="occurrence_index_backend"):
            Taxogram(options).mine(db, taxonomy)
        with pytest.raises(MiningError, match="occurrence_index_backend"):
            mine_to_store(db, taxonomy, options)
        assert not (tmp_path / "store").exists()


class TestPatternStoreRoundTrip:
    def test_mine_to_store_matches_plain_mine(self, tmp_path):
        taxonomy, db, _store_dir, result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.5
        )
        fresh = Taxogram(TaxogramOptions(min_support=0.5)).mine(db, taxonomy)
        assert result.pattern_codes() == fresh.pattern_codes()
        assert [p.class_id for p in result.patterns] == [
            p.class_id for p in fresh.patterns
        ]

    def test_mine_to_store_requires_store_out(self):
        taxonomy = _flat_taxonomy()
        db = _edge_db(taxonomy, ["x"])
        with pytest.raises(MiningError, match="store_out"):
            mine_to_store(db, taxonomy, TaxogramOptions(min_support=0.5))

    def test_open_reproduces_state(self, tmp_path):
        taxonomy, db, store_dir, _result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.5
        )
        store = PatternStore.open(store_dir)
        assert len(store.database) == len(db)
        assert store.min_support == 0.5
        assert store.taxonomy_sha == taxonomy_fingerprint(taxonomy)
        assert store.classes, "store persisted no classes"
        reopened = PatternStore.open(store_dir)
        assert [c.code for c in reopened.classes] == [
            c.code for c in store.classes
        ]
        assert [c.columns.to_rows() for c in reopened.classes] == [
            c.columns.to_rows() for c in store.classes
        ]
        assert reopened.border == store.border

    def test_border_holds_infrequent_edges(self, tmp_path):
        # y appears once in four graphs at sigma 0.5: minimal infrequent,
        # so the negative border must record it with its exact support.
        _taxonomy, _db, store_dir, _result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.5
        )
        store = PatternStore.open(store_dir)
        border_gids = [
            list(BitSet.from_bits(mask)) for mask in store.border.values()
        ]
        assert [3] in border_gids

    def test_report_carries_store_gauges(self, tmp_path):
        _taxonomy, _db, _store_dir, result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.5
        )
        assert result.report is not None
        assert result.report.gauges["store.classes"] >= 1
        assert "store.border_size" in result.report.gauges


class TestPatternStoreIntegrity:
    def test_open_missing_manifest(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(StoreError, match="not a pattern store"):
            PatternStore.open(empty)

    def test_open_tampered_file(self, tmp_path):
        _taxonomy, _db, store_dir, _result = _store_case(tmp_path, ["x", "x"], 0.5)
        target = store_dir / "classes.json"
        target.write_text(target.read_text() + " ", encoding="utf-8")
        with pytest.raises(StoreError, match="integrity check"):
            PatternStore.open(store_dir)

    def test_open_missing_file(self, tmp_path):
        _taxonomy, _db, store_dir, _result = _store_case(tmp_path, ["x", "x"], 0.5)
        (store_dir / "border.json").unlink()
        with pytest.raises(StoreError, match="border.json is missing"):
            PatternStore.open(store_dir)

    def test_open_wrong_format_version(self, tmp_path):
        _taxonomy, _db, store_dir, _result = _store_case(tmp_path, ["x", "x"], 0.5)
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        # Version 1 stores kept a SQLite occurrence index per class.
        for version in (1, FORMAT_VERSION + 1):
            manifest["format_version"] = version
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            with pytest.raises(
                StoreError, match=f"unsupported store format version {version}"
            ):
                PatternStore.open(store_dir)

    def test_initialize_refuses_foreign_directory(self, tmp_path):
        taxonomy = _flat_taxonomy()
        db = _edge_db(taxonomy, ["x"])
        target = tmp_path / "precious"
        target.mkdir()
        (target / "thesis.tex").write_text("irreplaceable", encoding="utf-8")
        with pytest.raises(StoreError, match="refusing to overwrite"):
            PatternStore.initialize(target, db, taxonomy, 0.5, None, "_root_")
        assert (target / "thesis.tex").exists()

    def test_initialize_replaces_existing_store(self, tmp_path):
        taxonomy, db, store_dir, _result = _store_case(tmp_path, ["x", "x"], 0.5)
        store = PatternStore.initialize(store_dir, db, taxonomy, 0.5, None, "_root_")
        assert store.classes == []
        assert not (store_dir / "manifest.json").exists()

    def test_fingerprint_mismatch_reports_first_difference(self, tmp_path):
        _taxonomy, _db, store_dir, _result = _store_case(tmp_path, ["x", "x"], 0.5)
        store = PatternStore.open(store_dir)
        assert store.fingerprint_mismatch() is None
        assert store.fingerprint_mismatch(min_support=0.5) is None
        assert "min_support" in store.fingerprint_mismatch(min_support=0.9)
        assert "max_edges" in store.fingerprint_mismatch(max_edges=3)
        other = taxonomy_from_parent_names({"q": "p"})
        assert "taxonomy" in store.fingerprint_mismatch(taxonomy=other)


class TestUpdaterValidation:
    def test_remove_id_out_of_range(self, tmp_path):
        _taxonomy, _db, store_dir, _result = _store_case(tmp_path, ["x", "x"], 0.5)
        updater = IncrementalTaxogram(store_dir)
        with pytest.raises(MiningError, match="out of range"):
            updater.apply(DatabaseDelta.removing([2]))

    def test_removing_everything_rejected(self, tmp_path):
        _taxonomy, _db, store_dir, _result = _store_case(tmp_path, ["x", "x"], 0.5)
        updater = IncrementalTaxogram(store_dir)
        with pytest.raises(MiningError, match="removes every graph"):
            updater.apply(DatabaseDelta.removing([0, 1]))

    def test_unknown_add_label_rejected(self, tmp_path):
        _taxonomy, _db, store_dir, _result = _store_case(tmp_path, ["x", "x"], 0.5)
        intruder = taxonomy_from_parent_names({"weird": "stuff"})
        add_db = GraphDatabase(node_labels=intruder.interner)
        add_db.new_graph(["weird", "stuff"], [(0, 1, "x")])
        updater = IncrementalTaxogram(store_dir)
        with pytest.raises(TaxonomyError, match="not a taxonomy concept"):
            updater.apply(DatabaseDelta.adding(add_db))

    def test_empty_delta_is_noop_recompute(self, tmp_path):
        taxonomy, db, store_dir, result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.5
        )
        updater = IncrementalTaxogram(store_dir)
        updated = updater.apply(DatabaseDelta())
        assert updated.pattern_codes() == result.pattern_codes()


class TestUpdaterMaintenance:
    def test_removal_demotes_class(self, tmp_path):
        # x supported by {0,1,2} at min_count 3; swapping one supporter
        # for a y graph keeps |D| at 4 but drops x below sigma.
        taxonomy, _db, store_dir, result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.75
        )
        assert result.patterns, "x must start frequent"
        updater = IncrementalTaxogram(store_dir)
        updated = updater.apply(
            DatabaseDelta(add_text=_adds(taxonomy, ["y"]).add_text, remove_ids=(0,))
        )
        assert updated.report.counter("incremental.demotions") == 1
        assert not updated.patterns
        assert updater.store.classes == []
        # The demoted class is not lost: it re-enters the border.
        fresh = Taxogram(TaxogramOptions(min_support=0.75)).mine(
            updater.store.database, taxonomy
        )
        assert updated.pattern_codes() == fresh.pattern_codes()

    def test_removal_promotes_border_entry(self, tmp_path):
        # 4 x + 3 y + 1 z at sigma 0.5 (min_count 4): only x is a class.
        # Dropping the z graph and one x graph shrinks min_count to 3,
        # which promotes y out of the negative border via re-expansion.
        taxonomy, _db, store_dir, result = _store_case(
            tmp_path, ["x", "x", "x", "x", "y", "y", "y", "z"], 0.5
        )
        updater = IncrementalTaxogram(store_dir)
        updated = updater.apply(DatabaseDelta.removing([0, 7]))
        assert updated.report.counter("incremental.border_reexpansions") >= 1
        fresh = Taxogram(TaxogramOptions(min_support=0.5)).mine(
            updater.store.database, taxonomy
        )
        assert updated.pattern_codes() == fresh.pattern_codes()
        assert len(updated.pattern_codes()) > len(result.pattern_codes())

    def test_compaction_threshold_zero_forces_rewrite(self, tmp_path):
        taxonomy, _db, store_dir, _result = _store_case(
            tmp_path, ["x", "x", "x", "x"], 0.5
        )
        updater = IncrementalTaxogram(
            store_dir, IncrementalOptions(compact_dead_fraction=0.0)
        )
        updated = updater.apply(DatabaseDelta.removing([0]))
        assert updated.report.counter("incremental.compactions") >= 1
        for stored in updater.store.classes:
            assert stored.columns.dead_fraction == 0.0
        fresh = Taxogram(TaxogramOptions(min_support=0.5)).mine(
            updater.store.database, taxonomy
        )
        assert updated.pattern_codes() == fresh.pattern_codes()

    def test_high_threshold_keeps_tombstones(self, tmp_path):
        _taxonomy, _db, store_dir, _result = _store_case(
            tmp_path, ["x", "x", "x", "x"], 0.5
        )
        updater = IncrementalTaxogram(
            store_dir, IncrementalOptions(compact_dead_fraction=0.99)
        )
        updated = updater.apply(DatabaseDelta.removing([0]))
        assert updated.report.counter("incremental.compactions") == 0
        assert any(
            stored.columns.dead_fraction > 0.0
            for stored in updater.store.classes
        )

    def test_store_survives_reopen_between_updates(self, tmp_path):
        taxonomy, _db, store_dir, _result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.5
        )
        IncrementalTaxogram(store_dir).apply(
            DatabaseDelta(add_text=_adds(taxonomy, ["x"]).add_text)
        )
        # A second updater constructed from the path picks up the saved
        # state and keeps producing fresh-equivalent results.
        updater = IncrementalTaxogram(store_dir)
        updated = updater.apply(DatabaseDelta.removing([1]))
        fresh = Taxogram(TaxogramOptions(min_support=0.5)).mine(
            updater.store.database, taxonomy
        )
        assert updated.pattern_codes() == fresh.pattern_codes()


class TestFallback:
    def test_large_delta_falls_back_to_full_remine(self, tmp_path):
        taxonomy, _db, store_dir, _result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.5
        )
        updater = IncrementalTaxogram(
            store_dir, IncrementalOptions(full_remine_fraction=0.0)
        )
        updated = updater.apply(DatabaseDelta.removing([0]))
        assert updated.report.counter("incremental.fallbacks") == 1
        fresh = Taxogram(TaxogramOptions(min_support=0.5)).mine(
            updater.store.database, taxonomy
        )
        assert updated.pattern_codes() == fresh.pattern_codes()

    def test_fallback_store_remains_updatable(self, tmp_path):
        taxonomy, _db, store_dir, _result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.5
        )
        updater = IncrementalTaxogram(
            store_dir, IncrementalOptions(full_remine_fraction=0.0)
        )
        updater.apply(DatabaseDelta.removing([0]))
        # The rebuilt store lives at the same path and accepts deltas.
        assert PatternStore.open(store_dir).classes is not None
        second = updater.apply(
            DatabaseDelta(add_text=_adds(taxonomy, ["x"]).add_text)
        )
        assert second.report.counter("incremental.fallbacks") == 1

    def test_mass_addition_falls_back(self, tmp_path):
        # n_added >= min_count_new would let adds alone mint frequent
        # patterns the border cannot see; the guard must force a remine.
        taxonomy, _db, store_dir, _result = _store_case(
            tmp_path, ["x", "x", "x", "y"], 0.5
        )
        updater = IncrementalTaxogram(
            store_dir, IncrementalOptions(full_remine_fraction=10.0)
        )
        updated = updater.apply(
            DatabaseDelta(add_text=_adds(taxonomy, ["z", "z", "z", "z"]).add_text)
        )
        assert updated.report.counter("incremental.fallbacks") == 1
        fresh = Taxogram(TaxogramOptions(min_support=0.5)).mine(
            updater.store.database, taxonomy
        )
        assert updated.pattern_codes() == fresh.pattern_codes()


class TestParallelStoreBuild:
    def test_parallel_store_matches_sequential(self, tmp_path):
        taxonomy = _flat_taxonomy()
        db = _edge_db(taxonomy, ["x", "x", "x", "y", "x", "y", "y", "z"])
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        seq = Taxogram(
            TaxogramOptions(min_support=0.5, store_out=str(seq_dir))
        ).mine(db, taxonomy)
        par = Taxogram(
            TaxogramOptions(min_support=0.5, workers=2, store_out=str(par_dir))
        ).mine(db, taxonomy)
        assert par.pattern_codes() == seq.pattern_codes()
        seq_store = PatternStore.open(seq_dir)
        par_store = PatternStore.open(par_dir)
        assert [c.code for c in par_store.classes] == [
            c.code for c in seq_store.classes
        ]
        assert [c.columns.to_rows() for c in par_store.classes] == [
            c.columns.to_rows() for c in seq_store.classes
        ]
        assert par_store.border == seq_store.border

    def test_parallel_store_accepts_deltas(self, tmp_path):
        taxonomy = _flat_taxonomy()
        db = _edge_db(taxonomy, ["x", "x", "x", "y", "x", "y", "y", "z"])
        store_dir = tmp_path / "store"
        Taxogram(
            TaxogramOptions(min_support=0.5, workers=2, store_out=str(store_dir))
        ).mine(db, taxonomy)
        updater = IncrementalTaxogram(store_dir)
        updated = updater.apply(DatabaseDelta.removing([7]))
        fresh = Taxogram(TaxogramOptions(min_support=0.5)).mine(
            updater.store.database, taxonomy
        )
        assert updated.pattern_codes() == fresh.pattern_codes()


SIGMA = 0.25


def _random_store(tmp_path, seed, options=None):
    """A random DAG/multi-root case of 24 graphs mined into a store.

    At sigma 0.25 the absolute threshold stays 6 from 24 down to 21
    graphs, so removals leave classes reusable."""
    rng = random.Random(seed)
    taxonomy = make_random_taxonomy(
        rng,
        LabelInterner(),
        rng.randint(4, 8),
        dag=seed % 2 == 1,
        multiroot=seed % 3 == 0,
    )
    db = make_random_database(
        rng, taxonomy, 24, edge_labels=("x", "y", "z")
    )
    if options is None:
        options = TaxogramOptions(min_support=SIGMA, max_edges=2)
    store_dir = tmp_path / f"store{seed}"
    result = Taxogram(replace(options, store_out=str(store_dir))).mine(
        db, taxonomy
    )
    return rng, taxonomy, store_dir, result


def _fresh_view(database, taxonomy):
    """A fresh mine's patterns, without the representative's labels
    (taxonomy contraction may pick another automorphic labelling)."""
    fresh = Taxogram(TaxogramOptions(min_support=SIGMA, max_edges=2)).mine(
        database, taxonomy
    )
    return [row[:5] for row in pattern_view(fresh.patterns)]


PERSIST_SEEDS = [0, 1, 2, 3, 5]


class TestPersistedPatterns:
    """The Step-3 pattern set persisted with every store version equals
    a Step-3 re-run over that version's bit-sets and a fresh mine."""

    @pytest.mark.parametrize("seed", PERSIST_SEEDS)
    def test_mined_store_persists_step3_output(self, tmp_path, seed):
        _rng, taxonomy, store_dir, result = _random_store(tmp_path, seed)
        persisted = persisted_patterns(store_dir)
        assert persisted == step3_oracle(store_dir)
        assert persisted == pattern_view(result.patterns)
        database = PatternStore.open(store_dir).database
        assert [row[:5] for row in persisted] == _fresh_view(
            database, taxonomy
        )

    def test_baseline_store_persists_the_same_set(self, tmp_path):
        _rng, _taxonomy, store_dir, _result = _random_store(
            tmp_path,
            3,
            TaxogramOptions.baseline(min_support=SIGMA, max_edges=2),
        )
        assert persisted_patterns(store_dir) == step3_oracle(store_dir)

    def test_compressed_store_persists_the_same_set(self, tmp_path):
        _rng, _taxonomy, raw_dir, _result = _random_store(tmp_path, 2)
        _rng, _taxonomy, zl_dir, _result = _random_store(
            tmp_path / "zl",
            2,
            TaxogramOptions(
                min_support=SIGMA, max_edges=2, store_compression="zlib"
            ),
        )
        assert persisted_patterns(zl_dir) == persisted_patterns(raw_dir)

    @pytest.mark.parametrize("seed", PERSIST_SEEDS)
    def test_every_updated_version_matches(self, tmp_path, seed):
        rng, taxonomy, store_dir, _result = _random_store(tmp_path, seed)
        updater = IncrementalTaxogram(store_dir)
        reused_after_removal = 0

        def middle():
            return len(updater.store.database) // 2

        steps = [
            DatabaseDelta.removing([0]),
            DatabaseDelta.removing([middle()]),
            DatabaseDelta.adding(make_random_database(rng, taxonomy, 1)),
            DatabaseDelta(
                add_text=DatabaseDelta.adding(
                    make_random_database(rng, taxonomy, 1)
                ).add_text,
                remove_ids=(0,),
            ),
            DatabaseDelta.removing([3]),
            DatabaseDelta.removing([]),
        ]
        for delta in steps:
            result = updater.apply(delta)
            assert result.report.counter("incremental.fallbacks") == 0
            persisted = persisted_patterns(store_dir)
            assert persisted == step3_oracle(store_dir)
            assert persisted == pattern_view(result.patterns)
            assert [row[:5] for row in persisted] == _fresh_view(
                updater.store.database, taxonomy
            )
            if delta.remove_ids:
                reused_after_removal += result.report.counter(
                    "incremental.classes_reused"
                )
        # The removals renumbered the support sets of reused classes.
        assert reused_after_removal > 0

    def test_empty_delta_reuses_every_class(self, tmp_path):
        _rng, _taxonomy, store_dir, _result = _random_store(tmp_path, 1)
        classes = len(PatternStore.open(store_dir).classes)
        updater = IncrementalTaxogram(store_dir)
        result = updater.apply(DatabaseDelta.removing([]))
        assert result.report.counter("incremental.classes_reused") == classes
        assert result.counters.bitset_intersections == 0
        assert result.counters.pattern_classes == classes

    def test_changed_threshold_reuses_nothing(self, tmp_path):
        # Removing four of 24 graphs moves min_count from 6 to 5: every
        # class must rerun Step 3.
        _rng, _taxonomy, store_dir, _result = _random_store(tmp_path, 1)
        result = IncrementalTaxogram(store_dir).apply(
            DatabaseDelta.removing([4, 5, 6, 7])
        )
        assert result.report.counter("incremental.classes_reused") == 0
        assert persisted_patterns(store_dir) == step3_oracle(store_dir)


class TestLegacyStore:
    """A store written before pattern sets were persisted."""

    def _legacy_pair(self, tmp_path):
        _rng, _taxonomy, store_dir, _result = _random_store(tmp_path, 5)
        legacy_dir = tmp_path / "legacy"
        shutil.copytree(store_dir, legacy_dir)
        strip_persisted_patterns(legacy_dir)
        return store_dir, legacy_dir

    def test_opens_without_patterns(self, tmp_path):
        _store_dir, legacy_dir = self._legacy_pair(tmp_path)
        store = PatternStore.open(legacy_dir)
        assert store.classes
        assert all(stored.patterns is None for stored in store.classes)

    def test_reader_answers_the_same(self, tmp_path):
        store_dir, legacy_dir = self._legacy_pair(tmp_path)
        fresh, legacy = StoreReader(store_dir), StoreReader(legacy_dir)
        assert legacy.num_patterns == fresh.num_patterns
        assert pattern_view(legacy.top_k(10_000)) == pattern_view(
            fresh.top_k(10_000)
        )
        assert [legacy.render(p) for p in legacy.top_k(5)] == [
            fresh.render(p) for p in fresh.top_k(5)
        ]
        for code in fresh.class_codes():
            for min_count in (None, 2):
                assert pattern_view(
                    legacy.class_members(code, min_count)
                ) == pattern_view(fresh.class_members(code, min_count))
        # Only the legacy reader had to run Step 3 for the full set.
        assert legacy.metrics.counter("serving.bitset_intersections") > 0

    def test_first_update_persists_every_class(self, tmp_path):
        _store_dir, legacy_dir = self._legacy_pair(tmp_path)
        updater = IncrementalTaxogram(legacy_dir)
        result = updater.apply(DatabaseDelta.removing([6]))
        assert result.report.counter("incremental.classes_reused") == 0
        assert persisted_patterns(legacy_dir) == step3_oracle(legacy_dir)
        assert persisted_patterns(legacy_dir) == pattern_view(result.patterns)


class TestReaderLoadsPersistedSet:
    def test_top_k_runs_no_step3(self, tmp_path):
        _rng, _taxonomy, store_dir, _result = _random_store(tmp_path, 2)
        IncrementalTaxogram(store_dir).apply(DatabaseDelta.removing([0]))
        reader = StoreReader(store_dir)
        top = reader.top_k(10_000)
        assert pattern_view(top) == step3_oracle(store_dir)
        for code in reader.class_codes():
            reader.class_members(code)
        counters = reader.metrics.as_dict()["counters"]
        assert counters.get("serving.bitset_intersections", 0) == 0
        assert counters.get("serving.row_loads", 0) == 0


class TestCommittedCopy:
    def test_copy_of_committed_store_is_adoptable(self, tmp_path):
        _rng, _taxonomy, store_dir, _result = _random_store(tmp_path, 1)
        store = PatternStore.open(store_dir)
        copy_dir = tmp_path / "copy"
        shutil.copytree(store_dir, copy_dir)
        assert store.is_committed_copy(copy_dir)

    def test_other_version_is_not(self, tmp_path):
        _rng, _taxonomy, store_dir, _result = _random_store(tmp_path, 1)
        store = PatternStore.open(store_dir)
        copy_dir = tmp_path / "copy"
        shutil.copytree(store_dir, copy_dir)
        IncrementalTaxogram(copy_dir).apply(DatabaseDelta.removing([0]))
        assert not store.is_committed_copy(copy_dir)

    def test_tampered_copy_is_not(self, tmp_path):
        _rng, _taxonomy, store_dir, _result = _random_store(tmp_path, 1)
        store = PatternStore.open(store_dir)
        copy_dir = tmp_path / "copy"
        shutil.copytree(store_dir, copy_dir)
        path = copy_dir / "classes.json"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert not store.is_committed_copy(copy_dir)
        with pytest.raises(StoreError, match="integrity"):
            PatternStore.open(copy_dir)
