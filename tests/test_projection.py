"""Tests for :mod:`repro.mining.projection` (targeted embedding replay).

The parallel runtime's correctness rests on :func:`project_code`
reproducing *exactly* the embedding list gSpan carries for a code —
same embeddings, same order — so most tests here compare against
``GSpanMiner(keep_embeddings=True)``.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import DiGraphDatabase
from repro.mining.dfs_code import DFSCode, is_min_code
from repro.mining.gspan import GSpanMiner
from repro.mining.projection import project_code
from repro.util.bitset import BitSet
from repro.util.interner import LabelInterner
from tests.conftest import make_random_database, make_random_taxonomy


def _random_digraph_database(
    rng: random.Random, n_graphs: int
) -> DiGraphDatabase:
    """Random digraphs over three node and two arc labels; about a third
    of the arcs get an antiparallel partner, so ``links`` returns two."""
    db = DiGraphDatabase()
    for _ in range(n_graphs):
        n = rng.randint(2, 5)
        labels = [rng.choice("abc") for _ in range(n)]
        arcs: list[tuple[int, int, str]] = []
        present: set[tuple[int, int]] = set()
        for _ in range(rng.randint(1, 6)):
            u, v = rng.sample(range(n), 2)
            pairs = [(u, v)]
            if rng.random() < 0.35:
                pairs.append((v, u))
            for arc in pairs:
                if arc not in present:
                    present.add(arc)
                    arcs.append((*arc, rng.choice("xy")))
        db.new_graph(labels, arcs)
    return db


def _random_undirected_database(seed: int) -> GraphDatabase:
    rng = random.Random(seed)
    taxonomy = make_random_taxonomy(rng, LabelInterner(), rng.randint(3, 6))
    return make_random_database(rng, taxonomy, rng.randint(2, 5))


def _has_antiparallel_pair(db: DiGraphDatabase) -> bool:
    return any(
        graph.has_arc(v, u) for graph in db for u, v, _label in graph.arcs()
    )


def _two_graph_db() -> GraphDatabase:
    db = GraphDatabase()
    db.new_graph(["a", "b", "a"], [(0, 1, "x"), (1, 2, "x")])
    db.new_graph(["a", "b"], [(0, 1, "x")])
    return db


class TestProjectCode:
    def test_matches_miner_embeddings_exactly(self):
        db = _two_graph_db()
        miner = GSpanMiner(db, min_support=0.5, keep_embeddings=True)
        for pattern in miner.mine():
            replayed = project_code(db, pattern.code)
            assert replayed == pattern.embeddings

    def test_matches_miner_on_random_databases(self):
        total = 0
        for seed in range(8):
            db = _random_undirected_database(seed)
            miner = GSpanMiner(
                db, min_support=0.4, max_edges=3, keep_embeddings=True
            )
            for pattern in miner.mine():
                total += 1
                assert project_code(db, pattern.code) == pattern.embeddings
        assert total > 0, "no seed produced patterns; test exercised nothing"

    def test_matches_miner_on_random_digraph_databases(self):
        total = 0
        antiparallel = False
        for seed in range(8):
            db = _random_digraph_database(random.Random(seed), 5)
            antiparallel |= _has_antiparallel_pair(db)
            miner = GSpanMiner(
                db, min_support=0.4, max_edges=3, keep_embeddings=True
            )
            for pattern in miner.mine():
                total += 1
                assert project_code(db, pattern.code) == pattern.embeddings
        assert antiparallel, "no seed produced an antiparallel arc pair"
        assert total > 0, "no seed produced patterns; test exercised nothing"

    @pytest.mark.parametrize(
        "directed", [False, True], ids=["graph", "digraph"]
    )
    def test_prune_report_fringe_is_minimal_infrequent_projection(
        self, directed
    ):
        total = 0
        for seed in range(8):
            db = (
                _random_digraph_database(random.Random(seed), 5)
                if directed
                else _random_undirected_database(seed)
            )
            fringe: list[tuple] = []
            miner = GSpanMiner(
                db,
                min_support=0.4,
                max_edges=3,
                prune_report=lambda code, mask: fringe.append((code, mask)),
            )
            miner.mine()
            for code, mask in fringe:
                total += 1
                assert is_min_code(DFSCode(code))
                assert mask.bit_count() < miner.min_count
                assert set(BitSet.from_bits(mask)) == {
                    e.graph_id for e in project_code(db, code)
                }
        assert total > 0, "no seed pruned a candidate; test exercised nothing"

    @pytest.mark.parametrize(
        "directed", [False, True], ids=["graph", "digraph"]
    )
    def test_shared_miner_projects_like_fresh_calls(self, directed):
        # One miner projects every class and border code, twice over:
        # its cached seed records must come out of every call untouched.
        total = 0
        for seed in range(8):
            db = (
                _random_digraph_database(random.Random(seed), 5)
                if directed
                else _random_undirected_database(seed)
            )
            fringe: list[tuple] = []
            miner = GSpanMiner(
                db,
                min_support=0.4,
                max_edges=3,
                prune_report=lambda code, mask: fringe.append((code, mask)),
            )
            codes = [pattern.code.edges for pattern in miner.mine()]
            codes += [code for code, _mask in fringe]
            for _round in range(2):
                for code in codes:
                    total += 1
                    assert miner.project(code) == project_code(db, code)
        assert total > 0, "no seed produced a code; test exercised nothing"

    def test_infrequent_code_still_projects(self):
        # A code frequent in one "shard" but absent elsewhere must replay
        # to whatever embeddings exist — including none.
        db = _two_graph_db()
        code = ((0, 1, db.node_labels.id_of("a"), db.edge_labels.id_of("x"),
                 db.node_labels.id_of("b")),)
        embeddings = project_code(db, code)
        assert {e.graph_id for e in embeddings} == {0, 1}
        missing = (
            (0, 1, db.node_labels.id_of("b"), db.edge_labels.id_of("x"),
             db.node_labels.id_of("b")),
        )
        assert project_code(db, missing) == []

    def test_prefix_dead_end_short_circuits(self):
        db = _two_graph_db()
        a = db.node_labels.id_of("a")
        b = db.node_labels.id_of("b")
        x = db.edge_labels.id_of("x")
        # First edge never embeds, so the longer code projects to [].
        code = ((0, 1, b, x, b), (1, 2, b, x, a))
        assert project_code(db, code) == []

    def test_empty_code_rejected(self):
        with pytest.raises(MiningError, match="empty"):
            project_code(_two_graph_db(), ())

    def test_non_initial_first_edge_rejected(self):
        with pytest.raises(MiningError, match=r"\(0, 1\)"):
            project_code(_two_graph_db(), ((1, 2, 0, 0, 1),))

    def test_invalid_backward_extension_rejected(self):
        db = _two_graph_db()
        a = db.node_labels.id_of("a")
        b = db.node_labels.id_of("b")
        x = db.edge_labels.id_of("x")
        # Backward edge must leave the rightmost vertex; vertex 0 is not it.
        code = ((0, 1, a, x, b), (1, 2, b, x, a), (1, 0, b, x, a))
        with pytest.raises(MiningError, match="backward"):
            project_code(db, code)

    def test_invalid_forward_extension_rejected(self):
        db = _two_graph_db()
        a = db.node_labels.id_of("a")
        b = db.node_labels.id_of("b")
        x = db.edge_labels.id_of("x")
        # Forward edge must discover vertex len(vlabels), not skip ahead.
        code = ((0, 1, a, x, b), (1, 3, b, x, a))
        with pytest.raises(MiningError, match="forward"):
            project_code(db, code)
