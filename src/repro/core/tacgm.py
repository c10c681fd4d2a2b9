"""TAcGM: the paper's bottom-up comparator (extended AcGM, Inokuchi 2004).

A breadth-first, level-wise generalized substructure miner: level ``k``
holds all frequent patterns with ``k`` edges; level ``k+1`` candidates
are one-edge extensions, deduplicated by canonical DFS code, and each
candidate's support is computed with an *independent* generalized
subgraph isomorphism test against every database graph.  That
independence — the same occurrence re-tested once per pattern instead of
once per pattern class — is exactly the inefficiency the paper attributes
to the bottom-up approach (Example 1.2), and it is reproduced here
faithfully.

Two further paper-accurate traits:

* **Breadth-first memory behaviour.**  All levels are retained (needed
  for candidate generation and the final elimination pass).  An optional
  deterministic ``memory_budget`` counts stored pattern/support cells and
  raises :class:`~repro.exceptions.MemoryBudgetExceeded` when exceeded,
  reproducing the paper's out-of-memory failures machine-independently.
* **Post-hoc over-generalization elimination** through pairwise
  generalized isomorphism tests inside structure groups.

Results are set-equal to Taxogram's whenever the run completes (the test
suite asserts this), so the comparison benchmarks measure cost, not
output differences.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.relabel import repair_taxonomy
from repro.core.results import MiningCounters, TaxogramResult, TaxonomyPattern
from repro.exceptions import MemoryBudgetExceeded
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import reject_directed
from repro.graphs.graph import Graph
from repro.isomorphism.matchers import GeneralizedMatcher
from repro.isomorphism.vf2 import find_embedding, is_generalized_isomorphic
from repro.mining.dfs_code import DFSCode, min_dfs_code
from repro.mining.gspan import min_support_count
from repro.taxonomy.taxonomy import ARTIFICIAL_ROOT_NAME, Taxonomy
from repro.util.bitset import BitSet
from repro.util.timing import Stopwatch

__all__ = ["TAcGMOptions", "TAcGM"]


@dataclass(frozen=True)
class TAcGMOptions:
    """Configuration for :class:`TAcGM`.

    ``memory_budget`` bounds the deterministic memory model (total stored
    candidate/support cells across all levels); ``None`` disables the
    bound.  ``support_cell_weight`` is the cost of one stored support
    entry — it stands for the per-graph embedding list the original AcGM
    keeps, which is why bottom-up memory grows with the database size.
    ``eliminate_overgeneralized`` controls the final pairwise elimination
    pass.
    """

    min_support: float = 0.2
    max_edges: int | None = None
    memory_budget: int | None = None
    support_cell_weight: int = 20
    eliminate_overgeneralized: bool = True
    artificial_root_name: str = ARTIFICIAL_ROOT_NAME


@dataclass
class _Candidate:
    graph: Graph
    code: DFSCode
    support_mask: int


class TAcGM:
    """Level-wise bottom-up taxonomy-superimposed miner."""

    def __init__(self, options: TAcGMOptions | None = None) -> None:
        self.options = options if options is not None else TAcGMOptions()

    def mine(self, database: GraphDatabase, taxonomy: Taxonomy) -> TaxogramResult:
        reject_directed(database, "TAcGM")
        options = self.options
        counters = MiningCounters()
        stopwatch = Stopwatch()
        with stopwatch:
            working, _most_general = repair_taxonomy(
                taxonomy, options.artificial_root_name
            )
            min_count = min_support_count(options.min_support, len(database))
            matcher = GeneralizedMatcher(working)

            memory_cells = 0

            def charge_cells(cells: int) -> None:
                nonlocal memory_cells
                memory_cells += cells
                counters.memory_cells_peak = max(
                    counters.memory_cells_peak, memory_cells
                )
                if (
                    options.memory_budget is not None
                    and memory_cells > options.memory_budget
                ):
                    raise MemoryBudgetExceeded(
                        memory_cells,
                        options.memory_budget,
                        "TAcGM level-wise candidate storage",
                    )

            def charge(candidate: _Candidate) -> None:
                charge_cells(
                    _graph_cells(candidate.graph)
                    + options.support_cell_weight
                    * candidate.support_mask.bit_count()
                )

            level = self._level_one(database, working, min_count, counters)
            for candidate in level.values():
                charge(candidate)
            # Anti-monotone pruning pool: every edge of a frequent pattern
            # is itself a frequent generalized 1-edge pattern, so
            # extensions only ever add edges from this set.
            frequent_edges = {
                (edge[2], edge[3], edge[4])
                for code in level
                for edge in code.edges
            }
            frequent_edges |= {(lb, le, la) for la, le, lb in frequent_edges}

            all_frequent: dict[DFSCode, _Candidate] = dict(level)
            size = 1
            while level and (options.max_edges is None or size < options.max_edges):
                size += 1
                # Breadth-first candidate generation: the whole candidate
                # set of a level is memory-resident at once (AcGM's core
                # weakness), so each generated candidate is charged as it
                # is registered and only released if it proves infrequent.
                candidates = self._extend(level, frequent_edges, charge_cells)
                level = {}
                for code, (graph, bound) in candidates.items():
                    support_mask = self._support(
                        graph, database, bound, matcher, min_count, counters
                    )
                    if support_mask.bit_count() < min_count:
                        charge_cells(-_graph_cells(graph))  # candidate freed
                        continue
                    candidate = _Candidate(graph, code, support_mask)
                    charge_cells(
                        options.support_cell_weight * support_mask.bit_count()
                    )
                    level[code] = candidate
                all_frequent.update(level)

            patterns = self._finalize(
                all_frequent, working, len(database), options, counters
            )
        return TaxogramResult(
            patterns=patterns,
            database_size=len(database),
            min_support=options.min_support,
            algorithm="tacgm",
            counters=counters,
            stage_seconds={"total": stopwatch.elapsed},
        )

    # -- level construction ------------------------------------------------------

    def _level_one(
        self,
        database: GraphDatabase,
        taxonomy: Taxonomy,
        min_count: int,
        counters: MiningCounters,
    ) -> dict[DFSCode, _Candidate]:
        """Frequent generalized single-edge patterns, data-driven."""
        supports: dict[tuple[int, int, int], set[int]] = {}
        for graph in database:
            for u, v, elabel in graph.edges():
                lu, lv = graph.node_label(u), graph.node_label(v)
                for a in taxonomy.ancestors_or_self(lu):
                    for b in taxonomy.ancestors_or_self(lv):
                        key = (min(a, b), elabel, max(a, b))
                        supports.setdefault(key, set()).add(graph.graph_id)
        out: dict[DFSCode, _Candidate] = {}
        for (la, elabel, lb), gids in supports.items():
            if len(gids) < min_count:
                continue
            graph = Graph.from_edges([la, lb], [(0, 1, elabel)])
            code = min_dfs_code(graph)
            counters.candidates_enumerated += 1
            out[code] = _Candidate(graph, code, BitSet(gids).bits)
        return out

    def _extend(
        self,
        level: dict[DFSCode, _Candidate],
        frequent_edges: set[tuple[int, int, int]],
        charge_cells,
    ) -> dict[DFSCode, tuple[Graph, int]]:
        """All one-edge extensions of the current level, canonically deduped.

        Candidate edges are restricted to ``frequent_edges`` (oriented
        ``(l_from, l_edge, l_to)`` triples of frequent 1-edge patterns) —
        a sound anti-monotone filter, since a frequent extended pattern's
        new edge is one of its own frequent subpatterns.  Each candidate
        carries its parent's support mask as an upper bound (AcGM-style
        support-set propagation): a supergraph pattern can only occur in
        graphs its parent occurs in.
        """
        out: dict[DFSCode, tuple[Graph, int]] = {}

        def register(graph: Graph, bound: int) -> None:
            code = min_dfs_code(graph)
            if code not in out:
                out[code] = (graph, bound)
                charge_cells(_graph_cells(graph))

        # Index: from-label -> [(edge label, to-label)].
        by_from: dict[int, list[tuple[int, int]]] = {}
        for la, le, lb in frequent_edges:
            by_from.setdefault(la, []).append((le, lb))

        for candidate in level.values():
            base = candidate.graph
            n = base.num_nodes
            for u in range(n):
                lu = base.node_label(u)
                # Internal extension: close a cycle between existing nodes.
                for v in range(u + 1, n):
                    if base.has_edge(u, v):
                        continue
                    lv = base.node_label(v)
                    for elabel, to_label in by_from.get(lu, ()):
                        if to_label != lv:
                            continue
                        extended = base.copy()
                        extended.add_edge(u, v, elabel)
                        register(extended, candidate.support_mask)
                # External extension: attach a new labeled node.
                for elabel, to_label in by_from.get(lu, ()):
                    extended = base.copy()
                    w = extended.add_node(to_label)
                    extended.add_edge(u, w, elabel)
                    register(extended, candidate.support_mask)
        return out

    def _support(
        self,
        pattern: Graph,
        database: GraphDatabase,
        bound: int,
        matcher: GeneralizedMatcher,
        min_count: int,
        counters: MiningCounters,
    ) -> int:
        """Independent generalized isomorphism test per candidate graph —
        the bottom-up approach's cost center.  ``bound`` (the parent's
        support mask) limits which graphs can possibly contain the
        candidate; returns the candidate's support mask."""
        counters.candidates_enumerated += 1
        support = found = 0
        remaining = bound.bit_count()
        for graph_id in BitSet.from_bits(bound):
            graph = database[graph_id]
            counters.isomorphism_tests += 1
            if find_embedding(pattern, graph, matcher) is not None:
                support |= 1 << graph_id
                found += 1
            remaining -= 1
            if found + remaining < min_count:
                break  # cannot reach the threshold anymore
        return support

    # -- elimination ------------------------------------------------------------------

    def _finalize(
        self,
        frequent: dict[DFSCode, _Candidate],
        taxonomy: Taxonomy,
        database_size: int,
        options: TAcGMOptions,
        counters: MiningCounters,
    ) -> list[TaxonomyPattern]:
        candidates = list(frequent.values())
        kept: list[TaxonomyPattern] = []
        overgeneralized: set[DFSCode] = set()
        if options.eliminate_overgeneralized:
            by_structure: dict[DFSCode, list[_Candidate]] = {}
            for candidate in candidates:
                by_structure.setdefault(
                    _structure_code(candidate.graph), []
                ).append(candidate)
            for group in by_structure.values():
                for general in group:
                    for specific in group:
                        if general is specific:
                            continue
                        if general.support_mask != specific.support_mask:
                            continue
                        counters.isomorphism_tests += 1
                        if is_generalized_isomorphic(
                            general.graph, specific.graph, taxonomy
                        ):
                            overgeneralized.add(general.code)
                            counters.overgeneralized_eliminated += 1
                            break
        for candidate in candidates:
            if candidate.code in overgeneralized:
                continue
            kept.append(
                TaxonomyPattern(
                    code=candidate.code,
                    graph=candidate.graph,
                    support_count=candidate.support_mask.bit_count(),
                    support=candidate.support_mask.bit_count() / database_size,
                    support_mask=candidate.support_mask,
                    class_id=-1,
                )
            )
        return kept


def _graph_cells(graph: Graph) -> int:
    """Deterministic storage cost of one pattern graph."""
    return graph.num_nodes + 3 * graph.num_edges


def _structure_code(graph: Graph) -> DFSCode:
    """Canonical code of the structure (node labels erased, edge labels kept)."""
    skeleton = graph.copy()
    for v in skeleton.nodes():
        skeleton.relabel_node(v, 0)
    return min_dfs_code(skeleton)
