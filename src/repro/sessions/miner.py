"""Example-driven session mining against a served pattern store.

The batch pipeline seeds gSpan candidate generation from a scan over
*every* initial edge of the whole database.  A session mine inverts
that (Dmitriev & Lagoze's user-example interaction, PAPERS.md): the
client's example graphs are relabeled to their most-general ancestors
— exactly Taxogram's Step 1 — and gSpan runs over the *example*
mini-database at support 1, enumerating precisely the pattern-class
structures the examples witness.  Each witnessed structure is then
resolved against the store's persisted bit-sets
(:meth:`~repro.serving.reader.StoreReader.class_members`), so the big
database is never rescanned and no isomorphism tests run against it;
the only candidate generation is over the handful of examples.

Soundness of the seeding: if a pattern ``P`` embeds into example ``e``
under generalized matching, then relabeling both sides to most-general
ancestors turns the embedding into an exact one (labels that match
share a component, hence a most-general ancestor), so ``P``'s class
structure is found by the example mini-mine.  The reverse filter — an
explicit witness check of each member against the original examples —
removes members of witnessed classes that the examples do not actually
witness.  The differential suite pins the end-to-end equivalence: a
session mine at sigma equals a fresh global mine at sigma restricted
to example-witnessed patterns, bit-identical supports.

Two witness semantics are offered per mine, the match semantics of
:data:`repro.similarity.matcher.SEMANTICS` (re-exported here as
``SEMANTICS``); the witness check is the one VF2 search, run injectively
or not:

* ``isomorphism`` (default) — the paper's subgraph-isomorphism
  embedding, injective on nodes;
* ``homomorphism`` — the relaxed semantics of "Mining Patterns in
  Networks using Homomorphism" (PAPERS.md): node-mapping need not be
  injective, so folded occurrences witness too.  A folded witness need
  not embed injectively, which the mini-mine requires, so this path
  scans the store's class structures directly instead (still zero
  database rescans — the structure prefilter runs against the relabeled
  examples only).

Support semantics are unchanged in both cases: supports come from the
store's bit-sets and stay the global isomorphism-based counts, so
session answers are comparable across semantics and with batch
results.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.results import MiningCounters, TaxonomyPattern
from repro.exceptions import MiningError, TaxonomyError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.isomorphism.matchers import GeneralizedMatcher, NodeMatcher
from repro.isomorphism.vf2 import find_embedding
from repro.mining.dfs_code import graph_from_code
from repro.mining.gspan import GSpanMiner, min_support_count
from repro.sessions.quotas import QuotaAccountant
from repro.similarity.homomorphism import (
    is_generalized_subgraph_homomorphic,
)
from repro.similarity.matcher import SEMANTICS, validate_semantics

__all__ = ["SEMANTICS", "mine_session_patterns"]


def _relabeled_examples(reader, examples: Sequence[Graph]) -> list[Graph]:
    """The examples' :math:`D_{mg}` counterparts (Step 1 on the fly)."""
    most_general = reader.most_general
    working = reader.working_taxonomy
    interner = reader.database.node_labels
    relabeled = []
    for example in examples:
        copy = example.copy()
        for node in copy.nodes():
            label = copy.node_label(node)
            if label not in working:
                name = interner.name_of(label)
                raise TaxonomyError(
                    f"example label {name!r} is not a taxonomy concept"
                )
            copy.relabel_node(node, most_general[label])
        relabeled.append(copy)
    return relabeled


def _witnessed_codes_iso(
    reader, relabeled: Sequence[Graph], counters: MiningCounters
) -> list[tuple]:
    """Class codes witnessed by the examples, via the example mini-mine.

    gSpan over the relabeled examples at absolute support 1 enumerates
    every connected subgraph code of the examples (up to the store's
    edge cap) — exactly the class structures some example witnesses.
    """
    database = GraphDatabase(
        reader.database.node_labels, reader.database.edge_labels
    )
    have_edges = False
    for graph in relabeled:
        database.add_graph(graph.copy())
        have_edges = have_edges or graph.num_edges > 0
    if not have_edges:
        return []  # mined patterns always contain an edge
    miner = GSpanMiner(
        database,
        min_count=1,
        max_edges=reader.max_edges,
        keep_embeddings=False,
        counters=counters,
    )
    return [mined.code.edges for mined in miner.mine()]


def _witnessed_codes_hom(
    reader, relabeled: Sequence[Graph], counters: MiningCounters
) -> list[tuple]:
    """Class codes with a homomorphic witness among the examples.

    Folded witnesses defeat injective enumeration, so scan the stored
    class structures (there are only as many as mined classes) and keep
    those that map homomorphically into some relabeled example.
    """
    working = reader.working_taxonomy
    codes = []
    for code_edges in reader.class_codes():
        structure = graph_from_code(code_edges)
        counters.gspan_candidates_generated += 1
        if any(
            is_generalized_subgraph_homomorphic(structure, graph, working)
            for graph in relabeled
        ):
            codes.append(code_edges)
    return codes


def _witnesses(
    pattern: TaxonomyPattern,
    examples: Iterable[Graph],
    matcher: NodeMatcher,
    injective: bool,
) -> bool:
    return any(
        find_embedding(pattern.graph, example, matcher, injective=injective)
        is not None
        for example in examples
    )


def mine_session_patterns(
    reader,
    examples: Sequence[Graph],
    min_support: float,
    semantics: str = "isomorphism",
    tenant: str | None = None,
    accountant: QuotaAccountant | None = None,
    counters: MiningCounters | None = None,
) -> tuple[tuple[TaxonomyPattern, ...], int]:
    """Mine the patterns the examples witness, at ``min_support``.

    Returns ``(patterns, candidates)`` where ``candidates`` is the
    number of gSpan candidates the example seeding generated — the
    quantity the session-mining benchmark compares against a full
    remine.  ``accountant`` (when given) enforces the tenant's
    candidate budget; ``tenant`` keys the per-tenant result cache of
    ``reader.class_members``.

    Raises :class:`~repro.exceptions.MiningError` when ``min_support``
    is below the store's sigma: classes the store never mined cannot be
    resolved from its bit-sets, so a complete sub-threshold answer
    would need a global remine — the one thing sessions exist to avoid.
    """
    injective = validate_semantics(semantics) == "isomorphism"
    if not examples:
        raise MiningError("session mine needs at least one example graph")
    if not 0.0 < min_support <= 1.0:
        raise MiningError(
            f"min_support must be in (0, 1], got {min_support}"
        )
    min_count = min_support_count(min_support, reader.database_size)
    if min_count < reader.min_count:
        raise MiningError(
            f"store was mined at min_support={reader.min_support}; a "
            f"session mine below it would miss classes the store never "
            f"materialized — re-mine the store or raise the threshold"
        )
    if counters is None:
        counters = MiningCounters()
    relabeled = _relabeled_examples(reader, examples)
    if injective:
        codes = _witnessed_codes_iso(reader, relabeled, counters)
    else:
        codes = _witnessed_codes_hom(reader, relabeled, counters)
    candidates = counters.gspan_candidates_generated
    if accountant is not None and tenant is not None:
        accountant.check_candidates(tenant, candidates)
    matcher = GeneralizedMatcher(reader.working_taxonomy)
    patterns: list[TaxonomyPattern] = []
    for code_edges in codes:
        for member in reader.class_members(
            code_edges, min_count=min_count, tenant=tenant
        ):
            if _witnesses(member, examples, matcher, injective):
                patterns.append(member)
    patterns.sort(key=TaxonomyPattern.rank_key)
    return tuple(patterns), candidates
