"""Taxogram: taxonomy-superimposed graph mining (EDBT 2008 reproduction).

Quickstart::

    from repro import GraphDatabase, taxonomy_from_parent_names, mine

    tax = taxonomy_from_parent_names({
        "transporter": "molecular_function",
        "carrier": "transporter",
        "helicase": "catalytic_activity",
        "catalytic_activity": "molecular_function",
        "molecular_function": [],
    })
    db = GraphDatabase(node_labels=tax.interner)
    db.new_graph(["carrier", "helicase"], [(0, 1)])
    db.new_graph(["transporter", "helicase"], [(0, 1)])

    result = mine(db, tax, min_support=1.0)
    for pattern in result:
        print(pattern.support, pattern.graph)

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
reproduction results.
"""

from repro.core.analysis import (
    closed_patterns,
    filter_patterns,
    group_by_class,
    label_depth_profile,
    specialization_edges,
    top_patterns,
)
from repro.core.oracle import mine_with_oracle
from repro.core.relabel import relabel_database
from repro.core.results import (
    MiningCounters,
    TaxogramResult,
    TaxonomyPattern,
    format_pattern,
)
from repro.core.tacgm import TAcGM, TAcGMOptions
from repro.core.taxogram import Taxogram, TaxogramOptions, mine, mine_baseline
from repro.observability import MetricsRegistry, RunReport, Tracer
from repro.parallel.runtime import ParallelTaxogram
from repro.exceptions import (
    FormatError,
    GraphError,
    MemoryBudgetExceeded,
    MiningError,
    ReproError,
    StoreError,
    TaxonomyError,
)
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import DiGraph, DiGraphDatabase
from repro.graphs.graph import Graph
from repro.incremental import (
    DatabaseDelta,
    IncrementalOptions,
    IncrementalTaxogram,
    PatternStore,
)
from repro.serving import (
    BatchExecutor,
    Query,
    ServingAnswer,
    StoreReader,
)
from repro.graphs.io import read_graph_database, write_graph_database
from repro.mining.gspan import GSpanMiner
from repro.taxonomy.atoms import pte_atom_taxonomy
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.taxonomy.generators import TaxonomyGeneratorConfig, generate_taxonomy
from repro.taxonomy.go import go_like_taxonomy
from repro.taxonomy.io import read_taxonomy, write_taxonomy
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.interner import LabelInterner

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core algorithms
    "Taxogram",
    "TaxogramOptions",
    "mine",
    "mine_baseline",
    "TAcGM",
    "TAcGMOptions",
    "ParallelTaxogram",
    "mine_with_oracle",
    "relabel_database",
    # incremental mining
    "PatternStore",
    "DatabaseDelta",
    "IncrementalTaxogram",
    "IncrementalOptions",
    # serving
    "StoreReader",
    "ServingAnswer",
    "BatchExecutor",
    "Query",
    # analysis
    "closed_patterns",
    "filter_patterns",
    "group_by_class",
    "label_depth_profile",
    "specialization_edges",
    "top_patterns",
    # results
    "TaxonomyPattern",
    "TaxogramResult",
    "MiningCounters",
    "format_pattern",
    # observability
    "Tracer",
    "RunReport",
    "MetricsRegistry",
    # substrates
    "Graph",
    "GraphDatabase",
    "DiGraph",
    "DiGraphDatabase",
    "GSpanMiner",
    "Taxonomy",
    "LabelInterner",
    "taxonomy_from_parent_names",
    "TaxonomyGeneratorConfig",
    "generate_taxonomy",
    "go_like_taxonomy",
    "pte_atom_taxonomy",
    # I/O
    "read_graph_database",
    "write_graph_database",
    "read_taxonomy",
    "write_taxonomy",
    # errors
    "ReproError",
    "GraphError",
    "TaxonomyError",
    "FormatError",
    "MiningError",
    "StoreError",
    "MemoryBudgetExceeded",
]
