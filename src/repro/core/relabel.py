"""Step 1 of Taxogram: relabel the database to most general ancestors.

Every vertex label is replaced by the most general ancestor of its label
in the taxonomy, collapsing each pattern class onto its most general
member; the original labels are retained for the occurrence-index
construction of Step 2.

Multi-root taxonomies need repair (paper Step 1): when a label reaches
several roots, "an artificial node with a unique label is introduced as
the common ancestor".  We group roots into *conflict components* — roots
that are both reachable from some common label — and give each
multi-root component one artificial root.  Labels then have a unique most
general ancestor (their component's top), and because ancestry never
crosses components (an ancestor's roots are a subset of its descendant's
roots), generalized matching stays exact.  Components with a single root
are left untouched, keeping their pattern classes as specific as
possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.exceptions import TaxonomyError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.taxonomy.taxonomy import ARTIFICIAL_ROOT_NAME, Taxonomy

__all__ = [
    "RelabeledDatabase",
    "generalize_in_place",
    "relabel_database",
    "repair_taxonomy",
]


@dataclass
class RelabeledDatabase:
    """The product of Step 1.

    ``dmg`` is the relabeled copy (the paper's :math:`D_{mg}`),
    ``original_labels[graph_id][node]`` preserves the input labels, and
    ``taxonomy`` is the repaired working taxonomy used by Steps 2–3.
    ``most_general`` maps every taxonomy label to its unique most general
    ancestor in the working taxonomy.
    """

    dmg: GraphDatabase
    original_labels: list[list[int]]
    taxonomy: Taxonomy
    most_general: dict[int, int]


def repair_taxonomy(
    taxonomy: Taxonomy,
    root_name: str = ARTIFICIAL_ROOT_NAME,
) -> tuple[Taxonomy, dict[int, int]]:
    """Return a working taxonomy with unique most-general ancestors.

    The result is ``(working, most_general)`` where ``most_general``
    covers every label of the working taxonomy.  Single-rooted
    taxonomies are returned unchanged.
    """
    roots = taxonomy.roots()
    if not roots:
        raise TaxonomyError("taxonomy is empty")
    if len(roots) == 1:
        root = roots[0]
        return taxonomy, {label: root for label in taxonomy.labels()}

    # Union-find over roots: two roots conflict when some label reaches both.
    parent_uf: dict[int, int] = {root: root for root in roots}

    def find(x: int) -> int:
        while parent_uf[x] != x:
            parent_uf[x] = parent_uf[parent_uf[x]]
            x = parent_uf[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent_uf[rx] = ry

    label_tops: dict[int, tuple[int, ...]] = {}
    for label in taxonomy.labels():
        tops = taxonomy.most_general_ancestors(label)
        label_tops[label] = tops
        for other in tops[1:]:
            union(tops[0], other)

    components: dict[int, list[int]] = {}
    for root in roots:
        components.setdefault(find(root), []).append(root)

    conflicted = {rep: members for rep, members in components.items() if len(members) > 1}
    if not conflicted:
        # Multiple roots but no label reaches two of them: every label
        # already has a unique most general ancestor.
        most_general = {label: tops[0] for label, tops in label_tops.items()}
        return taxonomy, most_general

    parents: dict[int, tuple[int, ...]] = {
        label: taxonomy.parents_of(label) for label in taxonomy.labels()
    }
    component_top: dict[int, int] = {}
    for index, (rep, members) in enumerate(sorted(conflicted.items())):
        name = root_name if len(conflicted) == 1 else f"{root_name}:{index}"
        artificial = taxonomy.interner.intern(name)
        if artificial in parents:
            raise TaxonomyError(
                f"artificial root name {name!r} already names a concept"
            )
        parents[artificial] = ()
        for member in sorted(members):
            parents[member] = (artificial,)
        component_top[rep] = artificial

    working = Taxonomy(parents, taxonomy.interner)
    most_general: dict[int, int] = {}
    for label, tops in label_tops.items():
        rep = find(tops[0])
        most_general[label] = component_top.get(rep, tops[0])
    for artificial in component_top.values():
        most_general[artificial] = artificial
    return working, most_general


def relabel_database(
    database: GraphDatabase,
    taxonomy: Taxonomy,
    root_name: str = ARTIFICIAL_ROOT_NAME,
) -> RelabeledDatabase:
    """Run Step 1; raises :class:`TaxonomyError` for unknown node labels.

    Time and space are ``O(|D| * |Gmax|)`` as in the paper: one pass over
    every node plus the retained original labels.
    """
    used_labels = database.distinct_node_labels()
    for label in used_labels:
        if label not in taxonomy:
            raise TaxonomyError(
                f"database node label {database.node_label_name(label)!r} "
                "is not a taxonomy concept"
            )
    working, most_general = repair_taxonomy(taxonomy, root_name)
    dmg = database.copy()
    originals = generalize_in_place(dmg, most_general)
    return RelabeledDatabase(
        dmg=dmg,
        original_labels=originals,
        taxonomy=working,
        most_general=most_general,
    )


def generalize_in_place(
    graphs: Iterable[Graph], most_general: Mapping[int, int]
) -> list[list[int]]:
    """Step 1's relabel loop: give every node of ``graphs`` its label's
    most general ancestor, in place.

    Returns each graph's original labels, in iteration order.  Callers
    relabel a copy: the database's for :math:`D_{mg}`, a query's for its
    pattern class.
    """
    originals: list[list[int]] = []
    for graph in graphs:
        labels = graph.node_labels()
        originals.append(labels)
        for v in graph.nodes():
            graph.relabel_node(v, most_general[labels[v]])
    return originals
