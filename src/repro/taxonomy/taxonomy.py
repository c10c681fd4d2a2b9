"""The taxonomy DAG (paper §2).

A taxonomy ``T`` is a labeled directed acyclic graph where an edge from
``u`` to ``v`` states that ``v`` is an *ancestor* (generalization) of
``u``.  Every label is an ancestor of itself; ancestry is transitive.

Labels are integer ids shared with the graph database's node-label
interner, so taxonomy lookups during mining are integer operations.

The class precomputes a topological order at construction (validating
acyclicity) and caches ancestor/descendant closures lazily.
"""

from __future__ import annotations

import copy
from typing import Iterable, Iterator, Mapping

from repro.exceptions import TaxonomyError
from repro.util.interner import LabelInterner

__all__ = ["Taxonomy", "ARTIFICIAL_ROOT_NAME"]

ARTIFICIAL_ROOT_NAME = "<root>"


class Taxonomy:
    """An is-a DAG over interned labels with cached closures."""

    __slots__ = (
        "interner",
        "_parents",
        "_children",
        "_topo",
        "_anc_cache",
        "_desc_cache",
        "_depth_cache",
    )

    def __init__(
        self,
        parents: Mapping[int, Iterable[int]],
        interner: LabelInterner,
    ) -> None:
        """Build from a ``label -> parents`` mapping.

        Every label mentioned anywhere (as key or parent) becomes a member
        of the taxonomy.  Labels with no parents are roots.
        """
        self.interner = interner
        members: set[int] = set(parents)
        parent_map: dict[int, tuple[int, ...]] = {}
        for label, plist in parents.items():
            ptuple = tuple(dict.fromkeys(plist))  # dedupe, keep order
            if label in ptuple:
                raise TaxonomyError(
                    f"label {self._name(label)} cannot be its own parent"
                )
            parent_map[label] = ptuple
            members.update(ptuple)
        for label in members:
            parent_map.setdefault(label, ())
        for label in members:
            if label < 0 or label >= len(interner):
                raise TaxonomyError(f"label id {label} is not interned")

        self._parents = parent_map
        children: dict[int, list[int]] = {label: [] for label in parent_map}
        for label, plist in parent_map.items():
            for parent in plist:
                children[parent].append(label)
        self._children = {label: tuple(kids) for label, kids in children.items()}
        self._topo = self._topological_order()
        self._anc_cache: dict[int, frozenset[int]] = {}
        self._desc_cache: dict[int, frozenset[int]] = {}
        self._depth_cache: dict[int, int] | None = None

    # -- membership and structure ------------------------------------------------

    def __contains__(self, label: int) -> bool:
        return label in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    def labels(self) -> Iterator[int]:
        """All member label ids (topological order: ancestors first)."""
        return iter(self._topo)

    def roots(self) -> tuple[int, ...]:
        return tuple(l for l in self._topo if not self._parents[l])

    def leaves(self) -> tuple[int, ...]:
        return tuple(l for l in self._topo if not self._children[l])

    def parents_of(self, label: int) -> tuple[int, ...]:
        self._check(label)
        return self._parents[label]

    def children_of(self, label: int) -> tuple[int, ...]:
        self._check(label)
        return self._children[label]

    def relationship_count(self) -> int:
        """Number of direct is-a edges."""
        return sum(len(p) for p in self._parents.values())

    def parent_map(self) -> dict[int, tuple[int, ...]]:
        """``label -> parents`` mapping in internal insertion order (a copy).

        Rebuilding a :class:`Taxonomy` from this mapping (with the same
        interner contents) reproduces the original exactly — including
        children ordering and topological order — which the parallel
        runtime relies on to give worker processes a bit-identical
        taxonomy.
        """
        return dict(self._parents)

    def with_interner(self, interner: LabelInterner) -> "Taxonomy":
        """The same DAG, sharing its structure and closure caches, over
        ``interner`` — a copy of :attr:`interner` that the caller may
        extend (the artificial root of :func:`repro.core.relabel.
        repair_taxonomy` is interned there) without touching this one."""
        out = copy.copy(self)
        out.interner = interner
        return out

    def name_of(self, label: int) -> str:
        return self.interner.name_of(label)

    def id_of(self, name: str) -> int:
        label = self.interner.id_of(name)
        self._check(label)
        return label

    # -- closures ------------------------------------------------------------------

    def ancestors_or_self(self, label: int) -> frozenset[int]:
        """All generalizations of ``label``, including itself."""
        self._check(label)
        cached = self._anc_cache.get(label)
        if cached is not None:
            return cached
        out: set[int] = {label}
        for parent in self._parents[label]:
            out |= self.ancestors_or_self(parent)
        result = frozenset(out)
        self._anc_cache[label] = result
        return result

    def strict_ancestors(self, label: int) -> frozenset[int]:
        return self.ancestors_or_self(label) - {label}

    def descendants_or_self(self, label: int) -> frozenset[int]:
        """All specializations of ``label``, including itself."""
        self._check(label)
        cached = self._desc_cache.get(label)
        if cached is not None:
            return cached
        out: set[int] = {label}
        for child in self._children[label]:
            out |= self.descendants_or_self(child)
        result = frozenset(out)
        self._desc_cache[label] = result
        return result

    def is_ancestor_or_self(self, general: int, specific: int) -> bool:
        """True iff ``general`` generalizes ``specific`` (or equals it)."""
        return general in self.ancestors_or_self(specific)

    def matches(self, pattern_label: int, graph_label: int) -> bool:
        """Generalized label match (paper §1): pattern label may be the
        graph label itself or any of its ancestors."""
        return pattern_label in self.ancestors_or_self(graph_label)

    # -- derived quantities ----------------------------------------------------------

    def most_general_ancestors(self, label: int) -> tuple[int, ...]:
        """The roots reachable from ``label`` (ascending id order)."""
        return tuple(
            sorted(l for l in self.ancestors_or_self(label) if not self._parents[l])
        )

    def most_general_ancestor(self, label: int) -> int:
        """The unique most general ancestor (paper Step 1).

        Raises :class:`TaxonomyError` if the label reaches multiple roots;
        call :meth:`with_single_root` first in that case.
        """
        tops = self.most_general_ancestors(label)
        if len(tops) != 1:
            names = ", ".join(self.name_of(t) for t in tops)
            raise TaxonomyError(
                f"label {self._name(label)} has {len(tops)} most general "
                f"ancestors ({names}); repair with with_single_root()"
            )
        return tops[0]

    def depth_of(self, label: int) -> int:
        """Longest root-to-label path length in edges (roots have depth 0)."""
        self._check(label)
        if self._depth_cache is None:
            depths: dict[int, int] = {}
            for l in self._topo:  # ancestors first
                plist = self._parents[l]
                depths[l] = 0 if not plist else 1 + max(depths[p] for p in plist)
            self._depth_cache = depths
        return self._depth_cache[label]

    def max_depth(self) -> int:
        """Number of levels minus one (longest chain in edges); 0 if empty."""
        if not self._parents:
            return 0
        return max(self.depth_of(l) for l in self._topo)

    def average_ancestor_count(self) -> float:
        """Average |strict ancestors| over labels (the paper's ``d``)."""
        if not self._parents:
            return 0.0
        total = sum(len(self.strict_ancestors(l)) for l in self._parents)
        return total / len(self._parents)

    # -- transformations ---------------------------------------------------------------

    def with_single_root(self, root_name: str = ARTIFICIAL_ROOT_NAME) -> "Taxonomy":
        """Return a taxonomy guaranteed to have exactly one root.

        If this taxonomy already has one root it is returned unchanged.
        Otherwise an artificial root is interned and made the parent of
        every existing root (paper Step 1: "an artificial node with a
        unique label is introduced as the common ancestor").
        """
        roots = self.roots()
        if len(roots) == 1:
            return self
        if not roots:
            raise TaxonomyError("taxonomy is empty")
        root_id = self.interner.intern(root_name)
        if root_id in self._parents:
            raise TaxonomyError(
                f"artificial root name {root_name!r} already names a concept"
            )
        parents: dict[int, tuple[int, ...]] = dict(self._parents)
        for old_root in roots:
            parents[old_root] = (root_id,)
        parents[root_id] = ()
        return Taxonomy(parents, self.interner)

    def restricted_to(self, keep: Iterable[int]) -> "Taxonomy":
        """The sub-taxonomy over ``keep``, preserving reachability.

        A kept label's parents become its nearest kept strict ancestors
        (transitive bypass of removed labels).  Used by efficiency
        enhancement (b): dropping infrequent taxonomy concepts.
        """
        keep_set = {l for l in keep}
        for label in keep_set:
            self._check(label)
        parents: dict[int, tuple[int, ...]] = {}
        for label in self._topo:
            if label not in keep_set:
                continue
            nearest: list[int] = []
            seen: set[int] = set()
            frontier = list(self._parents[label])
            while frontier:
                cand = frontier.pop()
                if cand in seen:
                    continue
                seen.add(cand)
                if cand in keep_set:
                    nearest.append(cand)
                else:
                    frontier.extend(self._parents[cand])
            # Drop parents already implied transitively by other parents.
            minimal = [
                p
                for p in nearest
                if not any(
                    q != p and p in self.ancestors_or_self(q) for q in nearest
                )
            ]
            parents[label] = tuple(sorted(set(minimal)))
        return Taxonomy(parents, self.interner)

    def contracted(self, remove: Iterable[int]) -> "Taxonomy":
        """Remove the given labels, splicing children onto grandparents.

        Used by efficiency enhancement (d): a concept whose occurrence set
        equals one of its children's is redundant for mining.
        """
        remove_set = set(remove)
        return self.restricted_to(l for l in self._topo if l not in remove_set)

    # -- misc ---------------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Taxonomy(concepts={len(self._parents)}, "
            f"relationships={self.relationship_count()}, "
            f"roots={len(self.roots())})"
        )

    def _check(self, label: int) -> None:
        if label not in self._parents:
            raise TaxonomyError(f"label {self._name(label)} is not in the taxonomy")

    def _name(self, label: int) -> str:
        if 0 <= label < len(self.interner):
            return f"{label} ({self.interner.name_of(label)!r})"
        return str(label)

    def _topological_order(self) -> tuple[int, ...]:
        """Kahn's algorithm, ancestors before descendants; detects cycles."""
        indegree = {label: len(plist) for label, plist in self._parents.items()}
        ready = sorted(label for label, deg in indegree.items() if deg == 0)
        order: list[int] = []
        queue = list(ready)
        while queue:
            label = queue.pop(0)
            order.append(label)
            for child in self._children[label]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        if len(order) != len(self._parents):
            raise TaxonomyError("taxonomy contains a cycle")
        return tuple(order)
