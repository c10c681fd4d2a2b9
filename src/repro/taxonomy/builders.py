"""Convenience constructors for taxonomies from human-readable inputs."""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.taxonomy.taxonomy import Taxonomy
from repro.util.interner import LabelInterner

__all__ = ["taxonomy_from_parent_names"]


def taxonomy_from_parent_names(
    parent_names: Mapping[str, Iterable[str] | str],
    interner: LabelInterner | None = None,
) -> Taxonomy:
    """Build a taxonomy from a ``child name -> parent name(s)`` mapping.

    A single string value is treated as one parent.  Roots can be declared
    explicitly with an empty parent list, or implicitly by appearing only
    as someone's parent.

    >>> tax = taxonomy_from_parent_names({"helicase": "catalytic",
    ...                                   "catalytic": []})
    >>> tax.name_of(tax.roots()[0])
    'catalytic'
    """
    interner = interner if interner is not None else LabelInterner()
    parents: dict[int, tuple[int, ...]] = {}
    for child, value in parent_names.items():
        names = (value,) if isinstance(value, str) else tuple(value)
        child_id = interner.intern(child)
        parents[child_id] = tuple(interner.intern(name) for name in names)
    return Taxonomy(parents, interner)
