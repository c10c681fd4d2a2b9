"""Re-exports of the directed-mining names under their former package.

Directed mining now runs on the core pipeline: ``DiGraph`` and
``DiGraphDatabase`` live in :mod:`repro.graphs.digraph`, and
:func:`repro.core.taxogram.mine` and the VF2 functions of
:mod:`repro.isomorphism.vf2` take them directly.  New code should import
from there; this module keeps the four names older callers use.
"""

from repro.core.taxogram import mine as mine_directed
from repro.graphs.digraph import DiGraph, DiGraphDatabase
from repro.isomorphism.vf2 import (
    is_generalized_subgraph_isomorphic as is_directed_generalized_subgraph_isomorphic,
)

__all__ = [
    "DiGraph",
    "DiGraphDatabase",
    "mine_directed",
    "is_directed_generalized_subgraph_isomorphic",
]
