"""The benchmark's own correctness digests, pinned.

``perfbench.mine`` checks that repeated mines of one seed agree; these
tests also pin the seed-1 digests themselves, so a change to how a
pattern's support set is stored or read cannot alter what the benchmark
sees.  Together the two mines take a few seconds.
"""

from __future__ import annotations

from perfbench.datasets import directed_dataset, undirected_dataset
from perfbench.mine import MAX_EDGES, MIN_SUPPORT, digest
from repro import Taxogram, TaxogramOptions
from repro.directed import mine_directed


def test_undirected_seed1_digest():
    database, taxonomy = undirected_dataset(1)
    result = Taxogram(
        TaxogramOptions(min_support=MIN_SUPPORT, max_edges=MAX_EDGES)
    ).mine(database, taxonomy)
    assert len(result.patterns) == 4310
    assert digest(result) == (
        "0de05bc755b16435b829df82db825d88aff034f0060fc1e9c8f62340c9da74f3"
    )


def test_directed_seed1_digest():
    database, taxonomy = directed_dataset(1)
    result = mine_directed(
        database, taxonomy, min_support=MIN_SUPPORT, max_edges=MAX_EDGES
    )
    assert len(result.patterns) == 1693
    assert digest(result) == (
        "a2f1c4473180eaee8a3820ce1e0dac3d222b92089330e50334071628b10d3a0d"
    )
