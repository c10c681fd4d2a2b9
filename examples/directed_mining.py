#!/usr/bin/env python3
"""Directed taxonomy-superimposed mining: signaling cascades.

The paper notes Taxogram handles directed graphs in principle but its
gSpan-based implementation could not.  Here the one ``mine`` call mines
a ``DiGraphDatabase`` — gSpan's DFS codes carry each arc's direction —
for *directed* regulation patterns: kinase -> transcription factor
cascades, where arc direction carries meaning ("A phosphorylates B" is
not "B phosphorylates A").

Run:  python examples/directed_mining.py
"""

from repro import DiGraphDatabase, mine, taxonomy_from_parent_names


def main() -> None:
    taxonomy = taxonomy_from_parent_names(
        {
            "protein": [],
            "kinase": "protein",
            "map_kinase": "kinase",
            "tyrosine_kinase": "kinase",
            "transcription_factor": "protein",
            "zinc_finger_tf": "transcription_factor",
            "helix_loop_helix_tf": "transcription_factor",
            "receptor": "protein",
        }
    )

    # Three signaling cascades from different organisms.  The concrete
    # proteins differ, but each contains "some kinase activates some
    # transcription factor" - with the arrow always kinase -> TF.
    db = DiGraphDatabase(node_labels=taxonomy.interner)
    db.new_graph(
        ["receptor", "map_kinase", "zinc_finger_tf"],
        [(0, 1, "activates"), (1, 2, "activates")],
    )
    db.new_graph(
        ["receptor", "tyrosine_kinase", "helix_loop_helix_tf"],
        [(0, 1, "activates"), (1, 2, "activates")],
    )
    db.new_graph(
        ["tyrosine_kinase", "zinc_finger_tf", "receptor"],
        [(0, 1, "activates"), (2, 0, "activates")],
    )

    result = mine(db, taxonomy, min_support=1.0)
    print(f"{result.algorithm}: {len(result)} conserved directed patterns\n")
    for pattern in result:
        arcs = ", ".join(
            f"{taxonomy.name_of(pattern.graph.node_label(s))}"
            f" -> {taxonomy.name_of(pattern.graph.node_label(t))}"
            for s, t, _l in pattern.graph.arcs()
        )
        print(f"  [{arcs}] sup={pattern.support:.3f}")

    print(
        "\nEvery cascade activates a transcription factor *from* a kinase "
        "- the reversed arrow never appears, so no kinase<-TF pattern is "
        "reported.  Undirected mining could not make that distinction."
    )


if __name__ == "__main__":
    main()
