"""The n = 3 axiom atlas: every labelled 3-node graph of each mode.

For each graph the exhaustive certifier decides whether some ranking satisfies
the mode's pair of axioms, and the engine's output is checked against the
same pair and against the mode's transitivity axiom. The counts tie the
engine, the checker and the certifier's leaf to one another: an edit to any
of them that changes a verdict on a 3-node graph changes a count here.
"""

from __future__ import annotations

import functools
import itertools

import pytest

from conftest import all_edge_subsets, combined_graph, negative_graph, positive_graph
from reprank import Axiom, CertificateStatus, Mode, certify, check, rank_graph

NODES = ("a", "b", "c")

TRANSITIVITY = {
    Mode.POSITIVE_ONLY: Axiom.T,
    Mode.NEGATIVE_ONLY: Axiom.BT,
    Mode.COMBINED: Axiom.TC,
}


@functools.cache
def ranked_graphs(mode: Mode) -> list:
    """Every labelled graph of the mode on NODES, with the engine's ranking."""
    subsets = list(all_edge_subsets(NODES))
    if mode is Mode.COMBINED:
        graphs = [combined_graph(g, b, NODES) for g, b in itertools.product(subsets, repeat=2)]
    else:
        build = positive_graph if mode is Mode.POSITIVE_ONLY else negative_graph
        graphs = [build(pairs, NODES) for pairs in subsets]
    return [(graph, rank_graph(graph)[0]) for graph in graphs]


def tally(ranked: list, axioms: tuple) -> tuple[list[int], int]:
    """The edge counts of the UNSAT graphs, and how many graphs the engine
    missed: some ranking satisfies the axioms but the engine's does not."""
    unsat_edges, missed = [], 0
    for graph, ranking in ranked:
        engine_passes = all(check(graph, ranking, axiom).passed for axiom in axioms)
        if certify(graph, axioms).status is CertificateStatus.UNSAT:
            assert not engine_passes, graph.serialize()
            unsat_edges.append(len(graph.edges))
        else:
            missed += not engine_passes
    return unsat_edges, missed


@pytest.mark.parametrize(
    "mode, axioms, graphs, unsat, missed",
    [
        (Mode.POSITIVE_ONLY, (Axiom.T, Axiom.M), 64, 15, 0),
        (Mode.POSITIVE_ONLY, (Axiom.T, Axiom.VWM), 64, 15, 0),
        (Mode.NEGATIVE_ONLY, (Axiom.BT, Axiom.BM), 64, 0, 0),
        (Mode.COMBINED, (Axiom.TC, Axiom.MC), 4096, 1056, 684),
    ],
    ids=["positive T,M", "positive T,VWM", "negative BT,BM", "combined Tc,Mc"],
)
def test_atlas_counts_at_three_nodes(mode, axioms, graphs, unsat, missed):
    unsat_edges, missed_count = tally(ranked_graphs(mode), axioms)
    assert len(ranked_graphs(mode)) == graphs
    assert (len(unsat_edges), missed_count) == (unsat, missed)
    if unsat_edges:  # the fewest-edge UNSAT graphs have 3 edges
        assert min(unsat_edges) == 3


def test_atlas_counts_for_strongly_connected_graphs_at_three_nodes():
    # The setting of certify_vwm_strongly_connected: VWM with T on strongly
    # connected positive graphs. Half are UNSAT, and the fewest-edge one has 4 edges.
    ranked = [(g, r) for g, r in ranked_graphs(Mode.POSITIVE_ONLY) if g.is_strongly_connected()]
    unsat_edges, missed = tally(ranked, (Axiom.T, Axiom.VWM))
    assert (len(ranked), len(unsat_edges), missed) == (18, 9, 0)
    assert min(unsat_edges) == 4


def test_engine_output_passes_transitivity_on_every_three_node_graph():
    total = 0
    for mode, axiom in TRANSITIVITY.items():
        for graph, ranking in ranked_graphs(mode):
            assert check(graph, ranking, axiom).passed, graph.serialize()
            total += 1
    assert total == 4224
