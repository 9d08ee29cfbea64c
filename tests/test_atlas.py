"""The axiom atlas: every labelled 3-node graph of each mode, and the
4-node single-polarity graphs through their isomorphism classes.

For each graph the exhaustive certifier decides whether some ranking satisfies
the mode's pair of axioms, and the engine's output is checked against the
same pair and against the mode's transitivity axiom. The counts tie the
engine, the checker and the certifier's leaf to one another: an edit to any
of them that changes a verdict on a 3- or 4-node graph changes a count here.
"""

from __future__ import annotations

import collections
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


# ---------------------------------------------------------------------------
# n = 4 over isomorphism classes: one representative per class, each count
# weighted by the class's size, so 218 graphs stand for all 4,096.


@functools.cache
def isomorphism_classes(n: int) -> dict[int, int]:
    """Class size by least edge mask, over the labelled n-node digraphs (OEIS A000273).

    Bit k of a mask is the k-th ordered pair of distinct nodes; a class is named
    by the least mask any of the n! relabellings gives its members.
    """
    pairs = list(itertools.permutations(range(n), 2))
    size = 1 << len(pairs)
    least = list(range(size))
    for perm in itertools.permutations(range(n)):
        image = [1 << pairs.index((perm[u], perm[v])) for u, v in pairs]
        relabelled = [0] * size
        for mask in range(1, size):
            low = mask & -mask  # the mask's image is its lowest edge's and the rest's
            relabelled[mask] = relabelled[mask ^ low] | image[low.bit_length() - 1]
            least[mask] = min(least[mask], relabelled[mask])
    return collections.Counter(least)


@functools.cache
def ranked_classes(mode: Mode, n: int) -> list:
    """(representative, the engine's ranking, class size) for every class."""
    names = "abcd"[:n]
    pairs = [(names[u], names[v]) for u, v in itertools.permutations(range(n), 2)]
    build = positive_graph if mode is Mode.POSITIVE_ONLY else negative_graph
    ranked = []
    for mask, weight in sorted(isomorphism_classes(n).items()):
        graph = build([pair for k, pair in enumerate(pairs) if mask >> k & 1], names)
        ranked.append((graph, rank_graph(graph)[0], weight))
    return ranked


ATLAS_ROWS = {  # row: (mode, axioms, strongly connected graphs only)
    "positive T,M": (Mode.POSITIVE_ONLY, (Axiom.T, Axiom.M), False),
    "positive T,VWM": (Mode.POSITIVE_ONLY, (Axiom.T, Axiom.VWM), False),
    "strongly connected T,VWM": (Mode.POSITIVE_ONLY, (Axiom.T, Axiom.VWM), True),
    "negative BT,BM": (Mode.NEGATIVE_ONLY, (Axiom.BT, Axiom.BM), False),
}

# Per row at n = 4: classes, graphs, UNSAT graphs, the fewest edges of an UNSAT
# graph, and the graphs where some ranking satisfies the pair but the engine's fails it.
ATLAS_4 = {
    "positive T,M": (218, 4096, 1554, 3, 72),
    "positive T,VWM": (218, 4096, 1058, 3, 216),
    "strongly connected T,VWM": (83, 1606, 410, 5, 144),
    "negative BT,BM": (218, 4096, 24, 5, 432),
}


def tally_classes(n: int, mode: Mode, axioms: tuple, connected: bool) -> tuple:
    """One ``ATLAS_4`` row at n nodes, every graph count weighted by its class's size."""
    classes = graphs = unsat = missed = 0
    unsat_edges = []
    for graph, ranking, weight in ranked_classes(mode, n):
        if connected and not graph.is_strongly_connected():
            continue
        classes, graphs = classes + 1, graphs + weight
        engine_passes = all(check(graph, ranking, axiom).passed for axiom in axioms)
        if certify(graph, axioms).status is CertificateStatus.UNSAT:
            assert not engine_passes, graph.serialize()
            unsat += weight
            unsat_edges.append(len(graph.edges))
        else:
            missed += weight * (not engine_passes)
    return classes, graphs, unsat, min(unsat_edges, default=None), missed


@pytest.mark.parametrize("n, classes", [(3, 16), (4, 218)])
def test_isomorphism_classes_cover_every_labelled_graph_once(n, classes):
    assert len(isomorphism_classes(n)) == classes
    assert sum(isomorphism_classes(n).values()) == 2 ** (n * (n - 1))


def test_class_counts_at_three_nodes_equal_the_labelled_ones():
    # The weighting recovers the labelled tables that the tests above pin.
    for row, (mode, axioms, connected) in ATLAS_ROWS.items():
        ranked = ranked_graphs(mode)
        if connected:
            ranked = [(g, r) for g, r in ranked if g.is_strongly_connected()]
        unsat_edges, missed = tally(ranked, axioms)
        _, graphs, unsat, fewest, missed_weighted = tally_classes(3, mode, axioms, connected)
        assert (graphs, unsat, missed_weighted) == (len(ranked), len(unsat_edges), missed), row
        assert fewest == min(unsat_edges, default=None), row


def test_atlas_counts_over_four_node_classes():
    rows = {row: tally_classes(4, *ATLAS_ROWS[row]) for row in ATLAS_ROWS}
    assert rows == ATLAS_4


def test_engine_output_passes_transitivity_on_every_four_node_class():
    for mode in (Mode.POSITIVE_ONLY, Mode.NEGATIVE_ONLY):
        for graph, ranking, _ in ranked_classes(mode, 4):
            assert check(graph, ranking, TRANSITIVITY[mode]).passed, graph.serialize()
