"""Differential tests: the cached engine and the integer-profile checker
against the plain reference in ``reference.py``.

Engines must agree on the final ranking and on every trace step; the checker
must agree on every verdict, witness pair and reason, and ``pair_violates``
on every ordered pair.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import reference
from conftest import (
    combined_graph,
    graph_with_ranking,
    negative_graph,
    positive_graph,
    random_graph,
)
from reprank import (
    AXIOMS_BY_MODE,
    Mode,
    Ranking,
    ReputationGraph,
    check,
    pair_violates,
    rank_graph,
)

MODES = list(Mode)


def seeded_graphs(mode: Mode, count: int, sizes: tuple[int, ...]):
    rng = random.Random(f"differential-{mode.value}")
    for k in range(count):
        n = sizes[k % len(sizes)]
        # Sparse graphs leave long ties and isolated nodes; dense ones split often.
        p = (0.05, 0.12, 0.25, 0.5)[k % 4]
        yield random_graph(rng, n, p, mode)


def random_rankings(graph: ReputationGraph, rng: random.Random, count: int):
    nodes = graph.nodes
    yield Ranking({v: 1 for v in nodes})
    for _ in range(count):
        raw = {v: rng.randint(1, max(1, len(nodes) // 2)) for v in nodes}
        dense = {r: i for i, r in enumerate(sorted(set(raw.values())), start=1)}
        yield Ranking({v: dense[raw[v]] for v in nodes})


def assert_engine_agrees(graph: ReputationGraph) -> None:
    ranking, trace = rank_graph(graph)
    ref_ranking, ref_trace = reference.rank_graph(graph)
    assert trace.initial == ref_trace.initial
    assert len(trace.steps) == len(ref_trace.steps)
    for step, ref_step in zip(trace.steps, ref_trace.steps):
        assert step == ref_step
    assert ranking == ref_ranking


def assert_checker_agrees(graph: ReputationGraph, ranking: Ranking, pairs: bool):
    for axiom in AXIOMS_BY_MODE[graph.mode]:
        report = check(graph, ranking, axiom)
        expected = reference.first_violation(graph, ranking, axiom.value)
        if expected is None:
            assert report.passed and report.witness is None
        else:
            assert not report.passed
            w = report.witness
            assert (w.vi, w.vj, w.reason) == expected
        if pairs:
            clause = reference.CLAUSES[axiom.value]
            for vi in graph.nodes:
                for vj in graph.nodes:
                    assert pair_violates(graph, ranking, axiom, vi, vj) == clause(
                        graph, ranking, vi, vj
                    )


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_engine_matches_reference_on_seeded_graphs(mode):
    combined = mode is Mode.COMBINED
    sizes = (2, 3, 5, 8, 13, 21, 30) if combined else (2, 4, 7, 12, 20, 35, 50)
    for graph in seeded_graphs(mode, 40, sizes):
        assert_engine_agrees(graph)
    if not combined:
        # Larger graphs with average in-degree 4, from their own seed so the draws above stay.
        rng = random.Random(f"differential-large-{mode.value}")
        for n in (80, 120, 80):
            assert_engine_agrees(random_graph(rng, n, 4 / n, mode))


# Graphs of up to 200 nodes with average in-degree 4, from their own seed.
# The reference needs about 15 s for a combined graph of 200 nodes, so the
# combined cases past 120 nodes are in differential_large.py, a CI step of
# their own.
UP_TO_200 = {
    Mode.POSITIVE_ONLY: (160, 200),
    Mode.NEGATIVE_ONLY: (160, 200),
    Mode.COMBINED: (120,),
}


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_engine_matches_reference_up_to_200_nodes(mode):
    rng = random.Random(f"differential-200-{mode.value}")
    for n in UP_TO_200[mode]:
        assert_engine_agrees(random_graph(rng, n, 4 / n, mode))


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_checker_matches_reference_on_seeded_graphs(mode):
    rng = random.Random(f"checker-{mode.value}")
    for graph in seeded_graphs(mode, 24, (2, 3, 4, 6, 9, 12)):
        _, trace = rank_graph(graph)
        for ranking in (*trace.rankings(), *random_rankings(graph, rng, 3)):
            assert_checker_agrees(graph, ranking, pairs=len(graph.nodes) <= 6)


def test_engine_matches_reference_on_hand_built_ties():
    # Twins with identical supporters and accusers must move together; the
    # isolated node 'z' stays behind; 'm' ties with the twins on supporters.
    tree = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "e"), ("d", "f")]
    graphs = [
        positive_graph(tree, ["z"]),
        negative_graph(tree, ["z"]),
        combined_graph(
            [("a", "t1"), ("a", "t2"), ("b", "m"), ("t1", "b"), ("t2", "c")],
            [("c", "t1"), ("c", "t2"), ("m", "a")],
            ["z"],
        ),
    ]
    for graph in graphs:
        assert_engine_agrees(graph)
        ranking, _ = rank_graph(graph)
        assert_checker_agrees(graph, ranking, pairs=True)


@settings(max_examples=200, deadline=None)
@given(graph_with_ranking(max_nodes=6))
def test_small_graphs_agree_with_reference(pair):
    graph, ranking = pair
    assert_engine_agrees(graph)
    assert_checker_agrees(graph, ranking, pairs=True)
