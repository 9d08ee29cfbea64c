"""Ranking engines: worked examples, trace invariants, axiom satisfaction."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import (
    combined_graph,
    graphs,
    negative_graph,
    positive_graph,
    random_graph,
)
import reference
import reprank.dominance
from reference import is_refinement
from reprank import (
    Axiom,
    Mode,
    ModeError,
    Ranking,
    check,
    rank_combined,
    rank_graph,
    rank_negative,
    rank_positive,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

TRANSITIVITY = {
    Mode.POSITIVE_ONLY: Axiom.T,
    Mode.NEGATIVE_ONLY: Axiom.BT,
    Mode.COMBINED: Axiom.TC,
}


def assert_trace_invariants(graph, ranking, trace):
    assert trace.iterations <= max(0, len(graph.nodes) - 1)
    chain = trace.rankings()
    assert chain[-1] == ranking
    for earlier, later in zip(chain, chain[1:]):
        assert is_refinement(later, earlier)
        assert later.num_levels > earlier.num_levels


# ---------------------------------------------------------------------------
# positive engine


def test_positive_path():
    r, trace = rank_positive(positive_graph([("a", "b"), ("b", "c")]))
    assert r == Ranking({"c": 1, "b": 2, "a": 3})
    assert trace.iterations == 1


def test_positive_triangle_with_supporter(triangle_with_supporter):
    r, trace = rank_positive(triangle_with_supporter)
    assert r == Ranking({"a": 1, "b": 2, "c": 3, "d": 4})
    assert check(triangle_with_supporter, r, Axiom.T).passed
    assert_trace_invariants(triangle_with_supporter, r, trace)


def test_positive_single_node():
    r, trace = rank_positive(positive_graph([], extra_nodes=["solo"]))
    assert r == Ranking({"solo": 1})
    assert trace.iterations == 0


def test_positive_edgeless_graph_is_all_equal():
    r, _ = rank_positive(positive_graph([], extra_nodes=["a", "b", "c"]))
    assert r == Ranking({"a": 1, "b": 1, "c": 1})


def test_positive_initial_order_is_by_support_count():
    g = positive_graph([("a", "b"), ("c", "b"), ("a", "c")], extra_nodes=["d"])
    _, trace = rank_positive(g)
    assert trace.initial == Ranking({"b": 1, "c": 2, "a": 3, "d": 3})


def test_positive_mode_guard():
    with pytest.raises(ModeError):
        rank_positive(negative_graph([("a", "b")]))


# ---------------------------------------------------------------------------
# negative engine


def test_negative_path():
    r, trace = rank_negative(negative_graph([("a", "b"), ("b", "c")]))
    assert r == Ranking({"a": 1, "c": 2, "b": 3})
    assert trace.iterations == 1
    assert trace.steps[0].direction == "below"


def test_negative_cycle_with_chord(cycle4_with_chord_pairs):
    g = negative_graph(cycle4_with_chord_pairs)
    r, trace = rank_negative(g)
    assert check(g, r, Axiom.BT).passed
    assert r == Ranking({"d": 1, "b": 2, "a": 3, "c": 4})
    assert_trace_invariants(g, r, trace)


def test_negative_complement_output_satisfies_bt(tail_into_cycle3):
    comp = tail_into_cycle3.complement()
    r, trace = rank_negative(comp)
    assert check(comp, r, Axiom.BT).passed
    assert r == Ranking({"b": 1, "c": 2, "d": 3, "a": 4})
    assert_trace_invariants(comp, r, trace)


def test_unaccused_node_outranks_accused():
    g = negative_graph([("a", "b")], extra_nodes=["c"])
    r, _ = rank_negative(g)
    assert r.rank_of("c") < r.rank_of("b")
    assert r.rank_of("a") < r.rank_of("b")


def test_negative_mode_guard():
    with pytest.raises(ModeError):
        rank_negative(positive_graph([("a", "b")]))


# ---------------------------------------------------------------------------
# combined engine


def test_combined_positive_only_matches_positive_engine():
    pairs = [("a", "b"), ("b", "c")]
    combined, _ = rank_combined(combined_graph(pairs, []))
    positive, _ = rank_positive(positive_graph(pairs))
    assert combined == positive == Ranking({"c": 1, "b": 2, "a": 3})


def test_combined_negative_only_matches_negative_engine():
    pairs = [("a", "b"), ("b", "c")]
    combined, _ = rank_combined(combined_graph([], pairs))
    negative, _ = rank_negative(negative_graph(pairs))
    assert combined == negative == Ranking({"a": 1, "c": 2, "b": 3})


def test_combined_isolated_nodes_stay_equal():
    r, trace = rank_combined(combined_graph([], [], extra_nodes=["a", "b"]))
    assert r == Ranking({"a": 1, "b": 1})
    assert trace.iterations == 0


def test_combined_starts_all_equal():
    g = combined_graph([("a", "b")], [("b", "c")])
    _, trace = rank_combined(g)
    assert trace.initial == Ranking({"a": 1, "b": 1, "c": 1})


def test_combined_moves_levelmates_with_equal_profiles_not_equal_sets():
    # c and d are backed by a and b, tied at the start: equal rank profiles
    # from different supporter sets, so d moves along with c.
    g = combined_graph([("a", "c"), ("b", "d")], [], extra_nodes=["e"])
    ranking, trace = rank_combined(g)
    assert [
        (s.index, s.chosen, s.witness, s.moved, s.left_behind, s.direction)
        for s in trace.steps
    ] == [(1, "c", "a", ("c", "d"), ("a", "b", "e"), "above")]
    assert ranking == Ranking.from_levels([["c", "d"], ["a", "b", "e"]])


def test_combined_mode_guard():
    with pytest.raises(ModeError):
        rank_combined(positive_graph([("a", "b")]))


# ---------------------------------------------------------------------------
# dispatch and determinism


def test_rank_graph_dispatches_by_mode():
    g = negative_graph([("a", "b"), ("b", "c")])
    assert rank_graph(g)[0] == rank_negative(g)[0]


@PROPERTY_SETTINGS
@given(graphs(max_nodes=6))
def test_engine_is_deterministic(g):
    first_ranking, first_trace = rank_graph(g)
    second_ranking, second_trace = rank_graph(g)
    assert first_ranking == second_ranking
    assert first_trace == second_trace


# ---------------------------------------------------------------------------
# randomized suites: traces and transitivity axioms


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_random_suite_traces_and_transitivity(mode):
    rng = random.Random(f"engine-{mode.value}")
    for _ in range(150):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5]), mode)
        ranking, trace = rank_graph(g)
        assert_trace_invariants(g, ranking, trace)
        report = check(g, ranking, TRANSITIVITY[mode])
        assert report.passed, report.witness


def test_positive_respects_support_counts():
    # The initial in-degree order only ever gets refined, so a node with
    # strictly more supporters can never end up at or below one with fewer.
    rng = random.Random("support-counts")
    for _ in range(150):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.4]), Mode.POSITIVE_ONLY)
        ranking, _ = rank_positive(g)
        for u in g.nodes:
            for v in g.nodes:
                if len(g.support_set(u)) > len(g.support_set(v)):
                    assert ranking.rank_of(u) < ranking.rank_of(v)


# ---------------------------------------------------------------------------
# the engine's caching: larger graphs against the reference, and its work


@pytest.mark.parametrize("n", [40, 60])
@pytest.mark.parametrize("seed", [0, 1])
def test_combined_engine_matches_the_reference_on_larger_graphs(n, seed):
    # About four supporters and four accusers per node: many splits land on
    # levels whose cached comparisons and idle agents must be kept or dropped.
    rng = random.Random(f"engine-reference-{n}-{seed}")
    g = random_graph(rng, n, 4 / (n - 1), Mode.COMBINED)
    assert rank_graph(g) == reference.rank_graph(g)


@pytest.mark.parametrize(
    "mode, calls",
    [(Mode.POSITIVE_ONLY, 661), (Mode.NEGATIVE_ONLY, 463)],
    ids=lambda value: getattr(value, "value", value),
)
def test_engine_compares_only_what_a_split_changed(monkeypatch, mode, calls):
    # A comparison is redone only when a split may have changed it, and an
    # agent found ineligible is walked again only when its verdict may have
    # changed; a coarser cache or a full rescan makes more calls.
    g = random_graph(random.Random(f"engine-calls-{mode.value}"), 60, 4 / 59, mode)
    made = []
    more_important = reprank.dominance.more_important

    def counting(*args):
        made.append(None)
        return more_important(*args)

    monkeypatch.setattr(reprank.dominance, "more_important", counting)
    result = rank_graph(g)
    assert len(made) == calls
    assert result == reference.rank_graph(g)
