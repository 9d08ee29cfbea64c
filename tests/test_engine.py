"""Ranking engines: worked examples, trace invariants, axiom satisfaction."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import (
    NEG,
    POS,
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
    normalize,
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


@pytest.mark.parametrize("n", [40, 60, 80])
@pytest.mark.parametrize("seed", [0, 1])
def test_combined_engine_matches_the_reference_on_larger_graphs(n, seed):
    # About four supporters and four accusers per node: many splits land on
    # levels whose cached comparisons and idle agents must be kept or dropped.
    rng = random.Random(f"engine-reference-{n}-{seed}")
    g = random_graph(rng, n, 4 / (n - 1), Mode.COMBINED)
    assert rank_graph(g) == reference.rank_graph(g)


def hub_graph():
    # h supports everyone and is accused by the x's it accuses, so side sizes
    # run from 0 to 5 and most pairs are decided by sizes alone. c and d have
    # equal-size sides from different sets ({a, h} and {b, h}; {p} and {q})
    # whose profiles are equal while a = b and p = q, so d must move with c.
    xs = ["x1", "x2", "x3", "x4"]
    others = ["a", "b", "c", "d", "p", "q", *xs]
    supports = [("h", v) for v in others] + [(x, v) for x in xs for v in "ab"]
    accuses = [("p", "c"), ("q", "d")] + [(x, "h") for x in xs] + [("h", x) for x in xs]
    return combined_graph(supports + [("a", "c"), ("b", "d")], accuses)


def test_combined_engine_moves_equal_profiles_among_unequal_sizes():
    g = hub_graph()
    ranking, trace = rank_graph(g)
    assert (ranking, trace) == reference.rank_graph(g)
    assert [(s.chosen, s.witness, s.moved) for s in trace.steps] == [
        ("a", "c", ("a", "b")),
        ("c", "h", ("c", "d")),
        ("p", "h", ("p", "q")),
        ("x1", "h", ("x1", "x2", "x3", "x4")),
    ]


@pytest.mark.parametrize(
    "mode, calls",
    [
        (Mode.POSITIVE_ONLY, {"more_important": 400}),
        (Mode.NEGATIVE_ONLY, {"more_important": 341}),
        (Mode.COMBINED, {"socially_stronger": 602, "equally_strong": 551}),
    ],
    ids=lambda value: getattr(value, "value", None) or "-".join(map(str, value.values())),
)
def test_engine_compares_only_what_a_split_changed(monkeypatch, mode, calls):
    # A split can break a cover but never make one, so a comparison is redone
    # only when a cached True can lose a cover (one end's backers meet the
    # lower new level where the other's meet the upper) or a cached False
    # between equal profiles can see them part (one end backed from each new
    # level); an agent found ineligible is walked again only when its verdict
    # may have changed. Dropping more, or rescanning, makes more calls. A pair
    # whose side sizes rule it out makes none (the combined row's
    # equally_strong count includes the calls socially_stronger makes itself).
    g = random_graph(random.Random(f"engine-calls-{mode.value}"), 60, 4 / 59, mode)
    made = dict.fromkeys(calls, 0)
    for name in calls:
        def counting(*args, name=name, relation=getattr(reprank.dominance, name)):
            made[name] += 1
            return relation(*args)

        monkeypatch.setattr(reprank.dominance, name, counting)
    result = rank_graph(g)
    assert made == calls
    assert result == reference.rank_graph(g)


@pytest.mark.parametrize("n", [0, 12, 30, 60], ids=lambda n: f"n{n}" if n else "hub")
def test_size_excluded_pairs_never_reach_dominance(monkeypatch, n):
    # u can be socially stronger than v only if |supporters(u)| >= |supporters(v)|
    # and |accusers(v)| >= |accusers(u)|, and u and v are equally strong only if
    # both sizes are equal; the engine decides every other pair itself.
    rng = random.Random(f"engine-sizes-{n}")
    graph = random_graph(rng, n, 4 / (n - 1), Mode.COMBINED) if n else hub_graph()
    sizes = {
        v: (len(graph.support_set(v, POS)), len(graph.support_set(v, NEG)))
        for v in graph.nodes
    }
    socially_stronger = reprank.dominance.socially_stronger
    equally_strong = reprank.dominance.equally_strong
    seen = {"socially_stronger": [], "equally_strong": []}
    inside = []

    def stronger(ranking, g, u, v):
        (good_u, bad_u), (good_v, bad_v) = sizes[u], sizes[v]
        seen["socially_stronger"].append(good_u < good_v or bad_v < bad_u)
        inside.append(None)
        try:
            return socially_stronger(ranking, g, u, v)
        finally:
            inside.pop()

    def equally(ranking, a, b):
        if not inside:  # the engine's own call, on one side of two levelmates
            seen["equally_strong"].append(len(a) != len(b))
        return equally_strong(ranking, a, b)

    monkeypatch.setattr(reprank.dominance, "socially_stronger", stronger)
    monkeypatch.setattr(reprank.dominance, "equally_strong", equally)
    rank_graph(graph)
    assert all(seen.values()), "both relations are called"
    assert not any(seen["socially_stronger"]) and not any(seen["equally_strong"])


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_a_split_breaks_covers_but_never_makes_one(mode):
    # The premise of the engine's drop rule. Splitting a level into U above L
    # keeps each sorted profile's block of that level at the same positions,
    # so a cover can break but never appear; a comparison that turns False
    # broke a cover across U and L, and one that turns True compared equal
    # profiles whose agents are backed one from U and the other from L.
    rng = random.Random(f"split-premise-{mode.value}")
    seen = {"True to False": 0, "False to True": 0}
    for _ in range(80):
        n = rng.randint(3, 12)
        graph = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5)), mode)
        before = normalize({v: rng.randint(1, max(2, n // 3)) for v in graph.nodes})
        splittable = [list(level) for level in before.levels if len(level) > 1]
        if not splittable:
            continue
        level = rng.choice(splittable)
        rng.shuffle(level)
        cut = rng.randint(1, len(level) - 1)
        up, low = set(level[:cut]), set(level[cut:])
        k = before.rank_of(level[0]) - 1
        after = Ranking.from_levels(
            [*before.levels[:k], sorted(up), sorted(low), *before.levels[k + 1 :]]
        )
        if mode is Mode.COMBINED:
            sides = {
                v: (graph.support_set(v, POS), graph.support_set(v, NEG)) for v in graph.nodes
            }

            def stronger(r, u, v):
                return reprank.dominance.socially_stronger(r, graph, u, v)
        else:
            sides = {v: (graph.support_set(v), frozenset()) for v in graph.nodes}

            def stronger(r, u, v):
                return reprank.dominance.more_important(r, sides[u][0], sides[v][0])

        def across(a, b):  # a meets L and b meets U
            return bool(a & low) and bool(b & up)

        for u in graph.nodes:
            for v in graph.nodes:
                (good_u, bad_u), (good_v, bad_v) = sides[u], sides[v]
                for a, b in ((good_u, good_v), (bad_u, bad_v)):
                    if not reprank.dominance.at_least_as_strong(before, a, b):
                        assert not reprank.dominance.at_least_as_strong(after, a, b)
                was, now = stronger(before, u, v), stronger(after, u, v)
                if was and not now:
                    seen["True to False"] += 1
                    assert across(good_u, good_v) or across(bad_v, bad_u)
                elif now and not was:
                    seen["False to True"] += 1
                    assert reprank.dominance.equally_strong(before, good_u, good_v)
                    assert reprank.dominance.equally_strong(before, bad_u, bad_v)
                    assert across(good_u | bad_u, good_v | bad_v) or across(
                        good_v | bad_v, good_u | bad_u
                    )
    assert all(seen.values()), seen
