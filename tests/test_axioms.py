"""Axiom checking: per-axiom clauses, witnesses, and cross-axiom properties."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings

from conftest import (
    all_edge_subsets,
    combined_graph,
    graph_with_ranking,
    negative_graph,
    positive_graph,
)
from reprank import (
    AXIOMS_BY_MODE,
    Axiom,
    Mode,
    ModeError,
    NodeSetMismatchError,
    Ranking,
    UnknownNodeError,
    check,
    check_all,
    enumerate_preorders,
    more_important,
    pair_violates,
)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


def test_axiom_names_round_trip():
    for axiom in Axiom:
        assert Axiom.from_name(axiom.value) is axiom
        assert Axiom.from_name(axiom.value.lower()) is axiom
    with pytest.raises(ValueError, match="unknown axiom"):
        Axiom.from_name("Q")


# ---------------------------------------------------------------------------
# transitivity-style axioms


def test_t_passes_on_ranked_path():
    g = positive_graph([("a", "b"), ("b", "c")])
    assert check(g, Ranking({"c": 1, "b": 2, "a": 3}), Axiom.T).passed


def test_t_fails_when_dominated_node_is_higher():
    g = positive_graph([("a", "b"), ("b", "c")])
    # b's supporter set {a} dominates a's empty set, yet a is ranked higher.
    report = check(g, Ranking({"a": 1, "b": 2, "c": 3}), Axiom.T)
    assert not report.passed
    assert (report.witness.vi, report.witness.vj) == ("b", "a")


def test_bt_pushes_accused_down():
    g = negative_graph([("a", "b")])
    assert check(g, Ranking({"a": 1, "b": 2}), Axiom.BT).passed
    assert not check(g, Ranking({"a": 2, "b": 1}), Axiom.BT).passed
    assert not check(g, Ranking({"a": 1, "b": 1}), Axiom.BT).passed


def test_tc_follows_social_strength():
    # u has a supporter, v an accuser; u must sit above its own supporter
    # too, since a backed node is socially stronger than an empty-handed one.
    g = combined_graph([("x", "u")], [("y", "v")], extra_nodes=[])
    r_good = Ranking({"u": 1, "v": 3, "x": 2, "y": 2})
    assert check(g, r_good, Axiom.TC).passed
    r_flat = Ranking({"u": 1, "v": 1, "x": 1, "y": 1})
    report = check(g, r_flat, Axiom.TC)
    assert not report.passed
    assert (report.witness.vi, report.witness.vj) == ("u", "v")


# ---------------------------------------------------------------------------
# monotonicity-style axioms


def test_m_fails_without_supporter_witness(triangle_with_supporter):
    report = check(
        triangle_with_supporter,
        Ranking({"a": 1, "b": 2, "c": 3, "d": 4}),
        Axiom.M,
    )
    assert not report.passed
    assert (report.witness.vi, report.witness.vj) == ("a", "b")


def test_m_vacuous_on_all_equal_ranking(triangle_with_supporter):
    flat = Ranking({n: 1 for n in triangle_with_supporter.nodes})
    assert check(triangle_with_supporter, flat, Axiom.M).passed


def test_m_passes_with_supporter_witness():
    g = positive_graph([("a", "b"), ("b", "c")])
    # c above b: supporter b (rank 2) outranks b's supporter a (rank 3).
    assert check(g, Ranking({"c": 1, "b": 2, "a": 3}), Axiom.M).passed


def test_m_requires_nonempty_supports_for_witness():
    g = positive_graph([], extra_nodes=["a", "b"])
    # a above b with both supports empty: dominance cannot explain the
    # strict separation and no witness pair exists.
    assert not check(g, Ranking({"a": 1, "b": 2}), Axiom.M).passed


def test_vwm_obligation_gated_by_support_sizes():
    # a has three supporters, b one; the pair (a, b) has no dominance and
    # no witness, so M fails there, while VWM skips it because the support
    # sizes differ by more than one.
    g = positive_graph(
        [("x", "a"), ("y", "a"), ("w", "a"), ("z", "b"), ("s", "z")]
    )
    r = Ranking({"a": 1, "b": 2, "z": 2, "s": 3, "w": 3, "x": 3, "y": 3})
    assert check(g, r, Axiom.VWM).passed
    report = check(g, r, Axiom.M)
    assert not report.passed
    assert (report.witness.vi, report.witness.vj) == ("a", "b")


def test_bm_direction_uses_lower_nodes_accusers():
    g = negative_graph([("a", "b"), ("b", "c")])
    # b is lowest; its accuser a must outrank some accuser of the node
    # above it for the pair (b, c): rank(a)=1 < rank(b)=3 works.
    assert check(g, Ranking({"a": 1, "c": 2, "b": 3}), Axiom.BM).passed


def test_bm_fails_between_unaccused_nodes():
    # b strictly below a with both accuser sets empty: no dominance and no
    # possible witness, so the separation is unjustified.
    g = negative_graph([], extra_nodes=["a", "b"])
    report = check(g, Ranking({"a": 1, "b": 2}), Axiom.BM)
    assert not report.passed
    assert (report.witness.vi, report.witness.vj) == ("b", "a")


def test_bm_fails_without_accuser_witness():
    g = negative_graph([("c", "b")], extra_nodes=["a"])
    # First violation in lex order is (c, a): c strictly below a, neither
    # accused set dominates (both empty), and c has no accusers to witness.
    report = check(g, Ranking({"a": 1, "c": 2, "b": 2}), Axiom.BM)
    assert not report.passed
    assert (report.witness.vi, report.witness.vj) == ("c", "a")


def test_mc_pair_accepts_good_side_witness():
    g = combined_graph(
        [("s1", "u"), ("s2", "u"), ("t1", "v"), ("t2", "v")], []
    )
    # Supporter profiles [1,3] vs [2,2] are incomparable, so u is not
    # socially stronger than v; s1 strictly above t1 is the witness.
    r = Ranking({"u": 1, "s1": 1, "v": 2, "t1": 2, "t2": 2, "s2": 3})
    assert pair_violates(g, r, Axiom.MC, "u", "v") is None
    # Dropping s1 to the t-level removes the witness.
    r_no_witness = Ranking(
        {"u": 1, "s1": 2, "v": 2, "t1": 2, "t2": 2, "s2": 3}
    )
    assert pair_violates(g, r_no_witness, Axiom.MC, "u", "v") is not None


def test_mc_pair_accepts_bad_side_witness():
    g = combined_graph([("t", "v")], [("p", "u"), ("q", "v")])
    # u above v and not socially stronger (v alone has a supporter). The
    # supporter side offers no witness, but u's accuser p sitting strictly
    # below v's accuser q does.
    r = Ranking({"u": 1, "v": 2, "t": 2, "q": 2, "p": 3})
    assert pair_violates(g, r, Axiom.MC, "u", "v") is None
    # With the accusers level, the bad-side witness disappears too.
    r_no_witness = Ranking({"u": 1, "v": 2, "t": 2, "q": 2, "p": 2})
    assert pair_violates(g, r_no_witness, Axiom.MC, "u", "v") is not None


def test_mc_fails_with_no_witness():
    g = combined_graph([("t", "u"), ("s", "v")], [])
    # u above v: their supporters are tied, so u is not socially stronger,
    # no supporter of u strictly outranks one of v, and no accusers exist.
    report = check(g, Ranking({"u": 1, "v": 2, "t": 2, "s": 2}), Axiom.MC)
    assert not report.passed
    assert (report.witness.vi, report.witness.vj) == ("u", "v")


# ---------------------------------------------------------------------------
# dispatch, errors, reports


def test_check_all_dispatches_by_mode():
    pos = positive_graph([("a", "b")])
    neg = negative_graph([("a", "b")])
    comb = combined_graph([("a", "b")], [])
    flat2 = Ranking({"a": 1, "b": 1})
    assert [rep.axiom for rep in check_all(pos, flat2)] == [
        Axiom.T,
        Axiom.M,
        Axiom.VWM,
    ]
    assert [rep.axiom for rep in check_all(neg, flat2)] == [Axiom.BT, Axiom.BM]
    assert [rep.axiom for rep in check_all(comb, flat2)] == [Axiom.TC, Axiom.MC]


def test_axiom_mode_mismatch():
    g = positive_graph([("a", "b")])
    with pytest.raises(ModeError):
        check(g, Ranking({"a": 1, "b": 2}), Axiom.BT)
    with pytest.raises(ModeError):
        pair_violates(g, Ranking({"a": 1, "b": 2}), Axiom.BT, "a", "b")


@pytest.mark.parametrize(
    "ranks, vi, vj, missing",
    [
        ({"a": 1, "b": 2}, "zz", "a", "zz"),  # first node not in the graph
        ({"a": 1, "b": 2}, "a", "zz", "zz"),  # second node not in the graph
        ({"zz": 1}, "zz", "b", "zz"),  # in the ranking only
        ({"a": 1}, "a", "b", "b"),  # in the graph, not in the ranking
        ({"b": 1}, "a", "b", "a"),  # in the graph, not in the ranking
    ],
)
def test_pair_violates_unknown_node(ranks, vi, vj, missing):
    g = positive_graph([("a", "b")])
    with pytest.raises(UnknownNodeError, match=re.escape(f"unknown node: {missing!r}")):
        pair_violates(g, Ranking(ranks), Axiom.T, vi, vj)


def test_pair_violates_reads_only_the_pair_and_its_backers():
    # 'c' is in the graph but not in the ranking; the pair (b, a) never needs it.
    g = positive_graph([("a", "b")], extra_nodes=("c",))
    reason = pair_violates(g, Ranking({"a": 1, "b": 1}), Axiom.T, "b", "a")
    assert reason == "supporters dominate but the node is not ranked strictly higher"


def test_node_set_mismatch():
    g = positive_graph([("a", "b")])
    with pytest.raises(NodeSetMismatchError):
        check(g, Ranking({"a": 1}), Axiom.T)
    with pytest.raises(NodeSetMismatchError):
        check(g, Ranking({"a": 1, "b": 2, "c": 3}), Axiom.T)


def test_report_rendering():
    g = positive_graph([("a", "b"), ("b", "c")])
    passed = check(g, Ranking({"c": 1, "b": 2, "a": 3}), Axiom.T)
    assert passed.render_text() == "T pass"
    failed = check(g, Ranking({"a": 1, "b": 2, "c": 3}), Axiom.T)
    assert failed.render_text().startswith("T fail [witness: (b,a)")


# ---------------------------------------------------------------------------
# cross-axiom properties


@PROPERTY_SETTINGS
@given(graph_with_ranking())
def test_witnesses_are_sound(case):
    graph, ranking = case
    for report in check_all(graph, ranking):
        if report.passed:
            assert report.witness is None
        else:
            w = report.witness
            assert pair_violates(graph, ranking, report.axiom, w.vi, w.vj)


@PROPERTY_SETTINGS
@given(graph_with_ranking(mode=Mode.POSITIVE_ONLY))
def test_t_implies_no_mutual_dominance(case):
    graph, ranking = case
    if not check(graph, ranking, Axiom.T).passed:
        return
    for u, v in itertools.permutations(graph.nodes, 2):
        assert not (
            more_important(ranking, graph.support_set(u), graph.support_set(v))
            and more_important(ranking, graph.support_set(v), graph.support_set(u))
        )


def test_m_implies_vwm_exhaustively_on_three_nodes():
    nodes = ("a", "b", "c")
    preorders = list(enumerate_preorders(nodes))
    for pairs in all_edge_subsets(nodes):
        g = positive_graph(pairs, extra_nodes=nodes)
        for r in preorders:
            if check(g, r, Axiom.M).passed:
                assert check(g, r, Axiom.VWM).passed


@PROPERTY_SETTINGS
@given(graph_with_ranking(mode=Mode.POSITIVE_ONLY))
def test_m_implies_vwm_on_random_instances(case):
    graph, ranking = case
    if check(graph, ranking, Axiom.M).passed:
        assert check(graph, ranking, Axiom.VWM).passed


@PROPERTY_SETTINGS
@given(graph_with_ranking(mode=Mode.POSITIVE_ONLY))
def test_t_separates_supported_from_unsupported(case):
    graph, ranking = case
    if not check(graph, ranking, Axiom.T).passed:
        return
    for u, v in itertools.permutations(graph.nodes, 2):
        if graph.support_set(u) and not graph.support_set(v):
            assert ranking.rank_of(u) < ranking.rank_of(v)
