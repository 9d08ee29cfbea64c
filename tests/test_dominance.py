"""Dominance relations, verified against an explicit injection search."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reprank.dominance
from conftest import (
    NEG,
    POS,
    combined_graph,
    injection_exists,
    random_graph,
    rank_profile,
    rankings,
)
from reference import is_refinement
from reprank import (
    Mode,
    Ranking,
    UnknownNodeError,
    at_least_as_strong,
    enumerate_preorders,
    equally_strong,
    more_important,
    normalize,
    socially_stronger,
)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)


@st.composite
def ranking_and_two_groups(draw):
    r = draw(rankings(max_nodes=6))
    nodes = list(r.nodes)
    a = frozenset(draw(st.sets(st.sampled_from(nodes), max_size=4)))
    b = frozenset(draw(st.sets(st.sampled_from(nodes), max_size=4)))
    return r, a, b


# ---------------------------------------------------------------------------
# basic examples


def test_empty_sets_are_at_least_as_strong():
    r = Ranking({"x": 1})
    assert at_least_as_strong(r, frozenset(), frozenset())
    assert at_least_as_strong(r, {"x"}, frozenset())
    assert not at_least_as_strong(r, frozenset(), {"x"})


def test_lower_singleton_does_not_dominate():
    r = Ranking({"p": 1, "q": 2})
    assert not at_least_as_strong(r, {"q"}, {"p"})
    assert at_least_as_strong(r, {"p"}, {"q"})
    # ranks {1,3} vs {2,2}: each side wins one position, so no injection
    # works in either direction.
    r2 = Ranking({"a": 1, "b": 3, "c": 2, "d": 2})
    assert not at_least_as_strong(r2, {"a", "b"}, {"c", "d"})
    assert not at_least_as_strong(r2, {"c", "d"}, {"a", "b"})


def test_more_important_examples():
    r = Ranking({"a": 1, "b": 2, "c": 2})
    assert more_important(r, {"a"}, frozenset())
    assert not more_important(r, frozenset(), frozenset())
    assert more_important(r, {"a"}, {"b"})
    assert not more_important(r, {"b"}, {"c"})


def test_equally_strong_examples():
    r = Ranking({"a": 1, "b": 1, "c": 2})
    assert equally_strong(r, {"a"}, {"a"})
    assert equally_strong(r, {"a"}, {"b"})
    assert not equally_strong(r, {"a"}, {"a", "b"})
    assert not equally_strong(r, {"a"}, {"c"})


def test_unknown_member_raises():
    r = Ranking({"a": 1})
    with pytest.raises(UnknownNodeError):
        at_least_as_strong(r, {"zz"}, set())
    # An unhashable member is not a name either, as rank_of says.
    r = Ranking({"a": 1, "b": 2})
    for relation in (at_least_as_strong, equally_strong, more_important):
        with pytest.raises(UnknownNodeError) as info:
            relation(r, [["a"]], ["b"])
        assert str(info.value) == "unknown node: ['a']"
        with pytest.raises(UnknownNodeError) as info:
            relation(r, {"a"}, {"b", "zz"})
        assert str(info.value) == "unknown node: 'zz'"


# ---------------------------------------------------------------------------
# socially stronger


def test_socially_stronger_all_empty_is_false():
    g = combined_graph([], [], extra_nodes=["u", "v"])
    r = Ranking({"u": 1, "v": 1})
    assert not socially_stronger(r, g, "u", "v")


def test_socially_stronger_good_side_strict():
    g = combined_graph([("x", "u")], [], extra_nodes=["v"])
    r = Ranking({"u": 1, "v": 1, "x": 1})
    assert socially_stronger(r, g, "u", "v")
    assert not socially_stronger(r, g, "v", "u")


def test_socially_stronger_bad_side_blocks():
    g = combined_graph([], [("x", "u")], extra_nodes=["v"])
    r = Ranking({"u": 1, "v": 1, "x": 1})
    assert not socially_stronger(r, g, "u", "v")
    assert socially_stronger(r, g, "v", "u")


# ---------------------------------------------------------------------------
# greedy criterion versus explicit injection search


@PROPERTY_SETTINGS
@given(ranking_and_two_groups())
def test_greedy_matches_injection_search(case):
    r, a, b = case
    expected = injection_exists(rank_profile(r, a), rank_profile(r, b))
    assert at_least_as_strong(r, a, b) == expected


@PROPERTY_SETTINGS
@given(ranking_and_two_groups())
def test_more_important_is_dominance_without_equality(case):
    r, a, b = case
    assert more_important(r, a, b) == (
        at_least_as_strong(r, a, b) and not equally_strong(r, a, b)
    )


# ---------------------------------------------------------------------------
# relational properties


@PROPERTY_SETTINGS
@given(ranking_and_two_groups())
def test_more_important_irreflexive_and_asymmetric(case):
    r, a, b = case
    assert not more_important(r, a, a)
    if more_important(r, a, b):
        assert not more_important(r, b, a)


def test_more_important_transitive_exhaustively():
    nodes = ("a", "b", "c", "d")
    groups = [
        frozenset(c)
        for size in range(3)
        for c in itertools.combinations(nodes, size)
    ]
    for r in enumerate_preorders(nodes):
        for x, y, z in itertools.product(groups, repeat=3):
            if more_important(r, x, y) and more_important(r, y, z):
                assert more_important(r, x, z)


def test_socially_stronger_is_a_strict_partial_order():
    # The engine's walk finds an eligible agent whenever any levelmate beats
    # another only if, under a fixed ranking, the relation has no cycle.
    rng = random.Random(20120102)
    chains = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(3, 7), 0.4, Mode.COMBINED)
        r = _random_ranking(rng, g.nodes)
        beats = {
            (u, v): socially_stronger(r, g, u, v) for u in g.nodes for v in g.nodes
        }
        for u in g.nodes:
            assert not beats[u, u]
        for u, v in itertools.permutations(g.nodes, 2):
            assert not (beats[u, v] and beats[v, u])
        for u, v, w in itertools.permutations(g.nodes, 3):
            if beats[u, v] and beats[v, w]:
                assert beats[u, w]
                chains += 1
    assert chains > 0  # transitivity was tested, not only vacuously true


@PROPERTY_SETTINGS
@given(ranking_and_two_groups())
def test_equally_strong_is_equivalence(case):
    r, a, b = case
    assert equally_strong(r, a, a)
    assert equally_strong(r, a, b) == equally_strong(r, b, a)


def test_equally_strong_transitive_exhaustively():
    nodes = ("a", "b", "c")
    groups = [
        frozenset(c)
        for size in range(3)
        for c in itertools.combinations(nodes, size)
    ]
    for r in enumerate_preorders(nodes):
        for x, y, z in itertools.product(groups, repeat=3):
            if equally_strong(r, x, y) and equally_strong(r, y, z):
                assert equally_strong(r, x, z)


def test_refinement_never_reverses_dominance():
    # Once a set is strictly stronger, no refinement of the ranking can make
    # the weaker set strictly stronger.
    nodes = ("a", "b", "c", "d")
    groups = [
        frozenset(c)
        for size in range(3)
        for c in itertools.combinations(nodes, size)
    ]
    coarse = list(enumerate_preorders(nodes))
    for r in coarse:
        finer = [f for f in coarse if is_refinement(f, r)]
        for a, b in itertools.product(groups, repeat=2):
            if not more_important(r, a, b):
                continue
            for f in finer:
                assert not more_important(f, b, a)


# ---------------------------------------------------------------------------
# memoised rank profiles versus sorting from scratch


def _reference_relations(ranking, a, b):
    pa, pb = rank_profile(ranking, a), rank_profile(ranking, b)
    covers = len(pa) >= len(pb) and all(x <= y for x, y in zip(pa, pb))
    return covers, pa == pb, covers and pa != pb


def _relations(ranking, a, b):
    return (
        at_least_as_strong(ranking, a, b),
        equally_strong(ranking, a, b),
        more_important(ranking, a, b),
    )


def _random_ranking(rng, nodes):
    return normalize({node: rng.randint(1, len(nodes)) for node in nodes})


def test_memoised_profiles_match_sorting_from_scratch():
    rng = random.Random(20120101)
    nodes = tuple("abcdefg")
    for _ in range(60):
        groups = [
            frozenset(rng.sample(nodes, rng.randint(0, 4))) for _ in range(8)
        ]
        # Two rankings over the same frozensets, interleaved, so the memo
        # switches back and forth between them.
        first = _random_ranking(rng, nodes)
        second = _random_ranking(rng, nodes)
        for _ in range(40):
            r = rng.choice((first, second))
            a, b = rng.choice(groups), rng.choice(groups)
            expected = _reference_relations(r, a, b)
            assert _relations(r, a, b) == expected
            # A plain set takes the unmemoised path and must agree.
            assert _relations(r, set(a), set(b)) == expected
            assert _relations(r, a, set(b)) == expected


def test_memoised_socially_stronger_matches_reference():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, 6, 0.35, Mode.COMBINED)
        rankings_pair = (
            _random_ranking(rng, g.nodes),
            _random_ranking(rng, g.nodes),
        )
        for _ in range(40):
            r = rng.choice(rankings_pair)
            u, v = rng.sample(g.nodes, 2)
            good_u, good_v = (g.support_set(n, POS) for n in (u, v))
            bad_u, bad_v = (g.support_set(n, NEG) for n in (u, v))
            _, good_eq, good_strict = _reference_relations(r, good_u, good_v)
            _, bad_eq, bad_strict = _reference_relations(r, bad_v, bad_u)
            expected = (
                (good_strict or good_eq)
                and (bad_strict or bad_eq)
                and (good_strict or bad_strict)
            )
            assert socially_stronger(r, g, u, v) == expected


def test_unknown_member_of_frozenset_raises_on_every_call():
    r = Ranking({"a": 1, "b": 2})
    group = frozenset({"a", "zz"})
    for _ in range(3):
        with pytest.raises(UnknownNodeError):
            more_important(r, group, frozenset({"b"}))
        with pytest.raises(UnknownNodeError):
            equally_strong(r, frozenset({"b"}), group)
    # A valid group under the same ranking is unaffected.
    assert more_important(r, frozenset({"a"}), frozenset({"b"}))


# ---------------------------------------------------------------------------
# how often the memo sorts: a counting ``sorted`` in the dominance module


@pytest.fixture
def sorts(monkeypatch):
    """Every profile the dominance module sorts, in call order; None marks a
    sort that raised."""
    made = []

    def counting_sorted(iterable):
        made.append(None)
        made[-1] = profile = sorted(iterable)
        return profile

    monkeypatch.setattr(reprank.dominance, "sorted", counting_sorted, raising=False)
    return made


RELATIONS = (at_least_as_strong, equally_strong, more_important)


def test_repeated_calls_sort_each_frozenset_once(sorts):
    r = Ranking({"a": 1, "b": 2, "c": 2, "d": 3})
    groups = (frozenset("ab"), frozenset("cd"), frozenset(), frozenset("ab"))
    for _ in range(3):
        for relation in RELATIONS:
            for a, b in itertools.product(groups, repeat=2):
                relation(r, a, b)
    # Equal frozensets share one entry, whichever object is passed.
    assert sorted(map(tuple, sorts)) == [(), (1, 2), (2, 3)]


def test_a_new_equal_ranking_sorts_again(sorts):
    first = Ranking({"a": 1, "b": 2, "c": 2})
    groups = (frozenset("ab"), frozenset("c"))
    more_important(first, *groups)
    more_important(first, *groups)
    assert len(sorts) == 2
    second = Ranking(first.as_dict())
    assert second == first and second is not first
    more_important(second, *groups)
    assert len(sorts) == 4
    # Going back to the first object drops the second one's memo too.
    more_important(first, *groups)
    assert len(sorts) == 6


def test_a_plain_set_sorts_on_every_call(sorts):
    r = Ranking({"a": 1, "b": 2})
    for relation in RELATIONS:
        relation(r, {"a"}, frozenset("b"))
    assert len(sorts) == 3 + 1


def test_socially_stronger_sorts_each_side_once(sorts):
    # All four groups tie at rank 1, so neither more_important call is strict
    # and the accusers' equally_strong call passes; the supporters' equality
    # is never asked for: three public calls over four groups.
    g = combined_graph([("p", "u"), ("q", "v")], [("s", "u"), ("t", "v")])
    r = Ranking({v: 1 for v in g.nodes})
    assert not socially_stronger(r, g, "u", "v")
    assert len(sorts) == 4


def test_socially_stronger_stops_when_the_accusers_fail(sorts):
    # u has an accuser and v has none, so v's accusers cannot cover u's:
    # the supporter sets are never sorted.
    g = combined_graph([("p", "u"), ("q", "v")], [("s", "u")])
    r = Ranking({v: 1 for v in g.nodes})
    assert not socially_stronger(r, g, "u", "v")
    assert sorted(map(tuple, sorts)) == [(), (1,)]


def test_socially_stronger_sorts_at_most_four_times(sorts):
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, 7, 0.4, Mode.COMBINED)
        r = _random_ranking(rng, g.nodes)
        for u, v in itertools.permutations(g.nodes, 2):
            before = len(sorts)
            socially_stronger(Ranking(r.as_dict()), g, u, v)  # a fresh memo
            assert len(sorts) - before <= 4


def test_unknown_member_message_matches_rank_of(sorts):
    r = Ranking({"a": 1})
    with pytest.raises(UnknownNodeError) as expected:
        r.rank_of("zz")
    for group in (frozenset({"a", "zz"}), {"a", "zz"}):
        for relation in RELATIONS:
            for args in ((group, frozenset()), (frozenset("a"), group)):
                with pytest.raises(UnknownNodeError) as raised:
                    relation(r, *args)
                assert str(raised.value) == str(expected.value)
                assert raised.value.__suppress_context__
    # Every failing call tried to sort the group again, so nothing was stored
    # for the frozenset; frozenset("a") was sorted once, frozenset() never.
    assert sorts.count(None) == 12
    assert [p for p in sorts if p is not None] == [[1]]
