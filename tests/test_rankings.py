"""Rankings: validation, refinement, enumeration, parsing."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import reprank.rankings
from conftest import ROUND_TRIPS, node_names, preorder_count, rankings
from reference import is_refinement
from reprank import (
    EnumerationCapError,
    NodeSetMismatchError,
    ParseError,
    Ranking,
    UnknownNodeError,
    enumerate_preorders,
    normalize,
    parse_ranking,
)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# construction


def test_ranks_must_be_dense():
    with pytest.raises(ValueError, match="dense"):
        Ranking({"a": 1, "b": 3})


def test_ranks_must_be_positive_integers():
    with pytest.raises(ValueError):
        Ranking({"a": 0})
    with pytest.raises(ValueError):
        Ranking({"a": True})
    with pytest.raises(ValueError):
        Ranking({})


def test_levels_group_and_sort_nodes():
    r = Ranking({"c": 1, "a": 2, "b": 1})
    assert r.levels == (("b", "c"), ("a",))
    assert r.num_levels == 2
    assert r.nodes == ("a", "b", "c")


def test_from_levels_round_trips():
    r = Ranking.from_levels([["b", "c"], ["a"]])
    assert r == Ranking({"a": 2, "b": 1, "c": 1})
    with pytest.raises(ValueError):
        Ranking.from_levels([["a"], ["a"]])
    with pytest.raises(ValueError):
        Ranking.from_levels([["a"], []])


FROM_LEVELS_ERRORS = [
    ("no levels", [], "a ranking needs at least one node"),
    ("empty level", [["a"], []], "levels must be non-empty"),
    ("node in two levels", [["a", "b"], ["c", "a"]], "node 'a' appears in two levels"),
    ("invalid name", [["a"], ["b c"]], "invalid node name 'b c'"),
    # The level structure is checked before any name.
    ("invalid name, then empty level", [["b c"], []], "levels must be non-empty"),
]


@pytest.mark.parametrize(
    "_, levels, message", FROM_LEVELS_ERRORS, ids=[row[0] for row in FROM_LEVELS_ERRORS]
)
def test_from_levels_error_table(_, levels, message):
    with pytest.raises(ValueError) as info:
        Ranking.from_levels(levels)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@st.composite
def level_lists(draw) -> list[list[str]]:
    """Disjoint non-empty levels, in no particular order inside a level."""
    names = draw(st.lists(node_names, min_size=1, max_size=8, unique=True))
    n = len(names)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    return [names[lo:hi] for lo, hi in itertools.pairwise([0, *cuts, n])]


@PROPERTY_SETTINGS
@given(level_lists())
def test_from_levels_builds_what_the_constructor_builds(levels):
    built = Ranking.from_levels(levels)
    ranks = {node: rank for rank, level in enumerate(levels, start=1) for node in level}
    expected = Ranking(ranks)
    assert built == expected and hash(built) == hash(expected)
    assert built.levels == expected.levels == tuple(tuple(sorted(lvl)) for lvl in levels)
    assert built.num_levels == expected.num_levels == len(levels)
    assert repr(built) == repr(expected)
    assert built.serialize() == expected.serialize()
    assert list(built.as_dict().items()) == list(expected.as_dict().items())


def test_ranking_immutable_and_hashable():
    r = Ranking({"a": 1})
    with pytest.raises(AttributeError):
        r.extra = 1
    assert hash(r) == hash(Ranking({"a": 1}))


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_ranking_survives_copy_and_pickle(round_trip):
    r = Ranking({"c": 2, "a": 1, "b": 2})
    again = round_trip(r)
    assert again == r and hash(again) == hash(r)
    assert list(again.as_dict().items()) == list(r.as_dict().items())
    with pytest.raises(AttributeError, match="immutable"):
        again.extra = 1


def test_rank_of_unknown_node():
    with pytest.raises(UnknownNodeError):
        Ranking({"a": 1}).rank_of("b")


# ---------------------------------------------------------------------------
# normalize


def test_normalize_compresses_scores():
    assert normalize({"a": 10, "b": 10, "c": 40}) == Ranking(
        {"a": 1, "b": 1, "c": 2}
    )
    assert normalize({"a": 1}) == Ranking({"a": 1})
    assert normalize({"a": 3, "b": 1, "c": 2}) == Ranking({"a": 3, "b": 1, "c": 2})


def test_normalize_accepts_negative_scores():
    assert normalize({"a": -5, "b": 0}) == Ranking({"a": 1, "b": 2})


@PROPERTY_SETTINGS
@given(rankings())
def test_normalize_is_idempotent(r):
    assert normalize(r.as_dict()) == r


# ---------------------------------------------------------------------------
# refinement


def test_refinement_examples():
    earlier = Ranking({"a": 1, "b": 1})
    assert is_refinement(Ranking({"a": 1, "b": 2}), earlier)
    assert is_refinement(earlier, earlier)
    assert not is_refinement(
        Ranking({"a": 2, "b": 1}), Ranking({"a": 1, "b": 2})
    )


def test_refinement_rejects_merged_levels():
    strict = Ranking({"a": 1, "b": 2})
    merged = Ranking({"a": 1, "b": 1})
    assert not is_refinement(merged, strict)


def test_refinement_node_set_mismatch():
    with pytest.raises(NodeSetMismatchError):
        is_refinement(Ranking({"a": 1}), Ranking({"b": 1}))


@PROPERTY_SETTINGS
@given(rankings(max_nodes=5), rankings(max_nodes=5), rankings(max_nodes=5))
def test_refinement_reflexive_and_transitive(r1, r2, r3):
    assert is_refinement(r1, r1)
    trio = [r1, r2, r3]
    if len({tuple(sorted(r.nodes)) for r in trio}) != 1:
        return
    if is_refinement(r1, r2) and is_refinement(r2, r3):
        assert is_refinement(r1, r3)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_match_independent_recurrence():
    for n in range(1, 7):
        nodes = [f"n{i}" for i in range(n)]
        assert sum(1 for _ in enumerate_preorders(nodes)) == preorder_count(n)


def test_enumeration_has_no_duplicates_and_stays_dense():
    for n in range(1, 6):
        nodes = tuple("abcde"[:n])
        seen = list(enumerate_preorders(nodes))
        assert len(set(seen)) == len(seen)
        for r in seen:
            assert set(r.nodes) == set(nodes)
            used = set(r.as_dict().values())
            assert used == set(range(1, len(used) + 1))


def test_enumeration_order_is_deterministic():
    first = [r.as_dict() for r in enumerate_preorders("cab")]
    second = [r.as_dict() for r in enumerate_preorders(["a", "b", "c"])]
    assert first == second
    assert first[0] == {"a": 1, "b": 2, "c": 3}


def test_enumeration_cap():
    nine = [f"n{i}" for i in range(9)]
    with pytest.raises(EnumerationCapError):
        next(enumerate_preorders(nine))
    assert sum(1 for _ in enumerate_preorders("ab", cap=2)) == 3
    with pytest.raises(EnumerationCapError):
        next(enumerate_preorders("abc", cap=2))


def test_enumeration_rejects_empty_node_set():
    with pytest.raises(ValueError):
        next(enumerate_preorders([]))


def test_enumeration_partitions_by_first_block():
    # Splitting the stream by first block and recombining covers everything
    # exactly once, so sub-ranges can be processed independently.
    nodes = ("a", "b", "c", "d")
    whole = list(enumerate_preorders(nodes))
    by_block: dict[tuple[str, ...], list[Ranking]] = {}
    for r in whole:
        by_block.setdefault(r.levels[0], []).append(r)
    sizes = sorted(len(group) for group in by_block.values())
    assert sum(sizes) == len(whole) == 75
    expected_blocks = sum(
        1 for k in range(1, 5) for _ in itertools.combinations(nodes, k)
    )
    assert len(by_block) == expected_blocks


@pytest.mark.parametrize("n", range(8))
def test_enumeration_matches_the_recursive_reference(n):
    nodes = tuple(f"v{i}" for i in range(n))
    expected = list(reference.ordered_partitions(nodes))
    if n == 0:
        assert expected == [()]
        with pytest.raises(ValueError, match="empty node set"):
            next(enumerate_preorders(nodes))
        return
    enumerated = list(enumerate_preorders(reversed(nodes)))
    assert [r.levels for r in enumerated] == expected
    assert len(enumerated) == preorder_count(n)
    for r in enumerated:
        built = Ranking.from_levels(r.levels)
        assert list(r.as_dict().items()) == list(built.as_dict().items())
        assert r.levels == built.levels
        assert r == built and hash(r) == hash(built)


def test_enumeration_refuses_an_invalid_name_at_the_first_preorder():
    with pytest.raises(ValueError, match="invalid node name 'a#b'"):
        next(enumerate_preorders(["a#b", "c"]))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_enumeration_checks_each_name_once(monkeypatch, n):
    checked: list[str] = []
    real = reprank.rankings._check_name

    def counting(name: str) -> None:
        checked.append(name)
        real(name)

    monkeypatch.setattr(reprank.rankings, "_check_name", counting)
    nodes = [f"n{i}" for i in range(n)]
    assert sum(1 for _ in enumerate_preorders(nodes)) == preorder_count(n)
    assert checked == nodes


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_ranking_basic():
    r = parse_ranking("b 2\na 1\n# comment\n\nc 2\n")
    assert r == Ranking({"a": 1, "b": 2, "c": 2})


def test_parse_ranking_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_ranking("a one\n")
    with pytest.raises(ParseError, match="twice"):
        parse_ranking("a 1\na 1\n")
    with pytest.raises(ParseError, match="positive"):
        parse_ranking("a 0\n")
    with pytest.raises(ParseError, match="dense"):
        parse_ranking("a 1\nb 3\n")
    with pytest.raises(ParseError, match="no entries"):
        parse_ranking("# nothing\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_ranking("a 1\nb\n")


@pytest.mark.parametrize("rank_text", ["\u0661", "+1", "1_0", "-1", "1.0", "\uff11"])
def test_parse_ranking_accepts_ascii_digits_only(rank_text):
    # int() parses all of these but "1.0"; the format admits none of them.
    with pytest.raises(ParseError, match="line 2: rank .*ASCII digits"):
        parse_ranking(f"a 1\nb {rank_text}\n")


def test_parse_ranking_accepts_leading_zeros():
    assert parse_ranking("a 01\nb 002\n") == Ranking({"a": 1, "b": 2})


def test_serialize_is_lexicographic():
    r = Ranking({"b": 1, "a": 2, "c": 1})
    assert r.serialize() == "a 2\nb 1\nc 1\n"


@PROPERTY_SETTINGS
@given(rankings())
def test_ranking_round_trip(r):
    assert parse_ranking(r.serialize()) == r


@pytest.mark.parametrize("name", ["a#b", "#", "two words", "", "x\n", "tab\there", "\x00"])
def test_ranking_rejects_names_that_cannot_round_trip(name):
    with pytest.raises(ValueError, match="invalid node name"):
        Ranking({name: 1, "c": 2})
    with pytest.raises(ValueError, match="invalid node name"):
        Ranking.from_levels([[name], ["c"]])


def test_parse_ranking_rejects_unprintable_names_with_line_number():
    with pytest.raises(ParseError, match="line 2: invalid node name"):
        parse_ranking("a 1\nb\x00 2\n")


@PROPERTY_SETTINGS
@given(
    st.dictionaries(
        st.one_of(st.sampled_from(["node", "mode", "1", "a#", " "]), st.text(max_size=4)),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=5,
    )
)
def test_every_constructible_ranking_round_trips(raw):
    # Arbitrary text names: the constructor either refuses the ranking or
    # builds one whose serialization parses back to it.
    distinct = sorted(set(raw.values()))
    dense = {value: pos for pos, value in enumerate(distinct, start=1)}
    try:
        r = Ranking({name: dense[value] for name, value in raw.items()})
    except ValueError:
        return
    assert parse_ranking(r.serialize()) == r
