"""Rankings: validation, refinement, enumeration, parsing."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
import reprank.rankings
from conftest import ROUND_TRIPS, node_names, preorder_count, rankings
from reference import is_refinement
from reprank import (
    EnumerationCapError,
    Feedback,
    Mode,
    NodeSetMismatchError,
    ParseError,
    Ranking,
    ReputationGraph,
    UnknownNodeError,
    enumerate_preorders,
    normalize,
    parse_graph,
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
    # A string is iterable, but its characters are not the level meant.
    (
        "string level",
        ["alice", "dog"],
        "a level must be a collection of names, not the string 'alice'",
    ),
    ("level not a collection", [1], "a level must be a collection of names, not 1"),
    # Tuples and lists skip the per-level check only when every level is one.
    (
        "tuple level, then string level",
        [("a",), "bc"],
        "a level must be a collection of names, not the string 'bc'",
    ),
    ("list level, then int level", [["a"], 1], "a level must be a collection of names, not 1"),
    ("levels not a collection", None, "levels must be a collection of levels, not None"),
]


@pytest.mark.parametrize(
    "_, levels, message", FROM_LEVELS_ERRORS, ids=[row[0] for row in FROM_LEVELS_ERRORS]
)
def test_from_levels_error_table(_, levels, message):
    with pytest.raises(ValueError) as info:
        Ranking.from_levels(levels)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize(
    "levels",
    [
        [("b", "a"), ["c"], {"d"}, (n for n in ["e", "f"])],
        (("b", "a"), ("c",), ("d",), ("e", "f")),
        [["b", "a"], ["c"], ["d"], ["e", "f"]],
    ],
    ids=["tuple, list, set and generator", "tuple of tuples", "lists"],
)
def test_from_levels_takes_any_mix_of_collections(levels):
    as_lists = [["b", "a"], ["c"], ["d"], ["e", "f"]]
    assert Ranking.from_levels(levels) == Ranking.from_levels(as_lists)


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


def test_a_ranking_never_equals_another_type():
    r = Ranking({"a": 1})
    assert r.__eq__("a 1") is NotImplemented
    assert (r == "a 1") is False


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_ranking_survives_copy_and_pickle(round_trip):
    r = Ranking({"c": 2, "a": 1, "b": 2})
    again = round_trip(r)
    assert again == r and hash(again) == hash(r)
    assert list(again.as_dict().items()) == list(r.as_dict().items())
    with pytest.raises(AttributeError, match="immutable"):
        again.extra = 1


def test_rank_of_unknown_node():
    for node in ("b", ["a"]):  # an unhashable one too, not a TypeError
        with pytest.raises(UnknownNodeError, match=re.escape(f"unknown node: {node!r}")):
            Ranking({"a": 1}).rank_of(node)


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


@pytest.mark.parametrize(
    "raw, node",
    [
        ({"a": None}, "a"),
        ({"a": "x", "b": 1}, "a"),
        ({"a": 1, "b": 2.0}, "b"),
        ({"a": 1, "b": 2.5}, "b"),
        ({"a": 1, "b": True}, "b"),
        ({"a": False}, "a"),
        ({"a": 1, "b": [1]}, "b"),
    ],
)
def test_normalize_refuses_a_score_that_is_not_an_integer(raw, node):
    # "Integer scores": a bool or a float is not one, and nothing is sorted first.
    with pytest.raises(ValueError) as info:
        normalize(raw)
    assert type(info.value) is ValueError
    assert str(info.value) == f"score of {node!r} must be an integer"


@pytest.mark.parametrize(
    "raw, message",
    [
        ({}, "a ranking needs at least one node"),
        ({"a b": None}, "invalid node name 'a b'"),
        ({1: "x"}, "invalid node name 1"),
        ({"a": "x", "b#": 1}, "invalid node name 'b#'"),
    ],
)
def test_normalize_checks_the_names_before_the_scores(raw, message):
    # Ranking's rule order: the shape, then the names, then the values.
    with pytest.raises(ValueError) as info:
        normalize(raw)
    assert type(info.value) is ValueError
    assert str(info.value) == message


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
    first = [r.as_dict() for r in enumerate_preorders(["c", "a", "b"])]
    second = [r.as_dict() for r in enumerate_preorders(["a", "b", "c"])]
    assert first == second
    assert first[0] == {"a": 1, "b": 2, "c": 3}


def test_enumeration_cap():
    nine = [f"n{i}" for i in range(9)]
    with pytest.raises(EnumerationCapError):
        next(enumerate_preorders(nine))
    assert sum(1 for _ in enumerate_preorders(["a", "b"], cap=2)) == 3
    with pytest.raises(EnumerationCapError):
        next(enumerate_preorders(["a", "b", "c"], cap=2))


def test_enumeration_refuses_at_the_call_before_any_next():
    # A caller that builds something for the stream learns of the fault first.
    with pytest.raises(EnumerationCapError):
        enumerate_preorders([f"n{i}" for i in range(9)])
    for nodes, cap in ((["a", "a"], 8), ([], 8), (["bad name"], 8), (["a"], 0)):
        with pytest.raises(ValueError):
            enumerate_preorders(nodes, cap=cap)


@pytest.mark.parametrize("cap", [0, -5, "3", 2.5, True])
def test_enumeration_refuses_a_cap_below_one_before_any_other_check(cap):
    # A cap that is not an int (a bool is not one) is refused as a cap below 1 is.
    # A string, empty or invalid node set would be refused too; the cap is named first.
    for nodes in ("a", [], ["bad name"]):
        with pytest.raises(ValueError) as info:
            next(enumerate_preorders(nodes, cap=cap))
        assert type(info.value) is ValueError
        assert str(info.value) == f"cap must be a positive integer, got {cap!r}"


def test_enumeration_rejects_empty_node_set():
    with pytest.raises(ValueError):
        next(enumerate_preorders([]))


@pytest.mark.parametrize("nodes", [["a", "a"], ["b", "a", "b"], ("c", "a", "b", "a")])
def test_enumeration_refuses_duplicate_names(nodes):
    # As the graph constructor and from_levels do, rather than dropping them;
    # duplicates are named before the cap is compared.
    for cap in (8, 2):
        with pytest.raises(ValueError) as info:
            next(enumerate_preorders(nodes, cap=cap))
        assert type(info.value) is ValueError
        assert str(info.value) == "duplicate node names"


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
    # Each preorder is built from its prefix's ranks: the same ranks, inserted in
    # the same order as from_levels inserts them, and no dict shared between two.
    for r, built in zip(enumerated, map(Ranking.from_levels, expected)):
        assert list(r._ranks.items()) == list(built._ranks.items())
        assert r.levels == built.levels
        assert r == built and hash(r) == hash(built)
    assert len({id(r._ranks) for r in enumerated}) == len(enumerated)


def test_enumeration_refuses_an_invalid_name_at_the_first_preorder():
    with pytest.raises(ValueError, match="invalid node name 'a#b'"):
        next(enumerate_preorders(["a#b", "c"]))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_enumeration_checks_each_name_once(monkeypatch, n):
    calls: list[list[str]] = []
    real = reprank.rankings._check_names

    def counting(names: list) -> None:
        calls.append(list(names))
        real(names)

    monkeypatch.setattr(reprank.rankings, "_check_names", counting)
    nodes = [f"n{i}" for i in range(n)]
    assert sum(1 for _ in enumerate_preorders(nodes)) == preorder_count(n)
    assert calls == [nodes]


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


# Ranking lines over a small name pool, so names repeat, with comments and
# blank lines, and faults: each fault line with the message it gets when its
# name is not already ranked (None: the token count or the name is the fault).
GOOD_LINES = [f"{name} {rank}" for name in "abc" for rank in ("1", "2", "3", "01")]
FAULT_LINES = {
    "a": (None, "expected 'NAME RANK'"),
    "a 1 2": (None, "expected 'NAME RANK'"),
    "a\x00 1": (None, "invalid node name 'a\\x00'"),
    "b 0": ("b", "rank must be positive, got 0"),
    "b +1": ("b", "rank '+1' must be written with ASCII digits 0-9"),
    "c \u0661": ("c", "rank '\u0661' must be written with ASCII digits 0-9"),
}
RANKING_LINES = st.sampled_from(
    [*GOOD_LINES, "# a comment", "", "  ", "c 2 # why", *FAULT_LINES]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(RANKING_LINES, max_size=8))
def test_parse_ranking_names_the_first_fault(lines):
    # Fault-free text passes each rule as one test over all its lines, and text
    # with a fault is walked to name it: the first faulty line, by line number,
    # with a repeated name reported before the line's own rank fault.
    ranks, fault = {}, None
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split("#")[0].split()
        name, message = FAULT_LINES.get(line, (tokens[0] if tokens else None, None))
        if name in ranks:
            fault = f"line {line_no}: node {name!r} ranked twice"
            break
        if message is not None:
            fault = f"line {line_no}: {message}"
            break
        if tokens:
            ranks[name] = int(tokens[1])
    if fault is None and not ranks:
        fault = "ranking text contains no entries"
    elif fault is None and set(ranks.values()) != set(range(1, len(set(ranks.values())) + 1)):
        fault = "ranks must be dense: exactly the values 1..k"
    if fault is None:
        assert parse_ranking("\n".join(lines)).as_dict() == ranks
    else:
        with pytest.raises(ParseError) as info:
            parse_ranking("\n".join(lines))
        assert str(info.value) == fault


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


def _follows_the_name_rule(name) -> bool:
    """The name rule written out as the oracle: one printable whitespace-free
    token without '#'."""
    return (
        isinstance(name, str)
        and name.split() == [name]
        and name.isprintable()
        and "#" not in name
    )


def _two_levels(names: list) -> list[list]:
    half = len(names) // 2
    return [part for part in (names[:half], names[half:]) if part]


def _graph_text(line: str, names: list) -> str:
    return "mode positive\n" + "".join(line.format(name) for name in names)


# Each builder and parser, given distinct names other than "0", and the line
# of the first name in its text (None for the library builders). The edges
# run into "0", so that their names are checked by the edge check.
NAME_CHECKERS = {
    "Ranking": (lambda names: Ranking(dict.fromkeys(names, 1)), None),
    "from_levels": (lambda names: Ranking.from_levels(_two_levels(names)), None),
    "ReputationGraph nodes": (
        lambda names: ReputationGraph(names, [], Mode.POSITIVE_ONLY),
        None,
    ),
    "ReputationGraph edges": (
        lambda names: ReputationGraph(
            [*filter(_follows_the_name_rule, names), "0"],
            [(name, "0", Feedback.POSITIVE) for name in names],
            Mode.POSITIVE_ONLY,
        ),
        None,
    ),
    "enumerate_preorders": (lambda names: next(enumerate_preorders(names)), None),
    "parse_graph node lines": (lambda names: parse_graph(_graph_text("node {}\n", names)), 2),
    "parse_graph edge lines": (lambda names: parse_graph(_graph_text("{} + 0\n", names)), 2),
    "parse_ranking": (lambda names: parse_ranking("".join(f"{n} 1\n" for n in names)), 1),
}

# Library builders take any value; a text format carries a name as one token
# that no comment or line end cuts short, so only the printable test is left.
_library_names = st.one_of(
    st.text(st.sampled_from("ab#"), max_size=3),
    st.text(st.sampled_from("ab \x00\t"), max_size=3),
    st.text(max_size=3),
    st.integers(),
)
_token_names = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="#"), min_size=1, max_size=3
).filter(lambda name: name.split() == [name])


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(NAME_CHECKERS)), st.data())
def test_from_levels_names_the_first_bad_name(builder, data):
    # One function checks all names in one pass over their joined text; every
    # builder and parser must refuse exactly what the rule refuses, naming the
    # first such name.
    build, first_line = NAME_CHECKERS[builder]
    pool = _library_names if first_line is None else _token_names
    names = [n for n in data.draw(st.lists(pool, min_size=1, max_size=6, unique=True)) if n != "0"]
    assume(names)
    bad = [name for name in names if not _follows_the_name_rule(name)]
    if not bad:
        build(names)
        return
    with pytest.raises(ValueError if first_line is None else ParseError) as info:
        build(names)
    message = f"invalid node name {bad[0]!r}"
    if first_line is not None:
        message = f"line {first_line + names.index(bad[0])}: {message}"
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: Ranking({1: 1}),
        lambda: Ranking.from_levels([[1]]),
        lambda: ReputationGraph([1], [], Mode.POSITIVE_ONLY),
        lambda: next(enumerate_preorders([1, 2])),
    ],
    ids=["Ranking", "from_levels", "ReputationGraph", "enumerate_preorders"],
)
def test_a_name_that_is_not_a_str_is_a_value_error(build):
    with pytest.raises(ValueError, match=r"^invalid node name 1$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: next(enumerate_preorders([1, "a"])), "invalid node name 1"),
        (lambda: Ranking.from_levels([["a"], [["b"]]]), "invalid node name ['b']"),
        (lambda: ReputationGraph([["a"]], [], Mode.POSITIVE_ONLY), "invalid node name ['a']"),
    ],
    ids=["enumerate_preorders", "from_levels", "ReputationGraph"],
)
def test_a_name_is_checked_before_it_is_sorted_or_hashed(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError
    assert str(info.value) == message


# Each builder of a graph or ranking, with the start of its refusal of a
# malformed shape, and how it shows the string "ab" in that refusal.
SHAPE_BUILDERS = [
    (
        lambda value: ReputationGraph(value, [], Mode.POSITIVE_ONLY),
        "nodes must be a collection of names",
        "the string 'ab'",
    ),
    (
        lambda value: ReputationGraph(["a"], value, Mode.POSITIVE_ONLY),
        "edges must be a collection of edges",
        "the string 'ab'",
    ),
    (
        lambda value: ReputationGraph(["a"], [value], Mode.POSITIVE_ONLY),
        "an edge must be a (source, target, kind) triple",
        "'ab'",
    ),
    (Ranking, "ranks must be a mapping of names to ranks", "'ab'"),
    (normalize, "ranks must be a mapping of names to ranks", "'ab'"),
    (Ranking.from_levels, "levels must be a collection of levels", "the string 'ab'"),
    (
        lambda value: Ranking.from_levels([["a"], value]),
        "a level must be a collection of names",
        "the string 'ab'",
    ),
    (
        lambda value: next(enumerate_preorders(value)),
        "nodes must be a collection of names",
        "the string 'ab'",
    ),
]


@pytest.mark.parametrize(
    "make",
    [lambda: None, lambda: 1, lambda: "ab", lambda: (1 + "a" for _ in [0])],
    ids=["None", "int", "str", "generator raising TypeError"],
)
@pytest.mark.parametrize(
    "build, what, string_shown",
    SHAPE_BUILDERS,
    ids=[
        "graph nodes",
        "graph edges",
        "graph edge",
        "Ranking",
        "normalize",
        "from_levels levels",
        "from_levels level",
        "enumerate_preorders",
    ],
)
def test_every_builder_refuses_a_malformed_shape_with_a_value_error(
    build, what, string_shown, make
):
    # Not a TypeError, AttributeError or StopIteration; a generator is shown by
    # its repr, address included.
    value = make()
    shown = string_shown if isinstance(value, str) else repr(value)
    with pytest.raises(ValueError) as info:
        build(value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{what}, not {shown}"


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
