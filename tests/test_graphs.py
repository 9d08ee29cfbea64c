"""Graph model: construction, parsing, serialization, and queries."""

from __future__ import annotations

import copy
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reprank.graphs
from conftest import (
    NEG,
    POS,
    ROUND_TRIPS,
    graphs,
    negative_graph,
    node_names,
    positive_graph,
    random_graph,
)
from reprank import (
    Axiom,
    Feedback,
    Mode,
    ModeError,
    ParseError,
    ReputationGraph,
    UnknownNodeError,
    parse_graph,
)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# construction and validation


def test_nodes_are_sorted_and_edges_frozen():
    g = positive_graph([("b", "a"), ("c", "a")])
    assert g.nodes == ("a", "b", "c")
    assert ("b", "a", POS) in g.edges


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        ReputationGraph(["a"], [("a", "a", POS)], Mode.POSITIVE_ONLY)


def test_undeclared_endpoint_rejected():
    with pytest.raises(UnknownNodeError):
        ReputationGraph(["a"], [("a", "b", POS)], Mode.POSITIVE_ONLY)


def test_kind_must_match_mode():
    with pytest.raises(ModeError):
        ReputationGraph(["a", "b"], [("a", "b", NEG)], Mode.POSITIVE_ONLY)
    with pytest.raises(ModeError):
        ReputationGraph(["a", "b"], [("a", "b", POS)], Mode.NEGATIVE_ONLY)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: ReputationGraph(["a", "b"], [("a", "b", "+")], Mode.POSITIVE_ONLY),
            "unknown feedback kind '+'",
        ),
        (lambda: ReputationGraph(["a"], [], "positive"), "unknown mode 'positive'"),
        # Unhashable ones are named too, not a TypeError from a set lookup.
        (
            lambda: ReputationGraph(["a", "b"], [("a", "b", ["+"])], Mode.POSITIVE_ONLY),
            "unknown feedback kind ['+']",
        ),
        (lambda: ReputationGraph(["a"], [], ["positive"]), "unknown mode ['positive']"),
    ],
    ids=["kind", "mode", "unhashable kind", "unhashable mode"],
)
def test_constructor_names_a_kind_or_mode_that_is_not_one(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ReputationGraph(
            ["a", "b"], [("a", "b", POS), ("a", "b", POS)], Mode.POSITIVE_ONLY
        )


def test_combined_allows_both_kinds_on_same_pair():
    g = ReputationGraph(
        ["a", "b"], [("a", "b", POS), ("a", "b", NEG)], Mode.COMBINED
    )
    assert len(g.edges) == 2


def test_duplicate_node_names_rejected():
    with pytest.raises(ValueError, match="^duplicate node names$"):
        ReputationGraph(["a", "a"], [], Mode.POSITIVE_ONLY)


def test_a_string_of_nodes_is_not_split_into_characters():
    with pytest.raises(ValueError) as info:
        ReputationGraph("alice", [], Mode.POSITIVE_ONLY)
    assert type(info.value) is ValueError
    assert str(info.value) == "nodes must be a collection of names, not the string 'alice'"


def test_invalid_node_names_rejected():
    for bad in ("", "two words", "tab\tname", "a#b", "#"):
        with pytest.raises(ValueError):
            ReputationGraph([bad], [], Mode.POSITIVE_ONLY)


# Every character str.split() breaks at, over all code points of this Python.
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


def test_only_the_space_is_whitespace_and_printable():
    # The premise of _check_names: joined text that is printable holds no
    # whitespace but the spaces that join it, so counting them is enough.
    assert [c for c in WHITESPACE if c.isprintable()] == [" "]


@pytest.mark.parametrize(
    "char", [*WHITESPACE, "#", "\x00", "\x7f"], ids=lambda c: f"U+{ord(c):04X}"
)
def test_name_check_refuses_what_the_slow_rule_refuses(char):
    name = "a" + char + "b"
    valid = name.split() == [name] and name.isprintable() and "#" not in name
    for names in ([name], ["x", name], [name, "y"]):
        if valid:
            reprank.graphs._check_names(names)
        else:
            with pytest.raises(ValueError, match=f"^invalid node name {re.escape(repr(name))}$"):
                reprank.graphs._check_names(names)


@pytest.mark.parametrize(
    "names, bad",
    [([""], ""), (["a", "", "b"], ""), (["a", 1], 1), ([None], None), (["a b", "c"], "a b")],
)
def test_name_check_names_the_first_bad_name(names, bad):
    with pytest.raises(ValueError, match=f"^invalid node name {re.escape(repr(bad))}$"):
        reprank.graphs._check_names(names)


def test_graph_is_immutable_and_hashable():
    g = positive_graph([("a", "b")])
    with pytest.raises(AttributeError):
        g.mode = Mode.NEGATIVE_ONLY
    assert g == positive_graph([("a", "b")])
    assert hash(g) == hash(positive_graph([("a", "b")]))
    assert g != negative_graph([("a", "b")])


def test_a_graph_never_equals_another_type():
    g = positive_graph([("a", "b")])
    assert g.__eq__(1) is NotImplemented
    assert (g == 1) is False


def test_graph_repr_counts_nodes_and_edges():
    g = positive_graph([("a", "b")])
    assert repr(g) == "ReputationGraph(nodes=2, edges=1, mode=positive)"


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_graph_survives_copy_and_pickle(round_trip):
    g = parse_graph("mode combined\na + b\nb - a\nc + a\nnode d\n")
    again = round_trip(g)
    assert again == g and hash(again) == hash(g)
    assert again.serialize() == g.serialize()
    assert again.support_set("a", NEG) == frozenset({"b"})
    with pytest.raises(AttributeError, match="immutable"):
        again.extra = 1


@pytest.mark.parametrize("kind", [Feedback, Mode, Axiom])
def test_enum_members_hash_by_identity(kind):
    # Dict lookups keyed by a member then skip Enum's Python-level __hash__.
    assert kind.__hash__ is object.__hash__
    by_member = {member: member.value for member in kind}
    for member in kind:
        assert kind(member.value) is member
        assert by_member[member] == member.value
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.deepcopy(member) is member
        assert copy.deepcopy({member: [member]}) == {member: [member]}


# ---------------------------------------------------------------------------
# support sets


def test_support_set_direct_lookup():
    g = positive_graph([("a", "b"), ("b", "c")])
    assert g.support_set("b", POS) == {"a"}
    assert g.support_set("a", POS) == frozenset()


def test_support_set_defaults_to_graph_kind():
    g = negative_graph([("a", "b")])
    assert g.support_set("b") == {"a"}


def test_support_set_on_combined_requires_kind():
    g = ReputationGraph(["a", "b"], [("a", "b", POS)], Mode.COMBINED)
    with pytest.raises(ValueError):
        g.support_set("b")
    assert g.support_set("b", POS) == {"a"}
    assert g.support_set("b", NEG) == frozenset()


def test_support_set_unknown_node():
    g = positive_graph([("a", "b")])
    with pytest.raises(UnknownNodeError):
        g.support_set("zz")


def test_support_set_names_a_bad_kind_not_a_valid_node():
    g = parse_graph("mode positive\na + b\n")
    for kind in ("+", []):  # an unhashable kind too, not a TypeError
        with pytest.raises(ValueError, match=rf"^unknown feedback kind {re.escape(repr(kind))}$"):
            g.support_set("a", kind)
    for node in ("zz", ["b"]):
        with pytest.raises(UnknownNodeError, match=rf"^unknown node: {re.escape(repr(node))}$"):
            g.support_set(node, Feedback.POSITIVE)


def test_support_set_of_multi_backed_node(triangle_with_supporter):
    assert triangle_with_supporter.support_set("a") == {"c", "d"}


@PROPERTY_SETTINGS
@given(graphs())
def test_support_set_never_contains_self(g):
    # Every mode and every kind, admitted or not, read against the edge list.
    for node in g.nodes:
        for kind in Feedback:
            backers = {src for src, dst, k in g.edges if dst == node and k is kind}
            support = g.support_set(node, kind)
            assert isinstance(support, frozenset)
            assert support == backers
            assert node not in support
            if kind not in g.mode.allowed_kinds:
                assert support == frozenset()
        if g.mode is not Mode.COMBINED:
            (only,) = g.mode.allowed_kinds
            assert g.support_set(node) == g.support_set(node, only)
        # Two sides on every mode, the graph's own polarity first.
        sides = (Feedback.NEGATIVE, Feedback.POSITIVE)
        own, other = sides if g.mode is Mode.NEGATIVE_ONLY else sides[::-1]
        good, bad = g._backers
        i = g._index[node]
        assert (good[i], bad[i]) == (g.support_set(node, own), g.support_set(node, other))


# ---------------------------------------------------------------------------
# complement


def test_complement_two_nodes():
    g = positive_graph([("a", "b")])
    comp = g.complement()
    assert comp.mode is Mode.NEGATIVE_ONLY
    assert comp.edges == frozenset({("b", "a", NEG)})


def test_complement_of_tail_into_cycle3(tail_into_cycle3):
    comp = tail_into_cycle3.complement()
    assert sorted((u, v) for u, v, _ in comp.edges) == [
        ("a", "c"),
        ("a", "d"),
        ("b", "a"),
        ("b", "d"),
        ("c", "a"),
        ("c", "b"),
        ("d", "a"),
        ("d", "c"),
    ]


def test_complement_of_edgeless_graph_is_complete():
    g = positive_graph([], extra_nodes=["a", "b", "c"])
    assert len(g.complement().edges) == 6


def test_complement_requires_positive_mode():
    with pytest.raises(ModeError):
        negative_graph([("a", "b")]).complement()


@PROPERTY_SETTINGS
@given(graphs(mode=Mode.POSITIVE_ONLY))
def test_complement_edge_count_and_involution(g):
    n = len(g.nodes)
    comp = g.complement()
    assert len(comp.edges) == n * (n - 1) - len(g.edges)
    flipped = ReputationGraph(
        comp.nodes, [(u, v, POS) for u, v, _ in comp.edges], Mode.POSITIVE_ONLY
    )
    twice = flipped.complement()
    assert {(u, v) for u, v, _ in twice.edges} == {(u, v) for u, v, _ in g.edges}


@pytest.mark.parametrize("seed", range(20))
def test_complement_builds_what_the_constructor_builds(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 12), rng.random(), Mode.POSITIVE_ONLY)
    # complement() skips the constructor's checks; the checked path must agree.
    comp = g.complement()
    edges = [
        (u, v, NEG) for u in g.nodes for v in g.nodes if u != v and (u, v, POS) not in g.edges
    ]
    built = ReputationGraph(g.nodes, edges, Mode.NEGATIVE_ONLY)
    for slot in ReputationGraph.__slots__:
        assert getattr(comp, slot) == getattr(built, slot), slot


# ---------------------------------------------------------------------------
# strong connectivity


def test_cycle_with_chord_is_strongly_connected(cycle4_with_chord_pairs):
    assert positive_graph(cycle4_with_chord_pairs).is_strongly_connected()


def test_inward_supporter_breaks_strong_connectivity(triangle_with_supporter):
    assert not triangle_with_supporter.is_strongly_connected()


def test_single_node_is_strongly_connected():
    assert positive_graph([], extra_nodes=["a"]).is_strongly_connected()


@PROPERTY_SETTINGS
@given(graphs())
def test_strong_connectivity_matches_an_edge_walk(g):
    def reached_from(start):
        seen, stack = {start}, [start]
        while stack:
            here = stack.pop()
            for src, dst, _ in g.edges:
                if src == here and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    everyone = set(g.nodes)
    expected = all(reached_from(v) == everyone for v in g.nodes)
    assert g.is_strongly_connected() == expected


def test_strong_connectivity_undefined_on_empty_graph():
    # Connectivity of the empty graph is undefined; the constructor rejects it.
    with pytest.raises(ValueError, match="graph has no nodes"):
        ReputationGraph([], [], Mode.POSITIVE_ONLY)


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_positive():
    g = parse_graph("mode positive\na + b\nb + c\n")
    assert g.nodes == ("a", "b", "c")
    assert g.edges == frozenset({("a", "b", POS), ("b", "c", POS)})
    assert g.mode is Mode.POSITIVE_ONLY


@pytest.mark.parametrize("mode", list(Mode))
def test_parse_checks_each_edge_once(monkeypatch, mode):
    # Fault-free text passes each rule as one test over all its lines, so the
    # per-edge check runs only in the walk that names a fault, and there at
    # most once for each edge line up to the faulty one.
    g = random_graph(random.Random(3), 12, 0.3, mode)
    checked: list[tuple] = []
    real = reprank.graphs._check_edge

    def counting(edge, mode, seen):
        checked.append(edge)
        return real(edge, mode, seen)

    monkeypatch.setattr(reprank.graphs, "_check_edge", counting)
    parsed = parse_graph(g.serialize())
    assert checked == []
    for slot in ReputationGraph.__slots__:
        assert getattr(parsed, slot) == getattr(g, slot), slot

    lines = g.serialize().splitlines()
    edge_lines = [i for i, line in enumerate(lines) if len(line.split()) == 3]
    k = edge_lines[len(edge_lines) // 2]
    src, sign, _ = lines[k].split()
    lines[k] = f"{src} {sign} {src}"
    with pytest.raises(ParseError, match=f"^line {k + 1}: self-loop on '{src}'$"):
        parse_graph("\n".join(lines))
    assert 0 < len(checked) == len(set(checked)) <= edge_lines.index(k) + 1


@PROPERTY_SETTINGS
@given(graphs())
def test_parse_builds_what_the_constructor_builds(g):
    parsed = parse_graph(g.serialize())
    for slot in ReputationGraph.__slots__:
        assert getattr(parsed, slot) == getattr(g, slot), slot


def test_parse_isolated_nodes_comments_and_blanks():
    text = """
    # a comment
    mode negative

    a - b  # inline comment
    node z
    """
    g = parse_graph(text)
    assert g.nodes == ("a", "b", "z")
    assert g.support_set("b") == {"a"}


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_parse_ends_lines_at_lf_crlf_and_cr(end):
    text = end.join(["mode positive", "a + b", "", "node z", ""])
    assert parse_graph(text) == parse_graph("mode positive\na + b\nnode z\n")
    with pytest.raises(ParseError, match="^line 4: self-loop"):
        parse_graph(end.join(["mode positive", "", "a + b", "b + b"]))


def test_parse_self_loop_reports_line():
    with pytest.raises(ParseError, match="line 2.*self-loop"):
        parse_graph("mode positive\na + a\n")


def test_parse_kind_inconsistent_with_mode():
    with pytest.raises(ParseError, match="not allowed"):
        parse_graph("mode negative\na + b\n")


def test_parse_missing_header():
    with pytest.raises(ParseError, match="mode"):
        parse_graph("a + b\n")
    with pytest.raises(ParseError, match="mode"):
        parse_graph("# only comments\n")


def test_parse_unknown_mode_and_sign():
    with pytest.raises(ParseError, match="unknown mode"):
        parse_graph("mode sideways\n")
    with pytest.raises(ParseError, match="unknown sign"):
        parse_graph("mode combined\na * b\n")


def test_parse_duplicate_edge_rejected():
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse_graph("mode positive\na + b\na + b\n")


def test_parse_malformed_edge_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("mode positive\na + b extra\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("mode positive\nnode\n")
    with pytest.raises(ParseError, match="line 2.*unknown sign"):
        parse_graph("mode positive\nnode a b\n")


def test_parse_node_named_node():
    g = parse_graph("mode positive\nnode + x\nmode + node\nnode node\n")
    assert g.nodes == ("mode", "node", "x")
    assert g.edges == frozenset({("node", "x", POS), ("mode", "node", POS)})


# ---------------------------------------------------------------------------
# serialization


def test_serialize_lists_isolated_nodes_and_sorted_edges():
    g = ReputationGraph(
        ["z", "b", "a", "c"],
        [("c", "a", POS), ("a", "b", POS)],
        Mode.POSITIVE_ONLY,
    )
    assert g.serialize() == "mode positive\nnode z\na + b\nc + a\n"


@PROPERTY_SETTINGS
@given(graphs())
def test_serialize_round_trip(g):
    assert parse_graph(g.serialize()) == g


@st.composite
def named_graphs(draw):
    mode = draw(st.sampled_from(list(Mode)))
    names = draw(st.lists(node_names, min_size=1, max_size=5, unique=True))
    kinds = sorted(mode.allowed_kinds, key=lambda k: k.value)
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(names), st.sampled_from(names), st.sampled_from(kinds)
            ).filter(lambda e: e[0] != e[1]),
            max_size=8,
            unique=True,
        )
    )
    return ReputationGraph(names, edges, mode)


@PROPERTY_SETTINGS
@given(named_graphs())
def test_serialize_round_trip_with_arbitrary_names(g):
    assert parse_graph(g.serialize()) == g
