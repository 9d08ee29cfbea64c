"""Malformed graph and ranking text: one row per parser error.

Each row gives the input, the exact message and the line number the parser
reports (None when the fault belongs to no single line). The same rows run
through ``cli.main``, which must exit 2 with ``error: <message>`` on stderr,
print nothing on stdout and raise nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprank import Feedback, Mode, ParseError, ReputationGraph, parse_graph, parse_ranking
from reprank.cli import main

NOT_LINE_ENDS = {
    "vertical tab": "\v",
    "form feed": "\f",
    "file separator": "\x1c",
    "group separator": "\x1d",
    "record separator": "\x1e",
    "next line": "\x85",
    "line separator": "\u2028",
    "paragraph separator": "\u2029",
}
WRONG_GRAPH_LINE = "expected 'SOURCE SIGN TARGET' or 'node NAME'"

GRAPH_ROWS = [
    ("empty text", "", "missing 'mode' header", None),
    ("comments only", "# a graph\n\n", "missing 'mode' header", None),
    ("edge before header", "a + b\n", "expected header 'mode positive|negative|combined'", 1),
    ("header without mode", "\nmode\n", "expected header 'mode positive|negative|combined'", 2),
    ("unknown mode", "mode neutral\n", "unknown mode 'neutral'", 1),
    ("four tokens", "mode positive\na + b c\n", "expected 'SOURCE SIGN TARGET' or 'node NAME'", 2),
    ("two tokens", "mode positive\na b\n", "expected 'SOURCE SIGN TARGET' or 'node NAME'", 2),
    ("bare node", "mode positive\nnode\n", "expected 'SOURCE SIGN TARGET' or 'node NAME'", 2),
    ("unknown sign", "mode positive\na * b\n", "unknown sign '*' (use + or -)", 2),
    ("invalid declared name", "mode positive\nnode a\x00b\n", "invalid node name 'a\\x00b'", 2),
    ("invalid source", "mode positive\na + b\n\x07 + b\n", "invalid node name '\\x07'", 3),
    ("invalid target", "mode negative\na - \x7f\n", "invalid node name '\\x7f'", 2),
    ("self-loop", "mode positive\na + b\n\nb + b\n", "self-loop on 'b'", 4),
    ("minus in positive", "mode positive\na - b\n", "'-' edge not allowed in positive mode", 2),
    ("plus in negative", "mode negative\na + b\n", "'+' edge not allowed in negative mode", 2),
    ("duplicate edge", "mode combined\na + b\na - b\na + b\n", "duplicate edge a + b", 4),
    ("no nodes", "mode positive\n", "graph has no nodes", None),
    ("no nodes, combined", "mode combined\n# nothing yet\n", "graph has no nodes", None),
    # Lines end only at \n, \r\n and \r, not at every str.splitlines break.
    (
        "form feed in a comment",
        "mode positive\n# note\f\nbad line here\n",
        "unknown sign 'line' (use + or -)",
        3,
    ),
    *[
        (f"{name} inside a line", f"mode positive\na + b{char}c + d\n", WRONG_GRAPH_LINE, 2)
        for name, char in NOT_LINE_ENDS.items()
    ],
]

RANKING_ROWS = [
    ("empty text", "", "ranking text contains no entries", None),
    ("comments only", "# no entries\n", "ranking text contains no entries", None),
    ("one token", "a\n", "expected 'NAME RANK'", 1),
    ("three tokens", "a 1\nb 2 3\n", "expected 'NAME RANK'", 2),
    ("invalid name", "a 1\nb\x00 2\n", "invalid node name 'b\\x00'", 2),
    ("ranked twice", "a 1\nb 2\na 2\n", "node 'a' ranked twice", 3),
    ("non-ASCII digits", "a 1\nb ١\n", "rank '١' must be written with ASCII digits 0-9", 2),
    ("signed rank", "a +1\n", "rank '+1' must be written with ASCII digits 0-9", 1),
    ("rank zero", "a 1\nb 0\n", "rank must be positive, got 0", 2),
    ("non-dense ranks", "a 1\nb 3\n", "ranks must be dense: exactly the values 1..k", None),
    ("huge rank", f"a 1\nb {'1' * 5000}\n", "rank of 'b' is too long (5000 digits)", 2),
    *[
        (f"{name} inside a line", f"a 1{char}b 2\n", "expected 'NAME RANK'", 1)
        for name, char in NOT_LINE_ENDS.items()
    ],
]

GRAPH = "mode positive\na + b\n"
RANKING = "a 2\nb 1\n"


def _ids(rows):
    return [row[0] for row in rows]


def _expected(message: str, line_no: int | None) -> str:
    return message if line_no is None else f"line {line_no}: {message}"


def _assert_rejected(argv, message, line_no, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_expected(message, line_no)}\n"


@pytest.mark.parametrize("_, text, message, line_no", GRAPH_ROWS, ids=_ids(GRAPH_ROWS))
def test_parse_graph_error_table(_, text, message, line_no):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == _expected(message, line_no)
    assert info.value.line_no == line_no


@pytest.mark.parametrize("_, text, message, line_no", RANKING_ROWS, ids=_ids(RANKING_ROWS))
def test_parse_ranking_error_table(_, text, message, line_no):
    with pytest.raises(ParseError) as info:
        parse_ranking(text)
    assert str(info.value) == _expected(message, line_no)
    assert info.value.line_no == line_no


@pytest.mark.parametrize("_, text, message, line_no", GRAPH_ROWS, ids=_ids(GRAPH_ROWS))
def test_cli_rejects_malformed_graph(_, text, message, line_no, tmp_path, capsys):
    graph = tmp_path / "graph"
    graph.write_text(text, encoding="utf-8")
    ranking = tmp_path / "ranking"
    ranking.write_text(RANKING, encoding="utf-8")
    for argv in (
        ["rank", str(graph)],
        ["rank", str(graph), "--trace", "--format", "json"],
        ["check", str(graph), str(ranking)],
        ["certify", str(graph)],
        ["complement", str(graph)],
    ):
        _assert_rejected(argv, message, line_no, capsys)


@pytest.mark.parametrize("_, text, message, line_no", RANKING_ROWS, ids=_ids(RANKING_ROWS))
def test_cli_rejects_malformed_ranking(_, text, message, line_no, tmp_path, capsys):
    graph = tmp_path / "graph"
    graph.write_text(GRAPH, encoding="utf-8")
    ranking = tmp_path / "ranking"
    ranking.write_text(text, encoding="utf-8")
    for fmt in ("text", "json"):
        _assert_rejected(
            ["check", str(graph), str(ranking), "--format", fmt], message, line_no, capsys
        )


# Lines that can follow a header: valid edges, node lines, comments and blank
# lines, plus one line of each fault. Over the small name pool, edges repeat
# (a duplicate) and use each sign (one the header's mode may forbid).
BODY_LINES = st.one_of(
    st.builds("{} {} {}".format, st.sampled_from("ab"), st.sampled_from("+-"), st.just("c")),
    st.sampled_from(["node a", "node d", "node node", "# a comment", "c + a # why", "", "  "]),
    st.sampled_from(
        ["a * b", "a + b c", "a b", "node a\x00", "a\x00 + b", "b - b", "a + b", "a - b"]
    ),
)
HEADERS = st.sampled_from(["mode positive", "mode negative", "mode combined", "mode neutral"])


def _constructed(lines: list[str]) -> ReputationGraph | None:
    """The constructor's graph for fault-free lines, read without the parser;
    None when the lines declare no node."""
    records = [tokens for line in lines if (tokens := line.split("#", 1)[0].split())]
    head, body = records[0], records[1:]
    nodes = {tokens[-1] for tokens in body} | {tokens[0] for tokens in body if len(tokens) == 3}
    edges = [(src, dst, Feedback(sign)) for src, sign, dst in (t for t in body if len(t) == 3)]
    return ReputationGraph(nodes, edges, Mode(head[1])) if nodes else None


@settings(max_examples=300, deadline=None)
@given(HEADERS, st.lists(BODY_LINES, min_size=1, max_size=8))
def test_the_first_fault_wins(header, body):
    lines = [header, *body]
    first = None
    for end in range(1, len(lines) + 1):
        try:
            parse_graph("\n".join(lines[:end]))
        except ParseError as exc:
            if exc.line_no is not None:
                first = exc
                break
    if first is not None:
        with pytest.raises(ParseError) as info:
            parse_graph("\n".join(lines))
        assert (str(info.value), info.value.line_no) == (str(first), first.line_no)
        return
    expected = _constructed(lines)
    try:
        parsed = parse_graph("\n".join(lines))
    except ParseError as exc:
        assert expected is None and str(exc) == "graph has no nodes" and exc.line_no is None
        return
    for slot in ReputationGraph.__slots__:
        assert getattr(parsed, slot) == getattr(expected, slot), slot
