"""Malformed graph and ranking text: one row per parser error.

Each row gives the input, the exact message and the line number the parser
reports (None when the fault belongs to no single line). The same rows run
through ``cli.main``, which must exit 2 with ``error: <message>`` on stderr,
print nothing on stdout and raise nothing.
"""

from __future__ import annotations

import pytest

from reprank import ParseError, parse_graph, parse_ranking
from reprank.cli import main

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
