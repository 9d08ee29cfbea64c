"""Command-line interface: output formats, exit codes, stdin handling."""

from __future__ import annotations

import errno
import importlib.metadata
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reprank
from conftest import random_graph
from reprank import AXIOMS_BY_MODE, Mode, Ranking, normalize, parse_graph, parse_ranking
from reprank.cli import _ranking_template, _read_text, _render, main
from reprank.graphs import _records

POS_PATH = "mode positive\na + b\nb + c\n"
NEG_PATH = "mode negative\na - b\nb - c\n"
TRIANGLE = "mode positive\na + b\nb + c\nc + a\nd + a\n"


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin``: text over a binary ``buffer``, as the real one is."""
    return io.TextIOWrapper(io.BytesIO(data))


@pytest.fixture
def write_file(tmp_path):
    def _write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return _write


# ---------------------------------------------------------------------------
# rank


def test_rank_positive_path(write_file, capsys):
    assert main(["rank", write_file("g", POS_PATH)]) == 0
    assert capsys.readouterr().out == "a 3\nb 2\nc 1\n"


def test_rank_negative_path(write_file, capsys):
    assert main(["rank", write_file("g", NEG_PATH)]) == 0
    assert capsys.readouterr().out == "a 1\nb 3\nc 2\n"


def test_rank_trace_stays_parseable(write_file, capsys):
    assert main(["rank", write_file("g", POS_PATH), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "# initial" in out
    assert "# iteration 1:" in out
    # Trace lines are comments, so the whole output is a valid ranking file.
    assert parse_ranking(out).rank_of("c") == 1


def test_rank_json(write_file, capsys):
    assert main(["rank", write_file("g", POS_PATH), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "positive"
    assert {"node": "c", "rank": 1} in payload["ranking"]
    assert "trace" not in payload


def test_rank_json_with_trace(write_file, capsys):
    rc = main(["rank", write_file("g", POS_PATH), "--trace", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"]["steps"][0]["chosen"] == "c"
    assert payload["trace"]["steps"][0]["direction"] == "above"


def test_rank_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(POS_PATH.encode()))
    assert main(["rank", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "a 3"


def test_rank_parse_error_exits_2(write_file, capsys):
    rc = main(["rank", write_file("g", "mode positive\na + a\n")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_rank_missing_file_exits_2(capsys):
    assert main(["rank", "nope.graph"]) == 2
    assert "cannot read" in capsys.readouterr().err


def _write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def test_graph_file_not_utf8_names_file_and_line(tmp_path, capsys):
    graph = _write_bytes(tmp_path, "g", b"mode positive\na + b\r\n\xffc + a\n")
    assert main(["rank", graph]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {graph}: line 3: byte 0xff is not UTF-8\n"


def test_ranking_file_not_utf8_names_file_and_line(tmp_path, capsys):
    graph = _write_bytes(tmp_path, "g", POS_PATH.encode())
    ranking = _write_bytes(tmp_path, "r", "a 1\rb 2  # caf\u00e9\nc \xe9".encode() + b"\xe9 3\n")
    assert main(["check", graph, ranking]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {ranking}: line 3: byte 0xe9 is not UTF-8\n"


def test_not_utf8_line_counts_only_real_line_ends(tmp_path, capsys):
    # The form feed on line 2 does not end a line; the bad byte is on line 3.
    graph = _write_bytes(tmp_path, "g", b"mode positive\n# a\fb\n\xffc + a\n")
    assert main(["rank", graph]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {graph}: line 3: byte 0xff is not UTF-8\n"


def test_graph_on_stdin_not_utf8_names_stdin_and_line(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(b"mode positive\na + b # caf\xff\n"))
    assert main(["rank", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read <stdin>: line 2: byte 0xff is not UTF-8\n"


def test_ranking_on_stdin_not_utf8_names_stdin_and_line(tmp_path, monkeypatch, capsys):
    graph = _write_bytes(tmp_path, "g", POS_PATH.encode())
    monkeypatch.setattr("sys.stdin", _stdin(b"a 3\r\nb 2\n\xe9c 1\n"))
    assert main(["check", graph, "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read <stdin>: line 3: byte 0xe9 is not UTF-8\n"


def test_closed_stdin_exits_2(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", None)  # what Python sets when fd 0 is closed
    assert main(["rank", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read <stdin>: stdin is closed\n"


def test_closed_stdout_exits_2(write_file, monkeypatch, capsys):
    graph = write_file("g", POS_PATH)
    monkeypatch.setattr("sys.stdout", None)  # what Python sets when fd 1 is closed
    assert main(["rank", graph]) == 2
    assert capsys.readouterr().err == "error: cannot write <stdout>: stdout is closed\n"


@settings(max_examples=200, deadline=None)
@given(st.text(st.sampled_from("a1 \r\n\u00e9\u2028\x0b#")))
def test_file_text_is_read_as_text_mode_reads_it(text):
    # The reader only decodes; the parsers' records (line numbers and tokens) of its
    # text equal those of the text that text mode reads, newlines translated.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "file")
        path.write_bytes(text.encode("utf-8"))
        expected = _records(path.read_text(encoding="utf-8"))
        assert _records(_read_text(str(path))) == expected
    # stdin goes through the same decoding as a file
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdin", _stdin(text.encode("utf-8")))
        assert _records(_read_text("-")) == expected


# ---------------------------------------------------------------------------
# check


def test_check_passing_ranking(write_file, capsys):
    graph = write_file("g", POS_PATH)
    ranking = write_file("r", "a 3\nb 2\nc 1\n")
    assert main(["check", graph, ranking, "--axioms", "T"]) == 0
    assert capsys.readouterr().out == "T pass\n"


def test_check_failing_axiom_exits_1(write_file, capsys):
    graph = write_file("g", TRIANGLE)
    ranking = write_file("r", "a 1\nb 2\nc 3\nd 4\n")
    assert main(["check", graph, ranking, "--axioms", "T,M"]) == 1
    out = capsys.readouterr().out
    assert "T pass" in out
    assert "M fail [witness: (a,b)" in out


def test_check_defaults_to_mode_axioms(write_file, capsys):
    graph = write_file("g", POS_PATH)
    ranking = write_file("r", "a 3\nb 2\nc 1\n")
    assert main(["check", graph, ranking]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(AXIOMS_BY_MODE[Mode.POSITIVE_ONLY])


def test_check_json_matches_text_verdicts(write_file, capsys):
    graph = write_file("g", TRIANGLE)
    ranking = write_file("r", "a 1\nb 2\nc 3\nd 4\n")
    rc_text = main(["check", graph, ranking, "--axioms", "T,M"])
    text_out = capsys.readouterr().out
    rc_json = main(
        ["check", graph, ranking, "--axioms", "T,M", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc_text == rc_json == 1
    assert payload["all_passed"] is False
    for report in payload["reports"]:
        expected = "pass" if report["passed"] else "fail"
        assert f"{report['axiom']} {expected}" in text_out
    failing = next(r for r in payload["reports"] if not r["passed"])
    assert failing["witness"]["vi"] == "a"


def test_check_node_set_mismatch_exits_2(write_file, capsys):
    graph = write_file("g", POS_PATH)
    ranking = write_file("r", "a 1\nb 2\n")
    assert main(["check", graph, ranking]) == 2
    assert "node" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ranking_text, fault",
    [
        ("a 1\nb 2\n", "'c' is unranked"),
        ("z 1\nb 2\ny 2\n", "'a' is unranked"),
        ("a 1\nb 2\nc 2\nd 1\n", "'d' is not in the graph"),
        ("e 1\nb 2\nc 2\na 1\nd 3\n", "'d' is not in the graph"),
    ],
)
def test_check_node_set_mismatch_names_the_first_fault(write_file, capsys, ranking_text, fault):
    # Missing nodes first, then extra ones, each in name order.
    graph = write_file("g", POS_PATH)
    ranking = write_file("r", ranking_text)
    assert main(["check", graph, ranking]) == 2
    message = f"ranking does not cover exactly the graph's nodes: {fault}"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_unknown_axiom_exits_2(write_file, capsys):
    graph = write_file("g", POS_PATH)
    ranking = write_file("r", "a 3\nb 2\nc 1\n")
    assert main(["check", graph, ranking, "--axioms", "T,Q"]) == 2
    assert "unknown axiom" in capsys.readouterr().err


def test_check_empty_axiom_list_exits_2(write_file, capsys):
    graph = write_file("g", POS_PATH)
    ranking = write_file("r", "a 3\nb 2\nc 1\n")
    assert main(["check", graph, ranking, "--axioms", ","]) == 2
    assert capsys.readouterr().err == "error: empty axiom list\n"


def test_check_mode_incompatible_axiom_exits_2(write_file, capsys):
    graph = write_file("g", POS_PATH)
    ranking = write_file("r", "a 3\nb 2\nc 1\n")
    assert main(["check", graph, ranking, "--axioms", "BT"]) == 2


def test_check_ranking_from_stdin(write_file, monkeypatch, capsys):
    graph = write_file("g", POS_PATH)
    monkeypatch.setattr("sys.stdin", _stdin(b"a 3\nb 2\nc 1\n"))
    assert main(["check", graph, "-", "--axioms", "T"]) == 0


def test_check_refuses_stdin_for_both_inputs(monkeypatch, capsys):
    class UnreadableStdin:
        def read(self):
            raise AssertionError("stdin must not be read")

        @property
        def buffer(self):
            raise AssertionError("stdin must not be read")

    monkeypatch.setattr("sys.stdin", UnreadableStdin())
    assert main(["check", "-", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most one" in captured.err and "'-'" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# certify


def test_certify_unsat_exits_1(write_file, capsys):
    assert main(["certify", write_file("g", TRIANGLE), "--axioms", "T,M"]) == 1
    assert capsys.readouterr().out == "UNSAT after 75 preorders\n"


def test_certify_sat_prints_witness(write_file, capsys):
    assert main(["certify", write_file("g", TRIANGLE), "--axioms", "T"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("SAT:\n")
    assert parse_ranking(out[len("SAT:\n") :]).rank_of("a") == 1


def test_certify_json(write_file, capsys):
    rc = main(
        ["certify", write_file("g", TRIANGLE), "--axioms", "T,M", "--format", "json"]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"status": "UNSAT", "examined": 75, "witness": None}


def test_certify_cap_exits_2(write_file, capsys):
    assert main(["certify", write_file("g", TRIANGLE), "--cap", "3"]) == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-1", "0", "٨", "３"])
def test_certify_cap_below_one_is_a_usage_error(write_file, capsys, cap):
    assert main(["certify", write_file("g", TRIANGLE), "--cap", cap]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: reprank certify")
    assert f"error: argument --cap: expected a positive integer, got '{cap}'" in err


# ---------------------------------------------------------------------------
# complement


def test_complement_two_node(write_file, capsys):
    assert main(["complement", write_file("g", "mode positive\na + b\n")]) == 0
    assert capsys.readouterr().out == "mode negative\nb - a\n"


def test_complement_round_trips_through_parser(write_file, capsys):
    assert main(["complement", write_file("g", TRIANGLE)]) == 0
    comp = parse_graph(capsys.readouterr().out)
    assert comp.mode is Mode.NEGATIVE_ONLY
    assert len(comp.edges) == 4 * 3 - 4


def test_complement_json(write_file, capsys):
    rc = main(["complement", write_file("g", "mode positive\na + b\n"), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"] == [{"source": "b", "sign": "-", "target": "a"}]


def test_complement_of_negative_exits_2(write_file, capsys):
    assert main(["complement", write_file("g", NEG_PATH)]) == 2


# ---------------------------------------------------------------------------
# JSON rendering: exactly json.dumps(payload, indent=2)


def _is_name(text):
    try:
        Ranking({text: 1})
    except ValueError:
        return False
    return True


# The last three exercise the % templates a Ranking is rendered with.
AWKWARD = ['a"b', "c\\d", "x/y", "é", "中", "\U0001d11e", "\\u0041", "a%d", "%%", "%s"]
names = st.one_of(st.sampled_from(AWKWARD), st.text(min_size=1, max_size=5).filter(_is_name))


@st.composite
def rankings(draw):
    nodes = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    scores = draw(st.lists(st.integers(0, 3), min_size=len(nodes), max_size=len(nodes)))
    return normalize(dict(zip(nodes, scores)))


leaves = st.one_of(st.none(), st.booleans(), st.integers(), names, st.text(), rankings())
payloads = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(names, st.text()), inner, max_size=4),
    ),
    max_leaves=20,
)


def _expand(value):
    """The payload as the CLI built it before rendering: a Ranking as dicts."""
    if isinstance(value, Ranking):
        return [{"node": n, "rank": value.rank_of(n)} for n in value.nodes]
    if isinstance(value, dict):
        return {key: _expand(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_expand(item) for item in value]
    return value


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_render_equals_json_dumps(payload):
    assert _render(payload) == json.dumps(_expand(payload), indent=2)


def test_render_past_the_template_cache_equals_json_dumps():
    # More (node set, indent) templates than the cache holds, taken in
    # alternation, so every render after the first round follows an eviction.
    size = _ranking_template.cache_info().maxsize
    rankings = [normalize({"%s": 1, f"n{k}%d": k % 3, "z%%": 2}) for k in range(size)]
    payloads = rankings + [{"x": [r]} for r in rankings]  # two indents per node set
    for _ in range(3):
        for payload in payloads:
            assert _render(payload) == json.dumps(_expand(payload), indent=2)
    assert _ranking_template.cache_info().currsize == size


def test_rank_trace_json_on_sixty_nodes_equals_json_dumps(write_file, capsys):
    g = random_graph(random.Random(60), 60, 4 / 59, Mode.POSITIVE_ONLY)
    assert main(["rank", write_file("g", g.serialize()), "--trace", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert len(json.loads(out)["trace"]["steps"]) > 10


AWKWARD_GRAPH = 'mode positive\na"b + c\\d\nc\\d + é\né + 中\n中 + a"b\na"b + é\n'


def test_json_round_trips_with_awkward_names(tmp_path, capsys):
    graph = tmp_path / "g"
    graph.write_text(AWKWARD_GRAPH, encoding="utf-8")
    assert main(["rank", str(graph)]) == 0
    ranking = tmp_path / "r"
    ranking.write_text(capsys.readouterr().out, encoding="utf-8")
    for argv in (
        ["rank", str(graph), "--trace"],
        ["check", str(graph), str(ranking)],
        ["certify", str(graph)],
        ["complement", str(graph)],
    ):
        assert main([*argv, "--format", "json"]) in (0, 1)
        out = capsys.readouterr().out
        assert out.isascii()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        if argv[0] == "rank":
            assert json.loads(out)["trace"]["steps"]
    assert json.loads(out)["nodes"] == ['a"b', "c\\d", "é", "中"]


# ---------------------------------------------------------------------------
# usage and integration


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "rank" in capsys.readouterr().out


HELP_SCREENS = {
    "": """\
usage: reprank [-h] {rank,check,certify,complement} ...

Axiomatic social rankings over reputation graphs: compute rankings, check them
against axioms, and certify axiom satisfiability exhaustively.

positional arguments:
  {rank,check,certify,complement}
    rank                rank a reputation graph
    check               check a ranking against axioms
    certify             exhaustively test whether any ranking satisfies the
                        axioms
    complement          negative complement of a positive graph

options:
  -h, --help            show this help message and exit
""",
    "rank": """\
usage: reprank rank [-h] [--trace] [--format {text,json}] graph

positional arguments:
  graph                 edge-list file, or - for stdin

options:
  -h, --help            show this help message and exit
  --trace               show each refinement iteration
  --format {text,json}  output rendering (default: text)
""",
    "check": """\
usage: reprank check [-h] [--axioms AXIOMS] [--format {text,json}]
                     graph ranking

positional arguments:
  graph                 edge-list file, or - for stdin
  ranking               ranking file (NAME RANK lines), or - for stdin

options:
  -h, --help            show this help message and exit
  --axioms AXIOMS       comma-separated axiom names (default: all for the
                        graph's mode)
  --format {text,json}  output rendering (default: text)
""",
    "certify": """\
usage: reprank certify [-h] [--axioms AXIOMS] [--cap CAP]
                       [--format {text,json}]
                       graph

positional arguments:
  graph                 edge-list file, or - for stdin

options:
  -h, --help            show this help message and exit
  --axioms AXIOMS       comma-separated axiom names (default: all for the
                        graph's mode)
  --cap CAP             refuse graphs with more nodes than this (default: 8)
  --format {text,json}  output rendering (default: text)
""",
    "complement": """\
usage: reprank complement [-h] [--format {text,json}] graph

positional arguments:
  graph                 edge-list file, or - for stdin

options:
  -h, --help            show this help message and exit
  --format {text,json}  output rendering (default: text)
""",
}


@pytest.mark.parametrize("command", HELP_SCREENS, ids=lambda c: c or "reprank")
def test_help_screens_are_byte_identical(monkeypatch, capsys, command):
    # argparse lists arguments in the order they were added and wraps at the
    # terminal width, so this pins both the argument order and the wording.
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (HELP_SCREENS[command], "")


def test_rank_then_check_round_trip(write_file, monkeypatch, capsys):
    # The mode's transitivity axiom always accepts the engine's output,
    # piped through the two commands' file formats.
    transitivity = {
        Mode.POSITIVE_ONLY: "T",
        Mode.NEGATIVE_ONLY: "BT",
        Mode.COMBINED: "Tc",
    }
    rng = random.Random("cli-round-trip")
    for trial in range(12):
        mode = rng.choice(list(Mode))
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.4]), mode)
        graph_file = write_file(f"g{trial}", g.serialize())
        assert main(["rank", graph_file]) == 0
        ranking_text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", _stdin(ranking_text.encode()))
        rc = main(["check", graph_file, "-", "--axioms", transitivity[mode]])
        assert capsys.readouterr().out.endswith("pass\n")
        assert rc == 0


def _installed_distribution():
    try:
        return importlib.metadata.distribution("reprank")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(
    _installed_distribution() is None,
    reason="the reprank distribution is not installed "
    "(importlib.metadata.PackageNotFoundError)",
)
def test_console_script_is_installed(write_file):
    scripts = {
        ep.name: ep.value
        for ep in _installed_distribution().entry_points
        if ep.group == "console_scripts"
    }
    assert scripts.get("reprank") == "reprank.cli:main"
    exe = shutil.which("reprank")
    assert exe, "console script not on PATH"
    graph = write_file("g", POS_PATH)
    done = subprocess.run(
        [exe, "rank", graph], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout == "a 3\nb 2\nc 1\n"


def _package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    package_root = str(Path(reprank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


def test_console_script_target_runs_like_its_wrapper(write_file):
    # The part of the console script that needs no install: the target named
    # in pyproject.toml, called the way a generated wrapper calls it.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, func = scripts["reprank"].split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    graph = write_file("g", POS_PATH)
    done = subprocess.run(
        [sys.executable, "-c", wrapper, "rank", graph],
        capture_output=True,
        text=True,
        timeout=60,
        env=_package_env(),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "a 3\nb 2\nc 1\n"


@pytest.mark.parametrize(
    "command, n, first",
    [(["rank", "--trace", "--format", "json"], 60, b"{"), (["complement"], 300, b"m")],
    ids=["rank-trace-json", "complement-text"],
)
def test_closed_stdout_exits_141_without_traceback(write_file, capsys, command, n, first):
    # `reprank rank G --trace --format json | head -c1`: the reader goes away
    # while the CLI is still writing. It must exit as a SIGPIPE death would
    # (128 + 13), not 1, which means a failed check, or 0, which hides the cut,
    # and print no traceback. The text case is one write that the pipe cuts short.
    g = random_graph(random.Random("closed-pipe"), n, 4 / (n - 1), Mode.POSITIVE_ONLY)
    argv = [command[0], write_file("g", g.serialize()), *command[1:]]
    assert main(argv) == 0
    assert len(capsys.readouterr().out) > 2 * 65536  # well past a pipe's buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "reprank.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=_package_env(),
    )
    assert proc.stdout.read(1) == first
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_short_output_to_a_closed_pipe_exits_141(write_file):
    # The output fits in stdout's buffer, so the write fails only when it is
    # flushed; main must flush it itself rather than leave it to the exit.
    env = _package_env()
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "reprank.cli", "rank", write_file("g", POS_PATH)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_unwritable_stdout_exits_2_with_one_error_line(write_file):
    # Every write to /dev/full fails with ENOSPC: one error line, no traceback,
    # and not exit 1, which means a failed check.
    argv = ["rank", write_file("g", POS_PATH), "--format", "json"]
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "reprank.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            timeout=60,
            env=_package_env(),
        )
    reason = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert done.stderr.decode() == f"error: cannot write <stdout>: {reason}\n"
    assert done.returncode == 2


def test_stdout_that_cannot_encode_a_name_exits_2(write_file):
    # A stdout whose encoding lacks a node name's characters is unwritable too.
    env = _package_env()
    env["PYTHONIOENCODING"] = "ascii"
    graph = write_file("g", "mode positive\n\u00e9 + b\n")
    done = subprocess.run(
        [sys.executable, "-m", "reprank.cli", "rank", graph],
        capture_output=True,
        timeout=60,
        env=env,
    )
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode() == (
        "error: cannot write <stdout>: 'ascii' codec can't encode character '\\xe9' "
        "in position 4: ordinal not in range(128)\n"
    )


# ---------------------------------------------------------------------------
# fuzzing: generated graph and ranking text through every subcommand

pool_names = st.sampled_from(["a", "b", "c", "d", "node", "mode", "+"])
short_text = st.text(max_size=3)
junk_lines = st.one_of(st.text(max_size=8), st.builds("{} {}".format, short_text, short_text))
MODE_SIGNS = {"positive": "+", "negative": "-", "combined": "+-"}


@st.composite
def cli_inputs(draw):
    """Graph and ranking text: mostly well formed, with junk lines mixed in."""
    mode = draw(st.sampled_from(sorted(MODE_SIGNS)))
    headers = [f"mode {mode}"] * 8 + ["mode", "mode other", "a + b"]
    lines = [draw(st.sampled_from(headers))]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 9))
        src, dst = draw(pool_names), draw(pool_names)
        if kind == 0:  # possibly a self-loop or a sign the mode forbids
            lines.append(f"{src} {draw(st.sampled_from('+-*'))} {dst}")
        elif kind < 7:
            edge = f"{src} {draw(st.sampled_from(MODE_SIGNS[mode]))} {dst}"
            if src != dst and edge not in lines:
                lines.append(edge)
        elif kind < 9:
            lines.append(f"node {src}")
        else:
            lines.append(draw(junk_lines))
    tokens = [line.split() for line in lines[1:]]
    names = {t[-1] for t in tokens if t} | {t[0] for t in tokens if len(t) == 3}
    ranks = [f"{v} {draw(st.integers(1, 2))}" for v in sorted(names)]
    if draw(st.integers(0, 4)) == 0:
        ranks.append(draw(junk_lines))
    return "\n".join(lines) + "\n", "\n".join(ranks) + "\n"


CHECK_OPTIONS = [[], [], ["--axioms", "T,BT,Tc"], ["--axioms", "M"], ["--axioms", ","]]
CERTIFY_OPTIONS = [["--cap", "5"], ["--cap", "0"], ["--cap", "4", "--axioms", "Mc"]]
fuzz_commands = st.one_of(
    st.tuples(st.just("rank"), st.sampled_from([[], ["--trace"]])),
    st.tuples(st.just("check"), st.sampled_from(CHECK_OPTIONS)),
    st.tuples(st.just("certify"), st.sampled_from(CERTIFY_OPTIONS)),
    st.tuples(st.just("complement"), st.just([])),
)


@settings(max_examples=300, deadline=None)
@given(cli_inputs(), fuzz_commands, st.sampled_from(["text", "json"]))
def test_cli_fuzz_exits_cleanly(texts, command, fmt):
    graph_text, ranking_text = texts
    name, options = command
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp, "graph")
        graph.write_text(graph_text, encoding="utf-8")
        ranking = Path(tmp, "ranking")
        ranking.write_text(ranking_text, encoding="utf-8")
        files = [str(graph), str(ranking)] if name == "check" else [str(graph)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([name, *files, *options, "--format", fmt])
    assert code in (0, 1, 2)
