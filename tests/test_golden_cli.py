"""Golden CLI corpus: the exit code and stdout of every command, pinned by SHA-256.

Each case is a graph (a named example or a seeded random one) run through
``rank``, ``rank --trace``, ``check`` against two rankings, ``certify --cap 6``
and ``complement``, each in text and JSON. ``golden_cli.json`` maps every
command to the SHA-256 of ``"<exit code>\\n" + stdout``.

The stored digests define the expected output. Regenerate them only together
with a CHANGES.md line that says why the output changed::

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from reprank.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

NAMED = {
    "path": "mode positive\na + b\nb + c\n",
    "single-node": "mode positive\nnode solo\n",
    "edgeless": "mode negative\nnode a\nnode b\nnode c\n",
    "triangle-with-supporter": "mode positive\na + b\nb + c\nc + a\nd + a\n",
    "tail-into-cycle3": "mode positive\na + b\nb + c\nc + d\nd + b\n",
    "cycle4-with-chord-positive": "mode positive\na + b\nb + c\nc + d\nd + a\na + c\n",
    "cycle4-with-chord-negative": "mode negative\na - b\nb - c\nc - d\nd - a\na - c\n",
    "criterion5-complement": (
        "mode negative\nb - a\nc - a\nd - a\nc - b\na - c\nd - c\na - d\nb - d\n"
    ),
    "combined-triangle": "mode combined\na + b\nb + c\nc + a\nd + a\nb - d\nc - d\n",
    "combined-mixed": "mode combined\na + b\nb - c\nc + b\na - c\nnode d\n",
}

NAME_POOL = ("a", "b", "c", "d", "e", "node", "mode", "v10", "v2", "x_1", "Z", "é")
SIZES = (2, 3, 4, 5, 6, 6, 7, 9, 12, 16, 20, 24, 3, 4, 5, 6, 10)
SIGNS = {"positive": ("+",), "negative": ("-",), "combined": ("+", "-")}
FILES = ("GRAPH", "tied.rank", "random.rank")


def _random_graph(mode: str, k: int) -> str:
    rng = random.Random(f"{mode}-{k}")
    n = SIZES[k]
    names = list(NAME_POOL[:n]) + [f"n{i}" for i in range(n - len(NAME_POOL))]
    rng.shuffle(names)
    density = (0.15, 0.3, 0.5)[k % 3]
    lines = [f"mode {mode}"]
    for sign in SIGNS[mode]:
        for u in names:
            for v in names:
                if u != v and rng.random() < density:
                    lines.append(f"{u} {sign} {v}")
    lines += [f"node {v}" for v in names]  # keeps isolated nodes
    return "\n".join(lines) + "\n"


def _cases() -> dict[str, str]:
    cases = dict(NAMED)
    for mode in SIGNS:
        for k in range(len(SIZES)):
            cases[f"random-{mode}-{k:02d}"] = _random_graph(mode, k)
    return cases


def _nodes(graph_text: str) -> list[str]:
    nodes: set[str] = set()
    for line in graph_text.splitlines()[1:]:
        tokens = line.split()
        nodes.update([tokens[1]] if len(tokens) == 2 else [tokens[0], tokens[2]])
    return sorted(nodes)


def _rankings(case: str, graph_text: str) -> dict[str, str]:
    nodes = _nodes(graph_text)
    rng = random.Random(f"ranking-{case}")
    raw = {v: rng.randint(1, max(1, len(nodes) // 2)) for v in nodes}
    dense = {r: i for i, r in enumerate(sorted(set(raw.values())), start=1)}
    return {
        "tied": "".join(f"{v} 1\n" for v in nodes),
        "random": "".join(f"{v} {dense[raw[v]]}\n" for v in nodes),
    }


def _commands() -> list[list[str]]:
    commands = []
    for fmt in ("text", "json"):
        tail = ["--format", fmt]
        commands += [
            ["rank", "GRAPH", *tail],
            ["rank", "GRAPH", "--trace", *tail],
            ["check", "GRAPH", "tied.rank", *tail],
            ["check", "GRAPH", "random.rank", *tail],
            ["certify", "GRAPH", "--cap", "6", *tail],
            ["complement", "GRAPH", *tail],
        ]
    return commands


def _run(case: str, graph_text: str, workdir: Path) -> dict[str, str]:
    """Digest of every command of one case, keyed by '<case>: <command>'."""
    (workdir / "GRAPH").write_text(graph_text, encoding="utf-8")
    for name, text in _rankings(case, graph_text).items():
        (workdir / f"{name}.rank").write_text(text, encoding="utf-8")
    digests = {}
    for argv in _commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(workdir / a) if a in FILES else a for a in argv])
        payload = f"{code}\n{out.getvalue()}".encode()
        digests[f"{case}: {' '.join(argv)}"] = hashlib.sha256(payload).hexdigest()
    return digests


CASES = _cases()


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_the_golden_corpus(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    expected = {k: v for k, v in golden.items() if k.startswith(f"{case}: ")}
    got = _run(case, CASES[case], tmp_path)
    assert set(got) == set(expected)
    changed = [command for command, digest in got.items() if expected[command] != digest]
    assert not changed, "output changed for: " + "; ".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    corpus: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CASES.items():
            corpus.update(_run(name, text, Path(tmp)))
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} digests to {GOLDEN}")
