"""Seeded inputs, op sequences and output checks for the benchmark workloads.

A workload is a pool of generated graphs and, for each graph, a fixed list of
``reprank`` CLI calls (ops). Every timed pass walks the whole pool in order,
so the op sequence is the same for a seed however fast the program runs.
Every op's output is verified here against invariants computed by the
benchmark's own code, and, for the default seed, against golden digests.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

DEFAULT_SEED = 0

# Axioms the CLI checks by default, in its report order; the first is the
# mode's transitivity axiom, which every engine output must satisfy.
MODE_AXIOMS = {
    "positive": ["T", "M", "VWM"],
    "negative": ["BT", "BM"],
    "combined": ["Tc", "Mc"],
}


class Mismatch(Exception):
    """An op's output broke an invariant or differs from its golden digest."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass(frozen=True)
class Graph:
    """A generated reputation graph, kept in memory for the output checks."""

    mode: str
    nodes: tuple[str, ...]
    supporters: dict[str, frozenset[str]]
    accusers: dict[str, frozenset[str]]
    axioms: str | None = None  # certify --axioms; None means the mode's set

    def text(self) -> str:
        lines = [f"mode {self.mode}"] + [f"node {v}" for v in self.nodes]
        for v in self.nodes:
            lines += [f"{u} + {v}" for u in sorted(self.supporters[v])]
            lines += [f"{u} - {v}" for u in sorted(self.accusers[v])]
        return "\n".join(lines) + "\n"


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"v{i:03d}" for i in range(n))


def random_graph(
    rng: random.Random, n: int, mode: str, edges: int, axioms: str | None = None
) -> Graph:
    """Exactly ``edges`` distinct ordered pairs, drawn uniformly; in combined
    mode the first half of the draw is positive and the rest negative. A fixed
    edge count, rather than a fixed edge probability, keeps graph size from
    varying between seeds, which keeps op costs from varying with it."""
    nodes = _names(n)
    supporters = {v: set() for v in nodes}
    accusers = {v: set() for v in nodes}
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    for k, (u, v) in enumerate(rng.sample(pairs, edges)):
        positive = mode == "positive" or (mode == "combined" and k < edges // 2)
        (supporters if positive else accusers)[v].add(u)
    return Graph(
        mode,
        nodes,
        {v: frozenset(s) for v, s in supporters.items()},
        {v: frozenset(s) for v, s in accusers.items()},
        axioms,
    )


def ordered_bell(n: int) -> int:
    """Number of total preorders on n items (OEIS A000670), by recurrence."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


# --- Independent check of the transitivity axioms ---------------------------


def _profiles(ranks: dict[str, int], sets: dict[str, frozenset[str]]):
    return {v: sorted(ranks[u] for u in group) for v, group in sets.items()}


def _covers(a: list[int], b: list[int]) -> bool:
    return len(a) >= len(b) and all(x <= y for x, y in zip(a, b))


def _more_important(a: list[int], b: list[int]) -> bool:
    return _covers(a, b) and a != b


def transitivity_violation(g: Graph, ranks: dict[str, int]) -> tuple[str, str] | None:
    """First ordered pair breaking T, BT or Tc (by mode), or None."""
    good = _profiles(ranks, g.supporters)
    bad = _profiles(ranks, g.accusers)

    def violates(u: str, v: str) -> bool:
        if g.mode == "positive":
            return _more_important(good[u], good[v]) and ranks[u] >= ranks[v]
        if g.mode == "negative":
            return _more_important(bad[u], bad[v]) and ranks[u] <= ranks[v]
        bad_strict = _more_important(bad[v], bad[u])
        good_strict = _more_important(good[u], good[v])
        stronger = (
            (bad_strict or bad[u] == bad[v])
            and (good_strict or good[u] == good[v])
            and (bad_strict or good_strict)
        )
        return stronger and ranks[u] >= ranks[v]

    for u in g.nodes:
        for v in g.nodes:
            if u != v and violates(u, v):
                return u, v
    return None


# --- Running and verifying ops ----------------------------------------------


def digest(code: int | None, out: str) -> str:
    """Truncated SHA-256 of an op's exit code and stdout."""
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


class Runner:
    """Times ops in a closed loop (one client) and verifies each output.

    ``main`` is the timed entry point (``cli.main``, or its traced wrapper);
    ``plain_main`` serves untimed follow-up calls made while verifying.
    """

    def __init__(
        self,
        main: Callable[[Sequence[str]], int],
        plain_main: Callable[[Sequence[str]], int],
        golden: list[str] | None = None,
    ):
        self.main = main
        self.plain_main = plain_main
        self.golden = golden
        self.latencies: list[float] = []
        self.digests: list[str] = []
        self.failed = 0
        self.output_bytes = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.digests)

    def call(self, argv: Sequence[str]) -> tuple[int | None, str]:
        """Untimed CLI call with captured output, for follow-up checks."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.plain_main(list(argv))
        return code, out.getvalue()

    def op(self, argv: Sequence[str], verify: Callable[[int | None, str], object]):
        """Run one timed op; return verify's result, or None if the op failed."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.main(list(argv))
            except Exception as exc:  # a traceback is a failed op, not a crash
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
            self.latencies.append(perf_counter() - start)
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        index = len(self.digests)
        self.digests.append(digest(code, text))
        try:
            if self.golden is not None:
                require(
                    self.digests[-1] == self.golden[index % len(self.golden)],
                    "output differs from the golden digest",
                )
            return verify(code, text)
        except (Mismatch, ValueError, KeyError, TypeError) as exc:
            self._fail(argv, f"{exc} (exit {code}; stderr {err.getvalue()[:200]!r})")
            return None

    def skip(self, argv: Sequence[str], reason: str) -> None:
        """Count an op that could not run because an earlier op failed."""
        self.latencies.append(0.0)
        self.digests.append("")
        self._fail(argv, reason)

    def _fail(self, argv: Sequence[str], reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {len(self.digests) - 1} {' '.join(argv)}: {reason}")


def _ranks_from(g: Graph, entries: list[dict]) -> dict[str, int]:
    ranks = {e["node"]: e["rank"] for e in entries}
    require(tuple(sorted(ranks)) == g.nodes, "ranking does not cover the graph's nodes")
    used = set(ranks.values())
    require(used == set(range(1, len(used) + 1)), "ranks are not dense")
    return ranks


def _write_ranking(path: Path, ranks: dict[str, int]) -> None:
    path.write_text("".join(f"{v} {r}\n" for v, r in sorted(ranks.items())))


def run_rank_item(g: Graph, path: Path, runner: Runner) -> None:
    """``rank --trace`` the graph, then ``check`` the ranking it produced."""

    def verify_rank(code, text):
        require(code == 0, "rank did not exit 0")
        payload = json.loads(text)
        require(payload["mode"] == g.mode, "wrong mode")
        require(isinstance(payload["trace"]["steps"], list), "no trace")
        ranks = _ranks_from(g, payload["ranking"])
        bad = transitivity_violation(g, ranks)
        require(bad is None, f"ranking violates {MODE_AXIOMS[g.mode][0]} at {bad}")
        return ranks

    def verify_check(code, text):
        payload = json.loads(text)
        reports = payload["reports"]
        require([r["axiom"] for r in reports] == MODE_AXIOMS[g.mode], "wrong axioms")
        passed = all(r["passed"] for r in reports)
        require(payload["all_passed"] == passed, "all_passed disagrees with reports")
        require(code == (0 if passed else 1), "exit code disagrees with reports")
        require(reports[0]["passed"], "engine output fails the transitivity axiom")
        for r in reports:
            w = r["witness"]
            require((w is None) == r["passed"], "witness present iff failed")
            if w is not None:
                require({w["vi"], w["vj"]} <= set(g.nodes), "witness names unknown nodes")
        return True

    rank_argv = ["rank", str(path), "--trace", "--format", "json"]
    ranking_path = path.with_suffix(".rank")
    check_argv = ["check", str(path), str(ranking_path), "--format", "json"]
    ranks = runner.op(rank_argv, verify_rank)
    if ranks is None:
        runner.skip(check_argv, "rank op failed")
        return
    _write_ranking(ranking_path, ranks)
    runner.op(check_argv, verify_check)


def run_certify_item(g: Graph, path: Path, runner: Runner) -> None:
    """``certify`` the graph; an UNSAT must have scanned every preorder and a
    SAT witness must pass a follow-up ``check``."""
    axiom_args = ["--axioms", g.axioms] if g.axioms else []
    total = ordered_bell(len(g.nodes))

    def verify(code, text):
        payload = json.loads(text)
        status, examined = payload["status"], payload["examined"]
        if status == "UNSAT":
            require(code == 1, "UNSAT did not exit 1")
            require(payload["witness"] is None, "UNSAT with a witness")
            require(examined == total, f"UNSAT after {examined}, expected {total}")
            return status
        require(status == "SAT" and code == 0, "neither UNSAT nor SAT with exit 0")
        require(1 <= examined <= total, f"SAT after {examined} of {total}")
        witness_path = path.with_suffix(".witness")
        _write_ranking(witness_path, _ranks_from(g, payload["witness"]))
        code2, out2 = runner.call(
            ["check", str(path), str(witness_path), "--format", "json", *axiom_args]
        )
        require(code2 == 0 and json.loads(out2)["all_passed"], "witness fails check")
        return status

    runner.op(["certify", str(path), "--format", "json", *axiom_args], verify)


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int  # graphs generated per run; every timed pass runs all of them
    trace_items: int  # leading graphs run by the traced pass
    make_graph: Callable[[random.Random, int], Graph]
    run_item: Callable[[Graph, Path, Runner], None]

    def generate(self, seed: int) -> list[Graph]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make_graph(rng, i) for i in range(self.pool_size)]

    def write(self, graphs: list[Graph], directory: Path) -> list[Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, g in enumerate(graphs):
            path = directory / f"g{i:04d}.txt"
            path.write_text(g.text())
            paths.append(path)
        return paths


def _combined(rng: random.Random, i: int) -> Graph:
    # 4 supporters and 4 accusers per node on average. Sizes step through every n
    # from 24 to 40, so op costs spread evenly instead of in a few clusters.
    n = 24 + i * 7 % 17
    return random_graph(rng, n, "combined", 8 * n)


def _single(rng: random.Random, i: int) -> Graph:
    # Average in-degree 4, positive and negative alternating; sizes step
    # through every even n from 30 to 90.
    n = 30 + 2 * (i * 12 % 31)
    return random_graph(rng, n, ("positive", "negative")[i % 2], 4 * n)


def _certify(rng: random.Random, i: int) -> Graph:
    # Each cycle of thirteen: four graphs per mode with the mode's full axiom
    # set, then one larger positive graph certified for {T, M}. The larger
    # graphs are under a tenth of the ops, so p90 falls among the smaller
    # graphs' slowest runs and not in the gap between the two sizes.
    j = i % 13
    if j < 12:
        return random_graph(rng, 5, ("positive", "negative", "combined")[j % 3], 8)
    return random_graph(rng, 6, "positive", 12, axioms="T,M")


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rank-combined",
            pool_size=68,
            trace_items=15,
            make_graph=_combined,
            run_item=run_rank_item,
        ),
        Workload(
            "rank-single",
            pool_size=62,
            trace_items=12,
            make_graph=_single,
            run_item=run_rank_item,
        ),
        Workload(
            "certify",
            pool_size=260,
            trace_items=30,
            make_graph=_certify,
            run_item=run_certify_item,
        ),
    )
}
