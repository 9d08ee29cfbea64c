"""Per-layer tracing of ``reprank`` from outside the package.

Wrappers are installed at the names the program actually calls through:
``cli`` and ``certify`` bind their dependencies with ``from ... import``, so
those module attributes are replaced, not only the defining ones. Each wrapper
records a span (name, start, end, parent span, op id) in memory, plus the
exact work counters the per-layer metrics need. Spans are recorded only while
an op runs, so untimed verification calls stay out of the trace.

Layers are the modules under ``src/reprank``; a span's name is
``<layer>.<function>``. A layer's self time is the duration of its spans minus
the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Sequence

LAYERS = ("cli", "graphs", "rankings", "dominance", "engine", "axioms", "certify")

# Dominance functions that compare two node sets under a ranking, and the one
# that compares two nodes of a combined graph.
SET_RELATIONS = ("at_least_as_strong", "equally_strong", "more_important", "classify")
NODE_RELATIONS = ("socially_stronger",)


_UNIT_BY_SUFFIX = (
    ("_s", "s"),
    ("_bytes", "bytes"),
    ("_frac", "frac"),
    ("_per_iteration", "count/iteration"),
    ("_per_preorder", "count/preorder"),
    ("_x", "x"),
)


def unit_of(metric: str) -> str:
    """A per-layer metric's unit, read off its name; plain counts otherwise."""
    return next((unit for suffix, unit in _UNIT_BY_SUFFIX if metric.endswith(suffix)), "count")


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest properly, so a span's children cover disjoint
    parts of it and their durations add up to the covered time.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def pairs_scanned(nodes: Sequence[str], report) -> int:
    """Ordered pairs ``check`` evaluated: up to the witness in lexicographic
    pair order, or all n(n-1) when the axiom passed."""
    n = len(nodes)
    if report.passed:
        return n * (n - 1)
    i, j = nodes.index(report.witness.vi), nodes.index(report.witness.vj)
    return i * (n - 1) + (j if j < i else j - 1) + 1


class Tracer:
    """In-memory span store and counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()  # open spans per layer
        self._op_id = -1
        self._active = False

    # --- spans ------------------------------------------------------------

    def _begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self._open[name.partition(".")[0]] += 1
        self.start.append(perf_counter())
        return index

    def _finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        self._open[self.names[self.name[index]].partition(".")[0]] -= 1

    def op_main(self, main: Callable[[Sequence[str]], int]) -> Callable[[Sequence[str]], int]:
        """``cli.main`` as one traced op: a new op id and a ``cli.main`` span."""

        def traced(argv: Sequence[str]) -> int:
            self._op_id += 1
            self._active = True
            index = self._begin("cli.main")
            try:
                return main(argv)
            finally:
                self._finish(index)
                self._active = False

        return traced

    def _spanned(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(index)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapped

    def _dominance(self, fn_name: str, fn: Callable, compares_sets: bool) -> Callable:
        # Calls from inside the dominance layer (socially_stronger calls
        # more_important and equally_strong) are counted but get no span of
        # their own: they add nothing to the layer's self time.
        calls_key = f"dominance.{fn_name}.calls"
        span_name = f"dominance.{fn_name}"
        counts, opened = self.counts, self._open

        @functools.wraps(fn)
        def wrapped(*args):
            if not self._active:
                return fn(*args)
            counts[calls_key] += 1
            if compares_sets:
                counts["dominance.profile_elems"] += len(args[1]) + len(args[2])
            if opened["dominance"]:
                return fn(*args)
            counts["dominance.calls"] += 1
            if opened["engine"]:
                counts["engine.comparisons"] += 1
            index = self._begin(span_name)
            try:
                result = fn(*args)
            finally:
                self._finish(index)
            if result:
                counts["dominance.true"] += 1
            return result

        return wrapped

    def _enumerating(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return self._timed_next(inner) if self._active else inner

        return wrapped

    def _timed_next(self, inner: Iterator) -> Iterator:
        while True:
            index = self._begin("rankings.enumerate")
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._finish(index)
            self.counts["rankings.preorders_yielded"] += 1
            yield item

    # --- result hooks -----------------------------------------------------

    def _parsed_graph(self, args, graph) -> None:
        self.counts["graphs.edges_parsed"] += len(graph.edges)

    def _ranked(self, args, result) -> None:
        self.counts["engine.iterations"] += result[1].iterations

    def _checked(self, args, report) -> None:
        graph = args[0]
        self.counts["axioms.passed"] += report.passed
        self.counts["axioms.pairs_scanned"] += pairs_scanned(graph.nodes, report)
        if self._open["certify"]:
            self.counts["certify.checks"] += 1

    def _certified(self, args, certificate) -> None:
        self.counts["certify.examined"] += certificate.examined
        self.counts["certify.sat"] += certificate.status.value == "SAT"

    # --- installation -----------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch the import sites for the duration of the block."""
        # ``reprank.certify`` is shadowed on the package by the certify()
        # function, so reach every submodule through import_module.
        mod = {name: importlib.import_module(f"reprank.{name}") for name in LAYERS}
        ranking_cls = mod["rankings"].Ranking
        cli, certify, engine = mod["cli"], mod["certify"], mod["engine"]
        spanned = self._spanned
        patches: list[tuple[object, str, object]] = [
            (cli, "parse_graph", spanned("graphs.parse_graph", cli.parse_graph, self._parsed_graph)),
            (cli, "parse_ranking", spanned("rankings.parse_ranking", cli.parse_ranking)),
            (cli, "rank_graph", spanned("engine.rank_graph", cli.rank_graph, self._ranked)),
            (cli, "check", spanned("axioms.check", cli.check, self._checked)),
            (cli, "certify", spanned("certify.certify", cli.certify, self._certified)),
            (certify, "check", spanned("axioms.check", certify.check, self._checked)),
            (certify, "enumerate_preorders", self._enumerating(certify.enumerate_preorders)),
            (engine, "normalize", spanned("rankings.normalize", engine.normalize)),
        ]
        from_levels = ranking_cls.__dict__["from_levels"].__func__
        patches.append(
            (ranking_cls, "from_levels", classmethod(spanned("rankings.from_levels", from_levels)))
        )
        dominance = mod["dominance"]
        for fn_name in SET_RELATIONS + NODE_RELATIONS:
            fn = getattr(dominance, fn_name, None)
            if fn is not None:
                wrapper = self._dominance(fn_name, fn, fn_name in SET_RELATIONS)
                patches.append((dominance, fn_name, wrapper))
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # --- results ----------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        own = self_times(self.parent, self.start, self.end)
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        selfs: Counter[str] = Counter()
        for i, name_id in enumerate(self.name):
            name = self.names[name_id]
            calls[name] += 1
            total[name] += self.end[i] - self.start[i]
            selfs[name] += own[i]
        return {name: (calls[name], total[name], selfs[name]) for name in calls}

    def layer_self(self, totals: dict[str, tuple[int, float, float]]) -> dict[str, float]:
        shares = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, own) in totals.items():
            shares[name.partition(".")[0]] += own
        return shares

    def metrics(self, output_bytes: int) -> dict[str, float]:
        """The benchmark's per-layer metrics for everything traced so far."""
        totals = self.span_totals()
        layer = self.layer_self(totals)
        c = self.counts

        def calls(name: str) -> int:
            return totals.get(name, (0, 0.0, 0.0))[0]

        def total(name: str) -> float:
            return totals.get(name, (0, 0.0, 0.0))[1]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        check_calls = calls("axioms.check")
        certify_calls = calls("certify.certify")
        return {
            "cli.self_s": layer["cli"],
            "cli.output_bytes": output_bytes,
            "graphs.parse_calls": calls("graphs.parse_graph"),
            "graphs.parse_s": total("graphs.parse_graph"),
            "graphs.edges_parsed": c["graphs.edges_parsed"],
            "rankings.parse_s": total("rankings.parse_ranking"),
            "rankings.build_calls": calls("rankings.from_levels") + calls("rankings.normalize"),
            "rankings.build_s": total("rankings.from_levels") + total("rankings.normalize"),
            "rankings.preorders_yielded": c["rankings.preorders_yielded"],
            "rankings.enumerate_s": total("rankings.enumerate"),
            "dominance.calls": c["dominance.calls"],
            "dominance.self_s": layer["dominance"],
            "dominance.more_important.calls": c["dominance.more_important.calls"],
            "dominance.equally_strong.calls": c["dominance.equally_strong.calls"],
            "dominance.socially_stronger.calls": c["dominance.socially_stronger.calls"],
            "dominance.profile_elems": c["dominance.profile_elems"],
            "dominance.true_frac": ratio(c["dominance.true"], c["dominance.calls"]),
            "engine.calls": calls("engine.rank_graph"),
            "engine.self_s": layer["engine"],
            "engine.iterations": c["engine.iterations"],
            "engine.comparisons_per_iteration": ratio(c["engine.comparisons"], c["engine.iterations"]),
            "axioms.check_calls": check_calls,
            "axioms.self_s": layer["axioms"],
            "axioms.pass_frac": ratio(c["axioms.passed"], check_calls),
            "axioms.pairs_scanned": c["axioms.pairs_scanned"],
            "certify.calls": certify_calls,
            "certify.self_s": layer["certify"],
            "certify.examined": c["certify.examined"],
            "certify.sat_frac": ratio(c["certify.sat"], certify_calls),
            "certify.checks_per_preorder": ratio(c["certify.checks"], c["rankings.preorders_yielded"]),
        }

    def write_spans(self, path: Path) -> None:
        """Dump every span as gzipped TSV, times relative to the first span."""
        origin = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, name_id in enumerate(self.name):
                out.write(
                    f"{i}\t{self.names[name_id]}\t{self.start[i] - origin:.9f}\t"
                    f"{self.end[i] - origin:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )
