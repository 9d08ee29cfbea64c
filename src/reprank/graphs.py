"""Reputation graphs: directed feedback edges between agents.

A graph records who gave feedback on whom. Every edge carries a polarity:
positive feedback ("u supports v") or negative feedback ("u accuses v").
Graphs never contain self-loops, and a graph's mode restricts which
polarities its edges may use.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from .errors import ModeError, ParseError, UnknownNodeError


class Feedback(enum.Enum):
    """Polarity of a single feedback edge."""

    POSITIVE = "+"
    NEGATIVE = "-"


class Mode(enum.Enum):
    """Which edge polarities a graph admits."""

    POSITIVE_ONLY = "positive"
    NEGATIVE_ONLY = "negative"
    COMBINED = "combined"

    @property
    def allowed_kinds(self) -> frozenset[Feedback]:
        if self is Mode.POSITIVE_ONLY:
            return frozenset({Feedback.POSITIVE})
        if self is Mode.NEGATIVE_ONLY:
            return frozenset({Feedback.NEGATIVE})
        return frozenset({Feedback.POSITIVE, Feedback.NEGATIVE})

    @property
    def single_kind(self) -> Feedback | None:
        """The unique edge kind of a single-polarity mode, else None."""
        if self is Mode.POSITIVE_ONLY:
            return Feedback.POSITIVE
        if self is Mode.NEGATIVE_ONLY:
            return Feedback.NEGATIVE
        return None


Edge = tuple[str, str, Feedback]


def _valid_node_name(name: str) -> bool:
    # One non-empty whitespace-free token; '#' starts a comment in both text
    # formats, so a name holding one could not be written back as text.
    return name.split() == [name] and name.isprintable() and "#" not in name


class ReputationGraph:
    """Immutable directed feedback graph without self-loops.

    Node names are compared lexicographically; that order is the sole
    tie-breaking authority used by everything built on top of the graph.
    """

    __slots__ = ("nodes", "edges", "mode", "_incoming")

    def __init__(self, nodes: Iterable[str], edges: Iterable[Edge], mode: Mode):
        node_list = list(nodes)
        node_set = set(node_list)
        if len(node_set) != len(node_list):
            raise ValueError("duplicate node names")
        for name in node_list:
            if not _valid_node_name(name):
                raise ValueError(f"invalid node name: {name!r}")
        edge_list = list(edges)
        edge_set = set(edge_list)
        if len(edge_set) != len(edge_list):
            raise ValueError("duplicate feedback edge")
        for src, dst, kind in edge_list:
            if src == dst:
                raise ValueError(f"self-loop on {src!r}")
            if src not in node_set or dst not in node_set:
                raise UnknownNodeError(f"edge {src!r} -> {dst!r} uses an undeclared node")
            if kind not in mode.allowed_kinds:
                raise ModeError(f"{kind.value!r} edge not allowed in {mode.value} mode")
        object.__setattr__(self, "nodes", tuple(sorted(node_set)))
        object.__setattr__(self, "edges", frozenset(edge_set))
        object.__setattr__(self, "mode", mode)
        incoming: dict[Feedback, dict[str, set[str]]] = {
            kind: {n: set() for n in node_set} for kind in Feedback
        }
        for src, dst, kind in edge_set:
            incoming[kind][dst].add(src)
        object.__setattr__(
            self,
            "_incoming",
            {
                kind: {n: frozenset(sources) for n, sources in per_node.items()}
                for kind, per_node in incoming.items()
            },
        )

    def __setattr__(self, name, value):
        raise AttributeError("ReputationGraph is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReputationGraph):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self.mode is other.mode
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges, self.mode))

    def __repr__(self) -> str:
        return (
            f"ReputationGraph(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"mode={self.mode.value})"
        )

    def support_set(self, node: str, kind: Feedback | None = None) -> frozenset[str]:
        """Agents with a feedback edge of the given kind into ``node``.

        For single-polarity graphs the kind may be omitted and defaults to
        the graph's own polarity. Combined graphs must name the kind.
        """
        if kind is None:
            kind = self.mode.single_kind
            if kind is None:
                raise ValueError("combined graphs need an explicit feedback kind")
        try:
            return self._incoming[kind][node]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {node!r}") from None

    def has_edge(self, src: str, dst: str, kind: Feedback) -> bool:
        return (src, dst, kind) in self.edges

    def complement(self) -> "ReputationGraph":
        """Negative-feedback graph accusing every agent one did not support.

        Defined for positive-only graphs: each agent gives negative feedback
        on exactly the other agents it did not point to, so the result has an
        edge u -> v (negative) for every ordered pair u != v absent here.
        """
        if self.mode is not Mode.POSITIVE_ONLY:
            raise ModeError("complement is defined for positive-only graphs")
        present = {(src, dst) for src, dst, _ in self.edges}
        comp_edges = [
            (u, v, Feedback.NEGATIVE)
            for u in self.nodes
            for v in self.nodes
            if u != v and (u, v) not in present
        ]
        return ReputationGraph(self.nodes, comp_edges, Mode.NEGATIVE_ONLY)

    def is_strongly_connected(self) -> bool:
        """True iff a directed path joins every ordered node pair (kinds ignored)."""
        if not self.nodes:
            raise ValueError("connectivity is undefined for the empty graph")
        forward: dict[str, list[str]] = {n: [] for n in self.nodes}
        backward: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, dst, _ in self.edges:
            forward[src].append(dst)
            backward[dst].append(src)
        root = self.nodes[0]
        return len(_reachable(forward, root)) == len(self.nodes) and len(
            _reachable(backward, root)
        ) == len(self.nodes)

    def serialize(self) -> str:
        """Edge-list text; nodes and edges written in lexicographic order."""
        lines = [f"mode {self.mode.value}"]
        covered = {n for src, dst, _ in self.edges for n in (src, dst)}
        for node in self.nodes:
            if node not in covered:
                lines.append(f"node {node}")
        for src, dst, kind in sorted(self.edges, key=lambda e: (e[0], e[1], e[2].value)):
            lines.append(f"{src} {kind.value} {dst}")
        return "\n".join(lines) + "\n"


def _reachable(adjacency: dict[str, list[str]], root: str) -> set[str]:
    seen = {root}
    stack = [root]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


_MODES_BY_NAME = {m.value: m for m in Mode}
_KINDS_BY_SIGN = {k.value: k for k in Feedback}


def parse_graph(text: str) -> ReputationGraph:
    """Parse edge-list text into a validated ReputationGraph.

    Format: a ``mode positive|negative|combined`` header, then one edge per
    line as ``SOURCE SIGN TARGET`` with sign ``+`` or ``-``. Isolated nodes
    are declared as ``node NAME``; a three-token line is always an edge, so
    a node may itself be named ``node``. Blank lines and ``#`` comments are
    ignored. Edge endpoints are declared implicitly.
    """
    mode: Mode | None = None
    nodes: set[str] = set()
    edges: list[Edge] = []
    seen_edges: set[Edge] = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if mode is None:
            if len(tokens) != 2 or tokens[0] != "mode":
                raise ParseError("expected header 'mode positive|negative|combined'", line_no)
            try:
                mode = _MODES_BY_NAME[tokens[1]]
            except KeyError:
                raise ParseError(f"unknown mode {tokens[1]!r}", line_no) from None
            continue
        if len(tokens) == 2 and tokens[0] == "node":
            name = tokens[1]
            if not _valid_node_name(name):
                raise ParseError(f"invalid node name {name!r}", line_no)
            nodes.add(name)
            continue
        if len(tokens) != 3:
            raise ParseError("expected 'SOURCE SIGN TARGET' or 'node NAME'", line_no)
        src, sign, dst = tokens
        try:
            kind = _KINDS_BY_SIGN[sign]
        except KeyError:
            raise ParseError(f"unknown sign {sign!r} (use + or -)", line_no) from None
        for name in (src, dst):
            if not _valid_node_name(name):
                raise ParseError(f"invalid node name {name!r}", line_no)
        if src == dst:
            raise ParseError(f"self-loop on {src!r}", line_no)
        if kind not in mode.allowed_kinds:
            raise ParseError(
                f"{sign!r} edge not allowed in {mode.value} mode", line_no
            )
        edge = (src, dst, kind)
        if edge in seen_edges:
            raise ParseError(f"duplicate edge {src} {sign} {dst}", line_no)
        seen_edges.add(edge)
        edges.append(edge)
        nodes.add(src)
        nodes.add(dst)
    if mode is None:
        raise ParseError("missing 'mode' header")
    return ReputationGraph(nodes, edges, mode)


def edge_pairs(graph: ReputationGraph, kind: Feedback) -> Iterator[tuple[str, str]]:
    """All (source, target) pairs of the given kind, in lexicographic order."""
    return iter(
        sorted((src, dst) for src, dst, k in graph.edges if k is kind)
    )
