"""Reputation graphs: directed feedback edges between agents.

A graph records who gave feedback on whom. Every edge carries a polarity:
positive feedback ("u supports v") or negative feedback ("u accuses v").
Graphs never contain self-loops, and a graph's mode restricts which
polarities its edges may use.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from .errors import ModeError, ParseError, UnknownNodeError


class Feedback(enum.Enum):
    """Polarity of a single feedback edge."""

    POSITIVE = "+"
    NEGATIVE = "-"
    __hash__ = object.__hash__  # members are singletons; Enum's is a Python call


class Mode(enum.Enum):
    """Which edge polarities a graph admits."""

    POSITIVE_ONLY = "positive"
    NEGATIVE_ONLY = "negative"
    COMBINED = "combined"
    __hash__ = object.__hash__  # as on Feedback

    @property
    def allowed_kinds(self) -> frozenset[Feedback]:
        return _KINDS_BY_MODE[self]


_KINDS_BY_MODE = {
    Mode.POSITIVE_ONLY: frozenset({Feedback.POSITIVE}),
    Mode.NEGATIVE_ONLY: frozenset({Feedback.NEGATIVE}),
    Mode.COMBINED: frozenset(Feedback),
}

Edge = tuple[str, str, Feedback]


def _check_name(name: str) -> None:
    # One non-empty whitespace-free token; '#' starts a comment in both text
    # formats, so a name holding one could not be written back as text.
    if not (name.split() == [name] and name.isprintable() and "#" not in name):
        raise ValueError(f"invalid node name {name!r}")


def _check_edge(edge: Edge, mode: Mode, seen: set[Edge]) -> None:
    """Reject an edge with a bad name, a self-loop, a sign the mode forbids,
    or one already in ``seen``; otherwise add it there."""
    src, dst, kind = edge
    _check_name(src)
    _check_name(dst)
    if src == dst:
        raise ValueError(f"self-loop on {src!r}")
    if kind not in _KINDS_BY_MODE[mode]:  # the property would add a Python call per edge
        raise ModeError(f"{kind.value!r} edge not allowed in {mode.value} mode")
    if edge in seen:
        raise ValueError(f"duplicate edge {src} {kind.value} {dst}")
    seen.add(edge)


class ReputationGraph:
    """Immutable directed feedback graph with at least one node and no self-loops.

    Node names are compared lexicographically; that order is the sole
    tie-breaking authority used by everything built on top of the graph.
    """

    __slots__ = ("nodes", "edges", "mode", "_index", "_incoming", "_backers", "_dependents")

    # The adjacency, built once and read by the engine and the checker:
    # ``_index`` maps a name to its position in ``nodes``; ``_incoming[kind]``
    # holds each position's backers of that kind (empty for a kind the mode
    # forbids); ``_backers`` holds the ``_incoming`` rows of the kinds the
    # mode admits, in ``Feedback`` order: the sides that rankings compare;
    # ``_dependents`` holds the positions each position backs, of either kind.

    def __init__(self, nodes: Iterable[str], edges: Iterable[Edge], mode: Mode):
        node_list = list(nodes)
        node_set = set(node_list)
        if not node_set:
            raise ValueError("graph has no nodes")
        if len(node_set) != len(node_list):
            raise ValueError("duplicate node names")
        for name in node_list:
            _check_name(name)
        edge_set: set[Edge] = set()
        for src, dst, kind in edges:
            _check_edge((src, dst, kind), mode, edge_set)
            if src not in node_set or dst not in node_set:
                raise UnknownNodeError(f"edge {src!r} -> {dst!r} uses an undeclared node")
        self._build(node_set, edge_set, mode)

    def _build(self, node_set: set[str], edge_set: set[Edge], mode: Mode) -> "ReputationGraph":
        """Fill the slots from nodes and edges checked above or by ``parse_graph``."""
        names = tuple(sorted(node_set))
        index = {v: i for i, v in enumerate(names)}
        incoming: dict[Feedback, list[set[str]]] = {
            kind: [set() for _ in names] for kind in Feedback
        }
        dependents: list[set[int]] = [set() for _ in names]
        for src, dst, kind in edge_set:
            incoming[kind][index[dst]].add(src)
            dependents[index[src]].add(index[dst])
        frozen = {k: tuple(map(frozenset, b)) for k, b in incoming.items()}
        for name, value in (
            ("nodes", names),
            ("edges", frozenset(edge_set)),
            ("mode", mode),
            ("_index", index),
            ("_incoming", frozen),
            ("_backers", tuple(frozen[k] for k in Feedback if k in mode.allowed_kinds)),
            ("_dependents", tuple(map(frozenset, dependents))),
        ):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ReputationGraph is immutable")

    def __reduce__(self):  # as on Ranking
        return (ReputationGraph, (self.nodes, self.edges, self.mode))

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
        if kind is None and len(self._backers) != 1:
            raise ValueError("combined graphs need an explicit feedback kind")
        try:
            backers = self._backers[0] if kind is None else self._incoming[kind]
            return backers[self._index[node]]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {node!r}") from None

    def complement(self) -> "ReputationGraph":
        """Negative-feedback graph accusing every agent one did not support.

        Defined for positive-only graphs: each agent gives negative feedback
        on exactly the other agents it did not point to, so the result has an
        edge u -> v (negative) for every ordered pair u != v absent here.
        """
        if self.mode is not Mode.POSITIVE_ONLY:
            raise ModeError("complement is defined for positive-only graphs")
        comp_edges = [
            (u, v, Feedback.NEGATIVE)
            for i, u in enumerate(self.nodes)
            for j, v in enumerate(self.nodes)
            if i != j and j not in self._dependents[i]
        ]
        return ReputationGraph(self.nodes, comp_edges, Mode.NEGATIVE_ONLY)

    def is_strongly_connected(self) -> bool:
        """True iff a directed path joins every ordered node pair (kinds ignored)."""
        backward: list[list[int]] = [[] for _ in self.nodes]
        for src, targets in enumerate(self._dependents):
            for dst in targets:
                backward[dst].append(src)
        n = len(self.nodes)
        return len(_reachable(self._dependents, 0)) == n == len(_reachable(backward, 0))

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


def _reachable(adjacency: Sequence[Iterable[int]], root: int) -> set[int]:
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


def _records(text: str) -> list[tuple[int, list[str]]]:
    """``(line_no, tokens)`` of every line not blank once its ``#`` comment is cut."""
    cut = (line.split("#", 1)[0].split() for line in text.splitlines())
    return [(line_no, tokens) for line_no, tokens in enumerate(cut, start=1) if tokens]


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
    edges: set[Edge] = set()
    try:
        for line_no, tokens in _records(text):
            if mode is None:
                if len(tokens) != 2 or tokens[0] != "mode":
                    raise ValueError("expected header 'mode positive|negative|combined'")
                mode = _MODES_BY_NAME.get(tokens[1])
                if mode is None:
                    raise ValueError(f"unknown mode {tokens[1]!r}")
            elif len(tokens) == 2 and tokens[0] == "node":
                _check_name(tokens[1])
                nodes.add(tokens[1])
            elif len(tokens) != 3:
                raise ValueError("expected 'SOURCE SIGN TARGET' or 'node NAME'")
            else:
                src, sign, dst = tokens
                kind = _KINDS_BY_SIGN.get(sign)
                if kind is None:
                    raise ValueError(f"unknown sign {sign!r} (use + or -)")
                _check_edge((src, dst, kind), mode, edges)
                nodes.add(src)
                nodes.add(dst)
    except (ValueError, ModeError) as exc:
        raise ParseError(str(exc), line_no) from None
    if mode is None:
        raise ParseError("missing 'mode' header")
    if not nodes:
        raise ParseError("graph has no nodes")
    return object.__new__(ReputationGraph)._build(nodes, edges, mode)
