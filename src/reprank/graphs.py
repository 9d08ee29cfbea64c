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


_KINDS_BY_MODE = {
    Mode.POSITIVE_ONLY: frozenset({Feedback.POSITIVE}),
    Mode.NEGATIVE_ONLY: frozenset({Feedback.NEGATIVE}),
    Mode.COMBINED: frozenset(Feedback),
}

Edge = tuple[str, str, Feedback]


def _check_names(names: list) -> None:
    # Names are printable tokens without whitespace or '#', which starts a comment in both
    # formats. Only ' ' is printable of what str.split() breaks at, so count the join's spaces.
    try:
        text = " ".join(names)
    except TypeError:  # a name that is not a str: the loop below names it
        text = "#"
    if text.count(" ") >= len(names) or "#" in text or not text.isprintable() or not all(names):
        for name in names:
            ok = isinstance(name, str) and name.split() == [name] and name.isprintable()
            if not ok or "#" in name:
                raise ValueError(f"invalid node name {name!r}")


def _collection(value, what: str) -> list:
    """``list(value)``, refusing a string and what cannot be listed: ``{what}, not ...``."""
    if isinstance(value, str):
        raise ValueError(f"{what}, not the string {value!r}")
    try:
        return list(value)
    except TypeError:
        raise ValueError(f"{what}, not {value!r}") from None


def _instance(value, cls: type):
    """``value``, refused unless it is a ``cls``: the public calls' one type check."""
    if not isinstance(value, cls):
        raise ValueError(f"expected a {cls.__name__}, not {value!r}")
    return value


def _check_edge(edge: Edge, mode: Mode, seen: set[Edge]) -> Edge:
    """Reject what is not a triple, a bad name, a self-loop, a sign the mode
    forbids, or an edge already in ``seen``; otherwise add it there and return it."""
    try:
        src, dst, kind = edge
    except (TypeError, ValueError):  # not iterable, or not three items
        message = f"an edge must be a (source, target, kind) triple, not {edge!r}"
        raise ValueError(message) from None
    _check_names([src, dst])
    if src == dst:
        raise ValueError(f"self-loop on {src!r}")
    try:  # the property would add a Python call per edge
        allowed = kind in _KINDS_BY_MODE[mode]
    except TypeError:  # unhashable, so not a Feedback
        allowed = False
    if not allowed:
        if not isinstance(kind, Feedback):
            raise ValueError(f"unknown feedback kind {kind!r}")
        raise ModeError(f"{kind.value!r} edge not allowed in {mode.value} mode")
    edge = (src, dst, kind)
    if edge in seen:
        raise ValueError(f"duplicate edge {src} {kind.value} {dst}")
    seen.add(edge)
    return edge


class ReputationGraph:
    """Immutable directed feedback graph with at least one node and no self-loops.

    Node names are compared lexicographically; that order is the sole
    tie-breaking authority used by everything built on top of the graph.
    """

    __slots__ = ("nodes", "edges", "mode", "_index", "_incoming", "_backers", "_dependents")

    # The adjacency, built once and read by the engine and the checker:
    # ``_index`` maps a name to its position in ``nodes``; ``_incoming[kind]``
    # holds each position's backers of that kind (empty for a kind the mode
    # forbids); ``_backers`` holds the two sides that rankings compare, the
    # graph's own polarity first (supporters on a combined graph), so a
    # single-polarity graph's second side is empty; ``_dependents`` holds
    # the positions each position backs, of either kind.

    def __init__(self, nodes: Iterable[str], edges: Iterable[Edge], mode: Mode):
        if not isinstance(mode, Mode):
            raise ValueError(f"unknown mode {mode!r}")
        node_list = _collection(nodes, "nodes must be a collection of names")
        edge_list = _collection(edges, "edges must be a collection of edges")
        _check_names(node_list)  # before hashing them
        node_set = set(node_list)
        if not node_set:
            raise ValueError("graph has no nodes")
        if len(node_set) != len(node_list):
            raise ValueError("duplicate node names")
        edge_set: set[Edge] = set()
        for edge in edge_list:
            src, dst, _ = _check_edge(edge, mode, edge_set)
            if src not in node_set or dst not in node_set:
                raise UnknownNodeError(f"edge {src!r} -> {dst!r} uses an undeclared node")
        self._build(node_set, edge_set, mode)

    def _build(self, node_set: set[str], edge_set: set[Edge], mode: Mode) -> "ReputationGraph":
        """Fill the slots from nodes and edges already checked or built from checked ones."""
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
        pos, neg = frozen[Feedback.POSITIVE], frozen[Feedback.NEGATIVE]
        for name, value in (
            ("nodes", names),
            ("edges", frozenset(edge_set)),
            ("mode", mode),
            ("_index", index),
            ("_incoming", frozen),
            ("_backers", (neg, pos) if mode is Mode.NEGATIVE_ONLY else (pos, neg)),
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
        if kind is None and self.mode is Mode.COMBINED:
            raise ValueError("combined graphs need an explicit feedback kind")
        try:
            backers = self._backers[0] if kind is None else self._incoming[kind]
        except (KeyError, TypeError):  # TypeError: unhashable, so not a Feedback
            raise ValueError(f"unknown feedback kind {kind!r}") from None
        return backers[self._position(node)]

    def _position(self, node: str) -> int:
        try:
            return self._index[node]
        except (KeyError, TypeError):  # TypeError: unhashable, so not a name
            raise UnknownNodeError(f"unknown node: {node!r}") from None

    def complement(self) -> "ReputationGraph":
        """Negative-feedback graph accusing every agent one did not support.

        Defined for positive-only graphs: each agent gives negative feedback
        on exactly the other agents it did not point to, so the result has an
        edge u -> v (negative) for every ordered pair u != v absent here.
        """
        if self.mode is not Mode.POSITIVE_ONLY:
            raise ModeError("complement is defined for positive-only graphs")
        edges = {
            (u, v, Feedback.NEGATIVE)
            for i, u in enumerate(self.nodes)
            for j, v in enumerate(self.nodes)
            if i != j and j not in self._dependents[i]
        }
        return object.__new__(ReputationGraph)._build(set(self.nodes), edges, Mode.NEGATIVE_ONLY)

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
        for src, dst, kind in sorted(self.edges, key=_edge_order):
            lines.append(f"{src} {kind.value} {dst}")
        return "\n".join(lines) + "\n"


def _edge_order(edge: Edge) -> tuple[str, str, str]:
    return edge[0], edge[1], edge[2].value


def _reachable(adjacency: Sequence[Iterable[int]], root: int) -> set[int]:
    seen = {root}
    stack = [root]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


_HEADERS = {("mode", m.value): m for m in Mode}
_KINDS_BY_SIGN = {k.value: k for k in Feedback}


def _lines(text: str) -> list[str]:
    r"""Lines ended by ``\n``, ``\r\n`` or ``\r`` only, not every ``str.splitlines`` break."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _records(text: str) -> list[tuple[int, list[str]]]:
    """``(line_no, tokens)`` of every line not blank once its ``#`` comment is cut."""
    cut = (line.split("#", 1)[0].split() for line in _lines(text))
    return [(line_no, tokens) for line_no, tokens in enumerate(cut, start=1) if tokens]


def parse_graph(text: str) -> ReputationGraph:
    """Parse edge-list text into a validated ReputationGraph.

    Format: a ``mode positive|negative|combined`` header, then one edge per
    line as ``SOURCE SIGN TARGET`` with sign ``+`` or ``-``. Isolated nodes
    are declared as ``node NAME``; a three-token line is always an edge, so
    a node may itself be named ``node``. Blank lines and ``#`` comments are
    ignored. Edge endpoints are declared implicitly.
    """
    records = _records(text)
    mode = _HEADERS.get(tuple(records[0][1])) if records else None
    edges = [t for _, t in records[1:] if len(t) == 3]
    declared = [t[1] for _, t in records[1:] if len(t) == 2 and t[0] == "node"]
    src, signs, dst = zip(*edges) if edges else ((), (), ())
    kinds = [*map(_KINDS_BY_SIGN.get, signs)]
    edge_set = set(zip(src, dst, kinds))
    nodes = {*src, *dst, *declared}
    # Fault-free text passes each rule as one test over all its lines (tokens hold no
    # whitespace or '#'); text with a fault is walked line by line to name its first.
    if (
        mode is not None and nodes and len(edges) + len(declared) == len(records) - 1
        and _KINDS_BY_MODE[mode].issuperset(kinds) and not any(map(str.__eq__, src, dst))
        and len(edge_set) == len(edges) and " ".join(nodes).isprintable()
    ):
        return object.__new__(ReputationGraph)._build(nodes, edge_set, mode)
    mode, seen = None, set()
    try:
        for line_no, tokens in records:
            if mode is None:
                if len(tokens) != 2 or tokens[0] != "mode":
                    raise ValueError("expected header 'mode positive|negative|combined'")
                mode = _HEADERS.get(tuple(tokens))
                if mode is None:
                    raise ValueError(f"unknown mode {tokens[1]!r}")
            elif len(tokens) == 2 and tokens[0] == "node":
                _check_names(tokens[1:])
            elif len(tokens) != 3:
                raise ValueError("expected 'SOURCE SIGN TARGET' or 'node NAME'")
            elif tokens[1] not in _KINDS_BY_SIGN:
                raise ValueError(f"unknown sign {tokens[1]!r} (use + or -)")
            else:
                _check_edge((tokens[0], tokens[2], _KINDS_BY_SIGN[tokens[1]]), mode, seen)
    except (ValueError, ModeError) as exc:
        raise ParseError(str(exc), line_no) from None
    raise ParseError("missing 'mode' header" if mode is None else "graph has no nodes")
