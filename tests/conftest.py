"""Shared fixtures, graph builders, and independent test oracles."""

from __future__ import annotations

import copy
import functools
import itertools
import math
import pickle
import random

import pytest
from hypothesis import strategies as st

from reprank import Feedback, Mode, Ranking, ReputationGraph

POS = Feedback.POSITIVE
NEG = Feedback.NEGATIVE


# Copy, deep copy and pickle: the three ways a value is duplicated or sent to
# another process. The immutable types must survive each one.
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


# ---------------------------------------------------------------------------
# graph builders


def positive_graph(pairs, extra_nodes=()):
    nodes = {n for pair in pairs for n in pair} | set(extra_nodes)
    return ReputationGraph(
        nodes, [(u, v, POS) for u, v in pairs], Mode.POSITIVE_ONLY
    )


def negative_graph(pairs, extra_nodes=()):
    nodes = {n for pair in pairs for n in pair} | set(extra_nodes)
    return ReputationGraph(
        nodes, [(u, v, NEG) for u, v in pairs], Mode.NEGATIVE_ONLY
    )


def combined_graph(pos_pairs, neg_pairs, extra_nodes=()):
    nodes = (
        {n for pair in pos_pairs for n in pair}
        | {n for pair in neg_pairs for n in pair}
        | set(extra_nodes)
    )
    edges = [(u, v, POS) for u, v in pos_pairs] + [
        (u, v, NEG) for u, v in neg_pairs
    ]
    return ReputationGraph(nodes, edges, Mode.COMBINED)


def random_graph(rng: random.Random, n: int, p: float, mode: Mode) -> ReputationGraph:
    names = [f"v{i}" for i in range(n)]
    pairs = [(u, v) for u in names for v in names if u != v]
    edges: list[tuple[str, str, Feedback]] = []
    for u, v in pairs:
        if mode in (Mode.POSITIVE_ONLY, Mode.COMBINED) and rng.random() < p:
            edges.append((u, v, POS))
        if mode in (Mode.NEGATIVE_ONLY, Mode.COMBINED) and rng.random() < p:
            edges.append((u, v, NEG))
    return ReputationGraph(names, edges, mode)


def all_edge_subsets(nodes: tuple[str, ...]):
    """Every directed edge set (as source/target pairs) over the nodes."""
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    for size in range(len(pairs) + 1):
        yield from itertools.combinations(pairs, size)


# ---------------------------------------------------------------------------
# named example graphs used across test modules


@pytest.fixture
def triangle_with_supporter():
    """4 nodes: a 3-cycle a->b->c->a plus an outside supporter d->a."""
    return positive_graph([("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")])


@pytest.fixture
def cycle4_with_chord_pairs():
    """Edge pairs of the 4-cycle a->b->c->d->a with chord a->c."""
    return [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]


@pytest.fixture
def tail_into_cycle3():
    """4 nodes: tail a->b feeding the 3-cycle b->c->d->b."""
    return positive_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")])


# ---------------------------------------------------------------------------
# independent oracles


def preorder_count(n: int) -> int:
    """Total preorders on n elements, by the first-block recurrence."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(
            sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1))
        )
    return counts[n]


@functools.lru_cache(maxsize=None)
def injection_exists(ranks_a: tuple[int, ...], ranks_b: tuple[int, ...]) -> bool:
    """Explicit search for an injection from B into A with weakly better images.

    Tries every assignment of distinct A-ranks to the B-ranks and accepts
    when each image rank is less than or equal to its preimage rank.
    """
    if len(ranks_b) > len(ranks_a):
        return False
    for image in itertools.permutations(ranks_a, len(ranks_b)):
        if all(fa <= b for fa, b in zip(image, ranks_b)):
            return True
    return False


def rank_profile(ranking: Ranking, group) -> tuple[int, ...]:
    return tuple(sorted(ranking.rank_of(node) for node in group))


# ---------------------------------------------------------------------------
# hypothesis strategies

NODE_POOL = tuple("abcdefgh")

# Names that collide with the format's own words, plus arbitrary printable
# text without whitespace or '#'.
node_names = st.one_of(
    st.sampled_from(["node", "mode", "+", "-", "positive"]),
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Z", "C"), blacklist_characters="#"
        ),
        min_size=1,
        max_size=4,
    ),
)


@st.composite
def rankings(draw, min_nodes: int = 1, max_nodes: int = 6) -> Ranking:
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    nodes = NODE_POOL[:n]
    raw = {node: draw(st.integers(min_value=1, max_value=n)) for node in nodes}
    distinct = sorted(set(raw.values()))
    dense = {value: pos for pos, value in enumerate(distinct, start=1)}
    return Ranking({node: dense[value] for node, value in raw.items()})


@st.composite
def graphs(draw, mode: Mode | None = None, min_nodes: int = 1, max_nodes: int = 6):
    if mode is None:
        mode = draw(st.sampled_from(list(Mode)))
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    nodes = NODE_POOL[:n]
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edges: list[tuple[str, str, Feedback]] = []
    for u, v in pairs:
        if mode in (Mode.POSITIVE_ONLY, Mode.COMBINED) and draw(st.booleans()):
            edges.append((u, v, POS))
        if mode in (Mode.NEGATIVE_ONLY, Mode.COMBINED) and draw(st.booleans()):
            edges.append((u, v, NEG))
    return ReputationGraph(nodes, edges, mode)


@st.composite
def graph_with_ranking(draw, mode: Mode | None = None, max_nodes: int = 5):
    graph = draw(graphs(mode=mode, max_nodes=max_nodes))
    n = len(graph.nodes)
    raw = {
        node: draw(st.integers(min_value=1, max_value=n)) for node in graph.nodes
    }
    distinct = sorted(set(raw.values()))
    dense = {value: pos for pos, value in enumerate(distinct, start=1)}
    return graph, Ranking({node: dense[value] for node, value in raw.items()})
