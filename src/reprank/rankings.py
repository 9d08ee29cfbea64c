"""Social rankings as total preorders.

A ranking assigns every agent a dense positive rank; rank 1 is the most
important level and agents sharing a rank are tied. Total preorders over a
node set are enumerated as ordered set partitions.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Mapping

from .errors import (
    EnumerationCapError,
    NodeSetMismatchError,
    ParseError,
    UnknownNodeError,
)
from .graphs import _check_name

DEFAULT_ENUMERATION_CAP = 8


class Ranking:
    """Immutable total preorder over a node set, stored as dense ranks.

    The used rank values are exactly 1..k for some k, and a smaller rank
    means a more important agent. Node names obey the graph's name rule, so
    ``parse_ranking(r.serialize()) == r`` holds for every ranking.
    """

    __slots__ = ("_ranks", "_levels")

    def __init__(self, ranks: Mapping[str, int]):
        if not ranks:
            raise ValueError("a ranking needs at least one node")
        for node, rank in ranks.items():
            _check_name(node)
            if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
                raise ValueError(f"rank of {node!r} must be a positive integer")
        used = set(ranks.values())
        if used != set(range(1, len(used) + 1)):
            raise ValueError("ranks must be dense: exactly the values 1..k")
        grouped: list[list[str]] = [[] for _ in range(len(used))]
        for node, rank in ranks.items():
            grouped[rank - 1].append(node)
        self._fill(dict(ranks), tuple(tuple(sorted(level)) for level in grouped))

    def _fill(self, ranks: dict[str, int], levels: tuple[tuple[str, ...], ...]) -> "Ranking":
        """Set the slots unchecked: ``levels`` are the sorted levels of valid ``ranks``."""
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "_levels", levels)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Ranking is immutable")

    @classmethod
    def from_levels(cls, levels: Iterable[Iterable[str]]) -> "Ranking":
        """Build a ranking from importance levels, most important first."""
        ranks: dict[str, int] = {}
        for rank, level in enumerate(levels, start=1):
            members = list(level)
            if not members:
                raise ValueError("levels must be non-empty")
            for node in members:
                if node in ranks:
                    raise ValueError(f"node {node!r} appears in two levels")
                ranks[node] = rank
        return cls(ranks)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._ranks))

    @property
    def levels(self) -> tuple[tuple[str, ...], ...]:
        """Importance levels, most important first, each lex-sorted."""
        return self._levels

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def rank_of(self, node: str) -> int:
        try:
            return self._ranks[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {node!r}") from None

    def as_dict(self) -> dict[str, int]:
        return dict(self._ranks)

    def __len__(self) -> int:
        return len(self._ranks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash(frozenset(self._ranks.items()))

    def __repr__(self) -> str:
        body = " > ".join("=".join(level) for level in self._levels)
        return f"Ranking({body})"

    def serialize(self) -> str:
        """One ``NAME RANK`` line per node, in lexicographic node order."""
        return "".join(f"{node} {self._ranks[node]}\n" for node in self.nodes)


def normalize(raw: Mapping[str, int]) -> Ranking:
    """Compress arbitrary integer scores onto dense ranks, order preserved."""
    distinct = sorted(set(raw.values()))
    dense = {score: position for position, score in enumerate(distinct, start=1)}
    return Ranking({node: dense[score] for node, score in raw.items()})


def is_refinement(later: Ranking, earlier: Ranking) -> bool:
    """True iff every strict preference of ``earlier`` survives in ``later``.

    Ties of ``earlier`` may break either way; a reversed strict pair or a
    newly merged strict pair disqualifies.
    """
    if set(later.nodes) != set(earlier.nodes):
        raise NodeSetMismatchError("rankings cover different node sets")
    # Strict separation must hold between consecutive earlier levels; it then
    # chains to all level pairs.
    for upper, lower in itertools.pairwise(earlier.levels):
        if max(later.rank_of(n) for n in upper) >= min(
            later.rank_of(n) for n in lower
        ):
            return False
    return True


def enumerate_preorders(
    nodes: Iterable[str], cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Ranking]:
    """Yield every total preorder over ``nodes`` exactly once.

    Rankings come out as ordered set partitions built block-by-block in
    lexicographic node order, so the stream is deterministic. Node sets
    larger than ``cap`` and invalid names are refused up front.
    """
    ordered = tuple(sorted(set(nodes)))
    if not ordered:
        raise ValueError("cannot enumerate preorders over an empty node set")
    if len(ordered) > cap:
        raise EnumerationCapError(
            f"{len(ordered)} nodes exceeds the enumeration cap of {cap}"
        )
    for name in ordered:
        _check_name(name)
    for levels in _ordered_partitions(ordered):
        ranks = {node: rank for rank, level in enumerate(levels, start=1) for node in level}
        yield object.__new__(Ranking)._fill(ranks, levels)


def _ordered_partitions(pool: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Each first block of a non-empty sorted pool in (size, lex) order, then every
    ordered partition of the rest; depth-first on a stack of (blocks, candidates)."""

    @functools.cache
    def splits(rest: tuple[str, ...]) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        return [
            (block, tuple(n for n in rest if n not in block))
            for size in range(1, len(rest) + 1)
            for block in itertools.combinations(rest, size)
        ]

    stack = [((), iter(splits(pool)))]
    while stack:
        prefix, candidates = stack[-1]
        for block, rest in candidates:
            if rest:
                stack.append(((*prefix, block), iter(splits(rest))))
                break
            yield (*prefix, block)
        else:
            stack.pop()


def parse_ranking(text: str) -> Ranking:
    """Parse ``NAME RANK`` lines into a Ranking.

    Blank lines and ``#`` comments are ignored; each node may appear once
    and the ranks must be dense positive integers.
    """
    ranks: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError("expected 'NAME RANK'", line_no)
        name, rank_text = tokens
        try:
            _check_name(name)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        if name in ranks:
            raise ParseError(f"node {name!r} ranked twice", line_no)
        # int() would also accept signs, underscores and non-ASCII digits.
        if not (rank_text.isascii() and rank_text.isdigit()):
            raise ParseError(
                f"rank {rank_text!r} must be written with ASCII digits 0-9", line_no
            )
        rank = int(rank_text)
        if rank < 1:
            raise ParseError(f"rank must be positive, got {rank}", line_no)
        ranks[name] = rank
    if not ranks:
        raise ParseError("ranking text contains no entries")
    try:
        return Ranking(ranks)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
