"""Ranking engines: iterative refinement of a coarse initial preorder.

All three engines share one loop. Start from an initial ranking, then
repeatedly find two tied agents where one's backers dominate the other's
under the *current* ranking, and split their level. Each split strictly
increases the number of levels, so at most |V| - 1 iterations run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from . import dominance
from .errors import ModeError
from .graphs import Mode, ReputationGraph
from .rankings import Ranking, normalize


@dataclass(frozen=True)
class TraceStep:
    """One refinement iteration: who moved, which way, and the result."""

    index: int
    chosen: str
    witness: str
    moved: tuple[str, ...]
    left_behind: tuple[str, ...]
    direction: Literal["above", "below"]
    ranking: Ranking


@dataclass(frozen=True)
class RefinementTrace:
    """Initial ranking plus every split the engine performed, in order."""

    initial: Ranking
    steps: tuple[TraceStep, ...]

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def rankings(self) -> tuple[Ranking, ...]:
        """The full chain: initial ranking, then one snapshot per step."""
        return (self.initial,) + tuple(step.ranking for step in self.steps)


def _refine(
    graph: ReputationGraph,
    initial: Ranking,
    direction: Literal["above", "below"],
) -> tuple[Ranking, RefinementTrace]:
    """Split levels of ``initial`` until no levelmate dominates another.

    The backers are the graph's sides: its one polarity, compared with
    ``more_important``, or supporters and accusers, compared with
    ``socially_stronger``. An agent is eligible when it dominates a
    levelmate and no levelmate dominates it; one exists whenever any
    levelmate dominates another. Each step splits the level of the
    lex-smallest eligible agent at its lex-smallest dominated levelmate.
    Nodes are indices in name order, so these are the smallest indices.

    A split keeps all other ranks in order, so a comparison can change only
    if the backers it reads have ranks in both new levels. Cached results
    therefore survive a split unless they involve a dependent of the smaller
    side: a node backed from there.
    """
    names = graph.nodes
    n = len(names)
    sides = [graph._incoming[kind] for kind in graph._sides]
    good, bad = sides if len(sides) == 2 else (sides[0], None)
    levels = [[graph._index[v] for v in level] for level in initial.levels]
    known: dict[int, bool] = {}  # u * n + v -> u dominates v under current
    current = initial

    def stronger(u: int, v: int) -> bool:
        if bad is None:
            return dominance.more_important(current, good[u], good[v])
        # A group covers only groups no larger than itself, under any ranking.
        if len(good[u]) < len(good[v]) or len(bad[v]) < len(bad[u]):
            return False
        return dominance.socially_stronger(current, graph, names[u], names[v])

    def same(u: int, v: int) -> bool:
        return all(dominance.equally_strong(current, side[u], side[v]) for side in sides)

    def beats(u: int, v: int) -> bool:
        key = u * n + v
        result = known.get(key)
        if result is None:
            result = known[key] = stronger(u, v)
        return result

    def scan(level: list[int]) -> tuple[int, int] | None:
        for vi in level:
            witness = next((vj for vj in level if vj != vi and beats(vi, vj)), None)
            if witness is not None and not any(
                beats(vs, vi) for vs in level if vs != vi
            ):
                return vi, witness
        return None

    steps: list[TraceStep] = []
    while True:
        picked = [s for s in map(scan, levels) if s is not None]
        if not picked:
            break
        if len(steps) >= n - 1:
            raise RuntimeError("refinement exceeded the |V| - 1 iteration bound")
        chosen, witness = min(picked)
        k = current.rank_of(names[chosen]) - 1
        tied = levels[k]
        moved = [v for v in tied if v == chosen or same(chosen, v)]
        left_behind = [v for v in tied if v not in moved]
        split = [moved, left_behind] if direction == "above" else [left_behind, moved]
        levels[k : k + 1] = split
        current = Ranking.from_levels([names[v] for v in level] for level in levels)
        smaller = moved if len(moved) <= len(left_behind) else left_behind
        touched = {d for s in smaller for d in graph._dependents[s]}
        for d in touched:
            for x in levels[current.rank_of(names[d]) - 1]:
                known.pop(d * n + x, None)
                known.pop(x * n + d, None)
        steps.append(
            TraceStep(
                index=len(steps) + 1,
                chosen=names[chosen],
                witness=names[witness],
                moved=tuple(names[v] for v in moved),
                left_behind=tuple(names[v] for v in left_behind),
                direction=direction,
                ranking=current,
            )
        )
    return current, RefinementTrace(initial=initial, steps=tuple(steps))


def rank_positive(graph: ReputationGraph) -> tuple[Ranking, RefinementTrace]:
    """Rank a positive-feedback graph; more supporters start higher.

    Splits promote an agent whose supporter set strictly dominates a tied
    agent's; the output always satisfies the transitivity axiom.
    """
    if graph.mode is not Mode.POSITIVE_ONLY:
        raise ModeError("rank_positive needs a positive-only graph")
    initial = normalize({v: -len(graph.support_set(v)) for v in graph.nodes})
    return _refine(graph, initial, "above")


def rank_negative(graph: ReputationGraph) -> tuple[Ranking, RefinementTrace]:
    """Rank a negative-feedback graph; fewer accusers start higher.

    Mirrors the positive engine: an agent whose accuser set strictly
    dominates (is more reliable than) a tied agent's gets pushed below its
    level. The output always satisfies the accusation-transitivity axiom.
    """
    if graph.mode is not Mode.NEGATIVE_ONLY:
        raise ModeError("rank_negative needs a negative-only graph")
    initial = normalize({v: len(graph.support_set(v)) for v in graph.nodes})
    return _refine(graph, initial, "below")


def rank_combined(graph: ReputationGraph) -> tuple[Ranking, RefinementTrace]:
    """Rank a mixed-feedback graph via the socially-stronger relation.

    Starts all-equal; an agent socially stronger than a tied one moves
    above, carrying along levelmates whose supporter and accuser sets both
    match its own exactly.
    """
    if graph.mode is not Mode.COMBINED:
        raise ModeError("rank_combined needs a combined-mode graph")
    initial = Ranking({v: 1 for v in graph.nodes})
    return _refine(graph, initial, "above")


_ENGINES = {
    Mode.POSITIVE_ONLY: rank_positive,
    Mode.NEGATIVE_ONLY: rank_negative,
    Mode.COMBINED: rank_combined,
}


def rank_graph(graph: ReputationGraph) -> tuple[Ranking, RefinementTrace]:
    """Dispatch to the engine matching the graph's mode."""
    return _ENGINES[graph.mode](graph)
