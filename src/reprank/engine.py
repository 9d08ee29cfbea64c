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
from .graphs import Mode, ReputationGraph, _instance
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


_START: dict[Mode, tuple[int, Literal["above", "below"]]] = {
    Mode.POSITIVE_ONLY: (-1, "above"),  # (sign of backer counts in the start, split direction)
    Mode.NEGATIVE_ONLY: (1, "below"),
    Mode.COMBINED: (0, "above"),
}


def _refine(graph: ReputationGraph) -> tuple[Ranking, RefinementTrace]:
    """Split levels of the mode's start until no levelmate dominates another.

    The backers are the graph's two sides, own polarity first (the other is
    empty on one polarity), compared with ``more_important`` on one polarity
    and with ``socially_stronger`` on both. An agent is eligible when it
    dominates a levelmate and no levelmate dominates it; one exists whenever
    any levelmate dominates another. Each step splits the level of the
    lex-smallest eligible agent at its lex-smallest dominated levelmate.
    Nodes are indices in name order, so one walk over them finds both.

    A split keeps all other ranks in order, so a comparison can change only
    if the backers it reads have ranks in both new levels. A cached result
    is dropped exactly then: one end is backed from the smaller side and the
    two ends together are backed from the larger. An agent the walk found
    ineligible stays idle, and is skipped, until its level splits or a
    cached result on it is dropped: only those can change its verdict.
    """
    names = graph.nodes
    n = len(names)
    good, bad = graph._backers
    sign, direction = _START[graph.mode]
    initial = normalize({v: sign * len(b) for v, b in zip(names, good)})
    backed_by = [g | b for g, b in zip(good, bad)]
    levels = [[graph._index[v] for v in level] for level in initial.levels]
    known: dict[int, bool] = {}  # u * n + v -> u dominates v under current
    idle = bytearray(n)
    current = initial

    def stronger(u: int, v: int) -> bool:
        if graph.mode is not Mode.COMBINED:
            return dominance.more_important(current, good[u], good[v])
        # A group covers only groups no larger than itself, under any ranking.
        if len(good[u]) < len(good[v]) or len(bad[v]) < len(bad[u]):
            return False
        return dominance.socially_stronger(current, graph, names[u], names[v])

    def same(u: int, v: int) -> bool:  # equal sets have equal profiles
        return dominance.equally_strong(current, good[u], good[v]) and (
            bad[u] == bad[v] or dominance.equally_strong(current, bad[u], bad[v])
        )

    def beats(u: int, v: int) -> bool:
        key = u * n + v
        result = known.get(key)
        if result is None:
            result = known[key] = stronger(u, v)
        return result

    def split_at() -> tuple[int, int] | None:
        ranks = current._ranks
        for vi in range(n):
            if idle[vi]:
                continue
            level = levels[ranks[names[vi]] - 1]
            witness = next((vj for vj in level if vj != vi and beats(vi, vj)), None)
            if witness is not None and not any(
                beats(vs, vi) for vs in level if vs != vi
            ):
                return vi, witness
            idle[vi] = 1
        return None

    steps: list[TraceStep] = []
    while (found := split_at()) is not None:
        if len(steps) >= n - 1:
            raise RuntimeError("refinement exceeded the |V| - 1 iteration bound")
        chosen, witness = found
        k = current._ranks[names[chosen]] - 1
        tied = levels[k]
        moved = [v for v in tied if v == chosen or same(chosen, v)]
        left_behind = [v for v in tied if v not in moved]
        split = [moved, left_behind] if direction == "above" else [left_behind, moved]
        levels[k : k + 1] = split
        current = Ranking.from_levels([names[v] for v in level] for level in levels)
        for v in tied:
            idle[v] = 0
        smaller, larger = sorted((moved, left_behind), key=len)
        larger_names = {names[v] for v in larger}
        touched = {d for s in smaller for d in graph._dependents[s]}
        for d in touched:
            both = not backed_by[d].isdisjoint(larger_names)
            for x in levels[current._ranks[names[d]] - 1]:
                if both or not backed_by[x].isdisjoint(larger_names):
                    dropped = known.pop(d * n + x, None), known.pop(x * n + d, None)
                    if dropped != (None, None):
                        idle[d] = idle[x] = 0
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
    if _instance(graph, ReputationGraph).mode is not Mode.POSITIVE_ONLY:
        raise ModeError("rank_positive needs a positive-only graph")
    return _refine(graph)


def rank_negative(graph: ReputationGraph) -> tuple[Ranking, RefinementTrace]:
    """Rank a negative-feedback graph; fewer accusers start higher.

    Mirrors the positive engine: an agent whose accuser set strictly
    dominates (is more reliable than) a tied agent's gets pushed below its
    level. The output always satisfies the accusation-transitivity axiom.
    """
    if _instance(graph, ReputationGraph).mode is not Mode.NEGATIVE_ONLY:
        raise ModeError("rank_negative needs a negative-only graph")
    return _refine(graph)


def rank_combined(graph: ReputationGraph) -> tuple[Ranking, RefinementTrace]:
    """Rank a mixed-feedback graph via the socially-stronger relation.

    Starts all-equal; an agent socially stronger than a tied one moves
    above, carrying along levelmates whose supporters and accusers are
    equally strong as its own: equal rank profiles, not necessarily equal sets.
    """
    if _instance(graph, ReputationGraph).mode is not Mode.COMBINED:
        raise ModeError("rank_combined needs a combined-mode graph")
    return _refine(graph)


def rank_graph(graph: ReputationGraph) -> tuple[Ranking, RefinementTrace]:
    """Rank a graph of any mode: the mode picks the start and the split direction."""
    return _refine(_instance(graph, ReputationGraph))
