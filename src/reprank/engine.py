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

    Splitting a level into U above L keeps each sorted profile's block of it
    in place, so a cover can break but never appear: a cached False between
    differing profiles is final. A True for (u, v) breaks only if u's
    supporters meet L and v's meet U, or v's accusers meet L and u's meet U;
    a False between equal profiles changes only if one end is backed from U
    and the other from L. Both make the two agents fragile partners, and a
    split tests the partners of the smaller side's dependents that are still
    levelmates. An agent the walk finds ineligible records its blocker, and is
    skipped as idle until a cached result on it is dropped or a split moves its
    blocker away: itself if it beats no levelmate, else a levelmate that beats
    it. An awake agent has no blocker. Levels only shrink, and a dropped result
    wakes both its agents, so beating no levelmate survives every split, and a
    blocker still beats the agent while the two stay levelmates.
    """
    names = graph.nodes
    n = len(names)
    good, bad = graph._backers
    sign, direction = _START[graph.mode]
    initial = normalize({v: sign * len(b) for v, b in zip(names, good)})
    backed_by = [g | b for g, b in zip(good, bad)]
    size_good, size_bad = [len(g) for g in good], [len(b) for b in bad]
    name_levels = list(initial.levels)  # the same levels as below, by name
    levels = [[graph._index[v] for v in level] for level in name_levels]
    level_of = {v: level for level in levels for v in level}
    known: dict[int, bool] = {}  # u * n + v -> u dominates v under current
    fragile: list[set[int]] = [set() for _ in names]  # cached pairs a split may change
    blocker: list[int | None] = [None] * n  # why an idle agent is ineligible; None if awake
    current = initial

    if graph.mode is Mode.COMBINED:
        def stronger(u: int, v: int) -> bool:
            return dominance.socially_stronger(current, graph, names[u], names[v])
    else:
        def stronger(u: int, v: int) -> bool:
            return dominance.more_important(current, good[u], good[v])

    def same(u: int, v: int) -> bool:
        # Equal profiles need equal sizes, and equal sets have equal profiles.
        if size_good[u] != size_good[v] or size_bad[u] != size_bad[v]:
            return False
        return dominance.equally_strong(current, good[u], good[v]) and (
            bad[u] == bad[v] or dominance.equally_strong(current, bad[u], bad[v])
        )

    def beats(u: int, v: int) -> bool:
        # A group covers only groups no larger than itself, under any ranking,
        # so such a pair is decided here and never cached.
        if size_good[u] < size_good[v] or size_bad[v] < size_bad[u]:
            return False
        key = u * n + v
        result = known.get(key)
        if result is None:
            result = known[key] = stronger(u, v)
            if v not in fragile[u] and (result or same(u, v)):
                fragile[u].add(v)
                fragile[v].add(u)
        return result

    def across(a: frozenset[str], b: frozenset[str]) -> bool:
        return not (a.isdisjoint(low) or b.isdisjoint(up))  # a meets L and b meets U

    def split_at() -> tuple[int, int] | None:
        for vi in range(n):
            if blocker[vi] is not None:
                continue
            level = level_of[vi]
            witness = next((vj for vj in level if vj != vi and beats(vi, vj)), None)
            if witness is None:
                blocker[vi] = vi  # no witness: its own level never holds one again
            elif (b := next((vs for vs in level if vs != vi and beats(vs, vi)), None)) is None:
                return vi, witness
            else:
                blocker[vi] = b
        return None

    steps: list[TraceStep] = []
    while (found := split_at()) is not None:
        if len(steps) >= n - 1:
            raise RuntimeError("refinement exceeded the |V| - 1 iteration bound")
        chosen, witness = found
        k = current._ranks[names[chosen]] - 1
        tied = level_of[chosen]
        moved = [v for v in tied if v == chosen or same(chosen, v)]
        left_behind = [v for v in tied if v not in moved]
        split = [moved, left_behind] if direction == "above" else [left_behind, moved]
        name_levels[k : k + 1] = [tuple(names[v] for v in level) for level in split]
        current = Ranking.from_levels(name_levels)
        for level in split:
            for v in level:
                level_of[v] = level
        for v in tied:
            if level_of.get(blocker[v]) is not level_of[v]:  # awake, or its blocker moved away
                blocker[v] = None
        up, low = set(name_levels[k]), set(name_levels[k + 1])
        smaller = min(moved, left_behind, key=len)
        for d in {d for s in smaller for d in graph._dependents[s]}:
            for x in [x for x in fragile[d] if level_of[x] is level_of[d]]:
                if keys := [key for key in (d * n + x, x * n + d) if known.get(key)]:
                    u, v = divmod(keys[0], n)  # the True one: it breaks with a cover
                    if not (across(good[u], good[v]) or across(bad[v], bad[u])):
                        continue
                elif across(backed_by[d], backed_by[x]) or across(backed_by[x], backed_by[d]):
                    keys = [d * n + x, x * n + d]  # equal profiles may part
                else:
                    continue
                fragile[d].discard(x)
                fragile[x].discard(d)
                blocker[d] = blocker[x] = None
                for key in keys:
                    known.pop(key, None)
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
