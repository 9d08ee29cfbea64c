"""Plain reference implementations of the engines and the axiom clauses.

These are the straightforward forms: every comparison sorts the two support
sets' ranks afresh, every split rescans every level from scratch, and the
preorder enumerator recurses. The differential tests require the library's
cached engine, integer-profile checker and stack-based enumerator to agree
with them on final rankings, every trace step, every axiom verdict and every
enumerated preorder in order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Literal

from reprank import Feedback, Mode, Ranking, ReputationGraph
from reprank.engine import RefinementTrace, TraceStep
from reprank.rankings import normalize

POS = Feedback.POSITIVE
NEG = Feedback.NEGATIVE


# ---------------------------------------------------------------------------
# group strength


def sorted_ranks(ranking: Ranking, group) -> list[int]:
    return sorted(ranking.rank_of(node) for node in group)


def more_important(ranking: Ranking, a, b) -> bool:
    ranks_a, ranks_b = sorted_ranks(ranking, a), sorted_ranks(ranking, b)
    if len(ranks_a) < len(ranks_b):
        return False
    if not all(ra <= rb for ra, rb in zip(ranks_a, ranks_b)):
        return False
    return ranks_a != ranks_b


def equally_strong(ranking: Ranking, a, b) -> bool:
    return sorted_ranks(ranking, a) == sorted_ranks(ranking, b)


def socially_stronger(ranking: Ranking, graph: ReputationGraph, u: str, v: str) -> bool:
    good_u, good_v = graph.support_set(u, POS), graph.support_set(v, POS)
    bad_u, bad_v = graph.support_set(u, NEG), graph.support_set(v, NEG)
    bad_strict = more_important(ranking, bad_v, bad_u)
    bad_ok = bad_strict or equally_strong(ranking, bad_u, bad_v)
    good_strict = more_important(ranking, good_u, good_v)
    good_ok = good_strict or equally_strong(ranking, good_u, good_v)
    return bad_ok and good_ok and (bad_strict or good_strict)


# ---------------------------------------------------------------------------
# engines

Relation = Callable[[Ranking, str, str], bool]


def pick_split(ranking: Ranking, stronger: Relation) -> tuple[str, str] | None:
    """Lex-smallest eligible agent and its lex-smallest dominated levelmate."""
    for vi in sorted(ranking.nodes):
        mates = [n for n in ranking.levels[ranking.rank_of(vi) - 1] if n != vi]
        witnesses = [vj for vj in mates if stronger(ranking, vi, vj)]
        if not witnesses:
            continue
        if any(stronger(ranking, vs, vi) for vs in mates):
            continue
        return vi, min(witnesses)
    return None


def refine(
    initial: Ranking,
    stronger: Relation,
    same: Relation,
    direction: Literal["above", "below"],
) -> tuple[Ranking, RefinementTrace]:
    current = initial
    steps: list[TraceStep] = []
    while True:
        picked = pick_split(current, stronger)
        if picked is None:
            break
        if len(steps) >= len(current) - 1:
            raise RuntimeError("refinement exceeded the |V| - 1 iteration bound")
        chosen, witness = picked
        level = current.levels[current.rank_of(chosen) - 1]
        moved = tuple(n for n in level if n == chosen or same(current, chosen, n))
        left_behind = tuple(n for n in level if n not in set(moved))
        split = (moved, left_behind) if direction == "above" else (left_behind, moved)
        new_levels: list[tuple[str, ...]] = []
        for lvl in current.levels:
            if chosen in lvl:
                new_levels.extend(split)
            else:
                new_levels.append(lvl)
        current = Ranking.from_levels(new_levels)
        steps.append(
            TraceStep(
                index=len(steps) + 1,
                chosen=chosen,
                witness=witness,
                moved=moved,
                left_behind=left_behind,
                direction=direction,
                ranking=current,
            )
        )
    return current, RefinementTrace(initial=initial, steps=tuple(steps))


def rank_graph(graph: ReputationGraph) -> tuple[Ranking, RefinementTrace]:
    if graph.mode is Mode.COMBINED:
        good = {v: graph.support_set(v, POS) for v in graph.nodes}
        bad = {v: graph.support_set(v, NEG) for v in graph.nodes}
        return refine(
            Ranking({v: 1 for v in graph.nodes}),
            lambda r, u, v: socially_stronger(r, graph, u, v),
            lambda r, u, v: equally_strong(r, good[u], good[v])
            and equally_strong(r, bad[u], bad[v]),
            "above",
        )
    sets = {v: graph.support_set(v) for v in graph.nodes}
    sign = -1 if graph.mode is Mode.POSITIVE_ONLY else 1
    return refine(
        normalize({v: sign * len(sets[v]) for v in graph.nodes}),
        lambda r, u, v: more_important(r, sets[u], sets[v]),
        lambda r, u, v: equally_strong(r, sets[u], sets[v]),
        "above" if graph.mode is Mode.POSITIVE_ONLY else "below",
    )


# ---------------------------------------------------------------------------
# preorder enumeration


def ordered_partitions(pool: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Every ordered partition of a sorted pool: each first block by size, then
    in lexicographic order, followed by every ordered partition of the rest.
    The empty pool has exactly one, with no blocks."""
    if not pool:
        yield ()
        return
    for size in range(1, len(pool) + 1):
        for block in itertools.combinations(pool, size):
            rest = tuple(n for n in pool if n not in block)
            for suffix in ordered_partitions(rest):
                yield (block,) + suffix


# ---------------------------------------------------------------------------
# axiom clauses


def exists_strict_pair(ranking: Ranking, above, below) -> bool:
    if not above or not below:
        return False
    top_above = min(ranking.rank_of(a) for a in above)
    return top_above < max(ranking.rank_of(b) for b in below)


def violates_t(g, r, vi, vj):
    ri, rj = g.support_set(vi), g.support_set(vj)
    if more_important(r, ri, rj) and r.rank_of(vi) >= r.rank_of(vj):
        return "supporters dominate but the node is not ranked strictly higher"
    return None


def violates_m(g, r, vi, vj):
    if r.rank_of(vi) >= r.rank_of(vj):
        return None
    ri, rj = g.support_set(vi), g.support_set(vj)
    if more_important(r, ri, rj) or exists_strict_pair(r, ri, rj):
        return None
    return (
        "ranked strictly higher without supporter dominance and no supporter "
        "outranks any supporter of the lower node"
    )


def violates_vwm(g, r, vi, vj):
    if len(g.support_set(vi)) > len(g.support_set(vj)) + 1:
        return None
    reason = violates_m(g, r, vi, vj)
    return None if reason is None else "support sizes within one apart and " + reason


def violates_bt(g, r, vi, vj):
    ri, rj = g.support_set(vi), g.support_set(vj)
    if more_important(r, ri, rj) and r.rank_of(vi) <= r.rank_of(vj):
        return "accusers dominate but the node is not ranked strictly lower"
    return None


def violates_bm(g, r, vi, vj):
    if r.rank_of(vi) <= r.rank_of(vj):
        return None
    ri, rj = g.support_set(vi), g.support_set(vj)
    if more_important(r, ri, rj) or exists_strict_pair(r, ri, rj):
        return None
    return (
        "ranked strictly lower without accuser dominance and no accuser "
        "outranks any accuser of the higher node"
    )


def violates_tc(g, r, vi, vj):
    if socially_stronger(r, g, vi, vj) and r.rank_of(vi) >= r.rank_of(vj):
        return "socially stronger but the node is not ranked strictly higher"
    return None


def violates_mc(g, r, vi, vj):
    if r.rank_of(vi) >= r.rank_of(vj) or socially_stronger(r, g, vi, vj):
        return None
    if exists_strict_pair(r, g.support_set(vi, POS), g.support_set(vj, POS)):
        return None
    if exists_strict_pair(r, g.support_set(vj, NEG), g.support_set(vi, NEG)):
        return None
    return (
        "ranked strictly higher without being socially stronger and with "
        "neither a supporter-side nor an accuser-side witness"
    )


CLAUSES = {
    "T": violates_t,
    "M": violates_m,
    "VWM": violates_vwm,
    "BT": violates_bt,
    "BM": violates_bm,
    "Tc": violates_tc,
    "Mc": violates_mc,
}


def first_violation(graph: ReputationGraph, ranking: Ranking, axiom_name: str):
    """(vi, vj, reason) of the first violating ordered pair, or None."""
    clause = CLAUSES[axiom_name]
    for vi in graph.nodes:
        for vj in graph.nodes:
            if vi != vj:
                reason = clause(graph, ranking, vi, vj)
                if reason is not None:
                    return vi, vj, reason
    return None
