"""Set-comparison relations between groups of ranked agents.

Given a current ranking, one support set dominates another when its members
can cover the other set's members one-for-one at equal or better rank. The
same combinatorics reads as "more important" for supporter sets and "more
reliable" for accuser sets; only the interpretation changes.

Sorted rank profiles of frozenset groups are memoised for one ranking at a
time: the memo holds the most recent ranking only and starts afresh when a
comparison arrives under a different one.
"""

from __future__ import annotations

import enum
from typing import AbstractSet

from .graphs import Feedback, ReputationGraph
from .rankings import Ranking


class Dominance(enum.Enum):
    """Relative strength of set A against set B under a ranking."""

    STRICTLY_DOMINATES = "strictly_dominates"
    EQUALLY_STRONG = "equally_strong"
    INCOMPARABLE = "incomparable"
    STRICTLY_DOMINATED = "strictly_dominated"


# (ranking, profiles of frozenset groups under it). Rankings are immutable,
# so a profile stays valid while its ranking is current, and holding the
# ranking keeps its identity from being reused. Profiles are never mutated.
_memo: tuple[Ranking | None, dict[frozenset[str], list[int]]] = (None, {})


def _sorted_ranks(ranking: Ranking, group: AbstractSet[str]) -> list[int]:
    if not isinstance(group, frozenset):
        return sorted(ranking.rank_of(node) for node in group)
    global _memo
    # Bind the pair once, so a concurrent reset cannot mix two rankings.
    owner, profiles = _memo
    if owner is not ranking:
        profiles = {}
        _memo = (ranking, profiles)
    profile = profiles.get(group)
    if profile is None:
        profile = sorted(ranking.rank_of(node) for node in group)
        profiles[group] = profile
    return profile


def at_least_as_strong(
    ranking: Ranking, a: AbstractSet[str], b: AbstractSet[str]
) -> bool:
    """True iff some injection f: B -> A has f(b) ranked at least as high as b.

    Greedy criterion: with both rank lists sorted most-important-first, A
    must be at least as large as B and beat it pointwise. Matching the i-th
    strongest of B to the i-th strongest of A is optimal, so this is
    equivalent to searching all injections.
    """
    ranks_a = _sorted_ranks(ranking, a)
    ranks_b = _sorted_ranks(ranking, b)
    if len(ranks_a) < len(ranks_b):
        return False
    return all(ra <= rb for ra, rb in zip(ranks_a, ranks_b))


def equally_strong(
    ranking: Ranking, a: AbstractSet[str], b: AbstractSet[str]
) -> bool:
    """True iff a rank-preserving bijection A <-> B exists (equal rank multisets)."""
    return _sorted_ranks(ranking, a) == _sorted_ranks(ranking, b)


def more_important(
    ranking: Ranking, a: AbstractSet[str], b: AbstractSet[str]
) -> bool:
    """True iff A covers B injectively and strictly outranks it overall."""
    ranks_a = _sorted_ranks(ranking, a)
    ranks_b = _sorted_ranks(ranking, b)
    if len(ranks_a) < len(ranks_b):
        return False
    if not all(ra <= rb for ra, rb in zip(ranks_a, ranks_b)):
        return False
    return ranks_a != ranks_b


def classify(
    ranking: Ranking, a: AbstractSet[str], b: AbstractSet[str]
) -> Dominance:
    if equally_strong(ranking, a, b):
        return Dominance.EQUALLY_STRONG
    if more_important(ranking, a, b):
        return Dominance.STRICTLY_DOMINATES
    if more_important(ranking, b, a):
        return Dominance.STRICTLY_DOMINATED
    return Dominance.INCOMPARABLE


def socially_stronger(
    ranking: Ranking, graph: ReputationGraph, u: str, v: str
) -> bool:
    """Combined-feedback strength: u beats v on supporters and accusers jointly.

    u is socially stronger than v iff u's accusers are less reliable than or
    equal to v's, u's supporters are more important than or equal to v's,
    and at least one of the two comparisons is strict.
    """
    good_u = graph.support_set(u, Feedback.POSITIVE)
    good_v = graph.support_set(v, Feedback.POSITIVE)
    bad_u = graph.support_set(u, Feedback.NEGATIVE)
    bad_v = graph.support_set(v, Feedback.NEGATIVE)
    bad_strict = more_important(ranking, bad_v, bad_u)
    bad_ok = bad_strict or equally_strong(ranking, bad_u, bad_v)
    good_strict = more_important(ranking, good_u, good_v)
    good_ok = good_strict or equally_strong(ranking, good_u, good_v)
    return bad_ok and good_ok and (bad_strict or good_strict)
