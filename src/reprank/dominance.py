"""Set-comparison relations between groups of ranked agents.

Given a current ranking, one support set dominates another when its members
can cover the other set's members one-for-one at equal or better rank. The
same combinatorics reads as "more important" for supporter sets and "more
reliable" for accuser sets; only the interpretation changes.

Every relation is decided on sorted rank profiles (a group's member ranks as
an ascending int tuple) by ``_covers`` and ``_social``. The public functions
below, which the engines call, sort a frozenset's profile once per
``Ranking`` object and keep it until a call with another. The axiom checker
sorts each node's profiles at most once per ranking and calls the primitives.
"""

from __future__ import annotations

import itertools
from operator import eq, le
from typing import AbstractSet, Callable

from .graphs import Feedback, ReputationGraph
from .rankings import Ranking

Profile = tuple[int, ...]
_memo: tuple[Ranking | None, dict[frozenset[str], Profile]] = (None, {})  # see _pair


def _profile(known: dict, rank: Callable[[str], int], group: AbstractSet[str]) -> Profile:
    if type(group) is not frozenset:  # a plain set is never stored
        return tuple(sorted(map(rank, group)))
    profile = known.get(group)
    if profile is None:
        profile = known[group] = tuple(sorted(map(rank, group)))
    return profile


def _pair(ranking: Ranking, a: AbstractSet, b: AbstractSet) -> tuple[Profile, Profile]:
    """Profiles of A and B, memoised for ``ranking`` only: another drops the memo."""
    global _memo
    if (memo := _memo)[0] is not ranking:
        memo = _memo = (ranking, {})
    known, rank = memo[1], ranking._ranks.__getitem__
    try:
        return _profile(known, rank, a), _profile(known, rank, b)
    except (KeyError, TypeError):  # TypeError: an unhashable member, so not a name
        for member in itertools.chain(a, b):
            ranking.rank_of(member)  # the first member that is not a node raises
        raise


def _covers(a: Profile, b: Profile) -> bool:
    """Profile A covers B: see ``at_least_as_strong``."""
    return len(a) >= len(b) and all(map(le, a, b))


def _social(good_u: Profile, bad_u: Profile, good_v: Profile, bad_v: Profile) -> bool:
    """u's supporters cover v's, v's accusers cover u's, and one side differs.
    Equal accusers (all empty on a single-polarity graph) cover without a call."""
    return (
        (good_u != good_v or bad_u != bad_v)
        and _covers(good_u, good_v)
        and (bad_u == bad_v or _covers(bad_v, bad_u))
    )


def at_least_as_strong(
    ranking: Ranking, a: AbstractSet[str], b: AbstractSet[str]
) -> bool:
    """True iff some injection f: B -> A has f(b) ranked at least as high as b.

    Greedy criterion: with both rank lists sorted most-important-first, A
    must be at least as large as B and beat it pointwise. Matching the i-th
    strongest of B to the i-th strongest of A is optimal, so this is
    equivalent to searching all injections.
    """
    return _covers(*_pair(ranking, a, b))


def equally_strong(
    ranking: Ranking, a: AbstractSet[str], b: AbstractSet[str]
) -> bool:
    """True iff a rank-preserving bijection A <-> B exists (equal rank multisets)."""
    return eq(*_pair(ranking, a, b))


def more_important(
    ranking: Ranking, a: AbstractSet[str], b: AbstractSet[str]
) -> bool:
    """True iff A covers B injectively and strictly outranks it overall."""
    a, b = _pair(ranking, a, b)
    return a != b and _covers(a, b)


def socially_stronger(
    ranking: Ranking, graph: ReputationGraph, u: str, v: str
) -> bool:
    """Combined-feedback strength: u beats v on supporters and accusers jointly.

    u is socially stronger than v iff u's accusers are less reliable than or
    equal to v's, u's supporters are more important than or equal to v's,
    and at least one of the two comparisons is strict. The supporters are
    read only once the accusers pass, and compared for equality only when
    the accusers were strict.
    """
    iu, iv = graph._position(u), graph._position(v)
    good, bad = graph._incoming[Feedback.POSITIVE], graph._incoming[Feedback.NEGATIVE]
    bad_strict = more_important(ranking, bad[iv], bad[iu])
    if not (bad_strict or equally_strong(ranking, bad[iu], bad[iv])):
        return False
    if more_important(ranking, good[iu], good[iv]):
        return True
    return bad_strict and equally_strong(ranking, good[iu], good[iv])
