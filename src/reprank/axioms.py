"""Ranking axioms and their checkers.

Each axiom is a universally quantified condition over ordered pairs of
distinct agents. ``check`` evaluates one axiom on a (graph, ranking) pair
and reports the first violating pair in lexicographic order, with a
human-readable reason that can be re-verified.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .dominance import Profile, _profiles, _social, _strictly_covers
from .errors import ModeError, NodeSetMismatchError, UnknownNodeError
from .graphs import Mode, ReputationGraph
from .rankings import Ranking


class Axiom(enum.Enum):
    """The supported ranking axioms.

    T, M, VWM constrain positive-feedback rankings; BT, BM the negative
    counterparts; TC, MC the combined-feedback setting.
    """

    T = "T"
    M = "M"
    VWM = "VWM"
    BT = "BT"
    BM = "BM"
    TC = "Tc"
    MC = "Mc"
    __hash__ = object.__hash__  # as on graphs.Feedback

    @classmethod
    def from_name(cls, name: str) -> "Axiom":
        try:
            return _AXIOMS_BY_NAME[name.casefold()]
        except KeyError:
            known = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown axiom {name!r} (known: {known})") from None


_AXIOMS_BY_NAME = {a.value.casefold(): a for a in Axiom}

AXIOMS_BY_MODE: dict[Mode, tuple[Axiom, ...]] = {
    Mode.POSITIVE_ONLY: (Axiom.T, Axiom.M, Axiom.VWM),
    Mode.NEGATIVE_ONLY: (Axiom.BT, Axiom.BM),
    Mode.COMBINED: (Axiom.TC, Axiom.MC),
}


@dataclass(frozen=True)
class Witness:
    """A concrete ordered pair violating an axiom, with the reason."""

    vi: str
    vj: str
    reason: str


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking one axiom; carries a witness iff it failed."""

    axiom: Axiom
    passed: bool
    witness: Witness | None = None

    def render_text(self) -> str:
        if self.passed:
            return f"{self.axiom.value} pass"
        w = self.witness
        return f"{self.axiom.value} fail [witness: ({w.vi},{w.vj}) {w.reason}]"


# Clauses read node ranks and their sorted rank profiles on the compared
# sides, indexed alike: the graph's single polarity, or supporters and accusers.
# On a negative graph the node ranks are negated and the profiles are not, so
# BT and BM are T and M with "ranked higher" read as "ranked lower".
Side = Sequence[Profile]
Backers = Sequence[frozenset[str]]  # one side's backer sets, by position


def _exists_strict_pair(above: Profile, below: Profile) -> bool:
    return bool(above) and bool(below) and above[0] < below[-1]


def _violates_t(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> bool:
    return rank[i] >= rank[j] and _strictly_covers(p[i], p[j])


def _violates_m(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> bool:
    return (
        rank[i] < rank[j]
        and not _strictly_covers(p[i], p[j])
        and not _exists_strict_pair(p[i], p[j])
    )


def _violates_vwm(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> bool:
    return len(p[i]) <= len(p[j]) + 1 and _violates_m(rank, p, _, i, j)


def _violates_tc(rank: Sequence[int], good: Side, bad: Side, i: int, j: int) -> bool:
    return rank[i] >= rank[j] and _social(good[i], bad[i], good[j], bad[j])


def _violates_mc(rank: Sequence[int], good: Side, bad: Side, i: int, j: int) -> bool:
    return (
        rank[i] < rank[j]
        and not _social(good[i], bad[i], good[j], bad[j])
        and not _exists_strict_pair(good[i], good[j])
        and not _exists_strict_pair(bad[j], bad[i])
    )


PairCheck = Callable[[Sequence[int], Side, Side, int, int], bool]

_M_REASON = (
    "ranked strictly higher without supporter dominance and no supporter "
    "outranks any supporter of the lower node"
)

# Each axiom's pair clause, and the reason a witness pair gives when it fails.
_CLAUSES: dict[Axiom, tuple[PairCheck, str]] = {
    Axiom.T: (_violates_t, "supporters dominate but the node is not ranked strictly higher"),
    Axiom.M: (_violates_m, _M_REASON),
    Axiom.VWM: (_violates_vwm, "support sizes within one apart and " + _M_REASON),
    Axiom.BT: (_violates_t, "accusers dominate but the node is not ranked strictly lower"),
    Axiom.BM: (
        _violates_m,
        "ranked strictly lower without accuser dominance and no accuser "
        "outranks any accuser of the higher node",
    ),
    Axiom.TC: (_violates_tc, "socially stronger but the node is not ranked strictly higher"),
    Axiom.MC: (
        _violates_mc,
        "ranked strictly higher without being socially stronger and with "
        "neither a supporter-side nor an accuser-side witness",
    ),
}


def _applicable(mode: Mode, axioms: Iterable[Axiom]) -> tuple[Axiom, ...]:
    """The requested axioms in the mode's fixed order; ModeError names the
    first one, in the order given, that does not apply to the mode."""
    allowed = AXIOMS_BY_MODE[mode]
    wanted = tuple(axioms)
    for axiom in wanted:
        if axiom not in allowed:
            raise ModeError(f"axiom {axiom.value} does not apply to {mode.value} graphs")
    return tuple(a for a in allowed if a in wanted)


class _LazyProfiles(dict):
    """One side's sorted rank profiles by position, each sorted on first read."""

    def __init__(self, side: Backers, rank: Callable[[str], int]):
        self.side, self.rank = side, rank

    def __missing__(self, i: int) -> Profile:
        profile = self[i] = tuple(sorted(map(self.rank, self.side[i])))
        return profile


def _may_violate(axiom: Axiom, good: Backers, bad: Backers, i: int, j: int) -> bool:
    """False only where no ranking can violate the axiom on (i, j): a strict cover
    needs a side as large that differs as a set. An M pair with equal sets can fail."""
    if axiom is Axiom.VWM:
        return len(good[i]) <= len(good[j]) + 1
    if axiom is Axiom.TC:
        sized = len(good[i]) >= len(good[j]) and len(bad[j]) >= len(bad[i])
        return sized and (good[i], bad[i]) != (good[j], bad[j])
    if axiom in (Axiom.T, Axiom.BT):
        return len(good[i]) >= len(good[j]) and good[i] != good[j]
    return True


def _leaf(graph: ReputationGraph, axioms: Iterable[Axiom]) -> Callable[[Ranking], bool]:
    """The certifier's test of a ranking of the graph's nodes against every
    requested axiom: one snapshot, profiles sorted on demand, no report."""
    good, bad = graph._backers[0], graph._backers[-1]
    pairs = [
        (_CLAUSES[axiom][0], i, j)
        for axiom in _applicable(graph.mode, axioms)
        for i, j in itertools.permutations(range(len(graph.nodes)), 2)
        if _may_violate(axiom, good, bad, i, j)
    ]
    nodes, sign = graph.nodes, -1 if graph.mode is Mode.NEGATIVE_ONLY else 1

    def satisfies(ranking: Ranking) -> bool:
        ranks = ranking._ranks
        rank = [sign * ranks[v] for v in nodes]
        p = _LazyProfiles(good, ranks.__getitem__)
        q = p if bad is good else _LazyProfiles(bad, ranks.__getitem__)
        for clause, i, j in pairs:
            if clause(rank, p, q, i, j):
                return False
        return True

    return satisfies


def _snapshot(
    graph: ReputationGraph, rank: Callable[[str], int], positions: Sequence[int] | None = None
) -> tuple[list[int], Side, Side]:
    """Ranks of the nodes at ``positions`` (default: every node), negated on
    a negative graph, and their profiles on the graph's sides."""
    names, sides = graph.nodes, graph._backers
    if positions is not None:
        names = [names[i] for i in positions]
        sides = [[side[i] for i in positions] for side in sides]
    profiles = [_profiles(rank, side) for side in sides]
    sign = -1 if graph.mode is Mode.NEGATIVE_ONLY else 1
    return [sign * rank(v) for v in names], profiles[0], profiles[-1]


def pair_violates(
    graph: ReputationGraph, ranking: Ranking, axiom: Axiom, vi: str, vj: str
) -> str | None:
    """Reason the ordered pair (vi, vj) violates the axiom, or None."""
    _applicable(graph.mode, (axiom,))
    try:
        pair = [graph._index[v] for v in (vi, vj)]
    except KeyError as exc:
        raise UnknownNodeError(f"unknown node: {exc.args[0]!r}") from None
    clause, reason = _CLAUSES[axiom]
    return reason if clause(*_snapshot(graph, ranking.rank_of, pair), 0, 1) else None


def check(graph: ReputationGraph, ranking: Ranking, axiom: Axiom) -> AxiomReport:
    """Evaluate one axiom over all ordered pairs of distinct nodes."""
    if axiom not in AXIOMS_BY_MODE[graph.mode]:
        _applicable(graph.mode, (axiom,))
    ranks = ranking._ranks  # read only: a Ranking never changes
    if ranks.keys() != graph._index.keys():
        missing = sorted(graph._index.keys() - ranks.keys())
        extra = sorted(ranks.keys() - graph._index.keys())
        fault = f"{missing[0]!r} is unranked" if missing else f"{extra[0]!r} is not in the graph"
        raise NodeSetMismatchError(f"ranking does not cover exactly the graph's nodes: {fault}")
    nodes = graph.nodes
    rank, p, q = _snapshot(graph, ranks.__getitem__)
    clause, reason = _CLAUSES[axiom]
    for i, j in itertools.permutations(range(len(nodes)), 2):
        if clause(rank, p, q, i, j):
            return AxiomReport(axiom, False, Witness(nodes[i], nodes[j], reason))
    return AxiomReport(axiom, True)


def check_all(graph: ReputationGraph, ranking: Ranking) -> list[AxiomReport]:
    """One report per axiom applicable to the graph's mode, in fixed order."""
    return [check(graph, ranking, axiom) for axiom in AXIOMS_BY_MODE[graph.mode]]
