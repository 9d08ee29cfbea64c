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
from typing import Callable, Iterable, Mapping, Sequence

from .dominance import Profile, _social
from .errors import ModeError, NodeSetMismatchError
from .graphs import Mode, ReputationGraph, _collection, _instance
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
        except (KeyError, AttributeError):  # AttributeError: not a str
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


# Clauses read node ranks and the sorted rank profiles of supporters (good)
# and accusers (bad), indexed alike: by position in ``check``, by name in the
# certifier's leaf. A single-polarity graph's own polarity is good and its bad
# side is empty, so T and M are Tc and Mc. A negative graph negates the node
# ranks, not the profiles: BT and BM read "ranked higher" as "lower".
Key = int | str
Ranks = Sequence[int] | Mapping[str, int]
Side = Sequence[Profile] | Mapping[str, Profile]
Backers = Sequence[frozenset[str]]  # one side's backer sets, by position


def _exists_strict_pair(above: Profile, below: Profile) -> bool:
    return bool(above) and bool(below) and above[0] < below[-1]


def _violates_t(rank: Ranks, good: Side, bad: Side, i: Key, j: Key) -> bool:
    return rank[i] >= rank[j] and _social(good[i], bad[i], good[j], bad[j])


def _violates_m(rank: Ranks, good: Side, bad: Side, i: Key, j: Key) -> bool:
    return (
        rank[i] < rank[j]
        and not _social(good[i], bad[i], good[j], bad[j])
        and not _exists_strict_pair(good[i], good[j])
        and not _exists_strict_pair(bad[j], bad[i])
    )


def _violates_vwm(rank: Ranks, good: Side, bad: Side, i: Key, j: Key) -> bool:
    return len(good[i]) <= len(good[j]) + 1 and _violates_m(rank, good, bad, i, j)


PairCheck = Callable[[Ranks, Side, Side, Key, Key], bool]

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
    Axiom.TC: (_violates_t, "socially stronger but the node is not ranked strictly higher"),
    Axiom.MC: (
        _violates_m,
        "ranked strictly higher without being socially stronger and with "
        "neither a supporter-side nor an accuser-side witness",
    ),
}


def _applicable(mode: Mode, axioms: Iterable[Axiom]) -> tuple[Axiom, ...]:
    """The requested axioms in the mode's fixed order. A non-collection, or the first
    one given that is not an Axiom, is a ValueError; one that does not apply is a ModeError."""
    allowed = AXIOMS_BY_MODE[mode]
    wanted = _collection(axioms, "axioms must be a collection of Axiom members")
    for axiom in wanted:
        if axiom not in allowed:
            if not isinstance(axiom, Axiom):
                raise ValueError(f"expected an Axiom, got {axiom!r}")
            raise ModeError(f"axiom {axiom.value} does not apply to {mode.value} graphs")
    return tuple(a for a in allowed if a in wanted)


class _LazyProfiles(dict):
    """One side's sorted rank profiles by node name, each sorted on first read."""

    def __init__(self, side: Mapping[str, frozenset[str]], rank: Callable[[str], int]):
        self.side, self.rank = side, rank

    def __missing__(self, v: str) -> Profile:
        profile = self[v] = tuple(sorted(map(self.rank, self.side[v])))
        return profile


def _may_violate(axiom: Axiom, good: Backers, bad: Backers, i: int, j: int) -> bool:
    """False only where no ranking can violate the axiom on (i, j): a strict cover
    needs a side as large that differs as a set. An M pair with equal sets can fail."""
    if axiom is Axiom.VWM:
        return len(good[i]) <= len(good[j]) + 1
    if _CLAUSES[axiom][0] is _violates_t:
        sized = len(good[i]) >= len(good[j]) and len(bad[j]) >= len(bad[i])
        return sized and (good[i], bad[i]) != (good[j], bad[j])
    return True


def _leaf(graph: ReputationGraph, axioms: Iterable[Axiom]) -> Callable[[Ranking], bool]:
    """The certifier's test of a ranking of the graph's nodes against every
    requested axiom: profiles sorted on demand, no report. Pairs are read by
    name, so the ranks serve as they are on all but a negative graph, and the
    pair that rejected the last ranking is tested first: consecutive preorders
    share long prefixes, so it is the likeliest to reject the next one too."""
    nodes, (good, bad) = graph.nodes, graph._backers
    pairs = [
        (_CLAUSES[axiom][0], nodes[i], nodes[j])
        for axiom in _applicable(graph.mode, axioms)
        for i, j in itertools.permutations(range(len(nodes)), 2)
        if _may_violate(axiom, good, bad, i, j)
    ]
    negative = graph.mode is Mode.NEGATIVE_ONLY
    unbacked = None if any(bad) else dict.fromkeys(nodes, ())  # cheaper than a lazy empty side
    good, bad = dict(zip(nodes, good)), dict(zip(nodes, bad))

    def satisfies(ranking: Ranking) -> bool:
        ranks = ranking._ranks
        rank = {v: -r for v, r in ranks.items()} if negative else ranks
        p = _LazyProfiles(good, ranks.__getitem__)
        q = unbacked or _LazyProfiles(bad, ranks.__getitem__)
        for pair in pairs:
            clause, i, j = pair
            if clause(rank, p, q, i, j):
                if pair is not pairs[0]:
                    pairs.remove(pair)
                    pairs.insert(0, pair)
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
    good, bad = ([tuple(sorted(map(rank, group))) for group in side] for side in sides)
    sign = -1 if graph.mode is Mode.NEGATIVE_ONLY else 1
    return [sign * rank(v) for v in names], good, bad


def pair_violates(
    graph: ReputationGraph, ranking: Ranking, axiom: Axiom, vi: str, vj: str
) -> str | None:
    """Reason the ordered pair (vi, vj) violates the axiom, or None."""
    _applicable(_instance(graph, ReputationGraph).mode, (axiom,))
    rank_of = _instance(ranking, Ranking).rank_of
    pair = [graph._position(v) for v in (vi, vj)]
    clause, reason = _CLAUSES[axiom]
    return reason if clause(*_snapshot(graph, rank_of, pair), 0, 1) else None


_snapped: tuple = (None, None, None)  # (graph, ranking, _snapshot) of the last check


def check(graph: ReputationGraph, ranking: Ranking, axiom: Axiom) -> AxiomReport:
    """Evaluate one axiom over all ordered pairs of distinct nodes. The snapshot
    is kept until a call with another graph or ranking, so each is sorted once."""
    global _snapped
    _applicable(_instance(graph, ReputationGraph).mode, (axiom,))
    ranks = _instance(ranking, Ranking)._ranks  # read only: a Ranking never changes
    if ranks.keys() != graph._index.keys():
        missing = sorted(graph._index.keys() - ranks.keys())
        extra = sorted(ranks.keys() - graph._index.keys())
        fault = f"{missing[0]!r} is unranked" if missing else f"{extra[0]!r} is not in the graph"
        raise NodeSetMismatchError(f"ranking does not cover exactly the graph's nodes: {fault}")
    if (snapped := _snapped)[0] is not graph or snapped[1] is not ranking:
        snapped = _snapped = (graph, ranking, _snapshot(graph, ranks.__getitem__))
    nodes, (rank, p, q) = graph.nodes, snapped[2]
    clause, reason = _CLAUSES[axiom]
    pairs = itertools.permutations(range(len(nodes)), 2)
    if clause is _violates_t:  # skip pairs already ordered or whose sizes rule out a cover
        g, b = ([len(s) for s in side] for side in graph._backers)
        pairs = ((i, j) for i, j in pairs if rank[i] >= rank[j] and g[i] >= g[j] and b[j] >= b[i])
    for i, j in pairs:
        if clause(rank, p, q, i, j):
            return AxiomReport(axiom, False, Witness(nodes[i], nodes[j], reason))
    return AxiomReport(axiom, True)


def check_all(graph: ReputationGraph, ranking: Ranking) -> list[AxiomReport]:
    """One report per axiom applicable to the graph's mode, in fixed order."""
    axioms = AXIOMS_BY_MODE[_instance(graph, ReputationGraph).mode]
    return [check(graph, ranking, axiom) for axiom in axioms]
