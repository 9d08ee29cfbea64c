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


def _exists_strict_pair(above: Profile, below: Profile) -> bool:
    return bool(above) and bool(below) and above[0] < below[-1]


def _violates_t(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> bool:
    return _strictly_covers(p[i], p[j]) and rank[i] >= rank[j]


def _violates_m(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> bool:
    return (
        rank[i] < rank[j]
        and not _strictly_covers(p[i], p[j])
        and not _exists_strict_pair(p[i], p[j])
    )


def _violates_vwm(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> bool:
    return len(p[i]) <= len(p[j]) + 1 and _violates_m(rank, p, _, i, j)


def _violates_tc(rank: Sequence[int], good: Side, bad: Side, i: int, j: int) -> bool:
    return _social(good[i], bad[i], good[j], bad[j]) and rank[i] >= rank[j]


def _violates_mc(rank: Sequence[int], good: Side, bad: Side, i: int, j: int) -> bool:
    return (
        rank[i] < rank[j]
        and not _social(good[i], bad[i], good[j], bad[j])
        and not _exists_strict_pair(good[i], good[j])
        and not _exists_strict_pair(bad[j], bad[i])
    )


PairCheck = Callable[[Sequence[int], Side, Side, int, int], bool]

_PAIR_CHECKS: dict[Axiom, PairCheck] = {
    Axiom.T: _violates_t,
    Axiom.M: _violates_m,
    Axiom.VWM: _violates_vwm,
    Axiom.BT: _violates_t,
    Axiom.BM: _violates_m,
    Axiom.TC: _violates_tc,
    Axiom.MC: _violates_mc,
}

_REASONS: dict[Axiom, str] = {
    Axiom.T: "supporters dominate but the node is not ranked strictly higher",
    Axiom.M: (
        "ranked strictly higher without supporter dominance and no supporter "
        "outranks any supporter of the lower node"
    ),
    Axiom.BT: "accusers dominate but the node is not ranked strictly lower",
    Axiom.BM: (
        "ranked strictly lower without accuser dominance and no accuser "
        "outranks any accuser of the higher node"
    ),
    Axiom.TC: "socially stronger but the node is not ranked strictly higher",
    Axiom.MC: (
        "ranked strictly higher without being socially stronger and with "
        "neither a supporter-side nor an accuser-side witness"
    ),
}
_REASONS[Axiom.VWM] = "support sizes within one apart and " + _REASONS[Axiom.M]


def _applicable(mode: Mode, axioms: Iterable[Axiom]) -> tuple[Axiom, ...]:
    """The requested axioms in the mode's fixed order; ModeError names the
    first one, in the order given, that does not apply to the mode."""
    allowed = AXIOMS_BY_MODE[mode]
    wanted = tuple(axioms)
    for axiom in wanted:
        if axiom not in allowed:
            raise ModeError(f"axiom {axiom.value} does not apply to {mode.value} graphs")
    return tuple(a for a in allowed if a in wanted)


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
    if _PAIR_CHECKS[axiom](*_snapshot(graph, ranking.rank_of, pair), 0, 1):
        return _REASONS[axiom]
    return None


def check(graph: ReputationGraph, ranking: Ranking, axiom: Axiom) -> AxiomReport:
    """Evaluate one axiom over all ordered pairs of distinct nodes."""
    # The O(1) test first: certify calls check once per preorder and axiom.
    if axiom not in AXIOMS_BY_MODE[graph.mode]:
        _applicable(graph.mode, (axiom,))
    ranks = ranking._ranks  # read only: a Ranking never changes
    if ranks.keys() != graph._index.keys():
        raise NodeSetMismatchError("ranking does not cover exactly the graph's nodes")
    nodes = graph.nodes
    rank, p, q = _snapshot(graph, ranks.__getitem__)
    clause = _PAIR_CHECKS[axiom]
    for i, j in itertools.permutations(range(len(nodes)), 2):
        if clause(rank, p, q, i, j):
            return AxiomReport(axiom, False, Witness(nodes[i], nodes[j], _REASONS[axiom]))
    return AxiomReport(axiom, True)


def check_all(graph: ReputationGraph, ranking: Ranking) -> list[AxiomReport]:
    """One report per axiom applicable to the graph's mode, in fixed order."""
    return [check(graph, ranking, axiom) for axiom in AXIOMS_BY_MODE[graph.mode]]
