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
from typing import Callable, Sequence

from .dominance import Profile, _profiles, _social, _strictly_covers
from .errors import ModeError, NodeSetMismatchError
from .graphs import Feedback, Mode, ReputationGraph
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
Side = Sequence[Profile]


def _exists_strict_pair(above: Profile, below: Profile) -> bool:
    return bool(above) and bool(below) and above[0] < below[-1]


def _violates_t(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> str | None:
    if _strictly_covers(p[i], p[j]) and rank[i] >= rank[j]:
        return "supporters dominate but the node is not ranked strictly higher"
    return None


def _violates_m(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> str | None:
    if rank[i] >= rank[j]:
        return None
    if _strictly_covers(p[i], p[j]) or _exists_strict_pair(p[i], p[j]):
        return None
    return (
        "ranked strictly higher without supporter dominance and no supporter "
        "outranks any supporter of the lower node"
    )


def _violates_vwm(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> str | None:
    if len(p[i]) > len(p[j]) + 1:
        return None
    reason = _violates_m(rank, p, _, i, j)
    if reason is None:
        return None
    return "support sizes within one apart and " + reason


def _violates_bt(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> str | None:
    if _strictly_covers(p[i], p[j]) and rank[i] <= rank[j]:
        return "accusers dominate but the node is not ranked strictly lower"
    return None


def _violates_bm(rank: Sequence[int], p: Side, _: Side, i: int, j: int) -> str | None:
    if rank[i] <= rank[j]:
        return None
    if _strictly_covers(p[i], p[j]) or _exists_strict_pair(p[i], p[j]):
        return None
    return (
        "ranked strictly lower without accuser dominance and no accuser "
        "outranks any accuser of the higher node"
    )


def _violates_tc(rank: Sequence[int], good: Side, bad: Side, i: int, j: int) -> str | None:
    if _social(good[i], bad[i], good[j], bad[j]) and rank[i] >= rank[j]:
        return "socially stronger but the node is not ranked strictly higher"
    return None


def _violates_mc(rank: Sequence[int], good: Side, bad: Side, i: int, j: int) -> str | None:
    if rank[i] >= rank[j]:
        return None
    if _social(good[i], bad[i], good[j], bad[j]):
        return None
    if _exists_strict_pair(good[i], good[j]) or _exists_strict_pair(bad[j], bad[i]):
        return None
    return (
        "ranked strictly higher without being socially stronger and with "
        "neither a supporter-side nor an accuser-side witness"
    )


PairCheck = Callable[[Sequence[int], Side, Side, int, int], "str | None"]

_PAIR_CHECKS: dict[Axiom, PairCheck] = {
    Axiom.T: _violates_t,
    Axiom.M: _violates_m,
    Axiom.VWM: _violates_vwm,
    Axiom.BT: _violates_bt,
    Axiom.BM: _violates_bm,
    Axiom.TC: _violates_tc,
    Axiom.MC: _violates_mc,
}


def _snapshot(
    graph: ReputationGraph, rank: Callable[[str], int], axiom: Axiom, nodes: Sequence[str]
) -> tuple[list[int], Side, Side]:
    """Ranks of ``nodes`` and their profiles on the two sides the axiom compares."""
    if axiom in (Axiom.TC, Axiom.MC):
        kinds: tuple[Feedback | None, ...] = (Feedback.POSITIVE, Feedback.NEGATIVE)
    else:
        kinds = (graph.mode.single_kind,)
    sides = [_profiles(rank, [graph.support_set(v, k) for v in nodes]) for k in kinds]
    return [rank(v) for v in nodes], sides[0], sides[-1]


def pair_violates(
    graph: ReputationGraph, ranking: Ranking, axiom: Axiom, vi: str, vj: str
) -> str | None:
    """Reason the ordered pair (vi, vj) violates the axiom, or None."""
    return _PAIR_CHECKS[axiom](*_snapshot(graph, ranking.rank_of, axiom, (vi, vj)), 0, 1)


def _require_compatible(
    graph: ReputationGraph, ranking: Ranking, axiom: Axiom
) -> None:
    if axiom not in AXIOMS_BY_MODE[graph.mode]:
        raise ModeError(
            f"axiom {axiom.value} does not apply to {graph.mode.value} graphs"
        )
    if set(ranking.nodes) != set(graph.nodes):
        raise NodeSetMismatchError("ranking does not cover exactly the graph's nodes")


def check(graph: ReputationGraph, ranking: Ranking, axiom: Axiom) -> AxiomReport:
    """Evaluate one axiom over all ordered pairs of distinct nodes."""
    _require_compatible(graph, ranking, axiom)
    nodes = graph.nodes
    rank, p, q = _snapshot(graph, ranking.as_dict().__getitem__, axiom, nodes)
    clause = _PAIR_CHECKS[axiom]
    for i, j in itertools.permutations(range(len(nodes)), 2):
        reason = clause(rank, p, q, i, j)
        if reason is not None:
            return AxiomReport(axiom, False, Witness(nodes[i], nodes[j], reason))
    return AxiomReport(axiom, True)


def check_all(graph: ReputationGraph, ranking: Ranking) -> list[AxiomReport]:
    """One report per axiom applicable to the graph's mode, in fixed order."""
    return [check(graph, ranking, axiom) for axiom in AXIOMS_BY_MODE[graph.mode]]
