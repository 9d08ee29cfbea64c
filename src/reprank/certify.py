"""Exhaustive certification of axiom satisfiability on small graphs.

For a graph and an axiom set, scan every total preorder over the nodes.
Either some ranking satisfies all requested axioms (SAT, with the first
such ranking as witness) or none does (UNSAT, backed by a complete scan).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .axioms import Axiom, _applicable, _leaf, check
from .errors import InputError, ModeError
from .graphs import Mode, ReputationGraph, _instance
from .rankings import DEFAULT_ENUMERATION_CAP, Ranking, enumerate_preorders


class CertificateStatus(enum.Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"


@dataclass(frozen=True)
class Certificate:
    """Verdict of an exhaustive scan over total preorders.

    SAT carries the first satisfying ranking in enumeration order and the
    number of preorders examined up to and including it; UNSAT's examined
    count equals the total number of preorders for the node count.
    """

    status: CertificateStatus
    witness: Ranking | None
    examined: int

    def render_text(self) -> str:
        if self.status is CertificateStatus.UNSAT:
            return f"UNSAT after {self.examined} preorders"
        return "SAT:\n" + self.witness.serialize().rstrip("\n")


def certify(
    graph: ReputationGraph,
    axioms: Iterable[Axiom],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Certificate:
    """First satisfying preorder, confirmed by ``check``, or UNSAT after all of them."""
    preorders = enumerate_preorders(_instance(graph, ReputationGraph).nodes, cap=cap)
    axioms, examined = _applicable(graph.mode, axioms), 0
    satisfies = _leaf(graph, axioms)  # after the cap is checked: it builds O(n^2) pairs
    for examined, ranking in enumerate(preorders, start=1):
        if satisfies(ranking):
            if not all(check(graph, ranking, axiom).passed for axiom in axioms):
                raise RuntimeError("the leaf check accepted a ranking that check rejects")
            return Certificate(CertificateStatus.SAT, ranking, examined)
    return Certificate(CertificateStatus.UNSAT, None, examined)


def count_satisfying(
    graph: ReputationGraph,
    axioms: Iterable[Axiom],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """How many total preorders satisfy the whole axiom set."""
    preorders = enumerate_preorders(_instance(graph, ReputationGraph).nodes, cap=cap)
    return sum(map(_leaf(graph, axioms), preorders))


def certify_vwm_strongly_connected(
    graph: ReputationGraph, cap: int = DEFAULT_ENUMERATION_CAP
) -> Certificate:
    """Certify {T, VWM} on a strongly connected positive graph.

    The strong-connectivity requirement is a precondition here, not an
    axiom: callers asking about this restricted family must supply a graph
    that belongs to it.
    """
    if _instance(graph, ReputationGraph).mode is not Mode.POSITIVE_ONLY:
        raise ModeError("expected a positive-only graph")
    if not graph.is_strongly_connected():
        raise InputError("graph is not strongly connected")
    return certify(graph, (Axiom.T, Axiom.VWM), cap=cap)
