"""Axiomatic social rankings over reputation graphs.

Build directed feedback graphs, rank their agents with iterative-refinement
engines, check rankings against transitivity/monotonicity axioms, and
certify axiom satisfiability exhaustively on small graphs.
"""

from .axioms import (
    AXIOMS_BY_MODE,
    Axiom,
    AxiomReport,
    Witness,
    check,
    check_all,
    pair_violates,
)
from .certify import (
    Certificate,
    CertificateStatus,
    certify,
    certify_vwm_strongly_connected,
    count_satisfying,
)
from .dominance import (
    at_least_as_strong,
    equally_strong,
    more_important,
    socially_stronger,
)
from .engine import (
    RefinementTrace,
    TraceStep,
    rank_combined,
    rank_graph,
    rank_negative,
    rank_positive,
)
from .errors import (
    EnumerationCapError,
    InputError,
    ModeError,
    NodeSetMismatchError,
    ParseError,
    UnknownNodeError,
)
from .graphs import Feedback, Mode, ReputationGraph, parse_graph
from .rankings import (
    DEFAULT_ENUMERATION_CAP,
    Ranking,
    enumerate_preorders,
    normalize,
    parse_ranking,
)

__version__ = "1.0.0"

__all__ = [
    "AXIOMS_BY_MODE",
    "Axiom",
    "AxiomReport",
    "Certificate",
    "CertificateStatus",
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationCapError",
    "Feedback",
    "InputError",
    "Mode",
    "ModeError",
    "NodeSetMismatchError",
    "ParseError",
    "Ranking",
    "RefinementTrace",
    "ReputationGraph",
    "TraceStep",
    "UnknownNodeError",
    "Witness",
    "at_least_as_strong",
    "certify",
    "certify_vwm_strongly_connected",
    "check",
    "check_all",
    "count_satisfying",
    "enumerate_preorders",
    "equally_strong",
    "more_important",
    "normalize",
    "pair_violates",
    "parse_graph",
    "parse_ranking",
    "rank_combined",
    "rank_graph",
    "rank_negative",
    "rank_positive",
    "socially_stronger",
]
