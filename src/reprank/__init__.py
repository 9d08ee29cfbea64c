"""Axiomatic social rankings over reputation graphs.

Build directed feedback graphs, rank their agents with iterative-refinement
engines, check rankings against transitivity/monotonicity axioms, and
certify axiom satisfiability exhaustively on small graphs.
"""

from types import ModuleType as _ModuleType

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

# Every public name bound above, submodules aside; tests/test_package.py pins them.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
