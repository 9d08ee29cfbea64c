"""Slow engine and certifier checks: the combined engine against the reference
on graphs of 160 and 200 nodes, pinned traces and comparison counts up to
1,000 nodes, and the certifier's counts at its default cap of 8 nodes.

The reference takes about 15 s on the 200-node graph, so this file is not
named ``test_*.py`` and the tier-1 suite does not collect it. Run it with
``PYTHONPATH=src python -m pytest -q tests/differential_large.py``.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import reprank.dominance
from conftest import random_graph
from reprank import (
    Axiom,
    CertificateStatus,
    Mode,
    certify,
    count_satisfying,
    enumerate_preorders,
    rank_graph,
)
from test_differential import assert_engine_agrees

RELATIONS = ("socially_stronger", "more_important", "equally_strong")


def test_combined_engine_matches_reference_up_to_200_nodes():
    rng = random.Random("differential-200-combined-large")
    for n in (160, 200):
        assert_engine_agrees(random_graph(rng, n, 4 / n, Mode.COMBINED))


def trace_digest(trace) -> str:
    """SHA-256 of the initial ranking and each step's agents and ranking."""
    digest = hashlib.sha256(trace.initial.serialize().encode())
    for step in trace.steps:
        agents = (step.chosen, step.witness, step.moved, step.left_behind)
        digest.update(f"{agents!r}\n{step.ranking.serialize()}".encode())
    return digest.hexdigest()


def traced_calls(monkeypatch, graph):
    """Rank the graph; return the trace digest and each relation's call count."""
    made = dict.fromkeys(RELATIONS, 0)
    for name in RELATIONS:
        def counting(*args, name=name, relation=getattr(reprank.dominance, name)):
            made[name] += 1
            return relation(*args)

        monkeypatch.setattr(reprank.dominance, name, counting)
    _, trace = rank_graph(graph)
    return trace_digest(trace), made


# The trace digest and the (socially_stronger, more_important, equally_strong)
# call counts on random_graph(Random(n), n, 4 / n, mode). A faster walk or cache
# must keep both: every step and every comparison the engine makes.
PINS = {
    (Mode.COMBINED, 500): (
        "eba97b462166413609d2989b64f203b5d2a4e62bd155385396d59e8273661a04",
        (31_255, 47_951, 34_638),
    ),
    (Mode.COMBINED, 1000): (
        "41cc115b7e48cf7c5cb4f6b744af96b11441baa2bfa28f2114dc2816562f5bd3",
        (98_394, 146_716, 117_388),
    ),
    (Mode.POSITIVE_ONLY, 1000): (
        "e9b2b3b9adcb006a0f356127d085da6faf83e4c504158b56f9c41eed23b3547d",
        (0, 84_594, 146_534),
    ),
    (Mode.NEGATIVE_ONLY, 1000): (
        "c7ad65afe6e38164d0475497028665f4c2c785d6a97d846a13f0c4538a7fc549",
        (0, 80_856, 134_882),
    ),
}


@pytest.mark.parametrize("mode, n", list(PINS), ids=lambda v: getattr(v, "value", v))
def test_trace_and_call_counts_are_pinned_up_to_1000_nodes(monkeypatch, mode, n):
    digest, calls = PINS[mode, n]
    graph = random_graph(random.Random(n), n, 4 / n, mode)
    assert traced_calls(monkeypatch, graph) == (digest, dict(zip(RELATIONS, calls)))


def test_certifier_is_pinned_at_the_default_cap():
    # Tier-1 certifies up to 7 nodes; this is the largest graph the default cap
    # admits, where every preorder of 8 nodes passes through the leaf.
    graph = random_graph(random.Random(8), 8, 0.4, Mode.POSITIVE_ONLY)
    axioms = (Axiom.T, Axiom.M)
    assert count_satisfying(graph, axioms) == 6
    certificate = certify(graph, axioms)
    assert (certificate.status, certificate.examined) == (CertificateStatus.SAT, 359_958)
    assert sum(1 for _ in enumerate_preorders(graph.nodes)) == 545_835
