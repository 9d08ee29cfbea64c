"""The certifier's leaf check against a reference certifier.

``certify`` and ``count_satisfying`` test each preorder with one private
predicate that skips the ordered pairs no ranking can violate. The reference
here enumerates ``reference.ordered_partitions`` and asks
``reference.first_violation`` about every requested axiom, so it shares no
code with the leaf. Status, witness, ``examined`` and the satisfying count
must all be equal, and no preorder may violate a pair the leaf skips.
"""

from __future__ import annotations

import importlib
import itertools
import random

import pytest

import reference
from conftest import all_edge_subsets, combined_graph, negative_graph, positive_graph, random_graph
from reprank import (
    AXIOMS_BY_MODE,
    Axiom,
    CertificateStatus,
    Mode,
    Ranking,
    certify,
    count_satisfying,
    enumerate_preorders,
    parse_graph,
)
from reprank.axioms import _leaf, _may_violate

certify_module = importlib.import_module("reprank.certify")  # the package shadows it


def small_graphs():
    """Every positive and negative graph on up to 3 nodes, every combined
    graph on up to 2, and seeded 3-5 node graphs of all three modes."""
    for nodes in ("a", "ab", "abc"):
        for pairs in all_edge_subsets(tuple(nodes)):
            yield positive_graph(pairs, nodes)
            yield negative_graph(pairs, nodes)
    for nodes in ("a", "ab"):
        for good, bad in itertools.product(all_edge_subsets(tuple(nodes)), repeat=2):
            yield combined_graph(good, bad, nodes)
    rng = random.Random("certify-leaf")
    for mode in Mode:
        for k in range(6):
            yield random_graph(rng, 3 + k % 3, (0.2, 0.4, 0.6)[k % 3], mode)


GRAPHS = list(small_graphs())


def preorders(graph):
    return [Ranking.from_levels(levels) for levels in reference.ordered_partitions(graph.nodes)]


def axiom_subsets(mode: Mode):
    axioms = AXIOMS_BY_MODE[mode]
    for size in range(1, len(axioms) + 1):
        yield from itertools.combinations(axioms, size)


def test_the_graphs_cover_every_mode_and_size():
    sizes = {(g.mode, len(g.nodes)) for g in GRAPHS}
    assert sizes >= {(m, n) for m in Mode for n in (1, 2, 3, 4, 5)}
    assert len(GRAPHS) == 2 * (1 + 4 + 64) + (1 + 16) + 18


def test_certify_and_count_match_the_reference_certifier():
    for graph in GRAPHS:
        rankings = preorders(graph)
        passes = {
            axiom: [reference.first_violation(graph, r, axiom.value) is None for r in rankings]
            for axiom in AXIOMS_BY_MODE[graph.mode]
        }
        for axioms in axiom_subsets(graph.mode):
            satisfied = [all(passes[a][k] for a in axioms) for k in range(len(rankings))]
            first = satisfied.index(True) if True in satisfied else None
            cert = certify(graph, axioms)
            context = (graph.serialize(), [a.value for a in axioms])
            if first is None:
                assert cert.status is CertificateStatus.UNSAT, context
                assert (cert.witness, cert.examined) == (None, len(rankings)), context
            else:
                assert cert.status is CertificateStatus.SAT, context
                assert (cert.witness, cert.examined) == (rankings[first], first + 1), context
            assert count_satisfying(graph, axioms) == sum(satisfied), context


def test_one_leaf_across_the_enumeration_answers_as_a_fresh_leaf():
    # The leaf moves a pair that rejects a preorder to the front of its list, so
    # its verdict at each preorder must not depend on the preorders before it.
    for graph in GRAPHS:
        rankings = list(enumerate_preorders(graph.nodes))
        for axioms in axiom_subsets(graph.mode):
            satisfies = _leaf(graph, axioms)
            for ranking in rankings:
                expected = _leaf(graph, axioms)(ranking)
                assert satisfies(ranking) is expected, (graph.serialize(), axioms, ranking)


def test_t_and_m_on_the_seven_node_baseline_graph():
    # The certifier baseline: 47,293 preorders, 27 of them satisfying, the
    # first after 26,242, on a graph whose leaf sees many rejecting pairs.
    graph = random_graph(random.Random(7), 7, 0.4, Mode.POSITIVE_ONLY)
    assert count_satisfying(graph, [Axiom.T, Axiom.M]) == 27
    cert = certify(graph, [Axiom.T, Axiom.M])
    assert (cert.status, cert.examined) == (CertificateStatus.SAT, 26_242)


def test_no_preorder_violates_a_skipped_pair():
    skipped_total = 0
    for graph in GRAPHS:
        good, bad = graph._backers
        skipped = [
            (axiom, graph.nodes[i], graph.nodes[j])
            for axiom in AXIOMS_BY_MODE[graph.mode]
            for i, j in itertools.permutations(range(len(graph.nodes)), 2)
            if not _may_violate(axiom, good, bad, i, j)
        ]
        skipped_total += len(skipped)
        for ranking in preorders(graph):
            for axiom, vi, vj in skipped:
                clause = reference.CLAUSES[axiom.value]
                assert clause(graph, ranking, vi, vj) is None, (graph.serialize(), axiom, vi, vj)
    assert skipped_total > 0


def test_equal_backer_sets_keep_their_m_pair():
    # b and c share their only supporter, so no ranking makes either strictly
    # cover the other: T never fails on (b, c), but M fails whenever b is
    # ranked above c, since "no strict cover" holds for equal profiles.
    graph = parse_graph("mode positive\na + b\na + c\n")
    good, bad = graph._backers
    b, c = graph._index["b"], graph._index["c"]
    assert not _may_violate(Axiom.T, good, bad, b, c)
    assert _may_violate(Axiom.M, good, bad, b, c)
    b_over_c = Ranking.from_levels([["b"], ["c"], ["a"]])
    assert reference.first_violation(graph, b_over_c, "M")[:2] == ("b", "c")
    assert not _leaf(graph, [Axiom.M])(b_over_c)
    assert reference.first_violation(graph, b_over_c, "T") is None
    assert _leaf(graph, [Axiom.T])(b_over_c)


def test_a_leaf_that_accepts_a_failing_preorder_is_caught(monkeypatch):
    graph = parse_graph("mode positive\na + b\nb + c\nc + a\nd + a\n")
    assert certify(graph, [Axiom.T, Axiom.M]).status is CertificateStatus.UNSAT
    monkeypatch.setattr(certify_module, "_leaf", lambda graph, axioms: lambda ranking: True)
    with pytest.raises(RuntimeError, match="leaf check"):
        certify(graph, [Axiom.T, Axiom.M])
