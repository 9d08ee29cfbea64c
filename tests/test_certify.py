"""Exhaustive certification: verdicts, soundness, and completeness."""

from __future__ import annotations

import random

import pytest
from conftest import (
    ROUND_TRIPS,
    all_edge_subsets,
    combined_graph,
    negative_graph,
    positive_graph,
    preorder_count,
    random_graph,
)
from reprank import (
    Axiom,
    CertificateStatus,
    EnumerationCapError,
    InputError,
    Mode,
    ModeError,
    Ranking,
    certify,
    certify_vwm_strongly_connected,
    check,
    check_all,
    count_satisfying,
    enumerate_preorders,
    rank_graph,
    rank_positive,
)

SAT = CertificateStatus.SAT
UNSAT = CertificateStatus.UNSAT


# ---------------------------------------------------------------------------
# verdicts on the named graphs


def test_triangle_with_supporter_unsat_for_t_and_m(triangle_with_supporter):
    cert = certify(triangle_with_supporter, {Axiom.T, Axiom.M})
    assert cert.status is UNSAT
    assert cert.witness is None
    assert cert.examined == preorder_count(4) == 75


def test_triangle_with_supporter_sat_for_t_alone(triangle_with_supporter):
    cert = certify(triangle_with_supporter, {Axiom.T})
    assert cert.status is SAT
    assert check(triangle_with_supporter, cert.witness, Axiom.T).passed
    assert cert.examined <= 75


def test_cycle_with_chord_negative_unsat(cycle4_with_chord_pairs):
    g = negative_graph(cycle4_with_chord_pairs)
    cert = certify(g, {Axiom.BT, Axiom.BM})
    assert cert.status is UNSAT
    assert cert.examined == 75


def test_tail_into_cycle3_unsat_but_complement_sat(tail_into_cycle3):
    assert certify(tail_into_cycle3, {Axiom.T, Axiom.M}).status is UNSAT
    comp = tail_into_cycle3.complement()
    cert = certify(comp, {Axiom.BT, Axiom.BM})
    assert cert.status is SAT
    for report in check_all(comp, cert.witness):
        assert report.passed


def test_combined_embedding_unsat(triangle_with_supporter):
    pairs = [(u, v) for u, v, _ in triangle_with_supporter.edges]
    g = combined_graph(pairs, [])
    cert = certify(g, {Axiom.TC, Axiom.MC})
    assert cert.status is UNSAT
    assert cert.examined == 75


# ---------------------------------------------------------------------------
# certificate contract


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_results_survive_copy_and_pickle(round_trip, triangle_with_supporter):
    # A SAT certificate and a refinement trace both hold Rankings.
    certificate = certify(triangle_with_supporter, {Axiom.T})
    assert certificate.status is SAT
    assert round_trip(certificate) == certificate
    _, trace = rank_graph(triangle_with_supporter)
    assert trace.steps
    assert round_trip(trace) == trace


def test_axioms_must_match_mode(triangle_with_supporter):
    with pytest.raises(ModeError):
        certify(triangle_with_supporter, {Axiom.BT})
    # The error names the first inapplicable axiom in the order given, so it
    # does not depend on set iteration order.
    for first, second in ((Axiom.BT, Axiom.BM), (Axiom.BM, Axiom.BT)):
        message = f"axiom {first.value} does not apply to positive graphs"
        with pytest.raises(ModeError, match=message):
            certify(triangle_with_supporter, (Axiom.T, first, second))
        with pytest.raises(ModeError, match=message):
            count_satisfying(triangle_with_supporter, (first, Axiom.M, second))


def test_cap_is_enforced():
    names = [f"n{i}" for i in range(9)]
    g = positive_graph([], extra_nodes=names)
    with pytest.raises(EnumerationCapError):
        certify(g, {Axiom.T})
    three = positive_graph([], extra_nodes=["a", "b", "c"])
    with pytest.raises(EnumerationCapError):
        certify(three, {Axiom.T}, cap=2)


def test_empty_axiom_set_is_sat_immediately(triangle_with_supporter):
    cert = certify(triangle_with_supporter, set())
    assert cert.status is SAT
    assert cert.examined == 1


def test_unsat_scans_every_preorder():
    # On UNSAT the examined count must equal the full preorder count for
    # the node count, for several node counts.
    g3 = positive_graph([("a", "b"), ("b", "c"), ("c", "a")], extra_nodes=["d"])
    cert = certify(g3, {Axiom.T, Axiom.M})
    if cert.status is UNSAT:
        assert cert.examined == preorder_count(len(g3.nodes))


def test_count_satisfying_matches_filtered_enumeration(tail_into_cycle3):
    comp = tail_into_cycle3.complement()
    axioms = (Axiom.BT, Axiom.BM)
    expected = sum(
        1
        for r in enumerate_preorders(comp.nodes)
        if all(check(comp, r, a).passed for a in axioms)
    )
    assert count_satisfying(comp, axioms) == expected == 2


def test_render_text(triangle_with_supporter):
    unsat = certify(triangle_with_supporter, {Axiom.T, Axiom.M})
    assert unsat.render_text() == "UNSAT after 75 preorders"
    sat = certify(triangle_with_supporter, {Axiom.T})
    rendered = sat.render_text()
    assert rendered.startswith("SAT:")
    assert "a 1" in rendered


# ---------------------------------------------------------------------------
# completeness and monotonicity


def test_verdicts_agree_with_double_loop_on_all_three_node_graphs():
    nodes = ("a", "b", "c")
    preorders = list(enumerate_preorders(nodes))
    for mode in (Mode.POSITIVE_ONLY, Mode.NEGATIVE_ONLY):
        build = positive_graph if mode is Mode.POSITIVE_ONLY else negative_graph
        axioms = (
            (Axiom.T, Axiom.M)
            if mode is Mode.POSITIVE_ONLY
            else (Axiom.BT, Axiom.BM)
        )
        for pairs in all_edge_subsets(nodes):
            g = build(pairs, extra_nodes=nodes)
            survivors = [
                r
                for r in preorders
                if all(check(g, r, a).passed for a in axioms)
            ]
            cert = certify(g, axioms)
            if survivors:
                assert cert.status is SAT
                assert cert.witness == survivors[0]
            else:
                assert cert.status is UNSAT
                assert cert.examined == 13


def test_unsat_is_monotone_in_the_axiom_set(triangle_with_supporter):
    assert certify(triangle_with_supporter, {Axiom.T, Axiom.M}).status is UNSAT
    assert (
        certify(triangle_with_supporter, {Axiom.T, Axiom.M, Axiom.VWM}).status
        is UNSAT
    )


def test_engine_output_is_a_t_witness_on_random_graphs():
    rng = random.Random("engine-vs-certify")
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.choice([0.2, 0.4]), Mode.POSITIVE_ONLY)
        cert = certify(g, {Axiom.T})
        assert cert.status is SAT
        ranking, _ = rank_positive(g)
        assert check(g, ranking, Axiom.T).passed


# ---------------------------------------------------------------------------
# strongly connected variant


def test_vwm_certificate_on_cycle_with_chord(cycle4_with_chord_pairs):
    g = positive_graph(cycle4_with_chord_pairs)
    cert = certify_vwm_strongly_connected(g)
    assert cert.status is UNSAT
    assert cert.examined == 75


def test_vwm_two_cycle_is_sat():
    g = positive_graph([("a", "b"), ("b", "a")])
    cert = certify_vwm_strongly_connected(g)
    assert cert.status is SAT
    assert cert.witness == Ranking({"a": 1, "b": 1})


def test_vwm_requires_strong_connectivity(triangle_with_supporter):
    with pytest.raises(InputError, match="strongly connected"):
        certify_vwm_strongly_connected(triangle_with_supporter)


def test_vwm_requires_positive_mode():
    g = negative_graph([("a", "b"), ("b", "a")])
    with pytest.raises(ModeError):
        certify_vwm_strongly_connected(g)
