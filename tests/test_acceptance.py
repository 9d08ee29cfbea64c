"""Acceptance suite: one verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they print. Each criterion states its tolerance inline; a criterion that
cannot be met by the implemented behavior fails red here rather than being
weakened.
"""

from __future__ import annotations

import itertools
import random
import time

from conftest import (
    all_edge_subsets,
    combined_graph,
    injection_exists,
    negative_graph,
    positive_graph,
    preorder_count,
    random_graph,
    rank_profile,
)
from reference import is_refinement
from reprank import (
    Axiom,
    CertificateStatus,
    Feedback,
    Mode,
    Ranking,
    at_least_as_strong,
    certify,
    certify_vwm_strongly_connected,
    check,
    enumerate_preorders,
    more_important,
    rank_negative,
    rank_positive,
    socially_stronger,
)

UNSAT = CertificateStatus.UNSAT
SAT = CertificateStatus.SAT

TRIANGLE_WITH_SUPPORTER = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")]
CYCLE4_WITH_CHORD = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
TAIL_INTO_CYCLE3 = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")


def test_criterion_1_no_ranking_satisfies_t_and_m_on_the_4_node_witness():
    """T plus M is unsatisfiable on the triangle-with-supporter graph.

    Exhaustive scan must report UNSAT after exactly 75 preorders in under
    one second.
    """
    g = positive_graph(TRIANGLE_WITH_SUPPORTER)
    start = time.perf_counter()
    cert = certify(g, {Axiom.T, Axiom.M})
    elapsed = time.perf_counter() - start
    ok = cert.status is UNSAT and cert.examined == 75 and elapsed < 1.0
    _verdict(1, ok, f"{cert.status.value} examined={cert.examined} in {elapsed:.3f}s")
    assert ok


def test_criterion_2_positive_engine_terminates_refines_and_satisfies_t():
    """500 random positive graphs, up to 8 nodes, edge density 0.1/0.3/0.5.

    Each run must finish within |V| - 1 refinement iterations, every trace
    step must refine its predecessor, the result must satisfy T, and the
    whole suite must finish in under 30 seconds.
    """
    rng = random.Random(8252026)
    densities = (0.1, 0.3, 0.5)
    problems: list[str] = []
    start = time.perf_counter()
    for trial in range(500):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, densities[trial % 3], Mode.POSITIVE_ONLY)
        ranking, trace = rank_positive(g)
        if trace.iterations > max(0, n - 1):
            problems.append(f"trial {trial}: {trace.iterations} iterations")
        chain = trace.rankings()
        for earlier, later in zip(chain, chain[1:]):
            if not is_refinement(later, earlier):
                problems.append(f"trial {trial}: non-refining step")
        if not check(g, ranking, Axiom.T).passed:
            problems.append(f"trial {trial}: T violated")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 30.0
    _verdict(2, ok, f"500 graphs in {elapsed:.2f}s, {len(problems)} problems")
    assert ok, problems[:5]


def test_criterion_3_no_ranking_satisfies_bt_and_bm_on_the_cycle_with_chord():
    """BT plus BM is unsatisfiable on the 4-node cycle-with-chord accusation
    graph (75 preorders), and the negative engine's own output satisfies BT.
    """
    g = negative_graph(CYCLE4_WITH_CHORD)
    cert = certify(g, {Axiom.BT, Axiom.BM})
    ranking, _ = rank_negative(g)
    bt = check(g, ranking, Axiom.BT).passed
    ok = cert.status is UNSAT and cert.examined == 75 and bt
    _verdict(
        3,
        ok,
        f"{cert.status.value} examined={cert.examined}, engine BT pass={bt}",
    )
    assert ok


def test_criterion_4_path_graphs_rank_exactly_as_worked_examples():
    """Positive path a->b->c ranks c > b > a; the same path read as
    accusations ranks a > c > b.
    """
    pos, _ = rank_positive(positive_graph([("a", "b"), ("b", "c")]))
    neg, _ = rank_negative(negative_graph([("a", "b"), ("b", "c")]))
    pos_ok = pos == Ranking({"c": 1, "b": 2, "a": 3})
    neg_ok = neg == Ranking({"a": 1, "c": 2, "b": 3})
    ok = pos_ok and neg_ok
    _verdict(4, ok, f"positive={pos_ok} negative={neg_ok}")
    assert ok


def test_criterion_5_contrast_between_graph_and_its_complement():
    """The tail-into-3-cycle graph admits no T+M ranking, while its negative
    complement admits rankings under BT and BM.

    The complement's accuser sets are R(a)={b,c,d}, R(b)={c}, R(c)={a,d}
    and R(d)={a,b}. An oracle built only from the explicit injection search
    scans all 75 dense rank vectors on the four nodes and must accept
    exactly the rankings that ``check`` accepts: c > b=d > a (the
    certifier's first witness) and b=c > d > a.

    d > c > b > a is the negative control. Under it R(c)=[1,4] covers
    R(b)=[2] injectively with a different profile, so c's accusers are more
    important than b's and BT requires c strictly below b; ``check`` must
    report BT violated at (c, b) while BM passes.
    """
    g = positive_graph(TAIL_INTO_CYCLE3)
    cert = certify(g, {Axiom.T, Axiom.M})
    unsat_ok = cert.status is UNSAT and cert.examined == 75

    comp = g.complement()
    nodes = ("a", "b", "c", "d")
    accusers = {
        "a": frozenset("bcd"),
        "b": frozenset("c"),
        "c": frozenset("ad"),
        "d": frozenset("ab"),
    }
    accusers_ok = all(comp.support_set(v) == accusers[v] for v in nodes)

    comp_cert = certify(comp, {Axiom.BT, Axiom.BM})
    first = Ranking({"c": 1, "b": 2, "d": 2, "a": 3})
    sat_ok = (
        comp_cert.status is SAT
        and comp_cert.witness == first
        and check(comp, first, Axiom.BT).passed
        and check(comp, first, Axiom.BM).passed
    )

    def more_important_oracle(ranks, group_a, group_b):
        pa = tuple(sorted(ranks[v] for v in group_a))
        pb = tuple(sorted(ranks[v] for v in group_b))
        return injection_exists(pa, pb) and pa != pb

    def oracle_accepts(ranks):
        for vi, vj in itertools.permutations(nodes, 2):
            ri, rj = accusers[vi], accusers[vj]
            dominates = more_important_oracle(ranks, ri, rj)
            if dominates and ranks[vi] <= ranks[vj]:
                return False  # BT
            if ranks[vi] > ranks[vj] and not dominates:
                if not any(ranks[x] < ranks[y] for x in ri for y in rj):
                    return False  # BM
        return True

    dense = [
        Ranking(dict(zip(nodes, vector)))
        for vector in itertools.product(range(1, len(nodes) + 1), repeat=len(nodes))
        if set(vector) == set(range(1, max(vector) + 1))
    ]
    by_oracle = {r for r in dense if oracle_accepts(r.as_dict())}
    by_check = {
        r
        for r in dense
        if check(comp, r, Axiom.BT).passed and check(comp, r, Axiom.BM).passed
    }
    expected = {first, Ranking({"b": 1, "c": 1, "d": 2, "a": 3})}
    scan_ok = len(dense) == 75 and by_oracle == by_check == expected

    control = Ranking({"d": 1, "c": 2, "b": 3, "a": 4})
    bt_report = check(comp, control, Axiom.BT)
    bm_report = check(comp, control, Axiom.BM)
    w = bt_report.witness
    control_ok = (
        not bt_report.passed and (w.vi, w.vj) == ("c", "b") and bm_report.passed
    )

    ok = unsat_ok and accusers_ok and sat_ok and scan_ok and control_ok
    witness = comp_cert.witness
    witness_text = (
        " > ".join("=".join(level) for level in witness.levels) if witness else "-"
    )
    bt_text = f"fails BT at ({w.vi},{w.vj})" if w else "passes BT"
    detail = (
        f"graph T+M {cert.status.value} examined={cert.examined}; complement "
        f"BT+BM {comp_cert.status.value} witness {witness_text}; "
        f"{len(by_oracle)} of {len(dense)} rankings accepted by oracle, "
        f"{len(by_check)} by check; d>c>b>a {bt_text}, BM pass={bm_report.passed}"
    )
    _verdict(5, ok, detail)
    assert unsat_ok, cert
    assert accusers_ok
    assert sat_ok, comp_cert
    assert scan_ok, (sorted(map(repr, by_oracle)), sorted(map(repr, by_check)))
    assert control_ok, (bt_report, bm_report)


def test_criterion_6_combined_embedding_is_unsat_and_reduces_to_positive():
    """The triangle-with-supporter graph embedded as combined feedback
    (positive edges only) is unsatisfiable under Tc plus Mc, and with all
    accuser sets empty the socially-stronger relation coincides with
    supporter-set dominance on every 3-node graph, ranking, and pair.
    """
    g = combined_graph(TRIANGLE_WITH_SUPPORTER, [])
    cert = certify(g, {Axiom.TC, Axiom.MC})
    unsat_ok = cert.status is UNSAT and cert.examined == 75
    nodes = ("a", "b", "c")
    preorders = list(enumerate_preorders(nodes))
    ordered_pairs = list(itertools.permutations(nodes, 2))
    mismatches = 0
    for pairs in all_edge_subsets(nodes):
        gc = combined_graph(pairs, [], extra_nodes=nodes)
        for r in preorders:
            for u, v in ordered_pairs:
                lhs = socially_stronger(r, gc, u, v)
                rhs = more_important(
                    r,
                    gc.support_set(u, Feedback.POSITIVE),
                    gc.support_set(v, Feedback.POSITIVE),
                )
                if lhs != rhs:
                    mismatches += 1
    ok = unsat_ok and mismatches == 0
    _verdict(
        6,
        ok,
        f"{cert.status.value} examined={cert.examined}, reduction mismatches={mismatches}",
    )
    assert ok


def test_criterion_7_t_and_vwm_unsatisfiable_on_a_strongly_connected_graph():
    """The cycle-with-chord graph read as positive feedback is strongly
    connected with in-degree spread one; T plus VWM must certify UNSAT.
    If it certified SAT instead, an exhaustive fallback over strongly
    connected positive graphs on up to 5 nodes must find an UNSAT instance.
    """
    g = positive_graph(CYCLE4_WITH_CHORD)
    cert = certify_vwm_strongly_connected(g)
    if cert.status is UNSAT:
        ok = True
        detail = f"UNSAT examined={cert.examined} on the 5-edge construction"
    else:
        found = _search_unsat_strongly_connected()
        ok = found is not None
        detail = (
            f"construction SAT; fallback found {found.serialize()!r}"
            if found
            else "construction SAT and fallback search exhausted"
        )
    _verdict(7, ok, detail)
    assert ok


def _search_unsat_strongly_connected():
    for n in (4, 5):
        nodes = tuple("abcde"[:n])
        for pairs in all_edge_subsets(nodes):
            g = positive_graph(pairs, extra_nodes=nodes)
            if not g.is_strongly_connected():
                continue
            if certify_vwm_strongly_connected(g).status is UNSAT:
                return g
    return None


def test_criterion_8_greedy_dominance_matches_injection_search_exhaustively():
    """For every total preorder over up to 5 nodes and every pair of node
    sets of size up to 4, the greedy dominance test must agree with an
    explicit search over all injections. Zero disagreements allowed.
    """
    disagreements = 0
    cases = 0
    for n in range(1, 6):
        nodes = tuple("abcde"[:n])
        groups = [
            frozenset(combo)
            for size in range(min(4, n) + 1)
            for combo in itertools.combinations(nodes, size)
        ]
        for ranking in enumerate_preorders(nodes):
            for a, b in itertools.product(groups, repeat=2):
                cases += 1
                greedy = at_least_as_strong(ranking, a, b)
                explicit = injection_exists(
                    rank_profile(ranking, a), rank_profile(ranking, b)
                )
                if greedy != explicit:
                    disagreements += 1
    ok = disagreements == 0
    _verdict(8, ok, f"{cases} cases, {disagreements} disagreements")
    assert ok


def test_criterion_9_preorder_counts_match_independent_recurrence():
    """Enumeration must yield 1, 3, 13, 75, 541, 4683 preorders for one to
    six nodes, matching the first-block recurrence computed here, with the
    six-node run under one second.
    """
    expected = [preorder_count(n) for n in range(1, 7)]
    counts = []
    elapsed6 = None
    for n in range(1, 7):
        nodes = [f"n{i}" for i in range(n)]
        start = time.perf_counter()
        counts.append(sum(1 for _ in enumerate_preorders(nodes)))
        if n == 6:
            elapsed6 = time.perf_counter() - start
    ok = (
        counts == expected == [1, 3, 13, 75, 541, 4683] and elapsed6 < 1.0
    )
    _verdict(9, ok, f"counts={counts}, n=6 in {elapsed6:.3f}s")
    assert ok
