"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reprank.cli as cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_ordered_bell_matches_oeis_a000670():
    assert [workloads.ordered_bell(n) for n in range(8)] == [1, 1, 3, 13, 75, 541, 4683, 47293]


def test_self_time_subtracts_direct_children_only():
    # engine [0, 10] > socially_stronger [1, 4] > more_important [2, 3];
    # engine > axioms.check [5, 6]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    assert tracer.self_times(parent, start, end) == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("n", [100, 101, 250])
def test_p90_leaves_a_tenth_of_the_samples_beyond_it(n):
    samples = [float(i) for i in range(n)]
    random.Random(n).shuffle(samples)
    p90 = run.nearest_rank(samples, 90)
    beyond = sum(s > p90 for s in samples)
    assert beyond == n - -(-n * 9 // 10)
    if n == 100:
        assert (p90, beyond) == (89.0, 10)


def test_pairs_scanned_counts_up_to_the_witness():
    class Report:
        passed = False

        class witness:
            vi, vj = "b", "a"

    nodes = ("a", "b", "c")
    # Pair order: (a,b) (a,c) (b,a) ...: the witness is the third pair.
    assert tracer.pairs_scanned(nodes, Report) == 3
    Report.passed = True
    assert tracer.pairs_scanned(nodes, Report) == 6


def test_transitivity_oracle_finds_a_violation():
    g = workloads.Graph(
        "positive",
        ("a", "b", "c"),
        {"a": frozenset("c"), "b": frozenset(), "c": frozenset()},
        {v: frozenset() for v in "abc"},
    )
    assert workloads.transitivity_violation(g, {"a": 1, "b": 1, "c": 1}) == ("a", "b")
    assert workloads.transitivity_violation(g, {"a": 1, "b": 2, "c": 2}) is None


TINY = {
    "positive": "mode positive\na + b\nb + c\nc + b\n",
    "negative": "mode negative\na - b\nb - c\nc - b\n",
    "combined": "mode combined\na + b\nb - c\nc + b\na - c\n",
}


def test_every_wrapper_records_on_a_tiny_input(tmp_path):
    t = tracer.Tracer()
    with t.installed():
        main = t.op_main(cli.main)
        for mode, text in TINY.items():
            graph = tmp_path / f"{mode}.txt"
            graph.write_text(text)
            ranking = tmp_path / f"{mode}.rank"
            ranking.write_text("a 1\nb 1\nc 1\n")
            for argv in (["rank", graph], ["check", graph, ranking], ["certify", graph]):
                main([str(a) for a in argv])
    assert cli.check.__module__ == "reprank.axioms"  # wrappers removed again
    names = set(t.span_totals())
    assert names >= {
        "cli.main",
        "graphs.parse_graph",
        "rankings.parse_ranking",
        "rankings.normalize",
        "rankings.from_levels",
        "rankings.enumerate",
        "engine.rank_graph",
        "axioms.check",
        "certify.certify",
    }
    assert any(n.startswith("dominance.") for n in names)
    for key in (
        "dominance.more_important.calls",
        "dominance.equally_strong.calls",
        "dominance.socially_stronger.calls",
        "certify.checks",  # check as called from reprank.certify
        "rankings.preorders_yielded",
        "engine.comparisons",
    ):
        assert t.counts[key] > 0, key
    assert len(set(t.op)) == 9


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = {**tracer.Tracer().metrics(0), "bench.trace_overhead_x": 1.0}
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert all(m["unit"] == tracer.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "op_p90_s", "peak_rss_mib"
    }


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 3])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_has_no_failed_ops(tmp_path, name, seed):
    workload = workloads.WORKLOADS[name]
    graphs = workload.generate(seed)[:10]
    paths = workload.write(graphs, tmp_path)
    golden = run._golden_for(name, seed)
    assert (golden is not None) == (seed == workloads.DEFAULT_SEED)
    runner = workloads.Runner(cli.main, cli.main, golden)
    k = 3 if name == "rank-single" else 10
    run._run_items(workload, graphs[:k], paths[:k], runner)
    assert runner.attempted > 0
    assert runner.failed / runner.attempted == 0, runner.failures


def test_a_changed_output_counts_as_failed(tmp_path):
    workload = workloads.WORKLOADS["certify"]
    graphs = workload.generate(workloads.DEFAULT_SEED)[:2]
    paths = workload.write(graphs, tmp_path)
    runner = workloads.Runner(cli.main, cli.main, golden=["0" * 16])
    run._run_items(workload, graphs, paths, runner)
    assert (runner.attempted, runner.failed) == (2, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_timed_run_takes_each_ops_median_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: run.CAL_REF_S)  # time scale 1
    workload = workloads.WORKLOADS["rank-combined"]
    graphs = workload.generate(3)[:3]
    paths = workload.write(graphs, tmp_path)
    runners, metrics = run._timed(workload, graphs, paths, 0, None, cli.main)
    assert len(runners) == run.MIN_PASSES
    assert {r.attempted for r in runners} == {6}
    assert len({tuple(r.digests) for r in runners}) == 1
    assert all(r.failed == 0 for r in runners)
    median = [statistics.median(op) for op in zip(*(r.latencies for r in runners))]
    assert metrics["op_p50_s"][0] <= metrics["op_p90_s"][0] <= max(median)
    assert metrics["ops_per_s"][0] == pytest.approx(len(median) / sum(median))


def test_each_op_is_scaled_by_the_tasks_nearest_its_input():
    # Eleven inputs of two ops each; the host halves its speed after input 5.
    cal = [run.CAL_REF_S] * 6 + [2 * run.CAL_REF_S] * 6
    factors = run._scale_factors(cal, ends=list(range(2, 24, 2)))
    assert len(factors) == 22
    assert factors[:6] == pytest.approx([1.0] * 6)
    assert factors[-8:] == pytest.approx([0.5] * 8)


def test_times_scale_with_the_calibration_task(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["certify"]
    graphs = workload.generate(3)[:4]
    paths = workload.write(graphs, tmp_path)
    p50 = {}
    for slowdown in (1, 2):
        monkeypatch.setattr(run, "calibrate", lambda: slowdown * run.CAL_REF_S)
        runners, metrics = run._timed(workload, graphs, paths, 0, None, cli.main)
        raw = statistics.median(statistics.median(op) for op in zip(*(r.latencies for r in runners)))
        p50[slowdown] = metrics["op_p50_s"][0] / raw
    assert p50[1] == pytest.approx(1)
    assert p50[2] == pytest.approx(0.5)


def test_a_later_pass_must_repeat_the_first(tmp_path):
    workload = workloads.WORKLOADS["certify"]
    graphs = workload.generate(3)[:2]
    paths = workload.write(graphs, tmp_path)
    certify_calls = []

    def drifting_main(argv):
        if argv[0] == "certify":  # not the untimed check of a SAT witness
            certify_calls.append(argv)
            if len(certify_calls) > len(graphs):  # every pass after the first
                print("extra output")
        return cli.main(argv)

    runners, _ = run._timed(workload, graphs, paths, 0, None, drifting_main)
    assert [r.failed for r in runners] == [0] + [len(graphs)] * (run.MIN_PASSES - 1)


def test_traced_counts_repeat_exactly(tmp_path):
    workload = workloads.WORKLOADS["certify"]
    graphs = workload.generate(3)
    paths = workload.write(graphs, tmp_path)
    counts = []
    for k in range(2):
        runners, metrics = run._traced(workload, graphs, paths, None, cli.main, tmp_path / f"{k}.tsv.gz")
        assert all(r.failed == 0 for r in runners)
        counts.append({n: v for n, (v, unit) in metrics.items() if unit not in ("s", "x")})
    assert counts[0] == counts[1]
    assert counts[0]["rankings.preorders_yielded"] == counts[0]["certify.examined"] > 0
