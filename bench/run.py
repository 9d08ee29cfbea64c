"""Benchmark for reprank: closed-loop CLI workloads, timed or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload rank-combined --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload rank-combined --seed 0 --trace 1

Each op is one in-process ``reprank.cli.main(argv)`` call with stdout captured
in memory, so it times the whole path from argv to rendered output without
interpreter start-up. Start-up, ``import reprank`` and generating and writing
the seeded inputs are measured separately as ``setup_s``, in fresh
interpreters. The last line of stdout is one JSON object with the result.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

# Support-set iteration order follows the string hash seed, so every run uses
# the same one.
HASH_SEED = "0"
SETUP_RUNS = 9
# Every timed run repeats its fixed op set at least this often. Interference
# from other tenants slows ops in bursts, and each op's median pass is much
# steadier than any single pass, and steadier than its fastest one.
MIN_PASSES = 3
# A shared VM's speed drifts by tens of percent over minutes, with nothing in
# the guest to show it, and wall times drift with it. The benchmark therefore
# times a fixed calibration task of its own between inputs and scales every
# reported time by CAL_REF_S / (the task's median time nearby), so times read
# as seconds on a host where the task takes CAL_REF_S. The task does not run
# reprank code, so a change to the program moves the scaled times as it moves
# the raw ones; raw figures are printed on the # lines.
CAL_GRAPH = workloads.random_graph(random.Random("calibration"), 30, "combined", 240)
CAL_RANKS = dict.fromkeys(CAL_GRAPH.nodes, 1)
CAL_LOOPS = 56
CAL_REF_S = 0.003  # about the task's typical time on a shared 2.1 GHz Xeon vCPU
CAL_WINDOW = 5  # calibration tasks whose median scales the ops between them


def nearest_rank(samples: list[float], percent: int) -> float:
    """Percentile by nearest rank: at 100 samples, p90 is the 90th smallest
    and exactly ten samples lie beyond it."""
    ordered = sorted(samples)
    k = max(1, -(-len(ordered) * percent // 100))  # ceil(n * percent / 100)
    return ordered[k - 1]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", help="rank-combined, rank-single or certify")
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=30, help="timed run length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced pass reporting per-layer metrics")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate golden.json from the default seed")
    args = p.parse_args(argv)
    if not args.write_golden and args.workload is None:
        p.error("--workload is required")
    return args


def calibrate() -> float:
    """Seconds for CAL_LOOPS runs of the benchmark's own transitivity check on
    a fixed graph. It sorts and compares small lists and looks up string keys,
    as the program does, so host contention slows it about as much."""
    start = perf_counter()
    for _ in range(CAL_LOOPS):
        workloads.transitivity_violation(CAL_GRAPH, CAL_RANKS)
    return perf_counter() - start


def _measure_setup(argv: list[str], workdir: Path) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters that import reprank and write the inputs,
    each with its scale factor from calibration tasks timed around it."""
    samples = []
    for k in range(SETUP_RUNS):
        target = workdir / f"setup{k}"
        before = [calibrate() for _ in range(3)]
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only", str(target)],
            check=True,
        )
        elapsed = perf_counter() - start
        cal = before + [calibrate() for _ in range(3)]
        samples.append((elapsed, CAL_REF_S / statistics.median(cal)))
        shutil.rmtree(target)
    return samples


def _run_items(workload, graphs, paths, runner) -> None:
    """Closed loop over the pool: every item once, in order."""
    for graph, path in zip(graphs, paths):
        workload.run_item(graph, path, runner)


def _golden_for(workload_name: str, seed: int) -> list[str] | None:
    if seed != workloads.DEFAULT_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text())["digests"].get(workload_name)


def _scale_factors(cal: list[float], ends: list[int]) -> list[float]:
    """One time scale per op. ``cal[k]`` is the calibration task timed just
    before input k (the last one after the last input) and ``ends[k]`` the op
    count after input k; an op's scale comes from the CAL_WINDOW tasks nearest
    its input."""
    factors, begin = [], 0
    for k, end in enumerate(ends):
        lo = max(0, min(k + 1 - CAL_WINDOW // 2, len(cal) - CAL_WINDOW))
        factor = CAL_REF_S / statistics.median(cal[lo:lo + CAL_WINDOW])
        factors += [factor] * (end - begin)
        begin = end
    return factors


def _timed(workload, graphs, paths, seconds, golden, main):
    """Passes over the whole pool until the run length is spent, at least
    MIN_PASSES of them; each op's latency is its median pass, each pass scaled
    by the calibration tasks timed around it. The op set is fixed by the seed
    alone, so a slower host runs fewer passes, not other ops. Every pass is
    verified, and each pass after the first must repeat the first one's
    outputs byte for byte."""
    deadline = perf_counter() + seconds
    runners, scaled = [], []
    while True:
        started = perf_counter()
        if golden is None and runners:
            golden = runners[0].digests
        runner = workloads.Runner(main, main, golden)
        cal, ends = [calibrate()], []
        for graph, path in zip(graphs, paths):
            workload.run_item(graph, path, runner)
            cal.append(calibrate())
            ends.append(runner.attempted)
        runners.append(runner)
        factors = _scale_factors(cal, ends)
        scaled.append([t * f for t, f in zip(runner.latencies, factors)])
        # Start another pass only if one as long as this one still fits.
        if len(runners) >= MIN_PASSES and perf_counter() + (perf_counter() - started) > deadline:
            break
    raw = [statistics.median(op) for op in zip(*(r.latencies for r in runners))]
    lat = [statistics.median(op) for op in zip(*scaled)]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (nearest_rank(lat, 90), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"# {len(runners)} passes over {len(lat)} ops; op_p90_s is the nearest-rank p90 "
          f"of {len(lat)} samples")
    print("# mean time scale per pass: " + " ".join(
        f"{sum(s) / sum(r.latencies):.3f}" for s, r in zip(scaled, runners)))
    print(f"# unscaled: ops_per_s = {len(raw) / sum(raw):.6g} 1/s, op_p50_s = "
          f"{statistics.median(raw):.6g} s, op_p90_s = {nearest_rank(raw, 90):.6g} s")
    return runners, metrics


def _traced(workload, graphs, paths, golden, main, spans_path):
    """The leading trace_items inputs, each run untraced and then traced; the
    same ops every time, so the per-layer counts repeat exactly."""
    n = workload.trace_items
    t = tracer.Tracer()
    plain = workloads.Runner(main, main, golden)
    traced = workloads.Runner(t.op_main(main), main, golden)
    for k in range(n):
        # Alternating per input puts both passes under the same host load,
        # so their ratio measures the tracing overhead alone.
        workload.run_item(graphs[k], paths[k], plain)
        with t.installed():
            workload.run_item(graphs[k], paths[k], traced)
    values = t.metrics(traced.output_bytes)
    overhead = sum(traced.latencies) / sum(plain.latencies)
    values["bench.trace_overhead_x"] = overhead
    shares = t.layer_self(t.span_totals())
    whole = sum(shares.values())
    print(f"# traced {traced.attempted} ops over the first {n} inputs; "
          f"untraced {plain.attempted / sum(plain.latencies):.3f} ops/s, "
          f"traced {traced.attempted / sum(traced.latencies):.3f} ops/s "
          f"(overhead x{overhead:.2f})")
    print("# self-time shares: " + ", ".join(
        f"{layer} {own / whole:.1%}" for layer, own in shares.items()))
    t.write_spans(spans_path)
    print(f"# spans written to {spans_path}")
    metrics = {name: (value, tracer.unit_of(name)) for name, value in values.items()}
    return [plain, traced], metrics


def _write_golden(main) -> int:
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        graphs = workload.generate(workloads.DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=_out_dir()) as tmp:
            paths = workload.write(graphs, Path(tmp))
            runner = workloads.Runner(main, main)
            _run_items(workload, graphs, paths, runner)
        if runner.failed:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        digests[name] = runner.digests
        print(f"{name}: {runner.attempted} ops")
    GOLDEN.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "digests": digests}, indent=0) + "\n")
    return 0


def _out_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    if not (ROOT / "src" / "reprank" / "cli.py").is_file():
        print(f"error: no reprank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path.insert(0, str(ROOT / "src"))
    from reprank.cli import main as cli_main

    if args.write_golden:
        return _write_golden(cli_main)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload.write(workload.generate(args.seed), Path(args.setup_only))
        return 0

    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=_out_dir()))
    try:
        graphs = workload.generate(args.seed)
        paths = workload.write(graphs, workdir / "inputs")
        gc.freeze()  # keep the benchmark's own objects out of the program's GC passes
        golden = _golden_for(workload.name, args.seed)
        print(f"# workload={workload.name} seed={args.seed} PYTHONHASHSEED={HASH_SEED} "
              f"golden={'on' if golden else 'off'} pool={len(graphs)}")
        if args.trace:
            spans = OUT / f"spans-{workload.name}-{args.seed}.tsv.gz"
            runners, metrics = _traced(workload, graphs, paths, golden, cli_main, spans)
        else:
            runners, metrics = _timed(workload, graphs, paths, args.seconds, golden, cli_main)
            setup_samples = _measure_setup(
                ["--workload", workload.name, "--seed", str(args.seed)], workdir
            )
            metrics["setup_s"] = (statistics.median(t * f for t, f in setup_samples), "s")
            print("# unscaled setup_s samples: "
                  + " ".join(f"{t:.4f} (scale {f:.3f})" for t, f in setup_samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    for r in runners:
        for failure in r.failures:
            print(f"# FAILED {failure}")
    print(f"# failed_frac={failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
