"""The affhecke benchmark: seeded verification workloads, timed end to end.

    python3 bench/run.py --workload hecke-kl --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all [--seed 1] [--seconds 40] [--trace 1]
    python3 bench/run.py --self-test

One measurement runs passes of one workload one after another, each pass in
a fresh interpreter (bench/worker.py), until the next pass would overrun
--seconds.  With --trace 0 it reports the end-to-end metrics, with times
rescaled by the worker's speed probe; with --trace 1 it alternates untraced
and traced passes and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is nonzero
when a case failed.  --all measures every workload in turn and prints every
metric with its unit.  --self-test checks that BENCHMARK.json lists exactly
the metrics reported, that a tampered output counts as a failure, that
every entry point is called on the workloads its layer is measured on, and
that two traced passes count the same calls.  bench/README.md has the
design and the baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from spans import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
END_TO_END_UNITS = {
    "verdict_s": "s",
    "case_ms.p50": "ms",
    "case_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PASS_TIMEOUT_S = 170


class PassError(RuntimeError):
    pass


def run_pass(workload, seed, trace=False, spans=None, tamper=False):
    """One pass in a fresh interpreter; setup_s runs from spawn to the
    moment the worker has imported affhecke and drawn its inputs."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    if tamper:
        cmd.append("--tamper")
    # a fixed hash seed keeps set iteration, and so the call counts, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise PassError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    setup_ns = record["ready_ns"] - spawn_ns - record["setup_probe_ns"]
    record["setup_s"] = setup_ns * record["setup_scale"] / 1e9
    return record


def run_passes(workload, seed, seconds, kinds):
    """Run passes, cycling through `kinds` (True = traced), while the next
    pass, as long as the longest so far, still ends within `seconds`; at
    least one pass of every kind."""
    start = time.monotonic()
    passes = []
    walls = []
    while True:
        traced = kinds[len(passes) % len(kinds)]
        spans = None
        if traced and not any(p["traced"] for p in passes):
            spans = os.path.join(OUT_DIR, f"spans-{workload}.jsonl.gz")
        began = time.monotonic()
        record = run_pass(workload, seed, trace=traced, spans=spans)
        walls.append(time.monotonic() - began)
        record["traced"] = traced
        passes.append(record)
        enough = len(passes) >= len(kinds)
        if enough and time.monotonic() + max(walls) > start + seconds:
            return passes


def percentile(values, q):
    """Nearest-rank percentile of a list of numbers."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def failures_of(passes):
    """Failed cases of every pass, plus a failure when passes disagree on
    their outputs (the same seed must give the same digests)."""
    failed = [f for p in passes for f in p["failures"]]
    if len({p["digest"] for p in passes}) > 1:
        failed.append(("digest", "passes of one seed produced different outputs"))
    return failed


def end_to_end(passes):
    """The end-to-end metrics of untraced passes of one seed.  A case's time
    is its median over the passes, so one pass caught in a burst of load
    does not move a percentile."""
    case_ms = [statistics.median(times) / 1e6 for times in zip(*(p["case_ns"] for p in passes))]
    return {
        "verdict_s": statistics.median(p["verdict_s"] for p in passes),
        "case_ms.p50": percentile(case_ms, 0.5),
        "case_ms.p90": percentile(case_ms, 0.9),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, len(case_ms)


def per_layer(passes):
    """Counts and ratios from the traced passes (which must agree), self
    times as their medians, and traced over untraced verdict_s."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    first = traced[0]["per_layer"]
    metrics = {}
    problems = []
    for name, value in first.items():
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(p["per_layer"][name] for p in traced)
        else:
            metrics[name] = value
            if any(p["per_layer"][name] != value for p in traced[1:]):
                problems.append((name, "traced passes disagree"))
    metrics["trace.overhead"] = statistics.median(p["verdict_s"] for p in traced) / statistics.median(
        p["verdict_s"] for p in plain
    )
    return metrics, problems


def measure(workload, seed, seconds, trace):
    """One benchmark measurement; prints the metrics and returns the result."""
    from spans import metric_units

    kinds = (False, True) if trace else (False,)
    passes = run_passes(workload, seed, seconds, kinds)
    failed = failures_of(passes)
    attempted = sum(p["attempted"] for p in passes)
    if trace:
        metrics, problems = per_layer(passes)
        failed += problems
        units = metric_units()
    else:
        metrics, samples = end_to_end(passes)
        units = END_TO_END_UNITS
    print(f"workload {workload} seed {seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), {attempted} cases, {len(failed)} failed")
    for case_id, reason in failed[:20]:
        print(f"  FAIL {case_id}: {reason}")
    if trace:
        spans = next(p["spans"] for p in passes if p["traced"])
        print(f"  {spans} spans per traced pass, written to .bench_out/spans-{workload}.jsonl.gz")
    else:
        print(f"  case_ms samples {samples} cases, each the median of {len(passes)} passes "
              f"(p90 has {samples - math.ceil(0.9 * samples)} beyond it)")
        print(f"  fail_ratio {len(failed) / attempted:.6f} ratio")
        print(f"  outputs digest {passes[0]['digest']}")
        wall = statistics.median(p["wall_s"] for p in passes)
        probe = statistics.median(p["probe_ms"] for p in passes)
        print(f"  wall time per pass {wall:.6g} s, not rescaled (probe median {probe:.4g} ms)")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def self_test(seed):
    """Metric-list, tampering and tracing-coverage checks; returns a list of
    problems."""
    from spans import ENTRY_POINTS, RATIOS, metric_units

    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for section, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", metric_units())):
        if {m["name"]: m["unit"] for m in declared[section]} != units:
            problems.append(f"BENCHMARK.json {section} differs from the metrics reported")
    record = run_pass("hecke-kl", seed, tamper=True)
    if len(record["failures"]) != 1 or "digest" not in record["failures"][0][1]:
        problems.append(f"tampered output not caught exactly once: {record['failures']}")
    else:
        print(f"tamper: caught as {record['failures'][0]}")
    for workload in WORKLOADS:
        first, second = (run_pass(workload, seed, trace=True) for _ in range(2))
        for record in (first, second):
            problems += [f"{workload}: {case_id}: {why}" for case_id, why in record["failures"]]
        counts = {k: v for k, v in first["per_layer"].items() if k.endswith(".calls")}
        again = {k: v for k, v in second["per_layer"].items() if k.endswith(".calls")}
        if counts != again:
            diff = sorted(k for k in counts if counts[k] != again[k])
            problems.append(f"{workload}: two traced passes count different calls: {diff}")
        for name, _m, _a, _kind, on in ENTRY_POINTS:
            if workload in on and not counts[f"{name}.calls"]:
                problems.append(f"{workload}: {name} recorded no calls")
        for name, (_entry, _counter, on) in RATIOS.items():
            if workload in on and not first["per_layer"][name]:
                problems.append(f"{workload}: {name} is zero")
        print(f"coverage {workload}: {sum(1 for v in counts.values() if v)} of {len(counts)} entry points called")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="The affhecke benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="measure every workload in turn")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "affhecke", "__init__.py")):
        print(f"error: no affhecke sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.self_test:
            problems = self_test(args.seed)
            for problem in problems:
                print(f"SELF-TEST FAIL: {problem}")
            print(f"self-test: {'PASS' if not problems else 'FAIL'}")
            return 1 if problems else 0
        if args.all:
            failed = 0
            for workload in WORKLOADS:
                failed += measure(workload, args.seed, args.seconds, False)["failed"]
                if args.trace:
                    failed += measure(workload, args.seed, args.seconds, True)["failed"]
            print(f"all workloads: {failed} failed")
            return 1 if failed else 0
        if args.workload is None:
            parser.error("give --workload, --all or --self-test")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
