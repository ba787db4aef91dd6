"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload hecke-kl --seed 0 [--trace] [--spans PATH]

Imports affhecke from ``src/`` of the checkout, draws the cases from the
seed, runs them one after another (closed loop), checks each verdict and
each output digest against ``reference.json``, and prints one JSON object on
its last line of standard output.  ``run.py`` starts one worker per pass, so
the program's caches start cold in every pass.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tamper(text):
    """Flip the sign of the first coefficient in a serialized output."""
    return re.sub(r" : (-?)", lambda m: " : " if m.group(1) else " : -", text, count=1)


# The sandbox this benchmark was written on slows down by up to 90 % for
# seconds to minutes at a time, whatever the program does.  A fixed slice of
# interpreter work (the probe) runs between cases at least every PROBE_EVERY_NS
# and each case's time is rescaled by the probe times around it to the speed
# at which the probe takes PROBE_REFERENCE_NS, so that the reported times
# follow the program and not the machine's load.
PROBE_EVERY_NS = 100_000_000
PROBE_REFERENCE_NS = 2_000_000


class _Poly:
    """A sparse polynomial in the style of affhecke's rings: a dict from
    exponent tuples to int or Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if v}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return _Poly(out)

    def __mul__(self, other):
        out = {}
        for a, x in self.terms.items():
            for b, y in other.terms.items():
                k = tuple(i + j for i, j in zip(a, b))
                out[k] = out.get(k, 0) + x * y
        return _Poly(out)


_PROBE_BASE = _Poly({(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): Fraction(1, 2), (0, 0, 0): 3})


def probe():
    """About two milliseconds of dict, tuple and Fraction work.  The garbage
    collector is held off meanwhile, so that a collection of the program's
    heap is never timed as probe work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        p = acc = _PROBE_BASE
        for _ in range(4):
            p = p * _PROBE_BASE
            acc = acc + p
        return sorted(acc.terms, key=lambda k: (sum(k), k))
    finally:
        if enabled:
            gc.enable()


def timed_probe():
    start = time.perf_counter_ns()
    probe()
    end = time.perf_counter_ns()
    return start, end - start


def run_cases(cases, tracer=None):
    """Run every case, probing the machine's speed in between.

    Returns per-case (nanoseconds, verdict, output, error, start) and the
    probes as (start, nanoseconds).
    """
    results = []
    probes = [timed_probe()]
    for index, (_case_id, fn) in enumerate(cases):
        if tracer is not None:
            tracer.case = index
        if time.perf_counter_ns() - sum(probes[-1]) > PROBE_EVERY_NS:
            probes.append(timed_probe())
        start = time.perf_counter_ns()
        try:
            ok, output = fn()
            error = None
        except Exception as exc:  # a crashing case is a failed case
            ok, output, error = False, None, f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter_ns() - start, bool(ok), output, error, start))
    probes.append(timed_probe())
    if tracer is not None:
        tracer.case = -1
    return results, probes


def rescaled(results, probes):
    """Each case's nanoseconds at the probe's reference speed, using the
    mean of the probes just before and just after the case."""
    starts = [p[0] for p in probes]
    out = []
    for ns, _ok, _output, _error, start in results:
        after = bisect.bisect_right(starts, start)
        pace = (probes[after - 1][1] + probes[min(after, len(probes) - 1)][1]) / 2
        out.append(ns * PROBE_REFERENCE_NS / pace)
    return out


def check(workload, cases, results, reference, tamper_first=False):
    """Failed case ids with reasons, plus the digest of every output."""
    expected = reference["workloads"][workload]
    digests = expected["digests"]
    failures = []
    combined = hashlib.sha256()
    tampered = not tamper_first
    for (case_id, _fn), (_ns, ok, output, error, _t) in zip(cases, results):
        if error is not None:
            failures.append((case_id, error))
            continue
        if not ok:
            failures.append((case_id, "verdict FAIL"))
            continue
        if output is None:
            if case_id in digests:
                failures.append((case_id, "no output to compare"))
            continue
        if not tampered and " : " in output:
            output, tampered = tamper(output), True
        got = digest(output)
        combined.update(f"{case_id}\t{got}\n".encode())
        if case_id not in digests:
            failures.append((case_id, "no reference digest"))
        elif digests[case_id] != got:
            failures.append((case_id, f"digest {got} != reference {digests[case_id]}"))
    if len(cases) != expected["cases"]:
        failures.append(("case count", f"{len(cases)} cases, expected {expected['cases']}"))
    return failures, combined.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="where the traced pass writes its span log")
    parser.add_argument("--tamper", action="store_true", help="flip one output coefficient (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affhecke", "__init__.py")):
        print(f"error: no affhecke sources under {SRC}", file=sys.stderr)
        return 2
    setup_probes = [timed_probe() for _ in range(3)]
    sys.path.insert(0, SRC)
    import workloads
    from spans import Tracer

    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    pass_dir = os.path.join(OUT_DIR, f"pass-{os.getpid()}")
    os.makedirs(pass_dir, exist_ok=True)
    try:
        cases = workloads.build(args.workload, args.seed, pass_dir)
        ready_ns = time.monotonic_ns()
        setup_probes += [timed_probe() for _ in range(3)]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        first_ns = time.monotonic_ns()
        results, probes = run_cases(cases, tracer)
        last_ns = time.monotonic_ns()
    finally:
        for name in os.listdir(pass_dir):
            os.remove(os.path.join(pass_dir, name))
        os.rmdir(pass_dir)
    failures, combined = check(args.workload, cases, results, reference, args.tamper)
    case_ns = rescaled(results, probes)
    setup_pace = statistics.median(p[1] for p in setup_probes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "ready_ns": ready_ns,
        # the first three probes ran inside the set-up interval
        "setup_probe_ns": sum(p[1] for p in setup_probes[:3]),
        "setup_scale": PROBE_REFERENCE_NS / setup_pace,
        "wall_s": (last_ns - first_ns) / 1e9,
        "verdict_s": sum(case_ns) / 1e9,
        "case_ns": case_ns,
        "probe_ms": statistics.median(p[1] for p in probes) / 1e6,
        "attempted": len(cases),
        "failures": failures,
        "digest": combined,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["per_layer"] = tracer.summary(PROBE_REFERENCE_NS / (record["probe_ms"] * 1e6))
        record["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.write(args.spans, [c[0] for c in cases])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
