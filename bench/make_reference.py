"""Regenerate reference.json: the expected case count of every workload and
the digest of every serialized output that any seed can draw.

    python3 bench/make_reference.py

Runs each workload once with every seeded draw expanded to its whole pool,
refuses to write anything unless every verdict passes, and checks that
several seeds give the same case count.  Rerun only when an output format
changes on purpose; the digests are the known answers the benchmark checks.
"""

from __future__ import annotations

import json
import os
import sys

from spans import WORKLOADS
from worker import OUT_DIR, REFERENCE, SRC, digest, run_cases

CHECK_SEEDS = range(10)


def main():
    sys.path.insert(0, SRC)
    import workloads

    out_dir = os.path.join(OUT_DIR, "reference")
    os.makedirs(out_dir, exist_ok=True)
    reference = {"workloads": {}}
    for workload in WORKLOADS:
        counts = {len(workloads.build(workload, seed, out_dir)) for seed in CHECK_SEEDS}
        if len(counts) != 1:
            raise SystemExit(f"{workload}: case count depends on the seed: {sorted(counts)}")
        cases = workloads.build(workload, 0, out_dir, exhaustive=True)
        results, _probes = run_cases(cases)
        digests = {}
        for (case_id, _fn), (_ns, ok, output, error, _t) in zip(cases, results):
            if error is not None or not ok:
                raise SystemExit(f"{workload}: {case_id} fails: {error or 'verdict FAIL'}")
            if output is not None:
                digests[case_id] = digest(output)
        reference["workloads"][workload] = {"cases": counts.pop(), "digests": digests}
        print(f"{workload}: {len(cases)} cases run, {len(digests)} digests", flush=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    os.rmdir(out_dir)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
