"""Self-tests of the benchmark's traced counts.

    python3 perfbench/selftest.py

For each workload this makes two traced runs at the hold-out seed, each in
its own process as the benchmark runs them, and checks that:

- both runs pass the correctness gate;
- ``views.graph.sources_computed <= views.graph.sources_requested``;
- the dense-chain counts are 0 on ``qh-rows`` and ``qh-pairs`` and positive
  on ``sphere-chain``;
- every count (and byte size) repeats exactly across the two runs.

It also checks the self-time arithmetic on hand-made spans.  Exit code 0
means every check held.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
from run import ROOT, WORKLOADS  # noqa: E402

HOLD_OUT_SEED = 7
CHAIN_COUNTS = ("views.chain.sources_computed", "views.chain.weight_entries")


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_self_times() -> list[str]:
    tracer = layers.Tracer("synthetic")
    # root [0, 10] with children [1, 4] and [3, 6] on two threads; grandchild [2, 3]
    tracer.spans = [
        (1, "root", 0.0, 10.0, None, 1),
        (2, "a", 1.0, 4.0, 1, 1),
        (3, "b", 3.0, 6.0, 1, 2),
        (4, "c", 2.0, 3.0, 2, 1),
    ]
    got = dict(tracer.self_times())
    want = {"root": 5.0, "a": 2.0, "b": 3.0, "c": 1.0}
    return [] if got == want else [f"self times {got} != {want}"]


def check_workload(workload: str) -> list[str]:
    first, second = traced(workload, HOLD_OUT_SEED), traced(workload, HOLD_OUT_SEED)
    errors = []
    for run in (first, second):
        if not run["correct"] or run["failed"]:
            errors.append(f"{workload}: correctness gate failed ({run['failed']} checks)")
    m = first["metrics"]
    if m["views.graph.sources_computed"]["value"] > m["views.graph.sources_requested"]["value"]:
        errors.append(f"{workload}: graph sources computed exceed sources requested")
    chain_used = workload == "sphere-chain"
    for name in CHAIN_COUNTS:
        if (m[name]["value"] > 0) != chain_used:
            errors.append(f"{workload}: {name} = {m[name]['value']}")
    for name, metric in m.items():
        if metric["unit"] in ("count", "bytes") and metric != second["metrics"][name]:
            errors.append(f"{workload}: {name} {metric['value']} then "
                          f"{second['metrics'][name]['value']}")
    return errors


def main() -> int:
    errors = check_self_times()
    for workload in WORKLOADS:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        errors += found
    for error in errors:
        print(error, file=sys.stderr)
    print("all self-tests passed" if not errors else f"{len(errors)} self-test failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
