"""qhgeo benchmark: shipped scenarios run end to end through ``qhgeo run``.

Run from the repository root:

    python3 perfbench/run.py --workload qh-rows --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 7

``--trace 0`` times fresh ``qhgeo run`` processes (wall time, set-up time,
peak RSS).  ``--trace 1`` makes one in-process run with spans around the calls
into each module and reports per-layer times and counts (see ``layers.py``).
``--workload all`` runs every workload untraced and prints one summary table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run is gated on correctness: the scenario must exit 0 with every check
passed, and its report bytes must equal those of every earlier run of the
workload at that seed in this checkout, and the sha256 in ``expected.json``
where one is recorded.  A failed gate marks all of the run's checks failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SCENARIO_DIR = os.path.join(SRC, "qhgeo", "verifier", "scenarios")
WORK = os.path.join(BENCH_DIR, "_work")

# The sphericalization checks of halfplane_to_disk_region on its full 3,500-point
# chain, with fewer chain sources (12 + 16 + 8 instead of 48 + 64 + 20) and
# without the scenario's two graph-pair checks, so that one process takes ~12 s.
SPHERE_CHECKS = [
    {"check": "sphericalization_envelope", "deformation": "sh", "pairs": 1000, "sources": 12},
    {"check": "sphericalization_distortion", "deformation": "sh", "quadruples": 1000,
     "pool": 16, "sources": 8},
    {"check": "global_qs_hypotheses", "mapping": "cayley"},
]
# name -> (shipped scenario, checks run instead of its own or None); README.md says
# why each was chosen.  Every process runs with --jobs 1.
WORKLOADS = {
    "qh-rows": ("calibration_disk", None),
    "qh-pairs": ("bounded_pair_distortion", None),
    "sphere-chain": ("halfplane_to_disk_region", SPHERE_CHECKS),
}
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # every child is killed once the whole run passes this


class BenchError(Exception):
    """The program could not be run at all (missing source, crash, timeout)."""


def load_expected() -> dict:
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def scenario_path(workload: str) -> str:
    return os.path.join(SCENARIO_DIR, WORKLOADS[workload][0] + ".json")


def default_seed(workload: str) -> int:
    with open(scenario_path(workload), encoding="utf-8") as fh:
        return int(json.load(fh)["seed"])


def check_sources(workload: str):
    if not os.path.isfile(os.path.join(SRC, "qhgeo", "verifier", "cli.py")):
        raise BenchError(f"qhgeo sources not found under {SRC}")
    if not os.path.isfile(scenario_path(workload)):
        raise BenchError(f"shipped scenario {WORKLOADS[workload][0]!r} not found")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def derived_scenario(workload: str, tag: str, checks: list) -> str:
    """The workload's shipped scenario with ``checks`` in place of its own, under WORK."""
    with open(scenario_path(workload), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["checks"] = checks
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{workload}-{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return path


def workload_scenario(workload: str) -> str:
    if WORKLOADS[workload][1] is None:
        return scenario_path(workload)
    return derived_scenario(workload, "scenario", WORKLOADS[workload][1])


def run_child(scenario: str, seed: int, report: str, deadline: float):
    """One ``qhgeo run`` process: (wall seconds, own peak RSS in MB, exit code)."""
    args = [sys.executable, "-m", "qhgeo.verifier.cli", "run", "--scenario", scenario,
            "--jobs", "1", "--seed", str(seed), "--report", report]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before the next scenario process")
    started = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        # the child's own rusage: RUSAGE_CHILDREN would be a max over all children so far
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError(f"{scenario} killed by signal {-proc.returncode} (timeout {timeout:.0f} s)")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class ReportGate:
    """Report-bytes gate of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.expected = load_expected()["sha256"][workload].get(str(seed))
        self.seen_path = os.path.join(WORK, "reports", f"{workload}-{seed}.sha256")

    def check(self, exit_code: int, data: bytes | None) -> tuple[int, int, list[str]]:
        """(checks attempted, checks failed, problems) of one report."""
        problems = []
        try:
            report = json.loads(data)
            attempted = len(report["checks"])
            failed = sum(1 for c in report["checks"] if not c["passed"])
        except (TypeError, ValueError, KeyError):
            report = None
            with open(workload_scenario(self.workload), encoding="utf-8") as fh:
                attempted = failed = len(json.load(fh)["checks"])
            problems.append("no readable report")
        if report is not None:
            if exit_code != 0:
                problems.append(f"exit code {exit_code}")
            if failed:
                problems.append(f"{failed} checks failed")
            digest = hashlib.sha256(data).hexdigest()
            if self.expected is not None and digest != self.expected:
                problems.append(f"sha256 {digest} differs from expected.json")
            seen = self._seen()
            if seen is not None and digest != seen:
                problems.append(f"sha256 {digest} differs from an earlier run at this seed")
            if seen is None:
                os.makedirs(os.path.dirname(self.seen_path), exist_ok=True)
                with open(self.seen_path, "w", encoding="utf-8") as fh:
                    fh.write(digest)
        return attempted, attempted if problems else 0, problems

    def _seen(self):
        try:
            with open(self.seen_path, encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            return None


def read_bytes(path: str):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced run: set-up and timed scenario processes, in turn, for about ``seconds``.

    Each round runs one set-up process (the scenario with ``checks: []``, which
    only builds the context) until there are SETUP_REPEATS of them, then one
    timed process.  A round starts only if its timed process should end no more
    than half a process past ``seconds``, so a run lasts about ``seconds``.
    """
    scenario = workload_scenario(workload)
    setup_path = derived_scenario(workload, "setup", [])
    setup_report = os.path.join(WORK, f"{workload}-setup-report.json")
    gate = ReportGate(workload, seed)
    report_path = os.path.join(WORK, f"{workload}-report.json")
    setups, walls, rss, problems = [], [], [], []
    attempted = failed = 0

    def setup_run():
        wall, _, code = run_child(setup_path, seed, setup_report, deadline)
        if code != 0:
            raise BenchError(f"set-up run of {WORKLOADS[workload][0]} exited with code {code}")
        setups.append(wall)

    started = time.monotonic()
    while not walls or time.monotonic() - started + statistics.median(walls) / 2 < seconds:
        if len(setups) < SETUP_REPEATS:
            setup_run()
        if os.path.exists(report_path):
            os.remove(report_path)
        wall, peak, code = run_child(scenario, seed, report_path, deadline)
        a, f, p = gate.check(code, read_bytes(report_path))
        walls.append(wall)
        rss.append(peak)
        attempted += a
        failed += f
        problems += p
    while len(setups) < SETUP_REPEATS:
        setup_run()
    for problem in problems:
        print(f"correctness: {workload} seed={seed}: {problem}", file=sys.stderr)
    return {"wall": walls, "setup": setups, "rss": rss, "attempted": attempted, "failed": failed}


def summary_line(workload: str, seed: int, m: dict) -> str:
    ratio = m["failed"] / m["attempted"]
    return (
        f"{workload} seed={seed}: "
        f"wall_s={statistics.median(m['wall']):.3f} s (n={len(m['wall'])})  "
        f"setup_s={statistics.median(m['setup']):.3f} s (n={len(m['setup'])})  "
        f"peak_rss_mb={statistics.median(m['rss']):.1f} MB (n={len(m['rss'])})  "
        f"check_fail_ratio={ratio:.4f} ({m['failed']}/{m['attempted']} checks)"
    )


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    m = measure(workload, seed, seconds, deadline)
    print(summary_line(workload, seed, m))
    return {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {
            "wall_s": {"value": statistics.median(m["wall"]), "unit": "s"},
            "setup_s": {"value": statistics.median(m["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(m["rss"]), "unit": "MB"},
        },
    }


def traced(workload: str, seed: int) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import layers

    data, metrics = layers.traced_run(
        workload_scenario(workload), seed, os.path.join(WORK, f"trace-{workload}-{seed}.json")
    )
    attempted, failed, problems = ReportGate(workload, seed).check(0, data)
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed_arg, seconds: float) -> dict:
    rows, attempted, failed = [], 0, 0
    for workload in WORKLOADS:
        check_sources(workload)
        seed = default_seed(workload) if seed_arg is None else seed_arg
        m = measure(workload, seed, seconds, time.monotonic() + RUN_BUDGET_S)
        print(summary_line(workload, seed, m), flush=True)
        rows.append((workload, seed, m))
        attempted += m["attempted"]
        failed += m["failed"]
    print(f"\n{'workload':<14}{'seed':>8}{'wall_s':>10}{'setup_s':>10}{'peak_rss_mb':>13}"
          f"{'check_fail_ratio':>18}{'samples':>15}")
    for workload, seed, m in rows:
        samples = f"{len(m['wall'])}+{len(m['setup'])}"
        print(f"{workload:<14}{seed:>8}{statistics.median(m['wall']):>10.3f}"
              f"{statistics.median(m['setup']):>10.3f}{statistics.median(m['rss']):>13.1f}"
              f"{m['failed'] / m['attempted']:>18.4f}{samples:>15}")
    print("units: wall_s and setup_s in s (medians), peak_rss_mb in MB, "
          "check_fail_ratio = failed/attempted checks; samples = timed runs + set-up runs")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed passed to qhgeo run (default: the scenario's own)")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="keep starting timed scenario runs until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            check_sources(args.workload)
            seed = default_seed(args.workload) if args.seed is None else args.seed
            if args.trace:
                result = traced(args.workload, seed)
            else:
                result = end_to_end(args.workload, seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
