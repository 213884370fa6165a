"""Benchmark of the quiverdt pipeline: four workloads, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in turn.  Each round of a
workload runs its whole fixed job list in a fresh interpreter
(bench/child.py), so the program's caches start cold.  With ``--trace 0``
rounds repeat until S seconds have passed (at least one), set-up is
sampled at least five times, and the end-to-end metrics are printed.  With
``--trace 1`` one plain round and one round under the tracing wrappers
run, and the per-layer metrics are printed with the tracing overhead.
Every round's outputs are checked for correctness after it is timed.

Times are CPU times of the child process (user plus system), not wall
times.  On a shared virtual machine the host takes the virtual CPU away
for bursts of a fraction of a second (steal time): in such a burst a
fixed loop's wall time doubles while its CPU time stays put.  Every workload runs one thread, so on an idle machine
the CPU time is the wall time a user waits, and it is the part of that
time the program decides.  Wall times are printed in the text lines for
reference.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Traces and temporary F-cache directories go under ``.bench_out/`` at the
repository root; the cache directories are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("kronecker_oracle", "random_flow", "quiver3_cold", "quiver3_warm")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"cpu_s": "s", "job_p50_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


def spawn(mode, workload, seed, cache_dir=None, trace_out=None) -> dict:
    """Run bench/child.py once and return its result."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # A fixed hash seed keeps set iteration order, and so the timings, alike between runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--spawned-ns", str(spawned)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Checks one workload's rounds; reference data is built once per run."""

    def __init__(self, workload: str, seed: int):
        import verify
        import workloads

        self.verify = verify
        self.workload = workload
        self.seed = seed
        self.jobs = workloads.WORKLOADS[workload](seed, cache_dir=OUT).jobs
        self._references = None

    def references(self):
        if self._references is None:
            if self.workload == "random_flow":
                self._references = self.verify.random_flow_references(self.seed)
            elif self.workload.startswith("quiver3"):
                self._references = self.verify.quiver3_oracles()
        return self._references

    def check(self, outputs, cold_outputs=None) -> list:
        v = self.verify
        if self.workload == "kronecker_oracle":
            return v.check_kronecker(self.jobs, v.parse_kronecker(outputs))
        if self.workload == "random_flow":
            return v.check_random_flow(v.parse_random_flow(outputs), self.references())
        cold = None if cold_outputs is None else v.parse_quiver3(cold_outputs)
        return v.check_quiver3(self.jobs, v.parse_quiver3(outputs), self.references(), cold)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        return _run_workload(workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, run_dir) -> dict:
    checker = Checker(workload, seed)
    fill, fill_s = None, 0.0
    if workload == "quiver3_warm":
        # Set-up: one cold run of the same jobs fills the directory the rounds read.
        fill = spawn("round", workload, seed, cache_dir=run_dir / "warm")
        fill_s = fill["cpu_total_s"]

    def cache_dir(index):
        if workload == "quiver3_cold":
            return run_dir / f"cold-{index}"
        if workload == "quiver3_warm":
            return run_dir / "warm"
        return None

    rounds = []
    if trace:
        rounds.append(spawn("round", workload, seed, cache_dir(0)))
        trace_out = OUT / f"trace-{workload}-seed{seed}.json"
        rounds.append(spawn("traced", workload, seed, cache_dir(1), trace_out=trace_out))
    else:
        deadline = time.monotonic() + seconds
        while not rounds or time.monotonic() < deadline:
            rounds.append(spawn("round", workload, seed, cache_dir(len(rounds))))
        samples = list(rounds)
        while len(samples) < SETUP_SAMPLES:
            samples.append(spawn("setup", workload, seed, cache_dir(len(samples))))
        setups = [r["setup_s"] for r in samples]
        wall_setups = [r["setup_wall_s"] for r in samples]

    failures = []
    if fill is not None:
        failures += checker.check(fill["outputs"])
    for r in rounds:
        failures += checker.check(r["outputs"], fill and fill["outputs"])
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    jobs = len(checker.jobs)
    attempted = jobs * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"{workload}: seed {seed}, {jobs} jobs per round, {len(rounds)} rounds, "
          f"{failed} failed, {len(failures)} check failures")
    if trace:
        layers = dict(rounds[1]["layers"])
        layers["trace.overhead_s"] = rounds[1]["cpu_s"] - rounds[0]["cpu_s"]
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        values = {
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "job_p50_cpu_s": statistics.median(t for r in rounds for t in r["job_s"]),
            "setup_s": fill_s + statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        }
        print(f"  (wall clock, for reference: job list {statistics.median(r['wall_s'] for r in rounds):.6g} s, "
              f"set-up {statistics.median(wall_setups):.6g} s)")
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quiverdt" / "__init__.py").is_file():
        print(f"error: no quiverdt sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = [args.workload] if args.workload else WORKLOADS
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
