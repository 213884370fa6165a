"""One round of one workload, in a fresh interpreter started by run.py.

A fresh process per round keeps the program's module-level caches
(``lru_cache`` on tree lists and kappa products) and its F-caches cold,
as they are for a user's command.  Modes:

* ``round``: set up, run the job list timed, print timings and outputs;
  jobs are timed on the process's CPU clock (see run.py for why);
* ``setup``: set up and stop, a further sample of the set-up time;
* ``traced``: like ``round``, with the tracing wrappers installed around
  the job list; spans go to ``--trace-out``.

The last line of standard output is one JSON object.
"""

import time

import argparse
import json
import os
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["round", "setup", "traced"], required=True)
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started this process")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    # One CPU: the program runs Python code one thread at a time, and on a
    # shared machine a thread woken on another, idle CPU waits for the host
    # to schedule that CPU, which spreads per-job times far more than the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import workloads
    from quiverdt.errors import QuiverDTError

    workload = workloads.WORKLOADS[args.workload](args.seed, args.cache_dir)
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # The process's CPU clock starts at the fork, so this covers interpreter
    # start-up; CLOCK_MONOTONIC is system-wide, so the wall figure does too.
    setup_s = time.process_time()
    setup_wall_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    results, job_s, failed = [], [], 0
    start, start_cpu = time.perf_counter(), time.process_time()
    for job in workload.jobs:
        t0 = time.process_time()
        try:
            result = workload.run(job)
        except QuiverDTError as exc:
            result = None
            failed += 1
            print(f"job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        job_s.append(time.process_time() - t0)
        results.append(result)
    end_cpu = time.process_time()
    cpu_s = end_cpu - start_cpu
    wall_s = time.perf_counter() - start
    # ru_maxrss is a high-water mark in KiB; read it before the output work below.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        if args.trace_out:
            tracer.write(args.trace_out)

    outputs = [
        None if result is None else workload.serialize(job, result)
        for job, result in zip(workload.jobs, results)
    ]
    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "cpu_s": cpu_s,
        "cpu_total_s": end_cpu,
        "wall_s": wall_s,
        "job_s": job_s,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
