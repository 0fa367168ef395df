"""One workload process: set up, run the closed loop, report as JSON.

Started by run.py in a fresh interpreter with the thread variables pinned.
Set-up (imports, inputs from the seed, codes) ends at the first timed job;
the launcher measures it from the moment it started this process.  The
last stdout line is the report.

Times are reported twice: as measured (`raw_*`), and restated at the
probe's nominal host speed (see probe.py).  The probe runs SETUP_PROBES
times after set-up, which scale the set-up time by their median, and then
once after every loop iteration, so that every job is bracketed by two.

Between set-up and the timed phase, untimed warm-up jobs run for
WARMUP_S seconds.  They bring the interpreter and the disk into the state
that the timed jobs keep them in: on the benchmark's ext4 disks, creating
files runs up to 20x faster while no files have been deleted lately, so
without the warm-up the first `dc_cache` jobs of a run would read faster
than the rest, by an amount that depends on how long the disk was idle.
Warm-up jobs are checked like timed ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import numpy
import starconfig  # noqa: F401  (import cost belongs to set-up)

import probe
import workloads
from tracer import Tracer, installed

SETUP_PROBES = 3
WARMUP_S = 4.0


def _job(workload, job, workdir, reference, tracer=None):
    """(seconds or None, failure message or None) for one job."""
    try:
        if tracer is None:
            seconds, outputs = workloads.run_job(workload, job, workdir,
                                                 time.perf_counter)
        else:
            with installed(tracer):
                seconds, outputs = workloads.run_job(
                    workload, job, workdir, time.perf_counter, tracer)
        workloads.check(workload, job, outputs, reference)
        return seconds, None
    except workloads.CheckFailed as exc:
        return None, f"input {job.index}: {exc}"
    except Exception:
        return None, f"input {job.index}: {traceback.format_exc(limit=3)}"


def run(args) -> dict:
    pool = workloads.make_pool(args.workload, args.seed, args.work)
    setup_s = time.monotonic() - args.launched_at
    probes = [probe.probe() for _ in range(SETUP_PROBES)]
    setup_probe = statistics.median(probes)
    report = {"setup_s": setup_s * probe.NOMINAL_S / setup_probe,
              "raw_setup_s": setup_s,
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.setup_only:
        report["probe_times"] = probes
        return report
    reference = workloads.load_reference(args.workload, args.seed)
    failures = []
    attempted = 0
    warmup_end = time.perf_counter() + WARMUP_S
    while True:
        # from the end of the pool, so the timed phase starts at input 0
        job = pool[-1 - attempted % len(pool)]
        attempted += 1
        failure = _job(args.workload, job, args.work, reference)[1]
        if failure is not None:
            failures.append(failure)
        if time.perf_counter() >= warmup_end:
            break
    probes.append(probe.probe())
    tracer = Tracer() if args.trace else None
    times, untraced = [], []
    raw_times, raw_untraced = [], []
    elapsed = raw_elapsed = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        iteration = time.perf_counter()
        done = []
        job = pool[i % len(pool)]
        if tracer is None:
            runs = [((times, raw_times), None)]
        else:
            tracer.job = i
            # alternate the order so neither side always runs first
            runs = [((untraced, raw_untraced), None), ((times, raw_times),
                                                      tracer)]
            if i % 2:
                runs.reverse()
        for sinks, tr in runs:
            attempted += 1
            seconds, failure = _job(args.workload, job, args.work, reference,
                                    tr)
            if failure is None:
                done.append((sinks, seconds))
            else:
                failures.append(failure)
        iteration = time.perf_counter() - iteration
        probes.append(probe.probe())
        before, after = probes[-2:]
        for (sink, raw_sink), seconds in done:
            sink.append(probe.scale(seconds, before, after))
            raw_sink.append(seconds)
        elapsed += probe.scale(iteration, before, after)
        raw_elapsed += iteration
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    report.update(
        elapsed_s=elapsed, raw_elapsed_s=raw_elapsed, attempted=attempted,
        failures=failures, job_times=times, raw_job_times=raw_times,
        probe_times=probes, reference_checked=reference is not None,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        # the layers' spans are wall seconds, so their summary is too
        report["layers"] = tracer.metrics(raw_times, raw_untraced, probes)
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.spans, "frames": tracer.frames,
                       "counts": tracer.counts}, fh)
    return report


def record(args) -> dict:
    """Run every input of the seed once; return the output digests."""
    seed = args.seed
    pool = workloads.make_pool(args.workload, seed, args.work)
    digests = []
    for job in pool:
        _, outputs = workloads.run_job(args.workload, job, args.work,
                                       time.perf_counter)
        workloads.check(args.workload, job, outputs)
        digests.append(workloads.digest(args.workload, outputs))
    return {"seed": seed, "digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--launched-at", type=float, default=0.0)
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    report = record(args) if args.record else run(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
