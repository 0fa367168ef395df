"""starconfig benchmark launcher.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, a table
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
    python3 perfbench/run.py --record-references

Run from the root of a checkout.  Each run is a closed loop: one client,
one job at a time, in one worker process that this launcher starts with
the BLAS/OpenMP thread variables pinned to 1.  The last stdout line of a
run is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1.  The end-to-end times are wall times restated at a nominal
host speed, which a probe run around every job gauges (see probe.py); the
record keeps the unscaled times too.  Every run also leaves its full
record, environment included, in .perfbench_work/results/, which
--compare reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1  # the seed the reference outputs are recorded for
WORK_ROOT = Path(".perfbench_work")
SETUP_RUNS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# a run that hangs still ends within 180 s: 2 set-up runs + seconds + grace
SETUP_TIMEOUT_S = 20
WORKER_GRACE_S = 60


class BenchError(Exception):
    pass


def load_spec() -> dict:
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"run from the checkout root: {exc}") from exc


def child_env() -> dict:
    src = Path("src").resolve()
    if not (src / "starconfig" / "__init__.py").is_file():
        raise BenchError(f"no starconfig package under {src}")
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    env.pop("STARCONFIG_CACHE_DIR", None)  # the CLI must not see a cache
    return env


def run_worker(env, timeout, *args) -> dict:
    """Start worker.py in a fresh interpreter; return its JSON report."""
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--launched-at",
           repr(launched), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- environment block ---------------------------------------------------------

def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding path, from the mount table."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment(seed: int, cache_dir: Path, worker_report: dict) -> dict:
    return {
        "git_commit": _git_commit(),
        "python": worker_report["python"],
        "numpy": worker_report["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "cache_dir_fs": _filesystem(cache_dir),
        "threads": {var: "1" for var in THREAD_VARS},
    }


# -- one run ---------------------------------------------------------------------

def run_one(spec, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    env = child_env()
    tag = f"{workload}-s{seed}-t{trace}"
    work = WORK_ROOT / "runs" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for sub in ("results", "traces"):
        (WORK_ROOT / sub).mkdir(parents=True, exist_ok=True)
    spans_out = WORK_ROOT / "traces" / f"{tag}.json"
    try:
        base = ["--workload", workload, "--seed", seed]
        setup_runs = [run_worker(env, SETUP_TIMEOUT_S, *base, "--setup-only",
                                 "--work", work / f"setup{i}")
                      for i in range(SETUP_RUNS)]
        report = run_worker(env, seconds + WORKER_GRACE_S, *base,
                            "--seconds", seconds, "--trace", trace,
                            "--work", work / "main", "--spans-out", spans_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_runs.append(report)
    setups = [r["setup_s"] for r in setup_runs]
    times = report["job_times"]
    failed = len(report["failures"])
    attempted = report["attempted"]
    measured = {
        "job_s_p50": statistics.median(times) if times else 0.0,
        "jobs_per_s": len(times) / report["elapsed_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mib": report["peak_rss_mib"],
        "success_rate": (attempted - failed) / attempted,
    }
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = report["layers"] if trace else measured
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "result": result,
        "jobs": len(times), "job_times": times, "setup_samples": setups,
        "raw": {
            "job_times": report["raw_job_times"],
            "job_s_p50": (statistics.median(report["raw_job_times"])
                          if times else 0.0),
            "jobs_per_s": len(times) / report["raw_elapsed_s"],
            "setup_samples": [r["raw_setup_s"] for r in setup_runs],
            "probe_times": report["probe_times"],
        },
        "error_rate": failed / attempted, "failures": report["failures"],
        "reference_checked": report["reference_checked"],
        "tail_percentile": stats.tail_percentile(times),
        "env": environment(seed, WORK_ROOT, report),
    }
    with open(WORK_ROOT / "results" / f"{tag}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


# -- human-readable output -------------------------------------------------------

def summary(record: dict) -> str:
    res = record["result"]
    lines = [f"{record['workload']} seed={record['seed']} "
             f"trace={record['trace']}: {record['jobs']} jobs passed, "
             f"{res['failed']} of {res['attempted']} failed "
             f"(error_rate {record['error_rate']:.4g} ratio); reference "
             f"{'checked' if record['reference_checked'] else 'not checked'}"]
    if record["trace"]:
        lines.append(layer_table(record))
    else:
        for name, m in res["metrics"].items():
            lines.append(f"  {name:<14} {m['value']:.6g} {m['unit']}")
        raw = record["raw"]
        lines.append(f"  unscaled wall time: job_s_p50 {raw['job_s_p50']:.6g} s,"
                     f" jobs_per_s {raw['jobs_per_s']:.6g} 1/s, host probe"
                     f" p50 {statistics.median(raw['probe_times']):.6g} s")
        tail = record["tail_percentile"]
        lines.append(f"  job_s p{tail[0]} {tail[1]:.6g} s" if tail else
                     f"  (no tail percentile: {record['jobs']} jobs < 20)")
    for failure in record["failures"][:5]:
        lines.append(f"  FAILED {failure}")
    env = record["env"]
    lines.append("  env " + " ".join(
        f"{k}={v}" for k, v in env.items() if k != "threads")
        + " threads=1")
    return "\n".join(lines)


def layer_table(record: dict) -> str:
    """Self time and share of job time for each traced layer."""
    m = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    rows = sorted((name[:-len(".share")] for name in m
                   if name.endswith(".share")),
                  key=lambda f: -m[f"{f}.share"])
    lines = ["  layer                     self s/job   share"]
    for frame in rows:
        if m[f"{frame}.self_s"]:
            lines.append(f"  {frame:<25} {m[f'{frame}.self_s']:>10.4f}"
                         f"   {m[f'{frame}.share']:6.1%}")
    lines.append(f"  tracing overhead: traced p50 {m['trace.job_s_p50']:.4f} s"
                 f" - untraced p50 {m['trace.untraced_job_s_p50']:.4f} s"
                 f" = {m['trace.overhead_s']:+.4f} s")
    return "\n".join(lines)


def compare_dirs(spec, parent_dir: str, change_dir: str) -> str:
    """Verdict per (workload, end-to-end metric) for two sets of runs."""
    def load(directory):
        runs = {}
        for path in sorted(Path(directory).glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
        return runs

    parent, change = load(parent_dir), load(change_dir)
    lines = [f"{'workload':<11} {'metric':<13} {'parent q1/med/q3':<28} "
             f"{'change q1/med/q3':<28} wins  verdict"]
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return {s: r["result"]["metrics"][name]["value"]
                        for s, r in runs[workload].items()}
            v = stats.compare(values(parent), values(change),
                              metric["better"], metric["bound"])
            fmt = "/".join(f"{x:.4g}" for x in v["parent"])
            fmt_c = "/".join(f"{x:.4g}" for x in v["change"])
            lines.append(f"{workload:<11} {name:<13} {fmt:<28} {fmt_c:<28} "
                         f"{v['win_share']:4.0%}  {v['verdict']} "
                         f"({v['pairs']} pairs)")
    return "\n".join(lines)


def record_references(spec):
    env = child_env()
    ref_dir = HERE / "reference"
    ref_dir.mkdir(exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        work = WORK_ROOT / "runs" / f"record-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            doc = run_worker(env, 3600, "--workload", workload, "--record",
                             "--seed", DEFAULT_SEED, "--work", work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(ref_dir / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"recorded {len(doc['digests'])} reference outputs for "
              f"{workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            print(compare_dirs(spec, *args.compare))
            return 0
        if args.record_references:
            record_references(spec)
            return 0
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        if args.workload == "all":
            for workload in names:
                print(summary(run_one(spec, workload, args.seed, seconds,
                                      args.trace)), flush=True)
            return 0
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names} or all")
        record = run_one(spec, args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(summary(record))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
