"""Seeded inputs, the job of each workload, and the checks on its output.

Every workload is a pool of POOL inputs made from the seed alone.  Job i
runs on input i mod POOL.  All inputs of one workload have the same shape,
so that the median job time of a run depends on the program and not on
which shapes a seed happened to draw; the seed varies the field and the
entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import starconfig.cli as cli
from starconfig import tutte
from starconfig.codes import CodeError, LinearCode
from starconfig.fields import GF, QQ, ExactMatrix
from starconfig.matroid import VectorMatroid

POOL = 32
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# workload -> (k, n, field moduli cycled by input index; None is Q)
SHAPES = {
    "subsets_gf": (4, 13, (2, 3)),
    "hilbert_gf": (3, 7, (5, 7)),
    "hilbert_q": (3, 6, (None,)),
    "dc_cache": (4, 18, (2,)),
}
Q_ENTRIES = (-3, 3)

CLI_COMMANDS = {
    "subsets_gf": (("profile", "--json", "--no-cache"),
                   ("ghw", "--json", "--no-cache")),
    "hilbert_gf": (("verify", "--json", "--no-cache"),
                   ("conjecture", "--json", "--no-cache")),
    "hilbert_q": (("verify", "--json", "--no-cache"),),
}
WORKLOADS = tuple(SHAPES)


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass
class Job:
    index: int
    path: str
    code: LinearCode


def _random_code(rng: random.Random, q, k: int, n: int):
    """Rows of a random full-rank k x n matrix with no zero column."""
    spec = QQ if q is None else GF(q)
    while True:
        if q is None:
            rows = [[rng.randint(*Q_ENTRIES) for _ in range(n)]
                    for _ in range(k)]
        else:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        try:
            return rows, LinearCode(ExactMatrix.from_rows(spec, rows))
        except CodeError:
            continue


def _input_text(q, rows, labels=None) -> str:
    lines = ["field q" if q is None else f"field gf {q}",
             f"size {len(rows)} {len(rows[0])}"]
    lines += [" ".join(str(x) for x in row) for row in rows]
    if labels:
        lines.append("labels " + " ".join(labels))
    return "\n".join(lines) + "\n"


def make_pool(workload: str, seed: int, directory: str) -> list:
    """Write the workload's input files for this seed and build each code."""
    k, n, fields = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(directory, exist_ok=True)
    pool = []
    for i in range(POOL):
        q = fields[i % len(fields)]
        if workload == "hilbert_gf" and i == 0:
            code = cli.example_b3()
            q = code.spec.modulus
            rows = [list(r) for r in code.matrix.entries]
            text = _input_text(q, rows, code.labels)
        else:
            rows, code = _random_code(rng, q, k, n)
            text = _input_text(q, rows)
        path = os.path.join(directory, f"{workload}-{i:02d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        pool.append(Job(i, path, code))
    return pool


# -- running a job ------------------------------------------------------------

def _no_frame(name, span=True):
    return contextlib.nullcontext()


def run_cli(argv) -> dict:
    """starconfig.cli.main in-process; returns its parsed JSON output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    if rc != 0:
        raise CheckFailed(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def run_job(workload: str, job: Job, workdir: str, clock, tracer=None):
    """Run one job; returns (seconds, outputs).  Only the calls into the
    program are timed."""
    frame = tracer.frame if tracer is not None else _no_frame
    if workload == "dc_cache":
        cache_dir = os.path.join(workdir, f"cache-{job.index:02d}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        matroid = VectorMatroid(job.code.matrix)
        start = clock()
        with frame("job"):
            cache = cli.TutteCache(cache_dir)
            _set_phase(tracer, "cold")
            with frame("dc_cache.cold"):
                cold = tutte.tutte_deletion_contraction(matroid, cache=cache)
            _set_phase(tracer, "warm")
            with frame("dc_cache.warm"):
                warm = [(m, tutte.tutte_deletion_contraction(m, cache=cache))
                        for m in (matroid.delete(ell)
                                  for ell in range(matroid.n))]
            _set_phase(tracer, None)
        seconds = clock() - start
        shutil.rmtree(cache_dir, ignore_errors=True)
        return seconds, [(matroid, cold)] + warm
    docs = []
    start = clock()
    with frame("job"):
        for command in CLI_COMMANDS[workload]:
            with frame("cli"):
                docs.append(run_cli(command + (job.path,)))
    return clock() - start, docs


def _set_phase(tracer, phase):
    if tracer is not None:
        tracer.phase = phase


# -- checking a job's output --------------------------------------------------

def _tutte_at(terms, x: int, y: int) -> int:
    return sum(int(t["coeff"]) * x ** t["x"] * y ** t["y"] for t in terms)


def _check_tutte(terms, n: int, rank: int):
    """T(2, 2) = 2^n, x-degree = rank, y-degree = nullity."""
    if _tutte_at(terms, 2, 2) != 2 ** n:
        raise CheckFailed(f"T(2,2) != 2^{n}")
    if max(t["x"] for t in terms) != rank:
        raise CheckFailed(f"x-degree of T is not the rank {rank}")
    if max(t["y"] for t in terms) != n - rank:
        raise CheckFailed(f"y-degree of T is not the nullity {n - rank}")


def canonical(outputs) -> str:
    """Outputs as one canonical JSON text, wall-clock timings removed."""
    docs = []
    for doc in outputs:
        doc = dict(doc)
        doc.pop("timings", None)
        docs.append(doc)
    return json.dumps(docs, sort_keys=True, separators=(",", ":"))


def digest(workload: str, outputs) -> str:
    if workload == "dc_cache":
        outputs = [poly.to_json() for _, poly in outputs]
    return hashlib.sha256(canonical(outputs).encode()).hexdigest()


def check(workload: str, job: Job, outputs, reference=None):
    """Raise CheckFailed unless the outputs pass the workload's checks and,
    when a reference is given, match it."""
    code = job.code
    if workload == "dc_cache":
        for matroid, poly in outputs:
            _check_tutte(poly.to_json()["terms"], matroid.n,
                         matroid.full_rank)
    elif workload == "subsets_gf":
        profile, ghw = outputs
        _check_tutte(profile["tutte"]["terms"], code.n, code.k)
        if not ghw["wei_duality"]["holds"]:
            raise CheckFailed("Wei duality does not hold")
        for route in ghw["routes"]:
            if not route["bruteforce"] == route["tutte"] == route["dual_rank"]:
                raise CheckFailed(f"GHW routes disagree at r={route['r']}")
        if profile["hierarchy"] != ghw["hierarchy"]:
            raise CheckFailed("profile and ghw hierarchies differ")
    else:
        verify = outputs[0]
        if verify["all_ok"] is not True:
            raise CheckFailed("verify reports all_ok false")
        if workload == "hilbert_gf":
            fits = {c["a"]: c["hilbert"] for c in verify["oracle"]}
            for entry in outputs[1]["entries"]:
                if "fit" in entry and entry["fit"] != fits[entry["a"]]:
                    raise CheckFailed(
                        f"conjecture and verify fits differ at a={entry['a']}")
    if reference is not None:
        expected = reference[job.index]
        if digest(workload, outputs) != expected:
            raise CheckFailed(f"output of input {job.index} differs from the "
                              "recorded reference")


def load_reference(workload: str, seed: int):
    """Recorded output digests by input index, or None when the reference
    was recorded for another seed."""
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["seed"] != seed:
        return None
    if len(doc["digests"]) != POOL:
        raise ValueError(f"{path} does not hold {POOL} digests")
    return doc["digests"]
