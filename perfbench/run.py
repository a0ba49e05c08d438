"""amiforge benchmark: end-to-end CLI timings, memory and a traced per-layer run.

    python3 perfbench/run.py --workload linear --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 0

Every job is a fresh `amiforge` CLI process started through the interpreter
with PYTHONPATH=src, one at a time, and its stdout is compared with the
stored reference. The seed only shuffles the job order within a pass; the
inputs are fixed so the references apply. See README.md in this directory.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A summary with medians, quartiles and sample counts
precedes it, and the full record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

CLI_ENTRY = "from amiforge.cli import main; main()"
# Variables the CLI reads as defaults; removed so they cannot change a job.
SCRUBBED_ENV = ("AMIFORGE_SIEVE_LIMIT", "AMIFORGE_WORKERS")
JOB_TIMEOUT_S = 120.0
# Cold-start probes for setup_s, spread evenly between the jobs of each pass:
# the host's speed shifts within seconds, so a block of probes in one spot
# samples one moment of it.
SETUP_STARTS_PER_PASS = 8

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class JobResult:
    argv: tuple[str, ...]
    wall_s: float
    code: int | None
    rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str
    error: str | None = None
    trace: dict | None = None


@dataclass
class Pass:
    jobs: list[JobResult]
    probes: list[JobResult]

    @property
    def wall_s(self) -> float:
        return sum(j.wall_s for j in self.jobs)

    @property
    def peak_rss_mb(self) -> float:
        return max(j.rss_mb for j in self.jobs)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def _drain(stream, sink: list) -> None:
    sink.append(stream.read())


def launch(cmd: list[str], timeout: float = JOB_TIMEOUT_S):
    """Run cmd to completion. Returns (wall_s, exit code or None on timeout,
    rusage, stdout, stderr); wall time runs from launch until the process has
    exited and its stdout is fully read."""
    out, err = [], []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    readers = [
        threading.Thread(target=_drain, args=(proc.stdout, out)),
        threading.Thread(target=_drain, args=(proc.stderr, err)),
    ]
    for r in readers:
        r.start()
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        # wait4 reports the child's rusage; on Linux its ru_maxrss also covers
        # the pool workers the child waited for.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.stderr.close()
    code = None if timed_out.is_set() else proc.returncode
    return wall, code, usage, out[0].decode("utf-8", "replace"), err[0].decode("utf-8", "replace")


def run_job(argv, expected: dict, traced: bool = False) -> JobResult:
    """Run one CLI job, untraced or under perfbench/tracer.py, and check it."""
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), *argv]
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    wall, code, usage, stdout, stderr = launch(cmd)
    result = JobResult(
        tuple(argv), wall, code, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, stdout, stderr
    )
    if traced and code == 0:
        try:
            result.trace = json.loads(stdout.splitlines()[-1])
        except (IndexError, ValueError) as exc:
            result.error = f"unreadable trace: {exc}"
            return result
        result.code = result.trace["code"]
        result.stdout = result.trace.pop("stdout")
    result.error = job_error(result, expected)
    return result


def job_error(result: JobResult, expected: dict) -> str | None:
    """Why a job counts as failed, or None."""
    if result.error:
        return result.error
    if result.code is None:
        return f"timed out after {JOB_TIMEOUT_S:.0f} s"
    if result.code != 0:
        return f"exit code {result.code}: {result.stderr.strip()[-300:]}"
    key = workloads.job_id(result.argv)
    if key not in expected:
        return "no stored reference for this job"
    return reference.mismatch(result.argv, result.stdout, expected[key])


def run_pass(jobs, expected, rng: random.Random, traced: bool = False, probes: int = 0) -> Pass:
    """Run the jobs in a shuffled order, with `probes` cold starts of
    workloads.SETUP_JOB spread evenly before them."""
    order = list(jobs)
    rng.shuffle(order)
    done = Pass([], [])
    for i, argv in enumerate(order):
        for _ in range(probes * (i + 1) // len(order) - probes * i // len(order)):
            done.probes.append(run_job(workloads.SETUP_JOB, expected))
        done.jobs.append(run_job(argv, expected, traced))
    return done


def summary(values) -> dict:
    """Median, first and third quartile (statistics.quantiles, n=4) and count."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def fail_ratio(results) -> float:
    results = list(results)
    return sum(1 for r in results if r.error) / len(results)


# ---------------------------------------------------------------- per layer

PER_LAYER_UNITS = {
    "arith.sieve_s": "s",
    "arith.sieve_entries": "count",
    "arith.sieve_bytes": "B",
    "arith.factorize_calls": "count",
    "arith.factorize_hit_ratio": "ratio",
    "search.bucket_s": "s",
    "search.buckets": "count",
    "search.singleton_share": "ratio",
    "search.kernel_s": "s",
    "search.scanned": "count",
    "search.task_imbalance": "ratio",
    "search.task_bytes": "B",
    "search.verify_s": "s",
    "search.records": "count",
    "families.check_s": "s",
    "families.check_calls": "count",
    "parallel.pools": "count",
    "parallel.overhead_s": "s",
    "parallel.cpu_s": "s",
    "construct.seed_s": "s",
    "construct.seeds": "count",
    "construct.multiplier_s": "s",
    "construct.candidates": "count",
    "density.count_s": "s",
    "density.lemma_s.k1": "s",
    "density.lemma_s.k2": "s",
    "density.lemma_s.k3": "s",
    "density.lemma_den_bits": "bit",
    "tables.verify_s": "s",
    "tables.rows": "count",
    "cli.import_s": "s",
    "cli.serialize_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(i, [])):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out[s["name"]] = out.get(s["name"], 0.0) + _duration(s) - covered
    return out


def layer_metrics(traced: Pass, baseline: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass; baseline is an untraced pass of
    the same jobs, which gives the CPU time and the tracing overhead."""
    traces = [j.trace for j in traced.jobs if j.trace is not None]
    spans = [(t, s) for t in traces for s in t["spans"]]
    counts: dict[str, float] = {}
    for t in traces:
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value
    calls = [c for t in traces for c in t["task_calls"]]
    search_calls = [c for c in calls if c["layer"] == "search"]

    def total(name: str, **attrs) -> float:
        return sum(
            _duration(s) for _, s in spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    verify_s = sum(
        _duration(s) for t, s in spans
        if s["name"] == "families.check" and s["parent"] is not None
        and t["spans"][s["parent"]]["name"] in ("search.enumerate", "search.scan")
    )
    split = [c["task_s"] for c in search_calls if len(c["task_s"]) > 1]
    lemma = [s for _, s in spans if s["name"] == "density.lemma"]
    m = {
        "arith.sieve_s": total("arith.sieve"),
        "arith.sieve_entries": counts.get("sieve_entries", 0),
        "arith.sieve_bytes": 8 * counts.get("sieve_entries", 0),
        "arith.factorize_calls": counts.get("factorize_calls", 0),
        "arith.factorize_hit_ratio": ratio(counts.get("factorize_hits", 0), counts.get("factorize_calls", 0)),
        "search.bucket_s": total("search.bucket"),
        "search.buckets": counts.get("buckets", 0),
        "search.singleton_share": ratio(counts.get("singletons", 0), counts.get("buckets", 0)),
        "search.kernel_s": sum(sum(c["task_s"]) for c in search_calls),
        "search.scanned": sum(c["scanned"] for c in search_calls),
        "search.task_imbalance": ratio(
            sum(max(ts) for ts in split), sum(statistics.fmean(ts) for ts in split)
        ),
        "search.task_bytes": sum(c["task_bytes"] for c in search_calls),
        "search.verify_s": verify_s,
        "search.records": counts.get("records", 0),
        "families.check_s": total("families.check"),
        "families.check_calls": sum(1 for _, s in spans if s["name"] == "families.check"),
        "parallel.pools": counts.get("pools", 0),
        "parallel.overhead_s": sum(c["wall"] - max(c["task_s"], default=0.0) for c in calls),
        "parallel.cpu_s": sum(j.cpu_s for j in baseline.jobs),
        "construct.seed_s": total("construct.seed"),
        "construct.seeds": counts.get("seeds", 0),
        "construct.multiplier_s": total("construct.multiplier"),
        "construct.candidates": counts.get("candidates", 0),
        "density.count_s": total("density.count"),
        "density.lemma_s.k1": total("density.lemma", k=1),
        "density.lemma_s.k2": total("density.lemma", k=2),
        "density.lemma_s.k3": total("density.lemma", k=3),
        "density.lemma_den_bits": max(
            ((math.lcm(*range(1, x + 1)) ** k).bit_length() for x, k in {(s["x"], s["k"]) for s in lemma}),
            default=0,
        ),
        "tables.verify_s": total("tables.verify"),
        "tables.rows": counts.get("table_rows", 0),
        "cli.import_s": statistics.median(t["import_s"] for t in traces) if traces else 0.0,
        "cli.serialize_s": counts.get("serialize_s", 0.0),
        "cli.stdout_bytes": counts.get("stdout_bytes", 0),
        "trace.overhead_s": traced.wall_s - baseline.wall_s,
    }
    assert set(m) == set(PER_LAYER_UNITS)
    return m


# ------------------------------------------------------------ workloads


def source_id() -> dict:
    """The git commit, when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def provenance(args, load_start) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        **source_id(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _another_pass(started: float, passes: int, seconds: float) -> bool:
    """Whether to start one more pass: yes while it would end no later than
    half a mean pass after the deadline, so a run overshoots `seconds` by as
    little as it undershoots."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / passes / 2 <= seconds


def _measure_untraced(jobs, expected, rng, seconds, record) -> list[JobResult]:
    passes, setups, results = [], [], []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, expected, rng, probes=SETUP_STARTS_PER_PASS))
        results += passes[-1].probes + passes[-1].jobs
        setups += [probe.wall_s for probe in passes[-1].probes]
        if not _another_pass(started, len(passes), seconds):
            break
    samples = {
        "wall_s": [p.wall_s for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }
    record["samples"] = samples
    record["summary"] = {k: summary(v) for k, v in samples.items()}
    record["job_wall_s"] = {
        workloads.job_id(argv): [j.wall_s for p in passes for j in p.jobs if j.argv == argv]
        for argv in jobs
    }
    record["metrics"] = {
        k: {"value": record["summary"][k]["median"], "unit": unit}
        for k, unit in END_TO_END_UNITS.items()
    }
    return results


def _measure_traced(jobs, expected, rng, seconds, record) -> list[JobResult]:
    started = time.perf_counter()
    # An untraced pass of the same jobs is the tracing overhead's baseline.
    baseline = run_pass(jobs, expected, rng)
    results = list(baseline.jobs)
    layer_runs, traced_walls = [], []
    while True:
        traced = run_pass(jobs, expected, rng, traced=True)
        results += traced.jobs
        layer_runs.append(layer_metrics(traced, baseline))
        traced_walls.append(traced.wall_s)
        if not _another_pass(started, 1 + len(layer_runs), seconds):
            break
    self_time: dict[str, float] = {}
    for j in traced.jobs:
        for span, t in self_times(j.trace["spans"] if j.trace else []).items():
            self_time[span] = self_time.get(span, 0.0) + t
    record["self_time_s"] = self_time
    record["notes"] = sorted({n for j in traced.jobs if j.trace for n in j.trace["notes"]})
    record["untraced_wall_s"] = baseline.wall_s
    record["traced_wall_s"] = traced_walls
    record["metrics"] = {
        k: {"value": statistics.median(run[k] for run in layer_runs), "unit": unit}
        for k, unit in PER_LAYER_UNITS.items()
    }
    return results


def measure(name: str, args, expected: dict) -> dict:
    """Run one workload after a discarded toy-size warm-up pass; returns its
    record, including the metrics to print."""
    jobs = workloads.FULL[name]
    rng = random.Random(args.seed)
    record: dict = {"workload": name, "why": workloads.WHY[name]}
    results = run_pass(workloads.TOY[name], expected, rng).jobs
    step = _measure_traced if args.trace else _measure_untraced
    results += step(jobs, expected, rng, args.seconds, record)
    record["attempted"] = len(results)
    record["failures"] = [
        {"job": workloads.job_id(r.argv), "error": r.error} for r in results if r.error
    ]
    record["fail_ratio"] = fail_ratio(results)
    return record


def print_summary(record: dict) -> None:
    name = record["workload"]
    if "summary" in record:
        for key, unit in END_TO_END_UNITS.items():
            s = record["summary"][key]
            print(f"{name:7s} {key:12s} {unit:8s} median={s['median']:.4f} "
                  f"q1={s['q1']:.4f} q3={s['q3']:.4f} n={s['n']}")
    else:
        for key, m in record["metrics"].items():
            print(f"{name:7s} {key:26s} {m['unit']:6s} {m['value']:.6g}")
        print(f"{name:7s} tracing overhead: traced wall {statistics.median(record['traced_wall_s']):.3f} s"
              f" - untraced wall {record['untraced_wall_s']:.3f} s")
        for note in record["notes"]:
            print(f"{name:7s} trace note: {note} (the metrics it feeds read 0)")
    print(f"{name:7s} {'fail_ratio':12s} {'fraction':8s} value={record['fail_ratio']:.4f} "
          f"n={record['attempted']}")
    for f in record["failures"]:
        print(f"{name:7s} FAILED {f['job']}: {f['error']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.FULL, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "amiforge" / "cli.py").is_file():
        print(f"error: no amiforge sources under {SRC}", file=sys.stderr)
        return 2
    try:
        expected = reference.load()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the stored references: {exc}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    names = list(workloads.FULL) if args.workload == "all" else [args.workload]
    records = [measure(name, args, expected) for name in names]
    prov = provenance(args, load_start)

    RESULTS_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "workloads": records}, fh, indent=1)

    print(f"provenance: {json.dumps(prov)}")
    for record in records:
        print_summary(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
