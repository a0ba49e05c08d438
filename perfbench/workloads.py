"""The benchmark's workloads: fixed lists of amiforge CLI jobs.

Each job is one CLI invocation, run in its own process. Every job names
`--workers` explicitly and never asks for more than two, so neither the
machine's core count nor the environment can change what a job does.

`TOY` holds the same commands at small sizes. They serve as the discarded
warm-up pass and as the benchmark's own smoke tests.
"""

from __future__ import annotations

WHY = {
    "linear": "sieve-bound O(L) amicable, multiamicable and density scans; the workers-2 jobs pickle the sieve into every task",
    "mean": "super-linear k=2 mean-family triangle scans at L=3000 with tiny payloads; time goes to the kernel and exact re-checks",
    "tools": "small commands: lemma sums, construct with one pool per seed, scan-question, verify-tables, check and sieve",
}

# The probe whose cold start is reported as setup_s.
SETUP_JOB = ("check", "perfect", "--tuple", "6", "--workers", "1")


def _linear(limit: int, multi_limit: int, checkpoints: str) -> list[tuple[str, ...]]:
    return [
        ("search", "amicable-pair", "--limit", str(limit), "--workers", "1"),
        ("search", "amicable-pair", "--limit", str(limit), "--workers", "2"),
        ("search", "multiamicable", "--alphas", "1,2", "--limit", str(multi_limit), "--workers", "2"),
        ("density", "amicable", "--checkpoints", checkpoints, "--workers", "1"),
    ]


def _mean(limit: int) -> list[tuple[str, ...]]:
    lim = ("--limit", str(limit))
    hm = ("search", "hm", "--k", "2", "--p", "1", "--q", "2", *lim)
    jobs = [(*hm, "--workers", "1"), (*hm, "--workers", "2")]
    for family in (
        ("gm", "--k", "2"),
        ("wgm", "--k", "2"),
        ("whm", "--k", "2", "--p", "1"),
        ("feebly", "--k", "2"),
        ("pm", "--k", "2", "--p", "2", "--q", "2"),
        ("wpm", "--k", "2", "--p", "1"),
        ("mp", "--k", "2", "--p", "2", "--q", "2"),
    ):
        jobs.append(("search", *family, *lim, "--workers", "2"))
    return jobs


def _tools(checkpoints: str, seed_limit: int, a_bound: int, ns_a_bound: int, scan_limit: int) -> list[tuple[str, ...]]:
    jobs = [
        ("density", "lemma", "--k", str(k), "--checkpoints", checkpoints, "--workers", "1")
        for k in (1, 2, 3)
    ]
    seeded = ("construct", "--alphas", "1,2", "--seed-limit", str(seed_limit), "--a-bound", str(a_bound))
    jobs += [(*seeded, "--workers", "1"), (*seeded, "--workers", "2")]
    jobs += [
        ("construct", "--alphas", "1,2", "--ns", "104,116", "--a-bound", str(ns_a_bound), "--workers", "2"),
        ("scan-question", "--limit", str(scan_limit), "--workers", "1"),
        ("verify-tables", "--workers", "1"),
        ("check", "amicable-pair", "--tuple", "220,284", "--workers", "1"),
        # false verdict: exercises the mismatch diagnostics
        ("check", "pm", "--tuple", "3,21", "--p", "1", "--q", "2", "--workers", "1"),
        ("check", "perfect", "--tuple", "2^4*31", "--workers", "1"),
        ("sieve", "--limit", "1000", "--format", "csv", "--workers", "1"),
    ]
    return jobs


FULL = {
    "linear": _linear(3_000_000, 1_000_000, "100000,1000000"),
    "mean": _mean(3000),
    "tools": _tools("1000,30000", 200, 30_000, 300_000, 100_000),
}

TOY = {
    "linear": _linear(30_000, 10_000, "1000,10000"),
    "mean": _mean(60),
    "tools": _tools("100,300", 60, 3000, 3000, 1000),
}


def job_id(argv) -> str:
    """The key a job's stored reference is filed under."""
    return " ".join(argv)


def all_jobs() -> list[tuple[str, ...]]:
    """Every distinct job the benchmark can run, the setup probe included."""
    seen = {job_id(SETUP_JOB): SETUP_JOB}
    for table in (FULL, TOY):
        for jobs in table.values():
            for argv in jobs:
                seen.setdefault(job_id(argv), argv)
    return list(seen.values())
