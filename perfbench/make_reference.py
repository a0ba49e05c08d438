"""Record the stored output of every benchmark job.

    python3 perfbench/make_reference.py    # run every job, re-prove, write reference.json

Every tuple that a search, scan, construct or true check reports is proven
again with the brute-force `tests/oracles.divisor_sigma`, which shares no
code with amiforge: the stored sigmas must equal the oracle's and the
family's equation must hold on them. A reference that fails this is not
written.
"""

from __future__ import annotations

import json
import math
import sys

import reference
import run
import workloads

sys.path.insert(0, str(run.ROOT / "tests"))
from oracles import divisor_sigma  # noqa: E402



def equation_holds(kind: str, params: dict, t: tuple[int, ...], sg: dict[int, int]) -> bool:
    """The family's defining equation on oracle sigmas, restated from PAPER.md."""
    s = [sg[n] for n in t]
    total = sum(t)
    p, q = params.get("p"), params.get("q")
    if kind == "perfect":
        return s[0] == 2 * t[0]
    if kind == "amicable-pair":
        return s[0] == s[1] == total
    if kind == "multiamicable":
        target = sum(a * n for a, n in zip(params["alphas"], t))
        return all(x == target for x in s)
    if kind == "pm":
        return sum(x**p for x in s) == q * total**p
    if kind == "wpm":
        return sum(n * x**p for n, x in zip(t, s)) == total ** (p + 1)
    if kind == "gm":
        return math.prod(s) == total ** len(t)
    if kind == "wgm":
        return math.prod(x**n for n, x in zip(t, s)) == total**total
    if kind == "hm":
        prod = math.prod(x**p for x in s)
        return q * prod == total**p * sum(prod // x**p for x in s)
    if kind == "whm":
        prod = math.prod(x**p for x in s)
        return total**p * sum(n**p * (prod // x**p) for n, x in zip(t, s)) == sum(n**p for n in t) * prod
    if kind == "feebly":
        prod = math.prod(s)
        return sum(n * (prod // x) for n, x in zip(t, s)) == prod
    if kind == "mp":
        return sum(x**p for x in s) == q * sum(n**p for n in t)
    raise ValueError(f"no restated equation for {kind!r}")


def _tuples(doc: dict):
    """(kind, params, tuple, stored sigmas or None) for every proven tuple."""
    command, results = doc["command"], doc["results"]
    if command in ("search", "scan-question"):
        for r in results["records"]:
            yield results["family"], results["params"], tuple(r["tuple"]), r["sigmas"]
    elif command == "construct":
        params = {"alphas": doc["params"]["alphas"]}
        for r in results:
            yield "multiamicable", params, tuple(r["tuple"]), None
    elif command == "check" and results["verdict"]:
        yield doc["params"]["family"], doc["params"]["params"], tuple(doc["params"]["tuple"]), results["sigmas"]


def reprove(jobs: dict) -> int:
    """Re-prove every stored tuple with the oracle; returns the number proven."""
    proven = 0
    for key, doc in jobs.items():
        if not isinstance(doc, dict):
            continue
        for kind, params, t, sigmas in _tuples(doc):
            sg = {n: divisor_sigma(n) for n in t}
            if sigmas is not None and list(sigmas) != [sg[n] for n in t]:
                raise SystemExit(f"{key}: stored sigmas of {t} differ from the oracle")
            if not equation_holds(kind, params, t, sg):
                raise SystemExit(f"{key}: {kind} {params} does not hold on {t}")
            proven += 1
    return proven


def record() -> dict:
    jobs = {}
    for argv in workloads.all_jobs():
        wall, code, _, stdout, stderr = run.launch([sys.executable, "-c", run.CLI_ENTRY, *argv])
        if code != 0:
            raise SystemExit(f"{workloads.job_id(argv)}: exit {code}: {stderr}")
        jobs[workloads.job_id(argv)] = reference.normalize(argv, stdout)
        print(f"{wall:7.2f} s  {workloads.job_id(argv)}", flush=True)
    return jobs


def main() -> int:
    jobs = record()
    proven = reprove(jobs)
    print(f"{len(jobs)} job outputs, {proven} tuples re-proven with tests/oracles.divisor_sigma")
    with open(reference.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"recorded_from": run.source_id(), "jobs": jobs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
