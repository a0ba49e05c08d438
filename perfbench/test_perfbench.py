"""Tests of the benchmark itself: statistics, failure counting, reference
comparison, and a toy-size run of every workload in both modes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_summary_median_and_quartiles():
    s = run.summary([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, 1.5, 4.5, 5)
    one = run.summary([2.5])
    assert (one["median"], one["q1"], one["q3"], one["n"]) == (2.5, 2.5, 2.5, 1)


def test_fail_ratio_counts_wrong_output_and_nonzero_exit():
    expected = reference.load()
    good = ("check", "amicable-pair", "--tuple", "220,284", "--workers", "1")
    key = workloads.job_id(good)
    tampered = copy.deepcopy(expected)
    tampered[key]["results"]["sigmas"] = [504, 505]
    results = [
        run.run_job(good, expected),
        run.run_job(good, tampered),  # wrong output
        run.run_job(("check", "perfect", "--tuple", "x", "--workers", "1"), expected),  # exit 2
    ]
    assert results[0].error is None
    assert "differs" in results[1].error
    assert results[2].error.startswith("exit code 2")
    assert run.fail_ratio(results) == pytest.approx(2 / 3)


def test_reference_comparison_ignores_timing_stats_and_scanned():
    argv = ("search", "hm", "--k", "2", "--p", "1", "--q", "2", "--limit", "60", "--workers", "1")
    expected = reference.load()[workloads.job_id(argv)]
    doc = copy.deepcopy(expected)
    doc["timing"] = {"seconds": 12.5}
    doc["stats"] = {"survivors": 3}
    doc["results"]["scanned"] = 999
    doc["results"]["records"][0]["scanned"] = 1
    assert reference.mismatch(argv, json.dumps(doc), expected) is None
    doc["results"]["records"][0]["tuple"] = [1, 1]
    assert reference.mismatch(argv, json.dumps(doc), expected) is not None
    assert reference.mismatch(argv, "not json", expected).startswith("unparseable")


def test_lemma_comparison_keeps_verdicts_only():
    argv = ("density", "lemma", "--k", "1", "--checkpoints", "100,300", "--workers", "1")
    expected = reference.load()[workloads.job_id(argv)]
    rows = [dict(r, lhs=1.0, rhs=2.0, margin=1.0) for r in expected["results"]]
    doc = dict(expected, results=rows)
    assert reference.mismatch(argv, json.dumps(doc), expected) is None
    rows[0]["holds"] = not rows[0]["holds"]
    assert reference.mismatch(argv, json.dumps(doc), expected) is not None


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "c", "start": 3.0, "end": 6.0, "parent": 0},
        {"name": "b", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    self_s = run.self_times(spans)
    assert self_s["a"] == pytest.approx(5.0)  # children cover 1..6
    assert self_s["b"] == pytest.approx(2.0 + 1.0)
    assert self_s["c"] == pytest.approx(3.0)


def test_child_environment_is_scrubbed(monkeypatch):
    monkeypatch.setenv("AMIFORGE_WORKERS", "7")
    monkeypatch.setenv("AMIFORGE_SIEVE_LIMIT", "10")
    env = run.child_env()
    assert "AMIFORGE_WORKERS" not in env and "AMIFORGE_SIEVE_LIMIT" not in env
    assert env["PYTHONPATH"] == str(run.SRC)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.FULL))
def test_toy_run(workload, trace, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "FULL", workloads.TOY)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in last["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_declared_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.FULL)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tools", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
