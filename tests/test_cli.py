import importlib.util
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from amiforge import cli
from amiforge.families import FamilySpec
from amiforge.sieve import SEGMENT, build_sigma_sieve
from amiforge.tables import TableReport, TableRowResult

import oracles

REPO = Path(__file__).resolve().parents[1]


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_envelope_shape(capsys):
    code, doc = run_json(capsys, ["check", "perfect", "--tuple", "28"])
    assert code == 0
    assert set(doc) == {"command", "params", "results", "timing", "version"}
    assert doc["command"] == "check"
    assert isinstance(doc["timing"]["seconds"], float)
    assert doc["results"]["verdict"] is True


def test_check_multiamicable_true(capsys):
    code, doc = run_json(
        capsys, ["check", "multiamicable", "--alphas", "1,2", "--tuple", "1560,1740"]
    )
    assert code == 0
    assert doc["results"] == {"verdict": True, "sigmas": [5040, 5040]}
    assert doc["params"]["tuple"] == [1560, 1740]


def test_check_amicable_number_true(capsys):
    code, doc = run_json(capsys, ["check", "amicable-number", "--tuple", "220"])
    assert code == 0
    assert doc["results"] == {"verdict": True, "sigmas": [504]}
    assert doc["params"]["params"] == {"kind": "amicable-number", "k": 1}


def test_check_accepts_factored_tuples(capsys):
    code, doc = run_json(
        capsys, ["check", "amicable-pair", "--tuple", "2^2*5*11,2^2*71"]
    )
    assert code == 0
    assert doc["params"]["tuple"] == [220, 284]
    assert doc["results"]["verdict"] is True


def test_check_pm_false_reports_sides(capsys):
    code, doc = run_json(
        capsys, ["check", "pm", "--p", "1", "--q", "2", "--tuple", "3,21"]
    )
    assert code == 0  # a clean false verdict is not an error
    results = doc["results"]
    assert results["verdict"] is False
    assert results["lhs"] == "36"
    assert results["rhs"] == "48"
    assert "sigma" in results["equation"] or "sum" in results["equation"]


def test_check_csv_verdict(capsys):
    code = cli.run(
        ["check", "pm", "--p", "1", "--q", "2", "--tuple", "3,21", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family;params;tuple;verdict;detail"
    assert lines[1].startswith("pm;k=2,p=1,q=2;3,21;false;")


def test_search_json(capsys):
    code, doc = run_json(
        capsys,
        ["search", "pm", "--p", "1", "--q", "2", "--limit", "30", "--workers", "1"],
    )
    assert code == 0
    results = doc["results"]
    assert results["count"] == 9
    assert results["records"][0]["tuple"] == [3, 20]
    assert results["records"][0]["sigmas"] == [4, 42]
    assert all(r["provenance"] == "found" for r in results["records"])
    assert doc["params"]["workers"] == 1


def test_search_amicable_number(capsys):
    code, doc = run_json(
        capsys, ["search", "amicable-number", "--limit", "1300", "--workers", "1"]
    )
    assert code == 0
    assert [r["tuple"] for r in doc["results"]["records"]] == [[220], [284], [1184], [1210]]


def test_search_csv(capsys):
    code = cli.run(
        ["search", "pm", "--p", "1", "--q", "2", "--limit", "30", "--workers", "1", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tuple;sigmas;family;params"
    assert lines[1] == "3,20;4,42;pm;k=2,p=1,q=2"
    assert len(lines) == 10


def test_csv_search_builds_no_json_payload(capsys, monkeypatch):
    # the JSON payload holds a dict per record; a CSV run never reads it
    def no_payload(*args):
        raise AssertionError("a CSV search built the JSON payload")

    monkeypatch.setattr(cli, "_search_payload", no_payload)
    code = cli.run(["search", "pm", "--p", "1", "--q", "2", "--limit", "30", "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[:2] == ["tuple;sigmas;family;params", "3,20;4,42;pm;k=2,p=1,q=2"] and len(lines) == 10
    assert cli.run(["scan-question", "--limit", "1000", "--format", "csv"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == "tuple;sigmas;family;params"


def test_thousand_member_scans_run(capsys):
    # a k-member scan grows one slot per member, so k well past the
    # recursion limit must still give its answer
    code, doc = run_json(capsys, ["search", "pm", "--k", "1200", "--p", "1", "--q", "1", "--limit", "1"])
    assert code == 0
    assert doc["results"]["count"] == 1
    assert doc["results"]["records"][0]["tuple"] == [1] * 1200
    code, doc = run_json(capsys, ["search", "dickson", "--k", "1200", "--limit", "10"])
    assert code == 0
    assert doc["results"]["count"] == 0


def test_sieve_table(capsys):
    code, doc = run_json(capsys, ["sieve", "--limit", "10"])
    assert code == 0
    assert doc["results"]["sigma"] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
    code = cli.run(["sieve", "--limit", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert out == "n,sigma\n1,1\n2,3\n3,4\n"
    # the table is written a block of SEGMENT entries at a time, and past
    # 2^14 chunks the text in several batches; each joins to exactly the
    # one-piece rendering
    for limit in (1, 2 * SEGMENT, 2 * SEGMENT + 5):
        assert cli.run(["sieve", "--limit", str(limit)]) == 0
        out = capsys.readouterr().out
        sigmas = json.loads(out)["results"]["sigma"]
        assert sigmas == build_sigma_sieve(limit).read(slice(1, None)).tolist()
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert cli.run(["sieve", "--limit", str(limit), "--format", "csv"]) == 0
        rows = "".join(f"{n},{s}\n" for n, s in enumerate(sigmas, start=1))
        assert capsys.readouterr().out == "n,sigma\n" + rows


def test_workers_flag_echo(capsys):
    code, doc = run_json(capsys, ["search", "gm", "--limit", "20", "--workers", "2"])
    assert code == 0
    assert doc["params"]["workers"] == doc["results"]["workers"] == 2
    code, doc = run_json(capsys, ["scan-question", "--limit", "10", "--workers", "3"])
    assert code == 0
    assert doc["results"]["workers"] == 1
    assert cli.run(["check", "perfect", "--tuple", "6", "--workers", "0"]) == 2
    assert capsys.readouterr().err == "error: workers must be >= 1\n"


def test_each_command_sizes_its_own_sieve(capsys, monkeypatch):
    # no environment variable changes what a command does
    monkeypatch.setenv("AMIFORGE_WORKERS", "7")
    monkeypatch.setenv("AMIFORGE_SIEVE_LIMIT", "12")
    code, doc = run_json(capsys, ["search", "gm", "--limit", "20"])
    assert code == 0
    assert doc["params"]["workers"] == doc["results"]["workers"] == 1
    assert doc["params"]["sieve_limit"] == 20

    # record each size asked for, then stop the command before any work
    sizes = []

    def recorded(limit, budget):
        sizes.append(limit)
        raise ValueError("sieve size recorded")

    monkeypatch.setattr("amiforge.sieve.build_sigma_sieve", recorded)
    budget = str(8 * 2401 - 1)  # just short of a sieve to 2400
    for argv, size in (
        (["sieve"], 10**6),
        (["sieve", "--limit", "30"], 30),
        (["search", "gm", "--limit", "20"], 20),
        (["search", "alpha-beta", "--alphas", "3,8", "--limit", "300"], 300),
        (["search", "alpha-beta", "--alphas", "3,8", "--limit", "300", "--sieve-budget", budget], 300),
        (["search", "alpha-beta", "--alphas", "1,9", "--limit", "300"], 300),
        (["search", "alpha-beta", "--alphas", "1,1000", "--limit", "300"], 300),
        (["construct", "--alphas", "1,2", "--ns", "104,116", "--a-bound", "20"], 20),
        (["construct", "--alphas", "1,2", "--seed-limit", "120", "--a-bound", "20"], 120),
        (["construct", "--alphas", "1,2", "--seed-limit", "10", "--a-bound", "50"], 50),
        (["density", "lemma", "--k", "2", "--checkpoints", "10,100"], 100),
        (["density", "multi", "--alpha", "1", "--beta", "2", "--checkpoints", "1000,2000"], 2000),
        (["density", "amicable", "--checkpoints", "100,300"], 300),
        (["density", "pomerance", "--checkpoints", "2.5,300.7"], 300),
        (["density", "pomerance", "--checkpoints", "0.5"], 1),
        (["scan-question", "--limit", "100"], 100),
    ):
        sizes.clear()
        assert cli.run(argv) == 2, argv
        assert capsys.readouterr().err == "error: sieve size recorded\n", argv
        assert sizes == [size], argv
    sizes.clear()
    for argv in (["verify-tables"], ["check", "perfect", "--tuple", "28"]):
        assert cli.run(argv) == 0, argv
        capsys.readouterr()
    assert sizes == []


def test_verify_tables(capsys):
    code, doc = run_json(capsys, ["verify-tables"])
    assert code == 0
    results = doc["results"]
    assert results["all_pass"] is True
    assert results["total"] == 133
    assert results["failed"] == 0
    assert results["rows"][0]["tuple"] == [1560, 1740]


def test_verify_tables_failure_exit_code(capsys, monkeypatch):
    spec = FamilySpec("gm", 2)
    bad = TableRowResult("gm", spec, (28, 85), False, (56, 108), "prod sigma: LHS 6048 != RHS 12769")
    monkeypatch.setattr("amiforge.tables.verify_tables", lambda sieve=None: TableReport([bad]))
    code = cli.run(["verify-tables"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["results"]["all_pass"] is False
    assert doc["results"]["failed"] == 1


def test_construct_with_seed(capsys):
    code, doc = run_json(
        capsys,
        ["construct", "--alphas", "1,2", "--ns", "2^3*13,2^2*29", "--a-bound", "20"],
    )
    assert code == 0
    assert doc["results"] == [
        {
            "seed": {"alphas": [1, 2], "ns": [104, 116]},
            "target": "8/5",
            "a": 15,
            "tuple": [1560, 1740],
        }
    ]


def test_construct_with_seed_limit(capsys):
    code, doc = run_json(
        capsys,
        ["construct", "--alphas", "1,2", "--seed-limit", "120", "--a-bound", "20"],
    )
    assert code == 0
    assert {"a": 15, "tuple": [1560, 1740]}.items() <= doc["results"][0].items()


def test_construct_requires_exactly_one_source(capsys):
    assert cli.run(["construct", "--alphas", "1,2", "--a-bound", "5"]) == 2
    assert (
        cli.run(
            ["construct", "--alphas", "1,2", "--ns", "104,116", "--seed-limit", "100", "--a-bound", "5"]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "error:" in err


def test_density_amicable(capsys):
    code, doc = run_json(capsys, ["density", "amicable", "--checkpoints", "100,300,1300"])
    assert code == 0
    assert doc["results"] == [
        {"x": 100, "count": 0, "ratio": "0/1"},
        {"x": 300, "count": 2, "ratio": "1/150"},
        {"x": 1300, "count": 4, "ratio": "1/325"},
    ]


def test_density_amicable_csv(capsys):
    code = cli.run(["density", "amicable", "--checkpoints", "100,300", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,count,ratio,bound"
    assert lines[1].startswith("100,0,")


def test_density_multi(capsys):
    code, doc = run_json(
        capsys,
        ["density", "multi", "--alpha", "1", "--beta", "2", "--checkpoints", "1000,2000"],
    )
    assert code == 0
    counts = [row["count"] for row in doc["results"]]
    assert counts == [0, 1]
    assert doc["params"]["alpha"] == 1 and doc["params"]["beta"] == 2


def test_density_lemma(capsys):
    code, doc = run_json(capsys, ["density", "lemma", "--k", "1", "--checkpoints", "10"])
    assert code == 0
    row = doc["results"][0]
    assert row["holds"] is True and row["exact"] is True
    assert row["lhs"] == pytest.approx(15.045634920634921)
    assert row["margin"] > 0


def test_density_lemma_k3_reports_violation(capsys):
    code, doc = run_json(capsys, ["density", "lemma", "--k", "3", "--checkpoints", "10,100"])
    assert code == 0
    assert doc["results"][0]["holds"] is True
    assert doc["results"][1]["holds"] is False
    assert doc["results"][1]["margin"] < 0


def test_density_pomerance(capsys):
    code, doc = run_json(capsys, ["density", "pomerance", "--checkpoints", "300"])
    assert code == 0
    row = doc["results"][0]
    assert row["count"] == 2
    assert row["bound"] == pytest.approx(27.536796824914707)


def test_scan_question(capsys):
    code, doc = run_json(capsys, ["scan-question", "--limit", "100"])
    assert code == 0
    assert doc["results"]["count"] == 0
    assert doc["results"]["label"] == "equal-sigma mp(2,2) pairs"


def test_unprovable_members_exit_two(capsys):
    # a member too long to parse, or one whose cofactor past the trial bound
    # is not proven prime, exits 2: no hang, and no sigma built on a strong
    # pseudoprime (7*psi_13 used to print a wrong lhs)
    for text, message in (
        ("2^99999999", "longer than 1024 bits"),
        ("1000000007*1000000009", "not proven prime"),
        ("7*3317044064679887385961981", "not proven prime"),
        ("7*318665857834031151167461", "not proven prime"),
    ):
        assert cli.run(["check", "perfect", "--tuple", text]) == 2, text
        assert message in capsys.readouterr().err, text


def test_usage_errors_exit_two(capsys):
    cases = [
        [],
        ["check", "nosuch", "--tuple", "6"],
        ["check", "pm", "--p", "1", "--q", "2", "--tuple", "1,,2"],
        ["search", "gm", "--p", "1", "--limit", "10"],
        ["density", "amicable", "--checkpoints", "300,100"],
        ["density", "lemma", "--k", "0", "--checkpoints", "10"],
        ["search", "pm", "--p", "1", "--q", "2", "--limit", "10", "--workers", "0"],
        ["search", "pm", "--p", "1", "--q", "2", "--limit", "0"],
        ["sieve", "--limit", "10", "--sieve-budget", "4"],
        ["check", "perfect", "--tuple", "6", "--out", "/nonexistent-dir/x.json"],
        ["check", "amicable-number", "--tuple", "1"],
        ["check", "perfect", "--tuple", "6", "--workers", "0"],
        ["verify-tables", "--workers", "0"],
        ["density", "lemma", "--k", "1", "--checkpoints", "10", "--workers", "0"],
        ["scan-question", "--limit", "10", "--workers", "0"],
        ["search", "amicable-pair", "--limit", "10000001", "--workers", "1"],
        ["search", "amicable-pair", "--limit", "-3", "--workers", "1"],
        ["density", "amicable", "--checkpoints", "10000001", "--workers", "1"],
        ["density", "amicable", "--checkpoints", "0", "--workers", "1"],
        ["density", "pomerance", "--checkpoints", "1e8", "--workers", "1"],
        ["search", "pm", "--k", "2", "--p", "9223372036854775808", "--q", "1", "--limit", "5", "--workers", "1"],
        ["scan-question", "--limit", "10000001", "--workers", "1"],
        # the sieve to --a-bound is over budget, so this is refused at once
        ["construct", "--alphas", "1,2", "--ns", "104,116", "--a-bound", "10000000000000"],
        ["construct", "--alphas", "1,2", "--seed-limit", "10", "--a-bound", "0"],
        # a lemma bound or sum past the float range is refused, not a traceback
        ["density", "lemma", "--k", "1500", "--checkpoints", "3"],
        ["density", "lemma", "--k", "900", "--checkpoints", "12"],
    ]
    for argv in cases:
        assert cli.run(argv) == 2, argv
        capsys.readouterr()  # drain
    # check and verify-tables build no sieve, yet a budget below 1 is refused
    for argv in (
        ["check", "perfect", "--tuple", "6", "--sieve-budget", "-1"],
        ["verify-tables", "--sieve-budget", "0"],
    ):
        assert cli.run(argv) == 2, argv
        assert "sieve budget must be >= 1" in capsys.readouterr().err
    # non-finite checkpoints are refused, not a traceback
    for value in ("inf", "1e400", "nan", "2.5,nan"):
        assert cli.run(["density", "pomerance", "--checkpoints", value]) == 2, value
        assert capsys.readouterr().err == "error: checkpoints must be finite\n", value
    assert cli.run(["construct", "--alphas", "1,2", "--ns", "104,116", "--a-bound", "20", "--sieve-limit", "5"]) == 2
    assert "unrecognized arguments: --sieve-limit 5" in capsys.readouterr().err


def test_sieve_past_2_28_refused_before_allocating(capsys):
    # sigma fits int32 only up to 2^28, so a larger sieve is refused with
    # exit 2 even under a budget that admits it, before any table exists;
    # the commands' modules load first, so the trace sees only the runs
    import amiforge.construct  # noqa: F401

    budget = ["--sieve-budget", str(2**40)]
    cases = (
        ["sieve", "--limit", str(2**28 + 1)],
        ["construct", "--alphas", "1,2", "--ns", "104,116", "--a-bound", str(2**28 + 1)],
    )
    tracemalloc.start()
    try:
        for argv in cases:
            assert cli.run(argv + budget) == 2, argv
            assert "exceeds 2^28" in capsys.readouterr().err, argv
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a table to 2^28 would take 1 GiB


def test_search_cap_checked_before_sieve(monkeypatch, capsys):
    # an over-cap limit is refused before any sieve is built
    def no_sieve(*args, **kwargs):
        raise AssertionError("a sieve was built for a limit over the cap")

    monkeypatch.setattr("amiforge.sieve.build_sigma_sieve", no_sieve)
    for argv in (
        ["search", "amicable-pair", "--limit", "10000001", "--workers", "1"],
        ["search", "multiamicable", "--alphas", "1,2", "--limit", "10000001", "--workers", "2"],
        ["density", "amicable", "--checkpoints", "100,10000001", "--workers", "1"],
        ["density", "pomerance", "--checkpoints", "300,1e8", "--workers", "1"],
        ["scan-question", "--limit", "10000001", "--workers", "1"],
        ["construct", "--alphas", "1,2", "--seed-limit", "10000001", "--a-bound", "1", "--workers", "1"],
    ):
        assert cli.run(argv) == 2, argv
        assert "search limit" in capsys.readouterr().err, argv
    assert cli.run(["search", "perfect", "--limit", "10000001", "--workers", "1"]) == 2
    assert capsys.readouterr().err == "error: search limit 10000001 exceeds the cap of 10000000\n"


def test_density_multi_cap_checked_before_sieve(monkeypatch, capsys):
    # density multi shares the search cap with density amicable: a
    # checkpoint past it is refused with exit 2 and no sieve is built
    def no_sieve(*args, **kwargs):
        raise AssertionError("a sieve was built for a checkpoint over the cap")

    monkeypatch.setattr("amiforge.sieve.build_sigma_sieve", no_sieve)
    argv = ["density", "multi", "--alpha", "1", "--beta", "1", "--checkpoints", "12000000", "--workers", "1"]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == "error: search limit 12000000 exceeds the cap of 10000000\n"


def test_no_process_pool_for_any_worker_count(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for argv in (
        ["search", "yanney", "--k", "3", "--limit", "3000", "--workers", "2"],
        ["construct", "--alphas", "1,2", "--seed-limit", "200", "--a-bound", "30000", "--workers", "2"],
    ):
        assert cli.run(argv) == 0, argv
        capsys.readouterr()


def test_alpha_beta_weight_past_the_budget(capsys):
    # a sieve to 8*limit would need 8*(2400+1) bytes; sigma(8*n) comes from
    # sigma(n), so under that budget and under the default one the search
    # sieves to the limit and finds the same records
    argv = ["search", "alpha-beta", "--alphas", "1,8", "--limit", "300", "--workers", "1"]
    for budget in ([], ["--sieve-budget", str(8 * 2401 - 1)]):
        code, doc = run_json(capsys, argv + budget)
        assert code == 0 and doc["params"]["sieve_limit"] == 300
        found = [tuple(r["tuple"]) for r in doc["results"]["records"]]
        assert found == oracles.naive_family("alpha-beta", 300, alphas=(1, 8)) == [(1, 7)]


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = cli.run(["check", "perfect", "--tuple", "6", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(path.read_text())
    assert doc["results"]["verdict"] is True


def test_json_identical_modulo_timing(capsys):
    argv = ["search", "pm", "--p", "1", "--q", "2", "--limit", "30", "--workers", "2"]
    docs = []
    for _ in range(2):
        code, doc = run_json(capsys, argv)
        assert code == 0
        doc.pop("timing")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_main_raises_system_exit(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["amiforge", "sieve", "--limit", "5"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0


def assert_check_perfect_28(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["verdict"] is True


def test_console_script_installed(tmp_path):
    """Run the declared `amiforge` entry point as pip's launcher would, from the checkout."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "amiforge" in scripts, "pyproject.toml declares no amiforge console script"
    entry = re.fullmatch(r"(?P<module>[\w.]+):(?P<attr>\w+)", scripts["amiforge"])
    assert entry, f"amiforge entry point {scripts['amiforge']!r} is not of the form module:attr"
    launcher = (
        "import sys\n"
        f"from {entry['module']} import {entry['attr']}\n"
        "sys.argv[0] = 'amiforge'\n"
        f"sys.exit({entry['attr']}())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "check", "perfect", "--tuple", "28"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert_check_perfect_28(proc)


def test_closed_pipe_exits_without_a_traceback():
    # `amiforge sieve --limit 100000 --format csv | head -c 20`: the reader
    # leaves after a few bytes, and the CLI exits 1 with nothing on stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    launcher = "import sys\nfrom amiforge.cli import main\nsys.exit(main())\n"
    argv = [sys.executable, "-c", launcher, "sieve", "--limit", "100000", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and not stderr, stderr


@pytest.mark.skipif(shutil.which("amiforge") is None, reason="amiforge console script not installed")
def test_console_script_on_path():
    proc = subprocess.run(
        ["amiforge", "check", "perfect", "--tuple", "28"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert_check_perfect_28(proc)


def test_diff_cli_counts_a_timeout_as_a_difference(monkeypatch, capsys):
    # a command that times out in both trees was never compared, so it must
    # not read as `same`, and the run must fail
    spec = importlib.util.spec_from_file_location("diff_cli", REPO / "tests" / "diff_cli.py")
    diff_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diff_cli)
    monkeypatch.setattr(diff_cli, "COMMANDS", [("sieve", "--limit", "10")])
    monkeypatch.setattr(diff_cli, "_run", lambda src, argv: (("timed out",), None))
    assert diff_cli.main(["parent", "change"]) == 1
    out = capsys.readouterr().out
    assert "TIMEOUT" in out and "timed out in parent and change" in out
    assert "1 of 1 commands differ or time out" in out
