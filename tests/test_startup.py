"""What a start loads: commands that build no sigma table run without numpy,
and the package resolves its public names lazily."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amiforge

REPO = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter and prints whether numpy was loaded after each step.
PROBE = """
import contextlib, io, json, sys
steps = []
import amiforge
steps.append(("import amiforge", 0, "numpy" in sys.modules))
from amiforge import cli
for argv in (["check", "perfect", "--tuple", "6"], ["verify-tables"], ["sieve", "--limit", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    steps.append((" ".join(argv), code, "numpy" in sys.modules))
print(json.dumps(steps))
"""

# The public names and their home modules.
EXPORTS = {
    "arith": (
        "Factorization", "abundancy", "aliquot", "factorize", "gcd_list", "is_prime",
        "lcm_list", "parse_factored", "sigma", "zeta_approx",
    ),
    "sieve": ("CoverageError", "SigmaSieve", "build_sigma_sieve"),
    "families": (
        "KINDS", "FamilySpec", "Mismatch", "TupleRecord", "check", "holds",
        "is_alpha_beta_pair", "is_amicable_number", "is_amicable_pair", "is_cohen_pair",
        "is_dickson_tuple", "is_feebly_amicable", "is_gm", "is_hm", "is_mp",
        "is_multiamicable", "is_perfect", "is_pm", "is_wgm", "is_whm", "is_wpm",
        "is_yanney_tuple",
    ),
    "search": ("SearchReport", "enumerate_family", "scan_open_question"),
    "tables": ("verify_tables",),
    "construct": (
        "ConstructedTuple", "SeedTuple", "construct_multiamicable", "find_multipliers",
        "find_seed_tuples", "seed_ratio",
    ),
    "density": (
        "BoundReport", "CountSeries", "amicable_members", "count_amicable",
        "count_multiamicable_pairs", "harmonic_floor_sum", "lemma_sum_check", "pomerance_curve",
    ),
}


def test_check_and_verify_tables_start_without_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import amiforge", 0, False],
        ["check perfect --tuple 6", 0, False],
        ["verify-tables", 0, False],
        # the sieve needs numpy, which shows the probe sees an import
        ["sieve --limit 5", 0, True],
    ]


def test_package_exports_resolve_to_their_home_modules():
    assert sorted(amiforge.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"amiforge.{module}")
        for name in names:
            assert getattr(amiforge, name) is getattr(home, name), name


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        amiforge.nosuch
