"""Acceptance checklist: one test per criterion, one printed line per verdict.

Criterion 5 is recorded honestly as FAIL: the k=3 zeta-product bound it
asserts is arithmetically false from x = 24 on (integer-certified evidence;
analysis in README.md, section "Criterion 5 is an expected failure, on
purpose"), so that test is marked xfail rather than being glossed over.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from amiforge.construct import construct_multiamicable, find_multipliers, seed_ratio
from amiforge.density import (
    count_amicable,
    count_multiamicable_pairs,
    harmonic_floor_sum,
    lemma_sum_check,
)
from amiforge.families import (
    KIND_RULES,
    FamilySpec,
    is_amicable_pair,
    is_feebly_amicable,
    is_gm,
    is_hm,
    is_pm,
    is_wgm,
    is_whm,
    is_wpm,
)
from amiforge.search import enumerate_family, scan_open_question
from amiforge.tables import SEEDED_MULTIAMICABLE, all_rows, seed_values, verify_tables

import oracles
from acceptance_log import record

# every family at every applicable k <= 3, used by criteria 4 and 9
ORACLE_CONFIGS = [
    ("perfect", dict()),
    ("amicable-number", dict()),
    ("amicable-pair", dict()),
    ("dickson", dict(k=2)),
    ("dickson", dict(k=3)),
    ("yanney", dict(k=2)),
    ("yanney", dict(k=3)),
    ("cohen-pair", dict(alphas=(1, 1))),
    ("cohen-pair", dict(alphas=(2, 3))),
    ("multiamicable", dict(alphas=(2,))),
    ("multiamicable", dict(alphas=(1, 1))),
    ("multiamicable", dict(alphas=(1, 2))),
    ("multiamicable", dict(alphas=(1, 1, 1))),
    ("alpha-beta", dict(alphas=(1, 1))),
    ("alpha-beta", dict(alphas=(1, 2))),
    ("pm", dict(k=2, p=1, q=2)),
    ("pm", dict(k=3, p=1, q=2)),
    ("pm", dict(k=2, p=2, q=2)),
    ("pm", dict(k=3, p=2, q=1)),
    ("wpm", dict(k=2, p=1)),
    ("wpm", dict(k=3, p=2)),
    ("gm", dict(k=2)),
    ("gm", dict(k=3)),
    ("wgm", dict(k=2)),
    ("wgm", dict(k=3)),
    ("hm", dict(k=2, p=1, q=2)),
    ("hm", dict(k=3, p=1, q=3)),
    ("hm", dict(k=2, p=2, q=1)),
    ("whm", dict(k=2, p=1)),
    ("whm", dict(k=3, p=2)),
    ("feebly", dict(k=2)),
    ("feebly", dict(k=3)),
    ("mp", dict(k=2, p=2, q=2)),
    ("mp", dict(k=3, p=2, q=3)),
    ("mp", dict(k=3, p=3, q=3)),
]

REDISCOVERY = [
    ("pm", dict(k=2, p=1, q=2)),
    ("hm", dict(k=2, p=1, q=2)),
    ("wpm", dict(k=2, p=1)),
    ("gm", dict(k=2)),
    ("mp", dict(k=2, p=2, q=2)),
]

LEMMA_XS = (1, 10, 100, 1000, 10**4, 10**5)
LEMMA_KS = (1, 2, 3)


def make_spec(kind, kw):
    k = kw.get("k") or KIND_RULES[kind].fixed_k or (len(kw["alphas"]) if "alphas" in kw else 2)
    return FamilySpec(kind, k, p=kw.get("p"), q=kw.get("q"), alphas=kw.get("alphas"))


def run_search(kind, kw, limit, sieve):
    return enumerate_family(make_spec(kind, kw), limit, sieve)


def _lemma_cell(args):
    """One (x, k) grid cell; runs in a worker, builds its own sieve."""
    x, k = args
    report = lemma_sum_check(x, k)
    harmonic_ok = True
    if k == 1:
        exact = oracles.sigma_ratio_power_sum(x, 1)
        harmonic_ok = harmonic_floor_sum(x) == exact and 0 <= report.lhs - exact < Fraction(x, 2**128)
    return x, k, report.holds, report.exact, report.margin, harmonic_ok


def test_criterion_1_table_verification():
    t0 = time.perf_counter()
    report = verify_tables()
    elapsed = time.perf_counter() - t0
    ok = report.all_pass and len(report.rows) == 133 and elapsed < 5.0
    detail = f"{len(report.rows)} rows, {len(report.failures)} failures, {elapsed:.2f}s"
    assert record(1, "table fixture verification", ok, detail), detail


def test_criterion_2_table1_reconstruction():
    t0 = time.perf_counter()
    seeds = {}
    for row in SEEDED_MULTIAMICABLE:
        n1, n2, a = seed_values(row)
        seeds.setdefault((row.alphas, n1, n2), []).append((row, a))
    rebuilt = 0
    shared_checked = 0
    for (alphas, n1, n2), entries in seeds.items():
        seed = seed_ratio(alphas, (n1, n2))
        assert seed.target == Fraction(entries[0][0].target)
        mults = find_multipliers(seed.target, 10**4, (n1, n2))
        built = {(b.a, b.members) for b in construct_multiamicable([seed], 10**4)}
        for row, a in entries:
            assert a in mults, (row.pair, a)
            assert (a, row.pair) in built, row.pair
            rebuilt += 1
        if len(entries) > 1:
            shared_checked += 1
            assert {a for _, a in entries} <= {b_a for b_a, _ in built}
    elapsed = time.perf_counter() - t0
    ok = rebuilt == 13 and shared_checked == 1 and elapsed < 30.0
    detail = f"13/13 rows rebuilt (one shared seed gave both multipliers), {elapsed:.2f}s"
    assert record(2, "table 1 reconstruction", ok, detail), detail


def test_criterion_3_search_rediscovery(sieve_1k):
    t0 = time.perf_counter()
    total_expected = 0
    total_found = 0
    for kind, kw in REDISCOVERY:
        spec = make_spec(kind, kw)
        expected = [
            members
            for group, row_spec, members in all_rows()
            if row_spec == spec and max(members) <= 1000
        ]
        report = run_search(kind, kw, 1000, sieve_1k)
        found = {r.members for r in report.records}
        missing = [m for m in expected if m not in found]
        assert not missing, (kind, missing)
        total_expected += len(expected)
        total_found += len(found)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0 and total_expected > 0
    detail = (
        f"all {total_expected} printed tuples <= 10^3 rediscovered across 5 searches "
        f"({total_found} records total), {elapsed:.2f}s"
    )
    assert record(3, "search rediscovery", ok, detail), detail


def test_criterion_4_oracle_equivalence(sieve_1k):
    t0 = time.perf_counter()
    total = 0
    for kind, kw in ORACLE_CONFIGS:
        report = run_search(kind, kw, 200, sieve_1k)
        found = [r.members for r in report.records]
        want = oracles.naive_family(kind, 200, **kw)
        assert found == want, (kind, kw, found[:5], want[:5])
        total += len(found)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    detail = f"{len(ORACLE_CONFIGS)} configurations agree element for element ({total} records), {elapsed:.1f}s"
    assert record(4, "oracle equivalence", ok, detail), detail


def test_criterion_5_lemma_bounds():
    cells = [(x, k) for x in LEMMA_XS for k in LEMMA_KS]
    workers = min(6, len(cells))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        results = list(ex.map(_lemma_cell, cells))

    # exactness and the k=1 rearrangement identity must hold everywhere
    for x, k, holds, exact, margin, harmonic_ok in results:
        assert exact, (x, k)
        assert harmonic_ok, f"k=1 rearrangement identity broken at x={x}"
    # the bound itself is sound for k <= 2 at every checkpoint
    for x, k, holds, exact, margin, _ in results:
        if k <= 2:
            assert holds and margin > 0, (x, k, margin)

    violations = [(x, k, margin) for x, k, holds, _, margin, _ in results if not holds]
    ok = not violations
    if ok:
        detail = "all 18 cells hold with positive margin; k=1 rearrangement identity exact"
        assert record(5, "lemma bound grid", ok, detail), detail
        return
    worst = ", ".join(f"x={x}: margin {m:.0f}" for x, k, m in violations)
    detail = (
        "k<=2 cells all hold and the k=1 rearrangement identity is exact, BUT the "
        f"k=3 bound zeta(2)^3*zeta(5)*x is exceeded at {worst}; the stated constant "
        "lies below the true average order of (sigma(n)/n)^3 (first violation at "
        "x=24), so the criterion is unsatisfiable as written - see README.md, section "
        "'Criterion 5 is an expected failure, on purpose'"
    )
    record(5, "lemma bound grid", False, detail)
    pytest.xfail("k=3 lemma bound is arithmetically false for x >= 24; " + detail)


def test_criterion_6_amicable_implication_suite(sieve_10k):
    report = enumerate_family(FamilySpec("amicable-pair", 2), 10**4, sieve_10k)
    pairs = [r.members for r in report.records]
    assert len(pairs) == 9
    checked = 0
    for t in pairs:
        for p in (1, 2, 3):
            assert is_pm(t, p, 2, sieve_10k), (t, p)
            assert is_wpm(t, p, sieve_10k), (t, p)
            assert is_hm(t, p, 2, sieve_10k), (t, p)
            assert is_whm(t, p, sieve_10k), (t, p)
            checked += 4
        assert is_gm(t, sieve_10k), t
        assert is_wgm(t, sieve_10k), t
        assert is_feebly_amicable(t, sieve_10k), t
        checked += 3
    detail = f"9 pairs <= 10^4, {checked} implications, zero exceptions"
    assert record(6, "amicable implication suite", True, detail), detail


def test_criterion_7_density_echo(sieve_100k):
    t0 = time.perf_counter()
    series = count_amicable((1000, 10**4, 10**5), sieve_100k)
    assert series.counts == (2, 10, 26)
    assert series.ratios[0] >= series.ratios[1] >= series.ratios[2]
    # every counted member pairs up under sigma
    from amiforge.density import amicable_members

    for n in amicable_members(10**5, sieve_100k):
        partner = sieve_100k.sigma(n) - n
        assert is_amicable_pair(min(n, partner), max(n, partner), sieve_100k), n
    multi = count_multiamicable_pairs(1, 2, (1000, 2000), sieve_100k)
    assert multi.counts == (0, 1)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    ratios = ", ".join(f"{float(r):.2e}" for r in series.ratios)
    detail = f"A(x) = (2, 10, 26), ratios non-increasing ({ratios}), M(1,2) = (0, 1), {elapsed:.1f}s"
    assert record(7, "density echo", ok, detail), detail


def test_criterion_8_open_question_scan(sieve_10k):
    report = scan_open_question(10**4, sieve_10k)
    ok = report.records == []
    detail = f"no equal-sigma mp(2,2) pair up to 10^4 ({report.scanned} candidates examined)"
    assert record(8, "open-question scan", ok, detail), detail


def test_criterion_9_determinism(search_output):
    t0 = time.perf_counter()
    configs = [(kind, kw, 1000) for kind, kw in REDISCOVERY]
    configs += [(kind, kw, 200) for kind, kw in ORACLE_CONFIGS]
    compared = 0
    for kind, kw, limit in configs:
        docs = [search_output(make_spec(kind, kw), limit, workers) for workers in (1, 2, 8)]
        assert docs[0] == docs[1] == docs[2], (kind, kw, limit)
        compared += 1
    elapsed = time.perf_counter() - t0
    detail = (
        f"{compared} CLI search outputs identical across --workers 1/2/8 "
        f"(JSON without timing and the echoed workers), {elapsed:.1f}s"
    )
    assert record(9, "determinism", True, detail), detail
