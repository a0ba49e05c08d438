import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from amiforge import arith, cli, search
from amiforge.arith import sigma
from amiforge.construct import find_multipliers, find_seed_tuples
from amiforge.density import count_multiamicable_pairs, lemma_sum_check
from amiforge.families import MEAN_EQUATIONS, FamilySpec, holds, weighted_form
from amiforge.search import (
    MAX_SEARCH_LIMIT,
    enumerate_family,
    scan_open_question,
)
from amiforge.sieve import CoverageError, SigmaSieve, build_sigma_sieve, sigma_beyond

import oracles

AMICABLE_PAIRS_10K = [
    (6, 6),
    (28, 28),
    (220, 284),
    (496, 496),
    (1184, 1210),
    (2620, 2924),
    (5020, 5564),
    (6232, 6368),
    (8128, 8128),
]


def members_of(report):
    return [r.members for r in report.records]


@dataclass(frozen=True, eq=False)
class PlantedSieve(SigmaSieve):
    """A sieve whose read and sigma return values[n], a read-only int64
    array of sigma over 0..limit in which a test plants or garbles values."""

    values: np.ndarray

    def sigma(self, n):
        return int(self.values[n])

    def read(self, index):
        return self.values[index]


def planted(sieve, index, value):
    """sieve with its sigma over 0..limit copied and set to value at index."""
    values = sieve.read(slice(None))
    values[index] = value
    values.setflags(write=False)
    return PlantedSieve(sieve.limit, sieve.odd, values)


def test_pm_example(sieve_1k):
    spec = FamilySpec("pm", 2, p=1, q=2)
    report = enumerate_family(spec, 30, sieve=sieve_1k)
    found = members_of(report)
    assert found == [
        (3, 20),
        (5, 12),
        (6, 6),
        (6, 28),
        (10, 20),
        (12, 14),
        (13, 24),
        (13, 30),
        (28, 28),
    ]
    assert found == oracles.naive_family("pm", 30, k=2, p=1, q=2)
    assert report.limit == 30


def test_multiamicable_example(sieve_10k):
    spec = FamilySpec("multiamicable", 2, alphas=(1, 2))
    report = enumerate_family(spec, 2000, sieve=sieve_10k)
    assert members_of(report) == [(1560, 1740)]


def test_gm_tiny_limit_is_empty(sieve_1k):
    report = enumerate_family(FamilySpec("gm", 2), 2, sieve=sieve_1k)
    assert report.records == []


def test_amicable_pairs_to_ten_thousand(sieve_10k):
    spec = FamilySpec("amicable-pair", 2)
    report = enumerate_family(spec, 10**4, sieve=sieve_10k)
    assert members_of(report) == AMICABLE_PAIRS_10K


def test_amicable_numbers_match_pair_members(sieve_10k):
    report = enumerate_family(FamilySpec("amicable-number", 1), 1300, sieve=sieve_10k)
    assert members_of(report) == [(220,), (284,), (1184,), (1210,)]


def test_records_are_sorted_and_verified(sieve_10k):
    for spec in (
        FamilySpec("pm", 2, p=1, q=2),
        FamilySpec("feebly", 2),
        FamilySpec("yanney", 2),
    ):
        report = enumerate_family(spec, 400, sieve=sieve_10k)
        found = members_of(report)
        assert found == sorted(found)
        for rec in report.records:
            assert list(rec.members) == sorted(rec.members)
            assert holds(spec, rec.members, sieve_10k)
            assert rec.sigmas == tuple(sigma(n, sieve_10k) for n in rec.members)
            assert rec.provenance == "found"


def test_yanney_allows_repeats(sieve_1k):
    report = enumerate_family(FamilySpec("yanney", 2), 10, sieve=sieve_1k)
    assert members_of(report) == [(6, 6)]
    report3 = enumerate_family(FamilySpec("yanney", 3), 400, sieve=sieve_1k)
    assert members_of(report3) == oracles.naive_family("yanney", 400, k=3)


def grouped_reference(kind, limit, k, alphas=None):
    """Bucket-kind tuples of k >= 3 members, from itertools within each group
    of 1..limit that shares one oracles.divisor_sigma value."""
    groups = {}
    for n in range(1, limit + 1):
        groups.setdefault(oracles.divisor_sigma(n), []).append(n)
    if kind == "multiamicable":
        pick, weights, factor = combinations, alphas, 1
    else:
        pick, weights, factor = combinations_with_replacement, (1,) * k, k - 1 if kind == "yanney" else 1
    return sorted(
        t
        for s, members in groups.items()
        for t in pick(members, k)
        if sum(a * n for a, n in zip(weights, t)) == factor * s
    )


def test_bucket_kernel_matches_grouped_reference(sieve_10k):
    # yanney at L = 10 and dickson at L = 180 solve a last member past L
    # (16 and 186 among them) that must not be taken for a member of 1..L
    cases = [(kind, k, L, None) for kind in ("dickson", "yanney") for k, L in ((3, 3000), (4, 1200), (5, 500))]
    cases += [("yanney", k, 10, None) for k in (3, 4, 5)] + [("dickson", 3, 180, None)]
    cases += [("multiamicable", len(a), L, a) for a, L in (((1, 1, 1), 3000), ((1, 2, 3), 5000), ((3, 2, 1), 5000), ((1, 1, 1, 1), 2000))]
    found_any = set()
    for kind, k, limit, alphas in cases:
        spec = FamilySpec(kind, k, alphas=alphas)
        found = members_of(enumerate_family(spec, limit, sieve=sieve_10k))
        assert found == grouped_reference(kind, limit, k, alphas), (kind, k, limit, alphas)
        if found:
            found_any.add(kind)
    assert found_any == {"dickson", "yanney", "multiamicable"}


def test_multiamicable_members_strictly_increase(sieve_10k):
    spec = FamilySpec("multiamicable", 2, alphas=(1, 1))
    report = enumerate_family(spec, 1300, sieve=sieve_10k)
    assert members_of(report) == [(220, 284), (1184, 1210)]
    for rec in report.records:
        assert all(a < b for a, b in zip(rec.members, rec.members[1:]))


def test_abundance_inequality_on_multiamicable(sieve_10k):
    # for n_1 < n_k the shared sigma is pinched between the weighted extremes
    for alphas, limit in (((1, 1), 1300), ((1, 2), 2000)):
        spec = FamilySpec("multiamicable", 2, alphas=alphas)
        report = enumerate_family(spec, limit, sieve=sieve_10k)
        assert report.records, (alphas, limit)
        total = sum(alphas)
        for rec in report.records:
            if rec.members[0] == rec.members[-1]:
                continue
            for s in rec.sigmas:
                assert total * rec.members[0] < s < total * rec.members[-1]


def test_alpha_beta_one_one_equals_amicable_pairs(sieve_1k):
    ab = enumerate_family(
        FamilySpec("alpha-beta", 2, alphas=(1, 1)), 1000, sieve=sieve_1k
    )
    am = enumerate_family(FamilySpec("amicable-pair", 2), 1000, sieve=sieve_1k)
    assert members_of(ab) == members_of(am)


def test_alpha_beta_asymmetric(sieve_1k):
    spec = FamilySpec("alpha-beta", 2, alphas=(1, 2))
    report = enumerate_family(spec, 200, sieve=sieve_1k)
    assert members_of(report) == oracles.naive_family("alpha-beta", 200, alphas=(1, 2))
    assert (26, 46) in members_of(report)


def test_cohen_oracle_small(sieve_1k):
    for alphas in ((1, 1), (2, 3)):
        spec = FamilySpec("cohen-pair", 2, alphas=alphas)
        report = enumerate_family(spec, 200, sieve=sieve_1k)
        assert members_of(report) == oracles.naive_family("cohen-pair", 200, alphas=alphas)


def test_mean_families_oracle_smoke(sieve_1k):
    cases = [
        (FamilySpec("wpm", 2, p=1), dict(kind="wpm", k=2, p=1)),
        (FamilySpec("gm", 2), dict(kind="gm", k=2)),
        (FamilySpec("wgm", 2), dict(kind="wgm", k=2)),
        (FamilySpec("hm", 2, p=1, q=2), dict(kind="hm", k=2, p=1, q=2)),
        (FamilySpec("whm", 2, p=1), dict(kind="whm", k=2, p=1)),
        (FamilySpec("feebly", 2), dict(kind="feebly", k=2)),
        (FamilySpec("mp", 2, p=2, q=2), dict(kind="mp", k=2, p=2, q=2)),
    ]
    for spec, kw in cases:
        report = enumerate_family(spec, 120, sieve=sieve_1k)
        kind = kw.pop("kind")
        assert members_of(report) == oracles.naive_family(kind, 120, **kw), kind


def test_worker_counts_agree(search_output):
    for spec, limit in (
        (FamilySpec("pm", 2, p=1, q=2), 500),
        (FamilySpec("multiamicable", 2, alphas=(1, 2)), 2000),
        (FamilySpec("multiamicable", 2, alphas=(1, 1)), 3000),
        (FamilySpec("multiamicable", 2, alphas=(2, 1)), 3000),
        (FamilySpec("amicable-pair", 2), 3000),
        (FamilySpec("amicable-number", 1), 3000),
        (FamilySpec("perfect", 1), 3000),
        (FamilySpec("cohen-pair", 2, alphas=(2, 3)), 3000),
        (FamilySpec("alpha-beta", 2, alphas=(1, 2)), 3000),
        (FamilySpec("dickson", 2), 3000),
        (FamilySpec("yanney", 2), 3000),
        (FamilySpec("gm", 2), 300),
        (FamilySpec("hm", 2, p=1, q=2), 500),
        (FamilySpec("whm", 2, p=1), 500),
        (FamilySpec("feebly", 2), 500),
        (FamilySpec("wgm", 2), 500),
        (FamilySpec("wpm", 2, p=1), 500),
        (FamilySpec("pm", 2, p=2, q=2), 500),
        (FamilySpec("mp", 2, p=2, q=2), 500),
        (FamilySpec("gm", 3), 120),
    ):
        outcomes = [search_output(spec, limit, workers) for workers in (1, 2, 8)]
        assert outcomes[0] == outcomes[1] == outcomes[2], (spec, limit)


# one spec per mean family, with the oracle's keyword arguments
MEAN_CASES = [
    dict(kind="pm", p=1, q=2),
    dict(kind="pm", p=2, q=2),
    dict(kind="mp", p=2, q=2),
    dict(kind="wpm", p=1),
    dict(kind="gm"),
    dict(kind="wgm"),
    dict(kind="hm", p=1, q=2),
    dict(kind="whm", p=1),
    dict(kind="feebly"),
]


def mean_spec(k, kind, **kw):
    return FamilySpec(kind, k, **kw)


def test_mean_families_single_members_match_oracle(sieve_1k):
    assert {kw["kind"] for kw in MEAN_CASES} == set(MEAN_EQUATIONS)
    for kw in MEAN_CASES:
        report = enumerate_family(mean_spec(1, **kw), 1000, sieve=sieve_1k)
        assert members_of(report) == oracles.naive_family(limit=1000, k=1, **kw), kw


def test_mean_filter_false_positives_are_dropped(sieve_1k, monkeypatch):
    # modulo 17 about one candidate in seventeen passes the row filter or
    # matches a solved key; the exact check must drop every non-member
    # without raising. 17 is the least prime that divides no sigma(n) for
    # n <= 60, so every key over sigma(n) has its inverse
    calls = []
    exact_check = search.check
    monkeypatch.setattr(search, "_MODULUS", 17)
    monkeypatch.setattr(search, "check", lambda *args: calls.append(args) or exact_check(*args))
    for kw in MEAN_CASES:
        # gm takes its last member from the rich numbers, sigma(n) >= k*n,
        # when the prefix has none, and the least n with sigma(n) >= 3n is 120
        for k, limit in ((2, 60), (3, 120 if kw["kind"] == "gm" else 20)):
            calls.clear()
            report = enumerate_family(mean_spec(k, **kw), limit, sieve=sieve_1k)
            assert members_of(report) == oracles.naive_family(limit=limit, k=k, **kw), (kw, k)
            assert len(calls) > len(report.records), (kw, k)


def test_additive_mean_families_solve_the_last_member(monkeypatch):
    # pm with p = 1 and mp read sum_i key(n_i) = 0 and solve for the last
    # member: the table is evaluated once, for the key column, instead of
    # once per block of the L^2 / 2 pairs (5 * 10^9 here)
    limit = 100_000
    sieve = build_sigma_sieve(limit)
    sig = sieve.read(slice(None)).tolist()
    calls = []
    exact_sides = search.mean_sides

    def once(*args):
        calls.append(args)
        assert len(calls) == 1, "the table was evaluated per block of candidate tuples"
        return exact_sides(*args)

    monkeypatch.setattr(search, "mean_sides", once)
    for kind, p, q in (("pm", 1, 3), ("mp", 2, 2), ("mp", 3, 1)):
        calls.clear()
        report = enumerate_family(FamilySpec(kind, 2, p=p, q=q), limit, sieve=sieve)
        by_key = {}
        for n in range(1, limit + 1):
            by_key.setdefault(sig[n] ** p - q * n**p, []).append(n)
        expected = sorted(
            (m, n) for m in range(1, limit + 1) for n in by_key.get(q * m**p - sig[m] ** p, ()) if m <= n
        )
        assert members_of(report) == expected, (kind, p, q)
    # feebly, sum n/sigma(n) = 1, and whm with p = 1, the same equation times
    # sum n, solve over the key n * sigma(n)^-1 modulo the prime
    ratios = {}
    for n in range(1, limit + 1):
        ratios.setdefault(Fraction(n, sig[n]), []).append(n)
    expected = sorted(
        (m, n) for m in range(1, limit + 1) for n in ratios.get(1 - Fraction(m, sig[m]), ()) if m <= n
    )
    assert expected
    for spec in (FamilySpec("feebly", 2), FamilySpec("whm", 2, p=1)):
        calls.clear()
        assert members_of(enumerate_family(spec, limit, sieve=sieve)) == expected, spec
    calls.clear()
    report = enumerate_family(FamilySpec("pm", 3, p=1, q=3), 200, sieve=sieve)
    assert members_of(report) == oracles.naive_family("pm", 200, k=3, p=1, q=3)


def test_feebly_and_whm_p1_agree(sieve_10k):
    # whm with p = 1 is the feebly equation times sum n > 0
    for k, limit in ((2, 3000), (3, 300)):
        feebly = members_of(enumerate_family(FamilySpec("feebly", k), limit, sieve=sieve_10k))
        assert feebly == members_of(enumerate_family(FamilySpec("whm", k, p=1), limit, sieve=sieve_10k)), k
        assert feebly, k
    small = members_of(enumerate_family(FamilySpec("feebly", 3), 60, sieve=sieve_10k))
    assert small == oracles.naive_family("feebly", 60, k=3)


# the weighted equal-sigma kinds at k = 2, which solve for the partner
K2_WEIGHTED = [
    FamilySpec("amicable-pair", 2),
    FamilySpec("multiamicable", 2, alphas=(1, 2)),
    FamilySpec("multiamicable", 2, alphas=(2, 1)),
    FamilySpec("dickson", 2),
    FamilySpec("yanney", 2),
]


def test_block_splits_change_no_record(sieve_10k, monkeypatch, capsys):
    # blocks of 7 tuples and of 5 prefixes split nearly every prefix's slice
    # across blocks, and every kind that grows prefixes must find the same;
    # blocks of 5 members split every pass over SigmaSieve.blocks too
    specs = [
        (FamilySpec("yanney", 3), 3000),
        (FamilySpec("yanney", 4), 1000),
        (FamilySpec("dickson", 3), 3000),
        (FamilySpec("multiamicable", 3, alphas=(1, 1, 1)), 3000),
        (FamilySpec("multiamicable", 3, alphas=(1, 2, 3)), 3000),
    ]
    specs += [(spec, 10**4) for spec in K2_WEIGHTED]
    specs += [(mean_spec(k, **kw), limit) for k, limit in ((2, 300), (3, 60)) for kw in MEAN_CASES]
    # deep prefixes: yanney at k = 8 (5 records) and hm at k = 100 (4)
    specs += [(FamilySpec("yanney", 8), 120), (FamilySpec("hm", 100, p=1, q=10000), 3)]
    # the passes over the sieve's blocks: sigma(a) = r*a, the partner passes
    linear = [
        FamilySpec("perfect", 1),
        FamilySpec("multiamicable", 1, alphas=(3,)),
        FamilySpec("cohen-pair", 2, alphas=(1, 1)),
        FamilySpec("alpha-beta", 2, alphas=(1, 2)),
    ]
    # (1560, 1740) counts at x = 1600 with its partner past x and the sieve,
    # and the amicable number 1184 is found at L = 1200 with its partner
    # 1210 past the limit and the sieve
    short = build_sigma_sieve(1600)
    to_1200 = build_sigma_sieve(1200)
    # weighted_tuples' own arrays, order included: the rows whose partner
    # waits for a sigma_beyond batch keep their places among the rest
    raw = [
        (to_1200, 1200, (1, 1), 1, True, None),
        (short, 1600, (1, 2), 1, True, None),
        (sieve_10k, 3000, *weighted_form(FamilySpec("dickson", 3)), False, 3000),
    ]

    def outputs():
        found = [members_of(enumerate_family(spec, limit, sieve=sieve_10k)) for spec, limit in specs]
        found.append(members_of(enumerate_family(FamilySpec("amicable-number", 1), 1200, sieve=to_1200)))
        seeds = [find_seed_tuples(alphas, 3000, sieve_10k) for alphas in ((1, 2), (1, 1, 1))]
        counts = [count_multiamicable_pairs(1, 2, (1000, 1600), short), count_multiamicable_pairs(1, 1, (3000,), sieve_10k)]
        columns = [[c.tolist() for c in search.weighted_tuples(*case)] for case in raw]
        passes = [members_of(enumerate_family(spec, 10**4, sieve=sieve_10k)) for spec in linear]
        passes.append(members_of(scan_open_question(10**4, sieve_10k)))
        lemma = [lemma_sum_check(3000, k, sieve_10k) for k in (1, 2)]
        seeded = find_seed_tuples((1, 2), 3000, sieve_10k, a_bound=10**4)
        assert cli.run(["sieve", "--limit", "1000", "--format", "csv"]) == 0
        return found, seeds, counts, columns, passes, lemma, seeded, capsys.readouterr().out

    whole = outputs()
    # multiamicable (1, 2, 3) and (2, 1) have no tuple this low
    empty = [spec.alphas in ((1, 2, 3), (2, 1)) for spec, _ in specs[:10]]
    assert [not found for found in whole[0][:10]] == empty and all(whole[1])
    assert whole[0][-1] == [(220,), (284,), (1184,)]
    assert [len(found) for found in whole[0][-3:-1]] == [5, 4]
    assert [c.counts for c in whole[2]] == [(0, 1), (3,)]
    assert whole[3][:2] == [[[220, 1184], [284, 1210]], [[1560], [1740]]] and whole[3][2][0]
    assert [len(found) for found in whole[4]] == [4, 2, 9, 2, 0]
    assert whole[6] and whole[7].count("\n") == 1001
    monkeypatch.setattr(search, "_BLOCK", 7)
    monkeypatch.setattr(search, "SEGMENT", 5)
    monkeypatch.setattr("amiforge.sieve.SEGMENT", 5)
    assert outputs() == whole


def test_tuple_blocks_follow_itertools_at_every_depth_and_block_size():
    # the mean kinds' whole slot, each member from the last one on, gives
    # combinations_with_replacement, and one from the next member on gives
    # combinations, whose last prefixes have empty slices; blocks come in
    # the order of their prefixes and then of each prefix's slice
    values = np.arange(1, 6)

    def whole(j, last, path):
        return values, 0 if last is None else last - 1, len(values)

    def strict(j, last, path):
        return values, 0 if last is None else last, len(values)

    for k in range(1, 9):
        for slot, tuples in ((whole, combinations_with_replacement), (strict, combinations)):
            for size in (1, 3, 64):
                blocks = list(search._tuple_blocks(k, slot, size))
                assert all(len(b) == k and 1 <= len(b[0]) <= size for b in blocks), (k, size)
                found = [t for b in blocks for t in zip(*(m.tolist() for m in b))]
                assert found == list(tuples(values.tolist(), k)), (k, slot, size)


def test_k2_weighted_kinds_need_no_sigma_order(sieve_10k, monkeypatch):
    # at k = 2 the partner is solved for each m in natural order, so no
    # sorted index of the sigma table is built
    def no_sort(*args):
        raise AssertionError("a k = 2 scan sorted the sigma table")

    monkeypatch.setattr(search, "_sorted_entries", no_sort)
    for spec in K2_WEIGHTED:
        # an amicable pair is a Dickson pair
        kind = "dickson" if spec.kind == "amicable-pair" else spec.kind
        expected = grouped_reference(kind, 3000, 2, spec.alphas)
        assert members_of(enumerate_family(spec, 3000, sieve=sieve_10k)) == expected, spec
    assert count_multiamicable_pairs(1, 2, (2000, 10**4), sieve_10k).counts == (1, 2)
    with pytest.raises(AssertionError, match="sorted"):
        enumerate_family(FamilySpec("yanney", 3), 100, sieve=sieve_10k)


def test_mean_last_slot_cuts_drop_no_member(sieve_1k):
    # hm caps the total by every member, q*sigma_i^p > T^p, and masks the last
    # member's row when q < k^p; gm needs a member with sigma >= k*n
    for k, limit, pqs in (
        (2, 200, ((1, 2), (1, 3), (2, 1), (2, 2), (2, 5), (3, 2), (3, 13), (3, 16))),
        (3, 40, ((1, 2), (1, 6), (2, 16), (3, 24))),
    ):
        for p, q in pqs:
            report = enumerate_family(FamilySpec("hm", k, p=p, q=q), limit, sieve=sieve_1k)
            assert members_of(report) == oracles.naive_family("hm", limit, k=k, p=p, q=q), (k, p, q)
            assert report.records or (k, p, q) == (3, 1, 2)
    report = enumerate_family(FamilySpec("gm", 2), 600, sieve=sieve_1k)
    assert members_of(report) == oracles.naive_family("gm", 600, k=2)
    assert len(report.records) > 5
    report = enumerate_family(FamilySpec("gm", 3), 200, sieve=sieve_1k)
    assert members_of(report) == oracles.naive_family("gm", 200, k=3) == [(120, 120, 120)]


def test_hm_row_mask_keeps_every_admissible_total(sieve_1k):
    # the mask on the last member v keeps each total T with T^p < q*sigma(v)^p;
    # at p = 1 it is exact, and otherwise within sigma(v)/2^16 + 1 of it
    v, total = np.divmod(np.arange(100 * 400), 400)
    v, total = v + 1, total + 1
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 5)):
        _, keep = search._last_slot(FamilySpec("hm", 5, p=p, q=q), 100, sieve_1k)
        kept = keep(v, total).tolist()
        for n, t, ok in zip(v.tolist(), total.tolist(), kept):
            s = sigma(n)
            if t**p < q * s**p:
                assert ok, (p, q, n, t)
            elif p == 1 or (t - 1) ** p >= q * s**p:
                assert not ok, (p, q, n, t)


def test_iroot_is_the_floor_of_the_root():
    for p in (1, 2, 3, 5, 64):
        for x in (*range(300), 2**64 - 1, 2**64, 3**100):
            c = search._iroot(x, p)
            assert c**p <= x < (c + 1) ** p, (x, p)
    assert search._iroot(5, 2**62) == 1


def test_mean_kernel_reads_only_the_limit(sieve_10k):
    # entries past the limit are zero, which no sigma is; the records must not change
    garbled = planted(sieve_10k, slice(301, None), 0)
    for spec in (FamilySpec("hm", 2, p=1, q=2), FamilySpec("wgm", 2)):
        clean = enumerate_family(spec, 300, sieve=sieve_10k)
        assert members_of(enumerate_family(spec, 300, sieve=garbled)) == members_of(clean)
        assert clean.records


def test_mean_scanned_counts_candidate_tuples(sieve_1k):
    # C(L + k - 1, k) non-decreasing k-tuples, whatever the family and parameters
    for spec in (FamilySpec("hm", 2, p=1, q=2), FamilySpec("pm", 2, p=1, q=2), FamilySpec("mp", 2, p=2, q=2)):
        assert enumerate_family(spec, 10, sieve=sieve_1k).scanned == 55
    report = enumerate_family(FamilySpec("gm", 3), 10, sieve=sieve_1k)
    assert report.scanned == math.comb(12, 3) == 220


def test_amicable_number_reads_past_the_sieve():
    # with the sieve ending at the limit, s(n) > limit (s(284) = 220 but
    # s(1184) = 1210 > 1200) is read past the sieve by sigma_beyond
    sieve = build_sigma_sieve(1200)
    report = enumerate_family(FamilySpec("amicable-number", 1), 1200, sieve=sieve)
    assert members_of(report) == oracles.naive_family("amicable-number", 1200)
    assert members_of(report) == [(220,), (284,), (1184,)]


def test_amicable_numbers_past_the_sieve_skip_factorize(sieve_10k, monkeypatch):
    # every s(n) > 10^4 lies within R^2 = 10^8, so the vectorised sigma_beyond
    # serves it and the scalar factorize is never reached
    def no_factorize(n):
        raise AssertionError(f"factorize({n}) reached for a value within R^2")

    monkeypatch.setattr(arith, "factorize", no_factorize)
    report = enumerate_family(FamilySpec("amicable-number", 1), 10**4, sieve=sieve_10k)
    pairs = [pair for pair in AMICABLE_PAIRS_10K if pair[0] != pair[1]]
    assert members_of(report) == sorted((n,) for pair in pairs for n in pair)


def test_partners_past_the_sieve_are_answered_in_batches(monkeypatch):
    # each sigma_beyond call but the last holds at least SEGMENT partners,
    # not one block's few, so the calls are at most values / SEGMENT + 1
    sizes = []

    def counted(sieve, x):
        sizes.append(len(x))
        return sigma_beyond(sieve, x)

    monkeypatch.setattr(search, "sigma_beyond", counted)
    monkeypatch.setattr(search, "SEGMENT", 1024)
    report = enumerate_family(FamilySpec("amicable-number", 1), 100_000)
    assert len(report.records) == 26
    calls = [n for n in sizes if n]
    assert len(calls) <= -(-sum(calls) // 1024) + 1, calls
    assert all(n >= 1024 for n in calls[:-1]), calls


def test_alpha_beta_large_weight_reads_only_the_table(capsys):
    # a budget of 4 KiB sieves 1..300 only, and 1000*n lies past R^2 = 90000
    # for n > 90; sigma(1000*n) comes from sigma(n) and 1000 = 2^3 * 5^3
    argv = ["search", "alpha-beta", "--alphas", "1,1000", "--limit", "300", "--sieve-budget", "4096"]
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["sieve_limit"] == 300
    found = [tuple(r["tuple"]) for r in doc["results"]["records"]]
    assert found == oracles.naive_family("alpha-beta", 300, alphas=(1, 1000))
    # the aliquot sums against the divisor loop: prime powers, several
    # primes, and 1000
    sieve, v = build_sigma_sieve(300), np.arange(1, 301)
    for w in (1000, 2, 8, 3, 27, 5, 25, 7, 49, 6, 12, 30):
        got = search._aliquots(sieve.read(v), w, v)
        assert got.tolist() == [oracles.divisor_sigma(w * n) - w * n for n in v.tolist()], w
    # weights with sigma(w) >= 2^36 take object arrays and the cap at 2^62;
    # their divisor loops are too long, so the scalar sigma(), which factors
    # each w*n whole, is the reference, on members that share the primes of
    # 2^40 + 3 = 19 * 57869033041 and of 3^40 (2^64 + 7 = 2881943 *
    # 6400801151761 shares none, and each of its products takes 0.1 s)
    v = np.array([1, 2, 3, 12, 19, 38, 81, 243, 285, 300])
    for w in (2**40 + 3, 3**40, 2**64 + 7):
        got = search._aliquots(sieve.read(v), w, v)
        assert got.tolist() == [min(sigma(w * n) - w * n, 2**62) for n in v.tolist()], w


def test_alpha_beta_with_sieve_covering_only_limit():
    # sigma(a*n) and sigma(b*m) past the caller's sieve come from the
    # table's sigma(n) and sigma(m) and the weights' factorizations
    sieve = build_sigma_sieve(150)
    for alphas in ((1, 2), (2, 1), (1, 3), (3, 5), (2, 2)):
        spec = FamilySpec("alpha-beta", 2, alphas=alphas)
        found = members_of(enumerate_family(spec, 150, sieve=sieve))
        assert found == oracles.naive_family("alpha-beta", 150, alphas=alphas), alphas
        if alphas == (1, 2):
            assert (26, 46) in found


def test_weights_past_int64(sieve_1k):
    # weights of 2^40 and 2^64 exceed every sigma value below the limit, so
    # no tuple can meet them; the int64 kernels must say so and not overflow
    for big in (2**40, 2**64):
        for alphas in ((1, big), (big, 1), (big, big)):
            for kind in ("cohen-pair", "multiamicable"):
                spec = FamilySpec(kind, 2, alphas=alphas)
                report = enumerate_family(spec, 300, sieve=sieve_1k)
                assert members_of(report) == oracles.naive_family(kind, 300, alphas=alphas) == []
        report = enumerate_family(FamilySpec("multiamicable", 1, alphas=(big,)), 300, sieve=sieve_1k)
        assert report.records == []
        # three members go through the sigma-group kernel
        for alphas in ((big, 1, 1), (1, 1, big)):
            spec = FamilySpec("multiamicable", 3, alphas=alphas)
            report = enumerate_family(spec, 60, sieve=sieve_1k)
            assert members_of(report) == oracles.naive_family("multiamicable", 60, alphas=alphas) == []


def test_multiamicable_singletons_are_multiperfect(sieve_1k):
    for a in (1, 2, 3):
        spec = FamilySpec("multiamicable", 1, alphas=(a,))
        report = enumerate_family(spec, 1000, sieve=sieve_1k)
        assert members_of(report) == oracles.naive_family("multiamicable", 1000, alphas=(a,)), a
    report = enumerate_family(FamilySpec("multiamicable", 1, alphas=(3,)), 1000, sieve=sieve_1k)
    assert members_of(report) == [(120,), (672,)]


def test_abundancy_solutions_match_brute_force(sieve_10k):
    # sigma(a)/a = num/den for a <= 10^4 against the divisor loop; a
    # numerator of 2^62 or more exceeds every table entry and matches nothing
    limit = 10**4
    sig = [oracles.divisor_sigma(a) for a in range(1, limit + 1)]
    targets = [Fraction(2), Fraction(3), Fraction(8, 5), Fraction(35, 12), Fraction(104, 63)]
    targets += [Fraction(2**62), Fraction(2**64, 3)]
    for target in targets:
        num, den = target.numerator, target.denominator
        expected = [a for a, s in enumerate(sig, 1) if s * den == num * a]
        assert bool(expected) == (num < 2**62), target
        assert search.abundancy_solutions(sieve_10k, limit, num, den).tolist() == expected, target
    # perfect numbers and the multiamicable singletons are the multipliers of
    # an integer target
    perfect = enumerate_family(FamilySpec("perfect", 1), limit, sieve=sieve_10k)
    assert members_of(perfect) == [(a,) for a in find_multipliers(Fraction(2), limit)] == [(6,), (28,), (496,), (8128,)]
    for a in (1, 2, 3):
        report = enumerate_family(FamilySpec("multiamicable", 1, alphas=(a,)), limit, sieve=sieve_10k)
        assert members_of(report) == [(m,) for m in find_multipliers(Fraction(a), limit)], a


def test_limit_validation(sieve_1k):
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("gm", 2), 0, sieve=sieve_1k)
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("gm", 2), MAX_SEARCH_LIMIT + 1)


def test_small_sieve_raises_coverage_error(sieve_1k):
    with pytest.raises(CoverageError):
        enumerate_family(FamilySpec("gm", 2), 2000, sieve=sieve_1k)


def test_scan_open_question_empty(sieve_1k):
    report = scan_open_question(1000, sieve_1k)
    assert report.records == []
    assert report.scanned == 1000
    assert report.label == "equal-sigma mp(2,2) pairs"
    assert report.spec.kind == "mp" and report.spec.p == 2 and report.spec.q == 2
    with pytest.raises(ValueError):
        scan_open_question(0)
    with pytest.raises(CoverageError):
        scan_open_question(2000, sieve_1k)
    with pytest.raises(ValueError, match="exceeds the cap"):
        scan_open_question(MAX_SEARCH_LIMIT + 1, sieve_1k)


def test_scan_open_question_finds_planted_pair(sieve_1k):
    # every real scan comes back empty, so plant sigma(3) = sigma(4) = 5,
    # which makes (3, 4) solve 5^2 = 3^2 + 4^2 with equal sigma
    report = scan_open_question(1000, planted(sieve_1k, [3, 4], 5))
    assert [r.members for r in report.records] == [(3, 4)]
    assert report.records[0].sigmas == (5, 5)


def test_auto_sieve_when_none_given():
    report = enumerate_family(FamilySpec("perfect", 1), 500)
    assert members_of(report) == [(6,), (28,), (496,)]


def test_alpha_beta_auto_sieve_covers_weighted_range():
    # needs sigma up to 3 * limit internally; must not raise
    spec = FamilySpec("alpha-beta", 2, alphas=(1, 3))
    report = enumerate_family(spec, 150)
    assert members_of(report) == oracles.naive_family("alpha-beta", 150, alphas=(1, 3))
    assert (3, 4) in members_of(report)


def test_scanned_counts_whole_range(sieve_1k):
    report = enumerate_family(FamilySpec("perfect", 1), 1000, sieve=sieve_1k)
    assert report.scanned == 1000


# The table is int32, and an int32 array combined with a Python int stays
# int32 under NumPy 2, so each kernel casts what it reads to int64. The
# tests below run each kernel where int32 arithmetic would wrap or raise,
# against records computed in exact Python integers.


def test_int32_table_read_as_int64(sieve_1k):
    assert sieve_1k.odd.dtype == np.int32
    assert sieve_1k.read(slice(1, 4)).dtype == np.int64
    assert sieve_1k.read(np.array([220, 284])).tolist() == [504, 504]


def test_scan_question_past_int32_squares(sieve_100k):
    # sigma(m)^2 passes 2^31 once sigma(m) > 46341; plant the triple
    # (60000, 80000, 100000) and compare with the scan in exact integers
    sieve = planted(sieve_100k, [60000, 80000], 100000)
    sig = sieve.values.tolist()
    expected = []
    for m in range(1, 10**5 + 1):
        target = sig[m] ** 2 - m * m
        n = math.isqrt(target) if target >= 0 else 0
        if m <= n <= 10**5 and n * n == target and sig[n] == sig[m]:
            expected.append((m, n))
    assert expected == [(60000, 80000)]
    assert [r.members for r in scan_open_question(10**5, sieve).records] == expected
    assert scan_open_question(10**5, sieve_100k).records == []


def test_k3_weighted_keys_past_int32(sieve_100k):
    # the key sigma*(limit + 1) + n passes 2^31 at limit 10^5; Dickson and
    # Yanney triples against the sigma groups, in exact integers
    limit = 10**5
    groups = {}
    for n, s in enumerate(sieve_100k.read(slice(limit + 1)).tolist()):
        if n:
            groups.setdefault(s, []).append(n)
    for kind, factor in (("dickson", 1), ("yanney", 2)):
        expected = sorted(
            (a, b, factor * s - a - b)
            for s, members in groups.items()
            for a, b in combinations_with_replacement(members, 2)
            if factor * s - a - b >= b and factor * s - a - b in members
        )
        assert expected, kind
        report = enumerate_family(FamilySpec(kind, 3), limit, sieve_100k)
        assert members_of(report) == expected, kind


def test_mean_filter_powers_past_int32():
    # pm with p = 2 and q = 9 at k = 1 is sigma(n) = 3n; sigma(523776) =
    # 1571328, whose square passes 2^31 in the modular powers
    limit = 600000
    sieve = build_sigma_sieve(limit)
    expected = [(n,) for n, s in enumerate(sieve.read(slice(None)).tolist()) if n and s * s == 9 * n * n]
    assert expected == [(120,), (672,), (523776,)]
    assert members_of(enumerate_family(FamilySpec("pm", 1, p=2, q=9), limit, sieve)) == expected


def test_abundancy_numerators_past_int32(sieve_100k):
    # a numerator that int32 cannot hold meets the table in int64
    sig = sieve_100k.read(slice(None)).tolist()
    for num, den in ((2**31 - 1, 1), (2**31 + 1, 3), (2**40, 7), (2**62 + 5, 1)):
        expected = [a for a in range(1, 10**5 + 1) if sig[a] * den == num * a]
        assert search.abundancy_solutions(sieve_100k, 10**5, num, den).tolist() == expected
    assert search.abundancy_solutions(sieve_100k, 10**5, 3, 1).tolist() == [120, 672]


def test_seed_weights_past_int32(sieve_10k):
    # weights of 2^31 and more meet the sigma of equal_sigma_blocks in int64
    groups = {}
    for n, s in enumerate(sieve_10k.read(slice(3001)).tolist()):
        if n:
            groups.setdefault(s, []).append(n)
    for alphas in ((2**31 + 1, 1), (1, 2**40), (3, 2**31 - 1)):
        expected = sorted(
            (combo, Fraction(alphas[0] * combo[0] + alphas[1] * combo[1], s))
            for s, members in groups.items()
            for combo in combinations(members, 2)
        )
        seeds = find_seed_tuples(alphas, 3000, sieve_10k)
        assert [(s.ns, s.target) for s in seeds] == [e for e in expected if e[1] >= 1], alphas
        assert seeds, alphas


# Prints the ru_maxrss (KiB) of one child per code argument. The children
# start from this small interpreter, since on Linux a child forked from a
# large process, such as pytest, counts that process's size in ru_maxrss.
_PEAKS = """
import os, subprocess, sys
for code in sys.argv[1:]:
    child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    print(usage.ru_maxrss if status == 0 else -1)
"""


def _peak_over_import(argv) -> int:
    """The peak RSS in bytes of a CLI run of argv less that of a child that
    only imports the search."""
    src = str(Path(search.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    job = f"from amiforge.cli import run; run({list(argv)!r})"
    done = subprocess.run([sys.executable, "-c", _PEAKS, "import amiforge.search", job], env=env, capture_output=True, text=True, check=True)
    base, run = (int(v) * 1024 for v in done.stdout.split())
    assert base > 0 and run > 0, done.stdout
    return run - base


def test_linear_pass_peak_memory_is_one_table_plus_blocks():
    # search amicable-pair at 3*10^6 over a child that only imports the
    # search: the int32 table of odd n, 2 bytes per n, which the build adds
    # to a segment at a time, plus 3 MiB for the block arrays and the
    # allocator's fixed overhead, which does not scale with the block
    limit = 3_000_000
    peak = _peak_over_import(["search", "amicable-pair", "--limit", str(limit)])
    assert peak <= 2 * (limit + 1) + 3 * 2**20, peak / 2**20


def test_sorted_pass_peak_memory_is_one_table_and_index_plus_blocks():
    # search dickson --k 3 at 3*10^6: the table's 2 bytes per n, 8 per
    # member for the int64 sorted index, and 32 int64 arrays of one SEGMENT
    # block
    limit = 3_000_000
    peak = _peak_over_import(["search", "dickson", "--k", "3", "--limit", str(limit)])
    assert peak <= 2 * (limit + 1) + 8 * limit + 32 * 8 * search.SEGMENT, peak / 2**20


def test_seeded_construct_peak_memory_is_one_table_and_index_plus_blocks():
    # construct --alphas 1,1,1 --seed-limit 20000 --a-bound 3000: the seed
    # search's int32 table of odd n, 2 bytes per n, 8 per member for the
    # int64 sorted index, and 32 int64 arrays of one SEGMENT block; the seeds
    # whose target no a <= 3000 hits are dropped in numpy, not held as Python
    # objects
    limit = 20_000
    peak = _peak_over_import(["construct", "--alphas", "1,1,1", "--seed-limit", str(limit), "--a-bound", "3000"])
    assert peak <= 2 * (limit + 1) + 8 * limit + 32 * 8 * search.SEGMENT, peak / 2**20


def test_construct_ratio_table_stays_within_the_budget_charge():
    # construct --alphas 1,2 --seed-limit 100 --a-bound 3*10^6: the int32
    # sigma table of odd n, 2 bytes per n, and the float32 table of
    # sigma(a)/a, 4 bytes per a, within the 8 bytes per entry that
    # --sieve-budget charges, plus 32 int64 arrays of one SEGMENT block
    bound = 3_000_000
    peak = _peak_over_import(["construct", "--alphas", "1,2", "--seed-limit", "100", "--a-bound", str(bound)])
    assert peak <= 2 * (bound + 1) + 4 * bound + 32 * 8 * search.SEGMENT, peak / 2**20


def test_sieve_output_peak_memory_is_one_table_plus_batches():
    # sieve --limit 10^6 over a child that only imports the search: as
    # JSON and as CSV, the text is rendered from blocks of the table and
    # written in batches, never held whole, so both take the table's 2
    # bytes per n and 3 MiB for the batches alone
    limit = 1_000_000
    for fmt in ("json", "csv"):
        peak = _peak_over_import(["sieve", "--limit", str(limit), "--format", fmt])
        assert peak <= 2 * (limit + 1) + 3 * 2**20, (fmt, peak / 2**20)


def test_huge_k_peak_memory_is_linear_in_k():
    # search gm and pm at k = 300 and L = 2 over a child that only imports
    # the search: each level holds one (rows, column) block of at most
    # k + 1 rows, not a copy of every earlier member, so the scan holds
    # block arrays linear in k, bounded here by 8 int64 arrays of k + 1
    # entries per member, plus 3 MiB
    k = 300
    for argv in (["gm", "--k", str(k)], ["pm", "--k", str(k), "--p", "1", "--q", "1"]):
        peak = _peak_over_import(["search", *argv, "--limit", "2"])
        assert peak <= 3 * 2**20 + 64 * k * (k + 1), (argv[0], peak / 2**20)


def test_alpha_beta_peak_memory_is_one_table_plus_blocks():
    # search alpha-beta --alphas 8,8 at 3*10^6 reads sigma(8*n) from the
    # table to the limit: the table's 2 bytes per n plus 16 int64 arrays of
    # one SEGMENT block
    limit = 3_000_000
    peak = _peak_over_import(["search", "alpha-beta", "--alphas", "8,8", "--limit", str(limit)])
    assert peak <= 2 * (limit + 1) + 16 * 8 * search.SEGMENT, peak / 2**20
