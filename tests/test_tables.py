from collections import Counter
from fractions import Fraction

import pytest

from amiforge.families import FamilySpec, holds
from amiforge.tables import (
    SEEDED_MULTIAMICABLE,
    all_rows,
    expand_factored,
    seed_values,
    verify_tables,
)

import oracles

EXPECTED_GROUP_SIZES = {
    "multiamicable-seeded": 13,
    "alpha-beta": 5,
    "pm": 55,
    "wpm": 15,
    "gm": 6,
    "hm": 22,
    "whm": 1,
    "mp": 16,
}


def test_row_census():
    rows = all_rows()
    assert len(rows) == 133
    assert Counter(g for g, _, _ in rows) == EXPECTED_GROUP_SIZES


def test_every_row_is_a_member(sieve_10k):
    for group, spec, members in all_rows():
        assert holds(spec, members), (group, spec.describe(), members)


def test_verify_tables_all_pass():
    report = verify_tables()
    assert report.all_pass
    assert report.failures == []
    assert len(report.rows) == 133
    first = report.rows[0]
    assert first.members == (1560, 1740)
    assert first.sigmas == (5040, 5040)
    assert first.passed and first.detail == ""


def test_row_sigmas_match_divisor_loop():
    # spot-check stored sigma consistency against the brute divisor loop
    report = verify_tables()
    for row in report.rows[:20]:
        for n, s in zip(row.members, row.sigmas):
            assert oracles.divisor_sigma(n) == s


def test_seeded_rows_expand():
    row = SEEDED_MULTIAMICABLE[0]
    assert seed_values(row) == (104, 116, 15)
    assert row.pair == (1560, 1740)
    assert Fraction(row.target) == Fraction(8, 5)
    # multiplier times seed reproduces the stored pair
    for row in SEEDED_MULTIAMICABLE:
        n1, n2, a = seed_values(row)
        assert (a * n1, a * n2) == row.pair


def test_seeded_row_targets_are_consistent():
    # target = (sum alpha_i * N_i) / sigma(N1), as a reduced fraction
    for row in SEEDED_MULTIAMICABLE:
        n1, n2, _ = seed_values(row)
        s = oracles.divisor_sigma(n1)
        assert oracles.divisor_sigma(n2) == s
        want = Fraction(row.alphas[0] * n1 + row.alphas[1] * n2, s)
        assert Fraction(row.target) == want


def test_expand_factored():
    assert expand_factored("2^3*13") == 104
    assert expand_factored("3*5") == 15
    assert expand_factored("1") == 1
    with pytest.raises(ValueError):
        expand_factored("4*3")  # 4 is not prime: not a factorization of 12


def test_rows_use_valid_specs():
    for _, spec, members in all_rows():
        assert isinstance(spec, FamilySpec)
        assert len(members) == spec.k
