import math
from fractions import Fraction

import pytest

from amiforge import arith, density, search
from amiforge import sieve as sieve_module
from amiforge.arith import zeta_approx
from amiforge.density import (
    BoundReport,
    amicable_members,
    count_amicable,
    count_multiamicable_pairs,
    harmonic_floor_sum,
    lemma_sum_check,
    pomerance_curve,
)
from amiforge.families import is_amicable_pair
from amiforge.sieve import CoverageError, build_sigma_sieve

import oracles


def test_amicable_members_example(sieve_10k):
    assert amicable_members(1300, sieve_10k) == [220, 284, 1184, 1210]


def test_count_amicable_example(sieve_10k):
    series = count_amicable((100, 300, 1300), sieve_10k)
    assert series.checkpoints == (100, 300, 1300)
    assert series.counts == (0, 2, 4)
    assert series.ratios == (Fraction(0), Fraction(2, 300), Fraction(4, 1300))


def test_counted_members_have_partners(sieve_10k):
    for n in amicable_members(10**4, sieve_10k):
        partner = sieve_10k.sigma(n) - n
        assert is_amicable_pair(min(n, partner), max(n, partner), sieve_10k)


def test_checkpoint_validation(sieve_1k):
    for bad in ((), (300, 100), (100, 100), (0, 10)):
        with pytest.raises(ValueError):
            count_amicable(bad, sieve_1k)


def test_count_multiamicable_examples(sieve_10k):
    assert count_multiamicable_pairs(1, 2, (1000, 2000), sieve_10k).counts == (0, 1)
    assert count_multiamicable_pairs(1, 1, (300,), sieve_10k).counts == (1,)
    assert count_multiamicable_pairs(5, 5, (100,), sieve_10k).counts == (0,)
    with pytest.raises(ValueError):
        count_multiamicable_pairs(0, 1, (100,), sieve_10k)


def test_count_multiamicable_partner_past_x():
    # M(x) counts by the smaller member m <= x, so the partner n may lie past
    # x and past a sieve that ends at x; it is then checked by exact sigma
    def brute(alpha, beta, x):
        count = 0
        for m in range(1, x + 1):
            s = oracles.divisor_sigma(m)
            n, rem = divmod(s - alpha * m, beta)
            if not rem and n > m and oracles.divisor_sigma(n) == s:
                count += 1
        return count

    for alpha, beta, pts in ((1, 1, (250, 1200, 2700)), (1, 2, (1600,)), (2, 1, (3000,)), (3, 5, (2000,))):
        sieve = build_sigma_sieve(pts[-1])
        series = count_multiamicable_pairs(alpha, beta, pts, sieve)
        assert series.counts == tuple(brute(alpha, beta, x) for x in pts), (alpha, beta)
    assert count_multiamicable_pairs(1, 1, (250, 1200), build_sigma_sieve(1200)).counts == (1, 2)
    # (1560, 1740) is the first (1, 2) pair; its partner is past x = 1600
    assert count_multiamicable_pairs(1, 2, (1600,), build_sigma_sieve(1600)).counts == (1,)


def test_sieve_too_small_raises(sieve_1k):
    with pytest.raises(CoverageError):
        amicable_members(2000, sieve_1k)


def test_amicable_members_search_cap(monkeypatch):
    # the cap is enforced before any sieve is built
    def no_sieve(*args, **kwargs):
        raise AssertionError("a sieve was built for a limit over the cap")

    for module in (arith, search, density, sieve_module):
        monkeypatch.setattr(module, "build_sigma_sieve", no_sieve, raising=False)
    with pytest.raises(ValueError, match="exceeds the cap"):
        amicable_members(search.MAX_SEARCH_LIMIT + 1)


def test_count_multiamicable_pairs_search_cap(monkeypatch):
    # weighted_tuples' int64 argument holds for members up to the cap, so
    # M(x) refuses a checkpoint past it before any sieve is built
    def no_sieve(*args, **kwargs):
        raise AssertionError("a sieve was built for a checkpoint over the cap")

    monkeypatch.setattr(sieve_module, "build_sigma_sieve", no_sieve)
    with pytest.raises(ValueError, match="exceeds the cap"):
        count_multiamicable_pairs(1, 1, (1000, search.MAX_SEARCH_LIMIT + 1))


def test_lemma_example_x10_k1(sieve_1k):
    report = lemma_sum_check(10, 1, sieve_1k)
    assert isinstance(report, BoundReport)
    assert report.exact
    assert report.holds
    assert float(report.lhs) == pytest.approx(15.045634920634921, rel=1e-12)
    assert report.rhs == pytest.approx(10 * zeta_approx(2, 1e-9), rel=1e-8)
    assert report.margin > 0
    exact = oracles.sigma_ratio_power_sum(10, 1)
    assert harmonic_floor_sum(10) == exact
    assert 0 <= report.lhs - exact < Fraction(10, 2**128)


def test_lemma_trivial_x1(sieve_1k):
    report = lemma_sum_check(1, 1, sieve_1k)
    assert report.lhs == Fraction(1)
    assert report.holds and report.exact


def test_lemma_example_x10_k2(sieve_1k):
    report = lemma_sum_check(10, 2, sieve_1k)
    z2 = zeta_approx(2, 1e-9)
    z3 = zeta_approx(3, 1e-9)
    assert report.rhs == pytest.approx(10 * z2 * z2 * z3, rel=1e-8)
    assert report.rhs == pytest.approx(32.5255, abs=0.01)
    assert report.margin == pytest.approx(8.847, abs=0.01)
    assert report.holds and report.exact


def test_lemma_small_grid_k_at_most_two(sieve_1k):
    for x in (1, 10, 100, 1000):
        for k in (1, 2):
            report = lemma_sum_check(x, k, sieve_1k)
            assert report.holds, (x, k)
            assert report.margin > 0
            assert report.exact
            assert report.x == x and report.k == k


def test_lemma_k3_bound_is_violated_from_24_on(sieve_1k):
    # the k=3 zeta-product constant undershoots the true average order of
    # (sigma(n)/n)^3, so the inequality flips at x = 24 and stays false;
    # the report must say so rather than gloss over it
    assert lemma_sum_check(1, 3, sieve_1k).holds
    assert lemma_sum_check(10, 3, sieve_1k).holds
    assert lemma_sum_check(23, 3, sieve_1k).holds
    for x in (24, 100, 1000):
        report = lemma_sum_check(x, 3, sieve_1k)
        assert not report.holds, x
        assert report.margin < 0
        assert report.exact


def test_lemma_lhs_matches_brute_float(sieve_1k):
    # the enclosure's upper end, cross-checked against naive float sums
    for x, k in ((50, 1), (50, 2), (50, 3), (200, 2)):
        report = lemma_sum_check(x, k, sieve_1k)
        brute = math.fsum((oracles.divisor_sigma(n) / n) ** k for n in range(1, x + 1))
        assert float(report.lhs) == pytest.approx(brute, rel=1e-12)


def test_harmonic_identity(sieve_1k):
    for x in (1, 2, 5, 10, 100, 500):
        exact = oracles.sigma_ratio_power_sum(x, 1)
        assert harmonic_floor_sum(x) == exact
        assert 0 <= lemma_sum_check(x, 1, sieve_1k).lhs - exact < Fraction(x, 2**128)
    with pytest.raises(ValueError):
        harmonic_floor_sum(0)


def test_lemma_sigma_sum_identity(sieve_100k):
    # sum_{n<=x} sigma(n) = sum_{u<=x} u*floor(x/u): u divides floor(x/u) of 1..x
    for x in (1, 10, 1000, 10**5):
        assert int(sieve_100k.read(slice(1, x + 1)).sum()) == sum(u * (x // u) for u in range(1, x + 1))


def test_lemma_enclosure_doubles_from_one_bit(monkeypatch, sieve_1k):
    # a 1-bit enclosure is too wide to decide most cells; the doubled ones
    # must reach the verdicts of the default 128-bit start
    grid = [(x, k) for x in (1, 2, 10, 23, 24, 100, 1000) for k in (1, 2, 3)]
    want = [lemma_sum_check(x, k, sieve_1k).holds for x, k in grid]
    bits = []
    fixed_point_sum = density._fixed_point_sum
    monkeypatch.setattr(density, "_START_BITS", 1)
    monkeypatch.setattr(
        density, "_fixed_point_sum", lambda *args: bits.append(args[-1]) or fixed_point_sum(*args)
    )
    assert [lemma_sum_check(x, k, sieve_1k).holds for x, k in grid] == want
    assert min(bits) == 1 and max(bits) > 1


def test_lemma_large_x_is_certified():
    report = lemma_sum_check(150000, 1)
    assert report.exact
    assert report.holds
    assert report.margin > 0
    assert 1.5 < float(report.lhs) / 150000 < zeta_approx(2, 1e-9)


def test_lemma_validation(sieve_1k):
    with pytest.raises(ValueError):
        lemma_sum_check(0, 1, sieve_1k)
    with pytest.raises(ValueError):
        lemma_sum_check(10, 0, sieve_1k)
    with pytest.raises(ValueError):
        lemma_sum_check(2000, 1, sieve_1k)


def test_lemma_past_the_float_range(sieve_1k):
    # zeta(1199) needs terms 1/m^1199 below the float range; the check runs
    report = lemma_sum_check(3, 600, sieve_1k)
    assert report.holds and report.rhs > float(report.lhs)
    # the bound at k = 1500, and the sum at x = 12, k = 900, pass 2^1024
    with pytest.raises(ValueError, match="bound at x=3, k=1500 is too large"):
        lemma_sum_check(3, 1500, sieve_1k)
    with pytest.raises(ValueError, match="sum at x=12, k=900 is too large"):
        lemma_sum_check(12, 900, sieve_1k)


def test_pomerance_examples(sieve_1k):
    rows = pomerance_curve((math.e, 300), sieve_1k)
    assert len(rows) == 2
    x0, count0, bound0, ratio0 = rows[0]
    assert count0 == 0
    assert bound0 == pytest.approx(1.0, rel=1e-12)
    assert ratio0 == 0
    x1, count1, bound1, ratio1 = rows[1]
    assert count1 == 2
    assert bound1 == pytest.approx(27.536796824914707, rel=1e-12)
    assert ratio1 == pytest.approx(2 / 27.536796824914707, rel=1e-12)


def test_pomerance_bound_formula():
    # the e^sqrt(log x) denominator at one large checkpoint
    x = 10**6
    assert x / math.exp(math.sqrt(math.log(x))) == pytest.approx(24308.670323227514, rel=1e-12)


def test_pomerance_validation(sieve_1k):
    for bad in ((), (300, 100), (0.5,)):
        with pytest.raises(ValueError):
            pomerance_curve(bad, sieve_1k)
