import math
from fractions import Fraction
from itertools import combinations

import pytest

from amiforge import arith
from amiforge import sieve as sieve_module
from amiforge.arith import sigma
from amiforge.construct import (
    construct_multiamicable,
    find_multipliers,
    find_seed_tuples,
    seed_ratio,
)
from amiforge.sieve import CoverageError, build_sigma_sieve

import oracles


def test_seed_ratio_example():
    seed = seed_ratio((1, 2), (104, 116))
    assert seed.target == Fraction(8, 5)
    assert seed.alphas == (1, 2)
    assert seed.ns == (104, 116)


def test_seed_ratio_target_one():
    seed = seed_ratio((1, 2), (7380, 7776))
    assert seed.target == Fraction(1)


def test_seed_ratio_rejects_unequal_sigma():
    with pytest.raises(ValueError) as err:
        seed_ratio((1, 2), (6, 10))
    assert "sigma(6) = 12 but sigma(10) = 18" in str(err.value)


def test_find_multipliers_examples():
    assert find_multipliers(Fraction(8, 5), 20, (104, 116)) == [15]
    assert find_multipliers(Fraction(1), 100) == [1]
    assert find_multipliers(Fraction(2), 10) == [6]


def test_find_multipliers_properties():
    target = Fraction(8, 5)
    mults = find_multipliers(target, 2000, (104, 116))
    assert mults == sorted(mults)
    for a in mults:
        assert a % target.denominator == 0
        assert Fraction(oracles.divisor_sigma(a), a) == target
        assert math.gcd(a, 104) == 1 and math.gcd(a, 116) == 1
    # dropping the coprimality constraint can only widen the list
    unconstrained = find_multipliers(target, 2000)
    assert set(mults) <= set(unconstrained)


def test_find_multipliers_rejects_deficient_target():
    with pytest.raises(ValueError):
        find_multipliers(Fraction(1, 2), 100)
    # target 12/28 = 3/7: its denominator exceeds the bound, and it is still refused
    with pytest.raises(ValueError, match="target must be >= 1"):
        construct_multiamicable([seed_ratio((1,), (12,))], 1)


def test_find_multipliers_worker_determinism():
    # a caller's sieve that reaches past the bound gives the same multipliers
    target = Fraction(3, 2)
    one = find_multipliers(target, 5000)
    wide = find_multipliers(target, 5000, sieve=build_sigma_sieve(7000))
    assert one == wide
    assert one and all(Fraction(oracles.divisor_sigma(a), a) == target for a in one)


def test_find_multipliers_short_sieve_raises(sieve_1k):
    with pytest.raises(CoverageError):
        find_multipliers(Fraction(3, 2), 5000, sieve=sieve_1k)
    with pytest.raises(CoverageError):
        construct_multiamicable([seed_ratio((1, 2), (104, 116))], 2000, sieve=sieve_1k)


def test_construct_example():
    built = construct_multiamicable([seed_ratio((1, 2), (104, 116))], 20)
    assert len(built) == 1
    b = built[0]
    assert b.a == 15
    assert b.members == (1560, 1740)
    assert b.seed.target == Fraction(8, 5)


def test_construct_identity_multiplier():
    built = construct_multiamicable([seed_ratio((1, 2), (7380, 7776))], 1)
    assert [(b.a, b.members) for b in built] == [(1, (7380, 7776))]


def test_construct_output_is_multiamicable():
    for b in construct_multiamicable([seed_ratio((1, 2), (104, 116))], 2000):
        total = b.members[0] + 2 * b.members[1]
        for n in b.members:
            assert oracles.divisor_sigma(n) == total
        # the multiplier is coprime to each seed, so sigma splits
        for n in b.seed.ns:
            assert sigma(b.a * n) == sigma(b.a) * sigma(n)


def test_construct_reads_sigma_from_covering_sieve(monkeypatch):
    # a sieve covering every member serves the seed ratio and the re-proof,
    # so no member is factorized
    sieve = build_sigma_sieve(116 * 2000)

    def no_factorize(n):
        raise AssertionError(f"factorize({n}) called although the sieve covers it")

    monkeypatch.setattr(arith, "factorize", no_factorize)
    built = construct_multiamicable([seed_ratio((1, 2), (104, 116), sieve)], 2000, sieve=sieve)
    assert [b.a for b in built] == find_multipliers(Fraction(8, 5), 2000, (104, 116), sieve)
    assert built


def test_construct_without_a_sieve_shares_one_build(monkeypatch):
    # a library caller passing no sieve gets one sigma table for the whole
    # seed list, built to the a-bound, and none when no seed can have a
    # multiplier within it
    sieve = build_sigma_sieve(3000)
    seeds = find_seed_tuples((1, 2), 3000, sieve, a_bound=3000)
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_sigma_sieve(*args, **kwargs)

    monkeypatch.setattr(sieve_module, "build_sigma_sieve", counted)
    built = construct_multiamicable(seeds, 3000)
    assert len(seeds) > 1 and len(builds) == 1
    assert built == construct_multiamicable(seeds, 3000, sieve)
    wide = [seed for seed in seeds if seed.target.denominator > 1]
    assert wide and construct_multiamicable(wide, 1) == [] and len(builds) == 1


def test_find_seed_tuples(sieve_1k):
    seeds = find_seed_tuples((1, 2), 120, sieve_1k)
    pairs = [s.ns for s in seeds]
    assert (104, 116) in pairs
    assert pairs == sorted(pairs)
    for s in seeds:
        assert s.target >= 1
        assert all(a < b for a, b in zip(s.ns, s.ns[1:]))
        sig = oracles.divisor_sigma(s.ns[0])
        assert all(oracles.divisor_sigma(n) == sig for n in s.ns)
        assert s.target == Fraction(sum(a * n for a, n in zip(s.alphas, s.ns)), sig)


def test_find_seed_tuples_small_limit_empty(sieve_1k):
    assert find_seed_tuples((1, 2), 10, sieve_1k) == []


def test_find_seed_tuples_includes_other_table_seed():
    seeds = find_seed_tuples((1, 2), 2300)
    assert (2140, 2272) in [s.ns for s in seeds]


def test_find_seed_tuples_sieve_too_small(sieve_1k):
    with pytest.raises(CoverageError):
        find_seed_tuples((1, 2), 2000, sieve_1k)
    # the ratio table reads sigma up to the a-bound
    with pytest.raises(CoverageError):
        find_seed_tuples((1, 2), 100, sieve_1k, 2000)


def test_find_seed_tuples_requires_k_at_least_two(sieve_1k):
    with pytest.raises(ValueError):
        find_seed_tuples((2,), 100, sieve_1k)


def _abundancies(bound: int) -> list[Fraction]:
    """sigma(a)/a for a = 1..bound, from the brute-force oracle."""
    return [Fraction(oracles.divisor_sigma(a), a) for a in range(1, bound + 1)]


def test_find_seed_tuples_a_bound_drops_only_seeds_without_multipliers():
    # with an a-bound the seeds kept are some of all seeds, in their order,
    # among them every seed whose target is sigma(a)/a for some a <= a_bound,
    # so the construction over them is the construction over all seeds
    sieve = build_sigma_sieve(3000)
    ratios = _abundancies(3000)
    narrower, built_any = False, False
    for alphas in ((1, 2), (1, 1, 1)):
        every = find_seed_tuples(alphas, 3000, sieve)
        for a_bound in (1, 2, 5, 60, 3000):
            kept = find_seed_tuples(alphas, 3000, sieve, a_bound)
            kept_set, hit = set(kept), set(ratios[:a_bound])
            assert kept == [s for s in every if s in kept_set], (alphas, a_bound)
            assert {s for s in every if s.target in hit} <= kept_set, (alphas, a_bound)
            built = construct_multiamicable(every, a_bound, sieve)
            assert construct_multiamicable(kept, a_bound, sieve) == built
            built_any |= bool(built)
            # fewer seeds than the filter on the target denominator keeps
            narrower |= len(kept) < sum(s.target.denominator <= a_bound for s in every)
    assert narrower and built_any
    assert find_seed_tuples((1, 2), 3000, sieve, 1)
    with pytest.raises(ValueError, match="bound must be >= 1"):
        find_seed_tuples((1, 2), 3000, sieve, 0)


def test_find_seed_tuples_matches_combinations(sieve_10k):
    # every strictly increasing k-subset of each sigma group with target
    # total/sigma >= 1, and given a_bound some of them in the same order,
    # every one whose target is sigma(a)/a with a <= a_bound among them;
    # weights past int64 go through the min(alpha, 6*sigma) form
    groups = {}
    for n in range(1, 3001):
        groups.setdefault(sieve_10k.sigma(n), []).append(n)
    ratios = _abundancies(1000)
    for alphas, limit in (
        ((1, 2), 3000),
        ((2, 1), 3000),
        ((1, 1, 1), 3000),
        ((3, 1, 2), 1500),
        ((1, 2**62), 3000),
        ((2**64 + 3, 5), 3000),
        ((1, 2**62 + 7, 2**70 + 1), 1500),
    ):
        expected = sorted(
            (combo, target)
            for s, members in groups.items()
            for combo in combinations([n for n in members if n <= limit], len(alphas))
            if (target := Fraction(sum(a * n for a, n in zip(alphas, combo)), s)) >= 1
        )
        assert expected, alphas
        for a_bound in (None, 1, 7, 1000):
            seeds = find_seed_tuples(alphas, limit, sieve_10k, a_bound)
            assert all(s.alphas == alphas for s in seeds)
            found = [(s.ns, s.target) for s in seeds]
            if a_bound is None:
                assert found == expected, alphas
                continue
            found_set, hit = set(found), set(ratios[:a_bound])
            assert found == [e for e in expected if e in found_set], (alphas, a_bound)
            assert {e for e in expected if e[1] in hit} <= found_set, (alphas, a_bound)
