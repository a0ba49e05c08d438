import math
import random
from fractions import Fraction

import numpy as np
import pytest

from amiforge import arith
from amiforge.arith import (
    Factorization,
    abundancy,
    aliquot,
    factorize,
    gcd_list,
    is_prime,
    lcm_list,
    parse_factored,
    sigma,
    zeta_approx,
)
from amiforge.sieve import SEGMENT, build_sigma_sieve, sigma_beyond

import oracles

# reference constants, correct to well past 1e-9
ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(1560).factors == ((2, 3), (3, 1), (5, 1), (13, 1))
    assert factorize(7776).factors == ((2, 5), (3, 5))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorization_invariants():
    rng = random.Random(7)
    samples = list(range(1, 300)) + [rng.randrange(1, 10**6) for _ in range(120)]
    samples += [2**31 - 1, 2**32 + 1, 10**12 + 39]
    for n in samples:
        f = factorize(n)
        assert f.value == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in f.factors)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        assert prod == n


def test_factorization_sigma_matches_divisor_loop():
    for n in range(1, 600):
        assert factorize(n).sigma() == oracles.divisor_sigma(n)


def test_is_prime_against_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == oracles.trial_is_prime(n), n


def test_is_prime_larger_values():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)  # 641 * 6700417
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)
    assert is_prime(10**12 + 39)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def test_is_prime_refuses_past_its_proven_range():
    # psi_12 is a strong pseudoprime to every prime base up to 37; base 41
    # exposes it, and the 13 bases prove nothing from psi_13 on
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    assert is_prime(2**61 - 1)
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="proven range"):
            is_prime(n)
    assert arith.PRIME_TEST_BOUND == PSI_13


def test_factorize_returns_only_proven_factors(monkeypatch):
    # a cofactor left past the trial bound is kept only when is_prime proves
    # it, below psi_13; anything else raises instead of a long walk
    assert factorize(1000003 * 1000033).factors == ((1000003, 1), (1000033, 1))
    monkeypatch.setattr(arith, "_TRIAL_BOUND", 1000)
    factorize.cache_clear()
    try:
        assert factorize(7 * 997 * 1013).factors == ((7, 1), (997, 1), (1013, 1))
        assert factorize(2**5 * (10**12 + 39)).factors == ((2, 5), (10**12 + 39, 1))
        for n in (1009 * 1013, 7 * PSI_12, 7 * PSI_13, 3 * (2**89 - 1), (2**89 - 1) ** 2):
            with pytest.raises(ValueError, match="not proven prime"):
                factorize(n)
    finally:
        factorize.cache_clear()


def test_sigma_examples():
    assert sigma(6) == 12
    assert sigma(220) == 504
    assert sigma(1) == 1


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma(0)


def test_sigma_multiplicative_on_coprime_pairs():
    rng = random.Random(11)
    done = 0
    while done < 300:
        m = rng.randrange(1, 3000)
        n = rng.randrange(1, 3000)
        if math.gcd(m, n) != 1:
            continue
        assert sigma(m * n) == sigma(m) * sigma(n)
        done += 1


def test_aliquot_examples():
    assert aliquot(284) == 220
    assert aliquot(1) == 0
    assert aliquot(12) == 16


def test_sieve_small_table():
    sieve = build_sigma_sieve(10)
    assert sieve.read(slice(1, None)).tolist() == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
    assert sieve.limit == 10
    assert sieve.covers(10)
    assert not sieve.covers(11)
    assert sieve.sigma(6) == 12
    assert aliquot(6, sieve) == 6


def test_sieve_limit_one():
    sieve = build_sigma_sieve(1)
    assert sieve.read(slice(1, None)).tolist() == [1]


def test_sieve_amicable_entries():
    sieve = build_sigma_sieve(300)
    assert sieve.sigma(220) == 504
    assert sieve.sigma(284) == 504


def test_sieve_agrees_with_divisor_loop(sieve_10k):
    for n in range(1, 2001):
        expect = oracles.divisor_sigma(n)
        assert sieve_10k.sigma(n) == expect
        assert sigma(n) == expect
        assert sigma(n, sieve_10k) == expect
    # every limit 1..200 lies at, just below or just above a perfect square,
    # where the divisor pair (d, d) is counted once
    for limit in range(1, 201):
        sieve = build_sigma_sieve(limit)
        assert sieve.read(np.array([0])).tolist() == [0]
        assert sieve.read(slice(1, None)).tolist() == [oracles.divisor_sigma(n) for n in range(1, limit + 1)], limit


def test_sieve_out_of_range():
    sieve = build_sigma_sieve(10)
    with pytest.raises(ValueError):
        sieve.sigma(11)
    with pytest.raises(ValueError):
        sieve.sigma(0)


def test_sigma_falls_back_beyond_sieve():
    sieve = build_sigma_sieve(10)
    assert sigma(220, sieve) == 504


def test_sieve_segment_edges():
    # the odd runs m = d, d+2, ..., up to limit/d of odd d are added in
    # segments of SEGMENT values of m, so past 2 * SEGMENT a segment edge
    # falls at each m = d + 2*SEGMENT*j; for every odd d, each n = d*m at
    # either side of an edge, the last m of the run, every square d*d and
    # the last entries agree with the divisor loop
    limit = 300_000
    sieve = build_sigma_sieve(limit)
    assert (limit // 3 - 3) // 2 > 2 * SEGMENT
    edges = [
        d * m
        for d in range(3, math.isqrt(limit) + 1, 2)
        for j in range(1, limit // d // (2 * SEGMENT) + 1)
        for m in (d + 2 * j * SEGMENT - 2, d + 2 * j * SEGMENT)
        if d * m <= limit
    ]
    assert len(edges) > 6
    ends = [d * (limit // d - (limit // d + 1) % 2) for d in range(3, math.isqrt(limit) + 1, 2)]
    squares = [d * d for d in range(2, math.isqrt(limit) + 1)]
    n = edges + ends + squares + [limit - 1, limit]
    assert sieve.read(np.array(n)).tolist() == [oracles.divisor_sigma(v) for v in n]


def test_sieve_powers_of_two():
    # sigma(2^e) = 2^(e+1) - 1 is the factor every even n is read with
    limit = 2**17 + 3
    sieve = build_sigma_sieve(limit)
    powers = [2**e for e in range(18)]
    expected = [oracles.divisor_sigma(v) for v in powers]
    assert sieve.read(np.array(powers)).tolist() == expected
    assert [sieve.sigma(v) for v in powers] == expected
    assert sieve.read(slice(None))[powers].tolist() == expected


def test_sieve_slices_from_zero_read_sigma_zero():
    sieve = build_sigma_sieve(50)
    table = [0] + [oracles.divisor_sigma(n) for n in range(1, 51)]
    for k in range(53):
        assert sieve.read(slice(0, k)).tolist() == table[:k], k
        assert sieve.read(np.arange(min(k, 51))).tolist() == table[:k], k
    assert sieve.read(slice(0, 1)).dtype == np.int64


def test_sieve_strided_slices_of_abundancy_solutions():
    # search.abundancy_solutions reads sigma(j*den) for j in lo..hi - 1 as
    # the slice (lo*den, hi*den, den); here in blocks of 97 values of j
    limit = 3000
    sieve = build_sigma_sieve(limit)
    for den in (1, 2, 3, 4, 5, 6, 8, 12, 120, 1024, 3000):
        count = limit // den
        for lo in range(1, count + 1, 97):
            hi = min(lo + 97, count + 1)
            expected = [oracles.divisor_sigma(j * den) for j in range(lo, hi)]
            assert sieve.read(slice(lo * den, hi * den, den)).tolist() == expected, (den, lo)
    # and other progressions, from every start
    table = [0] + [oracles.divisor_sigma(n) for n in range(1, limit + 1)]
    for step in (1, 2, 3, 4, 6, 8, 12, 48, 96):
        for start in range(17):
            assert sieve.read(slice(start, None, step)).tolist() == table[start::step], (start, step)


def test_sieve_read_past_the_limit_raises():
    # at an odd limit, limit + 1 = 2*m with m <= limit, whose entry exists
    for limit in (10, 11):
        sieve = build_sigma_sieve(limit)
        for bad in ([limit + 1], [1, limit + 1], [-1]):
            with pytest.raises(IndexError):
                sieve.read(np.array(bad))
        assert sieve.read(slice(limit - 1, limit + 5)).tolist() == [oracles.divisor_sigma(n) for n in (limit - 1, limit)]


def test_sigma_beyond_cofactor_divided_by_itself():
    # the live set shrinks before every eighth prime only, so a prime
    # cofactor below p^2 can stay in it until that prime divides it: over a
    # sieve to 10, 14 = 2*7 keeps the cofactor 7 until p = 7; over a sieve
    # to 40, 899 = 29*31 passes the check at p = 23 and keeps 31 < 29^2
    for limit, x in ((10, [14, 97, 100]), (40, [899, 2 * 3 * 7, 3 * 19, 1600])):
        assert sigma_beyond(build_sigma_sieve(limit), np.array(x)).tolist() == [oracles.divisor_sigma(v) for v in x]


def test_sigma_beyond_matches_divisor_loop():
    # every value the vectorised pass accepts over a sieve to L: (L, L^2]
    limit = 40
    x = np.arange(limit + 1, limit * limit + 1)
    expected = [oracles.divisor_sigma(v) for v in x.tolist()]
    assert sigma_beyond(build_sigma_sieve(limit), x).tolist() == expected


def test_sigma_beyond_random_values(sieve_10k):
    rng = random.Random(10)
    x = [rng.randint(10**4 + 1, 10**8) for _ in range(300)]
    assert sigma_beyond(sieve_10k, np.array(x)).tolist() == [oracles.divisor_sigma(v) for v in x]


def test_sigma_beyond_prime_powers_and_primes():
    # 37 is the largest prime <= 40, so 37^2 = 1369 needs every sieve prime
    sieve = build_sigma_sieve(40)
    x = [41, 43, 47, 1597, 64, 81, 125, 243, 343, 625, 729, 1024, 1331, 1369, 2 * 37 * 19]
    assert sigma_beyond(sieve, np.array(x)).tolist() == [oracles.divisor_sigma(v) for v in x]


def test_sigma_beyond_range():
    sieve = build_sigma_sieve(40)
    empty = sigma_beyond(sieve, np.array([], dtype=np.int64))
    assert empty.dtype == np.int64 and len(empty) == 0
    for bad in ([40], [41, 1601]):
        with pytest.raises(ValueError, match="sigma_beyond"):
            sigma_beyond(sieve, np.array(bad))


def test_sieve_validation():
    with pytest.raises(ValueError):
        build_sigma_sieve(0)
    with pytest.raises(ValueError, match="budget"):
        build_sigma_sieve(10**6, budget_bytes=100)
    with pytest.raises(ValueError, match="exceeds 2\\^28"):
        build_sigma_sieve(2**28 + 1, budget_bytes=2**40)


def test_sieve_table_read_only():
    sieve = build_sigma_sieve(10)
    with pytest.raises(ValueError):
        sieve.odd[3] = 99


def test_abundancy_examples():
    assert abundancy(15) == Fraction(8, 5)
    assert abundancy(1) == Fraction(1)
    assert abundancy(6) == Fraction(2, 1)


def test_abundancy_divisor_identity():
    # sigma(n)/n == sum of 1/u over divisors u of n
    for n in range(1, 2001):
        assert abundancy(n) == sum(Fraction(1, u) for u in oracles.divisors(n))


def test_gcd_lcm_examples():
    assert gcd_list([104, 15]) == 1
    assert lcm_list([4, 6]) == 12


def test_gcd_lcm_validation():
    for fn in (gcd_list, lcm_list):
        with pytest.raises(ValueError):
            fn([])
        with pytest.raises(ValueError):
            fn([6, 0])


def test_gcd_lcm_pair_identity():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randrange(1, 500)
        n = rng.randrange(1, 500)
        assert gcd_list([m, n]) * lcm_list([m, n]) == m * n
    # identity for m = 24 as stated
    for n in range(1, 100):
        assert gcd_list([24, n]) * lcm_list([24, n]) == 24 * n


def test_gcd_lcm_divisibility_properties():
    rng = random.Random(29)
    for _ in range(100):
        vals = [rng.randrange(1, 50) for _ in range(rng.randrange(1, 5))]
        g = gcd_list(vals)
        l = lcm_list(vals)
        assert all(v % g == 0 for v in vals)
        assert all(l % v == 0 for v in vals)


def test_zeta_values():
    assert abs(zeta_approx(2, 1e-9) - ZETA2) < 1e-9
    assert abs(zeta_approx(3, 1e-9) - ZETA3) < 1e-9
    assert abs(zeta_approx(5, 1e-9) - ZETA5) < 1e-9


def test_zeta_validation():
    with pytest.raises(ValueError):
        zeta_approx(1, 1e-9)
    with pytest.raises(ValueError):
        zeta_approx(2, 0.0)


def test_zeta_past_the_float_range():
    # 1.0 / m**s overflows once m**s passes the float range; the term is then
    # the int true division, correctly rounded to a subnormal or to 0.0
    assert arith._inverse_power(2, 10) == 1 / 1024
    assert arith._inverse_power(2, 1050) == 2.0**-1050 > 0
    assert arith._inverse_power(3, 1050) == 0.0
    assert zeta_approx(1050, 1e-9) == 1.0
    assert zeta_approx(1199, 1e-9) == 1.0


def test_parse_factored():
    assert parse_factored("2^3*13") == 104
    assert parse_factored("104") == 104
    assert parse_factored("1") == 1
    assert parse_factored(" 2^2*29 ") == 116


def test_parse_factored_refuses_long_values():
    # the cap is checked before the power is formed, so 2^99999999 is cheap
    top = arith.MAX_MEMBER_BITS
    assert parse_factored(f"2^{top - 1}") == 2 ** (top - 1)
    assert parse_factored(f"3*2^{top - 2}") == 3 * 2 ** (top - 2)
    assert parse_factored("1^99999999") == 1
    for text in (f"2^{top}", "2^99999999", f"3*2^{top - 1}", f"2^{top - 1}*2", f"3^{top}", "2^900*2^900"):
        with pytest.raises(ValueError, match="longer than"):
            parse_factored(text)


def test_parse_factored_rejects_garbage():
    for text in ("", "2^", "^3", "2^0", "0", "-5", "a*b", "2**3", "3*"):
        with pytest.raises(ValueError):
            parse_factored(text)


def test_factorization_is_frozen():
    f = factorize(12)
    assert isinstance(f, Factorization)
    with pytest.raises(Exception):
        f.value = 13
