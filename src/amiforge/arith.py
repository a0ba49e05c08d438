"""Exact integer arithmetic: primality, factorization, divisor sums.

This module imports no numpy, so commands that build no sigma table (check,
verify-tables) start without it; the numpy sigma table lives in sieve.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sieve import SigmaSieve

DEFAULT_SIEVE_BUDGET = 2 * 1024**3  # bytes

# Miller-Rabin with the first 13 primes as bases is deterministic below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster, 2015). The first
# 12 are not enough past psi_12 = 318665857834031151167461, a strong
# pseudoprime to every base up to 37.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981

# factorize tries the trial divisors d <= _TRIAL_BOUND at most, so every
# n < 10^14 factors completely, and a cofactor it cannot prove prime is
# refused after about 2.7 * 10^6 divisions.
_TRIAL_BOUND = 10**7

# parse_factored refuses a value of more bits than this, which keeps each of
# those divisions short.
MAX_MEMBER_BITS = 1024

# Gaps between consecutive trial divisors coprime to 30, starting from 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIME_TEST_BOUND;
    raises ValueError at or above it, where the bases prove nothing."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is past the proven range of the primality test")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition; factors are (prime, exponent) pairs, primes ascending."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def sigma(self) -> int:
        """Sum of all divisors, from the multiplicative closed form."""
        total = 1
        for p, e in self.factors:
            total *= (p ** (e + 1) - 1) // (p - 1)
        return total


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Factor n by trial division on a mod-30 wheel, up to _TRIAL_BOUND.

    Every factor returned is proven prime: a cofactor with no divisor
    d <= isqrt(cofactor) is prime, and so is one below PRIME_TEST_BOUND
    that is_prime accepts. Once the remaining cofactor passes that test the
    loop stops early, so semiprimes with one large factor do not pay the
    full sqrt walk. A cofactor left past the trial bound that is not proven
    prime raises ValueError instead of a long walk or an unproven factor.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    value = n
    factors: list[tuple[int, int]] = []

    def strip(m: int, p: int) -> int:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
        return m

    for p in (2, 3, 5):
        n = strip(n, p)
    d, i = 7, 0
    while d * d <= n and d <= _TRIAL_BOUND:
        if n % d == 0:
            n = strip(n, d)
            if 1 < n < PRIME_TEST_BOUND and is_prime(n):
                break
        d += _WHEEL[i]
        i = (i + 1) & 7
    if n > 1:
        if d * d <= n and not (n < PRIME_TEST_BOUND and is_prime(n)):
            raise ValueError(f"cannot factor {value}: {n} has no factor up to {_TRIAL_BOUND} and is not proven prime")
        factors.append((n, 1))
    return Factorization(value, tuple(factors))


def sigma(n: int, sieve: SigmaSieve | None = None) -> int:
    """Sum of all divisors of n, from the sieve when it covers n."""
    if n < 1:
        raise ValueError("sigma requires n >= 1")
    if sieve is not None and n <= sieve.limit:
        return sieve.sigma(n)
    return factorize(n).sigma()


def aliquot(n: int, sieve: SigmaSieve | None = None) -> int:
    """Sum of proper divisors: sigma(n) - n."""
    return sigma(n, sieve) - n


def abundancy(n: int) -> Fraction:
    """sigma(n)/n as an exact rational in lowest terms."""
    return Fraction(sigma(n), n)


def gcd_list(values) -> int:
    vals = list(values)
    if not vals:
        raise ValueError("gcd_list requires at least one value")
    if min(vals) < 1:
        raise ValueError("gcd_list requires positive integers")
    return math.gcd(*vals)


def lcm_list(values) -> int:
    vals = list(values)
    if not vals:
        raise ValueError("lcm_list requires at least one value")
    if min(vals) < 1:
        raise ValueError("lcm_list requires positive integers")
    return math.lcm(*vals)


def _inverse_power(m: int, s: int) -> float:
    """1/m^s as a float: 1.0 / m**s, or the int true division 1 / m**s, which
    rounds to 0.0 or a subnormal, where m**s is too large for a float."""
    try:
        return 1.0 / m**s
    except OverflowError:
        return 1 / m**s


def zeta_approx(s: int, eps: float) -> float:
    """zeta(s) for integer s >= 2, within eps of the true value.

    Partial sum to N plus the midpoint of the integral tail bracket
    [(N+1)^(1-s), N^(1-s)] / (s-1); the truncation error is then at most
    N^(-s)/2, and N is chosen so that this sits below eps/2. Terms are summed
    with math.fsum, keeping the floating error far below the slack.
    """
    if s < 2:
        raise ValueError("zeta_approx requires integer s >= 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = math.ceil((1.0 / eps) ** (1.0 / s)) + 1
    partial = math.fsum(_inverse_power(m, s) for m in range(n, 0, -1))
    lo = (n + 1) ** (1 - s) / (s - 1)
    hi = n ** (1 - s) / (s - 1)
    return partial + (lo + hi) / 2.0


def parse_factored(text: str) -> int:
    """Parse a factored form like '2^3*13' (or a plain integer) into its value.

    Raises ValueError when the value has more than MAX_MEMBER_BITS bits. A
    factor that would take the product past them by its lower bound
    total * 2^(e*(bit_length(b) - 1)) is refused before b**e is computed,
    so no power of more than twice MAX_MEMBER_BITS bits is ever formed."""
    t = text.strip()
    if not t:
        raise ValueError("empty integer expression")
    total = 1
    for token in t.split("*"):
        base, caret, exp = token.partition("^")
        try:
            b = int(base)
            e = int(exp) if caret else 1
        except ValueError:
            raise ValueError(f"malformed factor {token!r} in {text!r}") from None
        if b < 1 or e < 1:
            raise ValueError(f"invalid factor {token!r} in {text!r}")
        if total.bit_length() + e * (b.bit_length() - 1) > MAX_MEMBER_BITS:
            raise ValueError(f"{text!r} is longer than {MAX_MEMBER_BITS} bits")
        total *= b**e
    if total.bit_length() > MAX_MEMBER_BITS:
        raise ValueError(f"{text!r} is longer than {MAX_MEMBER_BITS} bits")
    return total
