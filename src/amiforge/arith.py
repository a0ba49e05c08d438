"""Exact integer arithmetic: primality, factorization, divisor sums, sieves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

DEFAULT_SIEVE_BUDGET = 2 * 1024**3  # bytes

# Deterministic Miller-Rabin witness set, sound for every n below 3.3e24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Gaps between consecutive trial divisors coprime to 30, starting from 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)

# sigma_beyond factors at most this many values at a time.
_BEYOND_BLOCK = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
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
    """Factor n by trial division on a mod-30 wheel.

    Once the remaining cofactor passes a primality test the loop stops early,
    so semiprimes with one large factor do not pay the full sqrt walk.
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
    while d * d <= n:
        if n % d == 0:
            n = strip(n, d)
            if n > 1 and is_prime(n):
                break
        d += _WHEEL[i]
        i = (i + 1) & 7
    if n > 1:
        factors.append((n, 1))
    return Factorization(value, tuple(factors))


@dataclass(frozen=True, eq=False)
class SigmaSieve:
    """Lookup table of sigma(n) for 1 <= n <= limit.

    The table is marked read-only after construction, so one sieve can be
    shared freely between searches.
    """

    limit: int
    table: np.ndarray

    def covers(self, n: int) -> bool:
        return 1 <= n <= self.limit

    def sigma(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"sigma({n}) outside sieve range 1..{self.limit}")
        return int(self.table[n])

    def as_list(self) -> list[int]:
        """[sigma(1), ..., sigma(limit)]."""
        return self.table[1:].tolist()


def build_sigma_sieve(limit: int, budget_bytes: int = DEFAULT_SIEVE_BUDGET) -> SigmaSieve:
    """Tabulate sigma up to limit by accumulating divisor pairs.

    Each n = d*m with d <= m has the divisor pair (d, m). For every
    d <= isqrt(limit), the table entries n = d*m, m = d, d+1, ..., get d + m
    added in one slice-add; at n = d*d the pair counts d twice, so d is
    taken off once there. That is isqrt(limit) Python iterations and about
    limit*ln(limit)/2 int64 additions. The d + m values are built in place
    in one reusable arange, so the temporaries never exceed one table's
    size: the sieve holds at most two tables, 16 bytes per entry. Every
    entry stays below 2^40 for limit <= 2^31, far from int64 overflow.
    Raises ValueError when the table would not fit the memory budget
    (8 bytes per entry, 2 GiB by default).
    """
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    need = 8 * (limit + 1)
    if need > budget_bytes:
        raise ValueError(
            f"sieve to {limit} needs {need} bytes which exceeds the budget of {budget_bytes}"
        )
    table = np.zeros(limit + 1, dtype=np.int64)
    partner = np.arange(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        pair_sums = partner[d : limit // d + 1]
        pair_sums += d
        table[d * d :: d] += pair_sums
        pair_sums -= d
        table[d * d] -= d
    table.setflags(write=False)
    return SigmaSieve(limit, table)


class CoverageError(ValueError):
    """The provided sieve does not cover the requested scan."""


def covering_sieve(limit: int, sieve: SigmaSieve | None = None) -> SigmaSieve:
    """A sieve covering 1..limit: the caller's own, or a new one when none is given.

    Raises CoverageError when the caller's sieve stops short of limit.
    """
    if sieve is None:
        return build_sigma_sieve(limit)
    if sieve.limit < limit:
        raise CoverageError(
            f"sieve covers 1..{sieve.limit} but the scan needs sigma up to {limit}"
        )
    return sieve


def sigma(n: int, sieve: SigmaSieve | None = None) -> int:
    """Sum of all divisors of n, from the sieve when it covers n."""
    if n < 1:
        raise ValueError("sigma requires n >= 1")
    if sieve is not None and n <= sieve.limit:
        return int(sieve.table[n])
    return factorize(n).sigma()


def beyond_reach(sieve: SigmaSieve) -> int:
    """R^2 with R = min(sieve.limit, 2^28): the largest value sigma_beyond
    accepts, since the sieve holds every prime up to R."""
    return min(sieve.limit, 1 << 28) ** 2


def sigma_beyond(sieve: SigmaSieve, x: np.ndarray) -> np.ndarray:
    """sigma of each value of the int64 array x, sieve.limit < x <= beyond_reach(sieve).

    Trial division by every prime p <= isqrt(max x), all of them within the
    sieve, which marks n >= 2 as prime exactly when sigma(n) = n + 1, so no
    second sieve is built. Each prime strips its full power p^e from the
    cofactors it divides and multiplies their sum by 1 + p + ... + p^e.
    Before p is tried, a cofactor c < p^2 has no prime factor below p and so
    is 1 or a prime; that value leaves the live set, and a prime c
    contributes c + 1.

    int64: x <= R^2 <= 2^56. For x >= 16, sigma(x)/x < e^gamma*ln ln x +
    0.6483/ln ln x (Robin's unconditional bound, n >= 3), a convex function
    of ln ln x in [1.01, 3.66] whose ends are below 2.5 and 6.7, so below 7;
    for x < 16, sigma(x)/x <= sigma(12)/12 < 3. Hence sigma(x) < 7*2^56 <
    2^59. Every prime power p^e formed divides x, and every prime-power
    partial sum and running product is sigma of a divisor of x, so all of
    them stay <= sigma(x); p^2 <= 2^56 in the live-set test.
    Memory: x is taken in blocks of _BEYOND_BLOCK values, so the working
    arrays stay near 8 int64 arrays of one block whatever len(x) is.
    Raises ValueError when a value lies outside that range.
    """
    x = np.asarray(x, dtype=np.int64)
    if len(x) > _BEYOND_BLOCK:
        blocks = range(0, len(x), _BEYOND_BLOCK)
        return np.concatenate([sigma_beyond(sieve, x[i : i + _BEYOND_BLOCK]) for i in blocks])
    out = np.empty(len(x), dtype=np.int64)
    if not len(x):
        return out
    if x.min() <= sieve.limit or x.max() > beyond_reach(sieve):
        raise ValueError(
            f"sigma_beyond needs values in ({sieve.limit}, {beyond_reach(sieve)}]"
        )
    top = math.isqrt(int(x.max()))
    candidates = np.arange(2, top + 1)
    primes = candidates[sieve.table[2 : top + 1] == candidates + 1]
    at, c, acc = np.arange(len(x)), x.copy(), np.ones(len(x), dtype=np.int64)

    def finish(rows):
        out[at[rows]] = acc[rows] * np.where(c[rows] > 1, c[rows] + 1, 1)

    for p in primes.tolist():
        done = c < p * p
        if done.any():
            finish(done)
            live = ~done
            at, c, acc = at[live], c[live], acc[live]
        hit = np.flatnonzero(c % p == 0)
        if not len(hit):
            continue
        rest, power, total = c[hit] // p, np.full(len(hit), p), np.full(len(hit), 1 + p)
        more = np.flatnonzero(rest % p == 0)
        while len(more):
            rest[more] //= p
            power[more] *= p
            total[more] += power[more]
            more = more[rest[more] % p == 0]
        c[hit], acc[hit] = rest, acc[hit] * total
    finish(slice(None))
    return out


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
    partial = math.fsum(1.0 / m**s for m in range(n, 0, -1))
    lo = (n + 1) ** (1 - s) / (s - 1)
    hi = n ** (1 - s) / (s - 1)
    return partial + (lo + hi) / 2.0


def parse_factored(text: str) -> int:
    """Parse a factored form like '2^3*13' (or a plain integer) into its value."""
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
        total *= b**e
    return total
