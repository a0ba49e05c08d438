"""The sigma table: a numpy sieve of sigma over the odd numbers up to a
limit, read as sigma(n) for every n <= limit, and one exact vectorised pass
for sigma past its end."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import DEFAULT_SIEVE_BUDGET

MAX_SIEVE_LIMIT = 1 << 28  # sigma(n) < 2^31 up to it, so the table is int32

# Every pass over the table, the build included, works in blocks of at most
# this many entries, so what it holds besides the table is a fixed size.
# 2^14 entries make a block of int64 arrays 128 KiB each; weighted_tuples
# gathers its partners past the table into batches of at least this many,
# so smaller blocks do not mean more sigma_beyond passes.
SEGMENT = 1 << 14


@dataclass(frozen=True, eq=False)
class SigmaSieve:
    """sigma(n) for 0 <= n <= limit, held as sigma of the odd numbers only.

    odd[j] = sigma(2j - 1) for 1 <= j <= (limit + 1) // 2, and odd[0] = 0.
    sigma is multiplicative and sigma(2^e) = 2^(e+1) - 1, so n = b*m with
    b = n & -n, the largest power of two dividing n, and m odd has sigma(n)
    = odd[(m + 1) // 2] * (2b - 1): half the entries of a table of every
    sigma(n). read and sigma are its only readers. The table is int32 and
    marked read-only after construction, so one sieve can be shared freely
    between searches.
    """

    limit: int
    odd: np.ndarray

    def covers(self, n: int) -> bool:
        return 1 <= n <= self.limit

    def sigma(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"sigma({n}) outside sieve range 1..{self.limit}")
        b = n & -n
        return int(self.odd[(n // b + 1) >> 1]) * int(2 * b - 1)

    def read(self, index) -> np.ndarray:
        """sigma(n) in int64, which every kernel computes in, for each n of
        index: an int array or a slice of 0..limit, with sigma(0) = 0. An n
        of an array outside 0..limit raises IndexError; a slice stops at
        limit, as a slice of a table would.

        Each n reads the entry (m + 1) / 2 of its odd part m = n / b, b = n &
        -n; n = 0 has b = 0, divides by 1 and reads entry 0. int64: every
        entry is sigma of an odd m <= 2^28, below 2^31, and the product with
        2b - 1 is sigma(n), which is below 2^31 too (see build_sigma_sieve).
        """
        if isinstance(index, slice):
            span = range(self.limit + 1)[index]
            n = np.arange(span.start, span.stop, span.step, dtype=np.int64)
        else:
            n = np.asarray(index, dtype=np.int64)
            if n.size and (n.min() < 0 or n.max() > self.limit):
                raise IndexError(f"sigma read outside 0..{self.limit}")
        b = n & -n
        return self.odd[(n // np.maximum(b, 1) + 1) >> 1] * (2 * b - 1)

    def blocks(self, stop: int, step: int = 1):
        """(n, sigma(n)) as int64 arrays for n = step, 2*step, ... <= stop, a
        block of SEGMENT at a time; read raises IndexError for an n past limit."""
        for lo in range(step, stop + 1, step * SEGMENT):
            n = np.arange(lo, min(lo + step * SEGMENT, stop + 1), step, dtype=np.int64)
            yield n, self.read(n)


def build_sigma_sieve(limit: int, budget_bytes: int = DEFAULT_SIEVE_BUDGET) -> SigmaSieve:
    """Tabulate sigma of the odd numbers up to limit in int32 by
    accumulating divisor pairs.

    Each odd n = d*m with d <= m has the divisor pair (d, m), both odd, as
    every divisor of an odd number is. Entry j, for n = 2j - 1, starts at
    n + 1 = 2j, the pair (1, n), with sigma(1) = 1 and entry 0 = 0. For
    each odd 3 <= d <= isqrt(limit), the entries of n = d*m, m = d, d+2,
    ..., up to limit/d, which lie d apart at (d*m + 1)/2, get d + m added by
    strided slice-adds, one per segment of at most SEGMENT values of m, each
    an int32 arange of its d + m; at n = d*d the pair counts d twice, so d
    is taken off. int32: every entry is a partial sum of sigma(n) plus at
    most d, and sigma(n)/n < 5.6 for n <= MAX_SIEVE_LIMIT = 2^28 by Robin's
    bound (see sigma_beyond), so sigma(n) < 2^31 for every n, odd or not;
    every d + m is at most limit. SigmaSieve.read forms sigma(n) in int64.
    The table takes 2 bytes per n and a segment at most 4 more, so the
    budget's charge of 8 bytes per entry (2 GiB by default) is an upper
    bound on the whole build and the table it leaves. Raises ValueError,
    before any allocation, when limit exceeds 2^28 or the sieve would not
    fit the budget.
    """
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"sieve limit {limit} exceeds 2^28 = {MAX_SIEVE_LIMIT}, past which sigma may not fit int32")
    need = 8 * (limit + 1)
    if need > budget_bytes:
        raise ValueError(
            f"sieve to {limit} needs {need} bytes which exceeds the budget of {budget_bytes}"
        )
    odd = np.arange(0, limit + 2, 2, dtype=np.int32)
    odd[1] = 1
    for d in range(3, math.isqrt(limit) + 1, 2):
        end = limit // d + 1
        for m in range(d, end, 2 * SEGMENT):
            count = min(SEGMENT, (end - m + 1) // 2)
            start = (d * m + 1) // 2
            odd[start : start + d * count : d] += np.arange(d + m, d + m + 2 * count, 2, dtype=np.int32)
        odd[(d * d + 1) // 2] -= d
    odd.setflags(write=False)
    return SigmaSieve(limit, odd)


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


def sigma_beyond(sieve: SigmaSieve, x: np.ndarray) -> np.ndarray:
    """sigma of each value of the int64 array x, sieve.limit < x <= R^2 with
    R = min(sieve.limit, 2^28), since the sieve holds every prime up to R.

    Trial division by every prime p <= isqrt(max x), all of them within the
    sieve, which marks n >= 2 as prime exactly when sigma(n) = n + 1, so no
    second sieve is built. Each prime strips its full power p^e from the
    cofactors it divides and multiplies their sum by 1 + p + ... + p^e.
    Before p is tried, and after the last prime with p the next one, a
    cofactor c has no prime factor below p, so it is coprime to the
    stripped part and contributes sigma(c): the table's entry when c <=
    sieve.limit, and c + 1 when c < p^2, as c is then a prime. Such rows
    leave the live set before every eighth prime, not every prime, which
    saves a pass per prime and stays exact: a cofactor left in the set is
    only ever divided by primes it holds, and one that reaches 1
    contributes sigma(1) = 1.

    int64: x <= R^2 <= 2^56. For x >= 16, sigma(x)/x < e^gamma*ln ln x +
    0.6483/ln ln x (Robin's unconditional bound, n >= 3), a convex function
    of ln ln x in [1.01, 3.66] whose ends are below 2.5 and 6.7, so below 7;
    for x < 16, sigma(x)/x <= sigma(12)/12 < 3. Hence sigma(x) < 7*2^56 <
    2^59. Every prime power p^e formed divides x, and every prime-power
    partial sum and running product is sigma of a divisor of x, so all of
    them stay <= sigma(x); p^2 <= 2^56 in the live-set test.
    Memory: the working arrays are about 8 int64 arrays of len(x); the one
    caller, search.weighted_tuples, passes a batch of at least SEGMENT and
    fewer than 2*SEGMENT partners, and a last batch of the rest.
    Raises ValueError when a value lies outside that range.
    """
    x = np.asarray(x, dtype=np.int64)
    out = np.empty(len(x), dtype=np.int64)
    if not len(x):
        return out
    reach = min(sieve.limit, 1 << 28) ** 2
    if x.min() <= sieve.limit or x.max() > reach:
        raise ValueError(f"sigma_beyond needs values in ({sieve.limit}, {reach}]")
    top = math.isqrt(int(x.max()))
    candidates = np.arange(2, top + 1)
    primes = candidates[sieve.read(slice(2, top + 1)) == candidates + 1]
    at, c, acc = np.arange(len(x)), x.copy(), np.ones(len(x), dtype=np.int64)

    def finish(rows):
        rest = c[rows]
        out[at[rows]] = acc[rows] * np.where(rest <= sieve.limit, sieve.read(np.minimum(rest, sieve.limit)), rest + 1)

    for i, p in enumerate(primes.tolist()):
        if i % 8 == 0 and (done := (c <= sieve.limit) | (c < p * p)).any():
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
