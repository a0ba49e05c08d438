"""Brute-force reference implementations used to cross-check the package.

Everything here is deliberately independent of amiforge: sigma comes from a
plain divisor loop and every family equation is restated from scratch, so an
agreement between the two sides actually means something.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

# two large primes for the wgm residue prefilter
_P1 = (1 << 61) - 1
_P2 = 2305843009213693967


@lru_cache(maxsize=None)
def divisor_sigma(n: int) -> int:
    """Sum of divisors by sqrt pairing. No multiplicative shortcut."""
    assert n >= 1
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            other = n // d
            if other != d:
                total += other
        d += 1
    return total


def sigma_ratio_power_sum(x: int, k: int) -> Fraction:
    """sum_{n<=x} (sigma(n)/n)^k exactly, as Fractions added pairwise so that
    the operands stay small until the last few rounds."""
    terms = [Fraction(divisor_sigma(n) ** k, n**k) for n in range(1, x + 1)]
    while len(terms) > 1:
        terms = [sum(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    return terms[0]


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _sig_table(limit: int) -> list[int]:
    return [0] + [divisor_sigma(n) for n in range(1, limit + 1)]


def _wgm_holds(t, sg) -> bool:
    """sigma(n_1)^n_1 * ... = (sum n)^(sum n), residue filter then exact."""
    total = sum(t)
    for mod in (_P1, _P2):
        lhs = 1
        for n in t:
            lhs = lhs * pow(sg[n] % mod, n, mod) % mod
        if lhs != pow(total % mod, total, mod):
            return False
    lhs = 1
    for n in t:
        lhs *= sg[n] ** n
    return lhs == total**total


def naive_family(kind, limit, k=None, p=None, q=None, alphas=None):
    """All tuples of the family with every member <= limit, sorted.

    Pairs with distinguished roles (cohen, alpha-beta) are deduplicated to
    m <= n only when the weights coincide, mirroring the canonical form.
    """
    sg = _sig_table(limit)
    out = []

    if kind == "perfect":
        return [(n,) for n in range(1, limit + 1) if sg[n] == 2 * n]

    if kind == "amicable-number":
        for n in range(2, limit + 1):
            s = sg[n]
            if s == 2 * n:
                continue
            if s - n >= 1 and divisor_sigma(s - n) == s:
                out.append((n,))
        return out

    if kind == "amicable-pair":
        for m in range(1, limit + 1):
            for n in range(m, limit + 1):
                if sg[m] == m + n and sg[n] == m + n:
                    out.append((m, n))
        return out

    if kind == "dickson":
        for t in combinations_with_replacement(range(1, limit + 1), k):
            total = sum(t)
            if all(sg[n] == total for n in t):
                out.append(t)
        return out

    if kind == "yanney":
        for t in combinations_with_replacement(range(1, limit + 1), k):
            total = sum(t)
            if all((k - 1) * sg[n] == total for n in t):
                out.append(t)
        return out

    if kind == "cohen-pair":
        a, b = alphas
        for m in range(1, limit + 1):
            for n in range(1, limit + 1):
                if a == b and n < m:
                    continue
                if sg[m] - m == a * n and sg[n] - n == b * m:
                    out.append((m, n))
        return sorted(out)

    if kind == "multiamicable":
        k = len(alphas)
        gen = (
            combinations(range(1, limit + 1), k)
            if k > 1
            else ((n,) for n in range(1, limit + 1))
        )
        for t in gen:
            target = sum(a * n for a, n in zip(alphas, t))
            if all(sg[n] == target for n in t):
                out.append(t)
        return out

    if kind == "alpha-beta":
        a, b = alphas
        for m in range(1, limit + 1):
            for n in range(1, limit + 1):
                if a == b and n < m:
                    continue
                an, bm = a * n, b * m
                if divisor_sigma(an) - an == m and divisor_sigma(bm) - bm == n:
                    out.append((m, n))
        return sorted(out)

    if kind == "pm":
        for t in combinations_with_replacement(range(1, limit + 1), k):
            if sum(sg[n] ** p for n in t) == q * sum(t) ** p:
                out.append(t)
        return out

    if kind == "wpm":
        for t in combinations_with_replacement(range(1, limit + 1), k):
            if sum(n * sg[n] ** p for n in t) == sum(t) ** (p + 1):
                out.append(t)
        return out

    if kind == "gm":
        for t in combinations_with_replacement(range(1, limit + 1), k):
            prod = 1
            for n in t:
                prod *= sg[n]
            if prod == sum(t) ** k:
                out.append(t)
        return out

    if kind == "wgm":
        for t in combinations_with_replacement(range(1, limit + 1), k):
            if _wgm_holds(t, sg):
                out.append(t)
        return out

    if kind == "hm":
        # q * prod(sigma^p) == (sum n)^p * sum_i prod_{j != i}(sigma^p)
        for t in combinations_with_replacement(range(1, limit + 1), k):
            prod = 1
            for n in t:
                prod *= sg[n] ** p
            lhs = q * prod
            rhs = sum(t) ** p * sum(prod // sg[n] ** p for n in t)
            if lhs == rhs:
                out.append(t)
        return out

    if kind == "whm":
        # (sum n^p/sigma^p) * (sum n)^p == sum n^p, cross-multiplied by prod sigma^p
        for t in combinations_with_replacement(range(1, limit + 1), k):
            prod = 1
            for n in t:
                prod *= sg[n] ** p
            lhs = sum(t) ** p * sum(n**p * (prod // sg[n] ** p) for n in t)
            if lhs == sum(n**p for n in t) * prod:
                out.append(t)
        return out

    if kind == "feebly":
        for t in combinations_with_replacement(range(1, limit + 1), k):
            prod = 1
            for n in t:
                prod *= sg[n]
            if sum(n * (prod // sg[n]) for n in t) == prod:
                out.append(t)
        return out

    if kind == "mp":
        for t in combinations_with_replacement(range(1, limit + 1), k):
            if sum(sg[n] ** p for n in t) == q * sum(n**p for n in t):
                out.append(t)
        return out

    raise ValueError(f"no oracle for kind {kind!r}")
