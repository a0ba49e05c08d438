"""Counting functions A(x), M(x) and checked bound inequalities.

The bound checks enclose the partial sum between two integer fixed-point
values and compare the enclosure against a zeta-product bound evaluated with
certified error, so a reported "holds" cannot be a floating-point artifact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .arith import zeta_approx
from .families import FamilySpec
from .search import check_search_limit, enumerate_family, weighted_tuples
from .sieve import SEGMENT, SigmaSieve, covering_sieve

ZETA_EPS = 1e-9
_START_BITS = 128  # fixed-point bits of the first lemma-sum enclosure


@dataclass(frozen=True)
class CountSeries:
    checkpoints: tuple[int, ...]
    counts: tuple[int, ...]
    ratios: tuple[Fraction, ...]


@dataclass(frozen=True)
class BoundReport:
    x: int
    k: int
    lhs: Fraction  # certified upper bound on the partial sum, within x/2^128 of it
    rhs: float  # zeta-product bound, inflated by the certified zeta error
    margin: float
    holds: bool
    exact: bool  # the verdict is certified in exact integer arithmetic (every x)


def _validate_checkpoints(checkpoints) -> list[int]:
    pts = list(checkpoints)
    if not pts:
        raise ValueError("checkpoints must be non-empty")
    if any(x < 1 for x in pts):
        raise ValueError("checkpoints must be >= 1")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    return pts


def amicable_members(limit: int, sieve: SigmaSieve | None = None) -> list[int]:
    """All amicable numbers n <= limit: sigma(s(n)) = sigma(n), n not perfect.

    The members are those of the amicable-number search, in ascending order,
    so limit shares its cap MAX_SEARCH_LIMIT.
    """
    report = enumerate_family(FamilySpec("amicable-number", 1), limit, sieve)
    return [r.members[0] for r in report.records]


def _series(checkpoints: list[int], members: list[int]) -> CountSeries:
    counts = tuple(bisect_right(members, x) for x in checkpoints)
    ratios = tuple(Fraction(c, x) for c, x in zip(counts, checkpoints))
    return CountSeries(tuple(checkpoints), counts, ratios)


def count_amicable(checkpoints, sieve: SigmaSieve | None = None) -> CountSeries:
    """A(x) at each checkpoint: amicable numbers up to x."""
    pts = _validate_checkpoints(checkpoints)
    return _series(pts, amicable_members(pts[-1], sieve))


def count_multiamicable_pairs(alpha: int, beta: int, checkpoints, sieve: SigmaSieve | None = None) -> CountSeries:
    """M(x) at each checkpoint: pairs with sigma(m) = sigma(n) = alpha*m + beta*n,
    m < n, counted by the smaller member m <= x, which shares the search cap.

    The search's weighted_tuples solves n = (sigma(m) - alpha*m) / beta and
    verifies it, so n itself needs no scan bound: with no partner_limit, a
    partner past the sieve is checked exactly and in int64, by the
    vectorised sieve.sigma_beyond pass of its batch (see weighted_tuples).
    """
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive integers")
    pts = _validate_checkpoints(checkpoints)
    limit = pts[-1]
    check_search_limit(limit)
    sieve = covering_sieve(limit, sieve)
    members = weighted_tuples(sieve, limit, (alpha, beta), 1, True, None)[0]
    return _series(pts, members.tolist())


def _fixed_point_sum(sieve: SigmaSieve, x: int, k: int, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits * sum_{n<=x} (sigma(n)/n)^k <= hi <= lo + x."""
    lo = inexact = 0
    for start in range(1, x + 1, SEGMENT):
        for n, s in enumerate(sieve.read(slice(start, min(start + SEGMENT, x + 1))).tolist(), start):
            q, r = divmod(s**k << bits, n**k)
            lo += q
            inexact += r != 0
    return lo, lo + inexact


def lemma_sum_check(
    x: int,
    k: int,
    sieve: SigmaSieve | None = None,
) -> BoundReport:
    """Check sum_{n<=x} (sigma(n)/n)^k < zeta(2)^k * zeta(2k-1 if k>=2) * x.

    _fixed_point_sum encloses the sum S as lo <= 2^B * S <= hi <= lo + x.
    B starts at 128 and doubles while lo*den < num*2^B <= hi*den, where
    num/den = rhs_lo is the bound deflated by the certified zeta error; then
    hi*den < num*2^B decides the verdict. The loop ends: rhs_lo is a float,
    so dyadic, and S is not for x >= 3: the largest prime p <= x has 2p > x
    (Bertrand), so n = p is the only term with p in its denominator and p^k
    divides that of S. For x <= 2 every term is exact once B >= k, so lo = hi.
    lhs is hi/2^B; the reported rhs is the inflated (safe upper) value.

    The verdict is computed, never assumed. The stated constant is sharp
    enough only for k <= 2: at k = 3 the partial sums average out near 6.1*x
    while zeta(2)^3*zeta(5) is about 4.62, so holds comes back False for
    every x >= 24. The report simply says what the numbers say.

    Raises ValueError when the bound or the sum is too large for a float.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    sieve = covering_sieve(x, sieve)

    factors = [zeta_approx(2, ZETA_EPS)] * k
    if k >= 2:
        factors.append(zeta_approx(2 * k - 1, ZETA_EPS))
    rhs_hi = math.prod((z + ZETA_EPS for z in factors), start=x)
    rhs_lo = math.prod((z - ZETA_EPS for z in factors), start=x)
    if not math.isfinite(rhs_hi):
        raise ValueError(f"the lemma bound at x={x}, k={k} is too large for a float")
    num, den = rhs_lo.as_integer_ratio()
    bits = _START_BITS
    lo, hi = _fixed_point_sum(sieve, x, k, bits)
    while lo * den < num << bits <= hi * den:
        bits *= 2
        lo, hi = _fixed_point_sum(sieve, x, k, bits)
    lhs = Fraction(hi, 1 << bits)
    try:
        margin = rhs_hi - float(lhs)
    except OverflowError:
        raise ValueError(f"the lemma sum at x={x}, k={k} is too large for a float") from None
    return BoundReport(x, k, lhs, rhs_hi, margin, hi * den < num << bits, True)


def harmonic_floor_sum(x: int) -> Fraction:
    """sum_{u<=x} (1/u) * floor(x/u), exactly.

    Rearranging sum_{n<=x} sigma(n)/n over the divisor identity
    sigma(n)/n = sum_{u|n} 1/u gives this form, so it must equal the exact
    k=1 lemma sum, which lemma_sum_check encloses. The Fractions are added
    pairwise, so the operands stay small until the last few rounds.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    terms = [Fraction(x // u, u) for u in range(1, x + 1)]
    while len(terms) > 1:
        terms = [sum(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    return terms[0]


def pomerance_curve(checkpoints, sieve: SigmaSieve | None = None) -> list[tuple[float, int, float, float]]:
    """Rows (x, A(x), x/e^sqrt(log x), ratio) with ratio = A(x)*e^sqrt(log x)/x.

    Report only: the bound is asymptotic, so no assertion is made at any
    finite checkpoint. log is the natural logarithm.
    """
    pts = _validate_checkpoints(checkpoints)
    top = math.floor(pts[-1])
    members = amicable_members(top, sieve) if top >= 2 else []
    rows = []
    for x in pts:
        count = bisect_right(members, math.floor(x))
        bound = x / math.exp(math.sqrt(math.log(x)))
        rows.append((x, count, bound, count / bound))
    return rows
