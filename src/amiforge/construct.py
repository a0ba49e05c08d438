"""Constructive generator for multiamicable tuples.

Seeds are equal-sigma tuples N_1, ..., N_k; any a coprime to every N_i with
sigma(a)/a = (alpha_1*N_1 + ... + alpha_k*N_k) / sigma(N_1) turns them into
the multiamicable tuple (a*N_1, ..., a*N_k), because sigma is multiplicative
over coprime factors. Seeds come from search.equal_sigma_blocks, kept when
their target is in a table of sigma(a)/a, a <= the a-bound, and multipliers
from search.abundancy_solutions, so no scan of 1..L is made here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import sigma
from .families import is_multiamicable
from .search import _capped, abundancy_solutions, check_search_limit, equal_sigma_blocks
from .sieve import SEGMENT, SigmaSieve, covering_sieve


@dataclass(frozen=True)
class SeedTuple:
    alphas: tuple[int, ...]
    ns: tuple[int, ...]
    target: Fraction  # sigma(a)/a the multiplier must hit, in lowest terms


@dataclass(frozen=True)
class ConstructedTuple:
    seed: SeedTuple
    a: int
    members: tuple[int, ...]


def seed_ratio(alphas, ns, sieve: SigmaSieve | None = None) -> SeedTuple:
    """Validate a seed and compute its target ratio (alpha . N) / sigma(N_1)."""
    alphas = tuple(alphas)
    ns = tuple(ns)
    if len(alphas) != len(ns) or not ns:
        raise ValueError("alphas and Ns must be non-empty lists of equal length")
    if min(alphas) < 1 or min(ns) < 1:
        raise ValueError("alphas and Ns must be positive integers")
    sigmas = [sigma(n, sieve) for n in ns]
    for n, s in zip(ns, sigmas):
        if s != sigmas[0]:
            raise ValueError(
                f"seed members must share one sigma value: "
                f"sigma({ns[0]}) = {sigmas[0]} but sigma({n}) = {s}"
            )
    target = Fraction(sum(a * n for a, n in zip(alphas, ns)), sigmas[0])
    return SeedTuple(alphas, ns, target)


def find_multipliers(target: Fraction, bound: int, coprime_to=(), sieve: SigmaSieve | None = None) -> list[int]:
    """All a <= bound with sigma(a)/a = target and gcd(a, n) = 1 for each n.

    search.abundancy_solutions reads the multiples of the target's
    denominator in one pass over the sieve, and the coprimality filter runs
    over its survivors. Ascending, possibly empty: [] before the sieve is
    read when the denominator, which divides every such a, exceeds bound;
    otherwise raises CoverageError when the given sieve stops short of bound.
    """
    target = Fraction(target)
    if target < 1:
        raise ValueError("target must be >= 1: sigma(a)/a >= 1 for every a")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if target.denominator > bound:
        return []
    sieve = covering_sieve(bound, sieve)
    hit = abundancy_solutions(sieve, bound, target.numerator, target.denominator)
    return [a for a in hit.tolist() if all(math.gcd(a, n) == 1 for n in coprime_to)]


def construct_multiamicable(seeds, a_bound: int, sieve: SigmaSieve | None = None) -> list[ConstructedTuple]:
    """Multiamicable tuples (a*N_1, ..., a*N_k) for every admissible a <= a_bound,
    seed by seed in the given order and by ascending a within a seed, from
    seeds made by seed_ratio or find_seed_tuples. Each tuple is re-proven.

    Each seed makes one find_multipliers call, which returns [] before the
    sieve is read when the target denominator exceeds a_bound, and otherwise
    raises CoverageError when the given sieve stops short of a_bound; without
    one, a sieve to a_bound is built for the first call that reads it.
    """
    out = []
    for seed in seeds:
        if sieve is None and seed.target >= 1 and seed.target.denominator <= a_bound:
            sieve = covering_sieve(a_bound)
        for a in find_multipliers(seed.target, a_bound, seed.ns, sieve):
            members = tuple(a * n for n in seed.ns)
            if not is_multiamicable(members, seed.alphas, sieve):
                raise RuntimeError(f"construction produced a non-member {members} from seed {seed.ns} with a={a}")
            out.append(ConstructedTuple(seed, a, members))
    return out


def find_seed_tuples(
    alphas, n_limit: int, sieve: SigmaSieve | None = None, a_bound: int | None = None
) -> list[SeedTuple]:
    """All strictly increasing equal-sigma seeds N_1 < ... < N_k <= n_limit
    whose target ratio is at least 1, from search.equal_sigma_blocks; with
    a_bound, only those whose float32 total/sigma is in a sorted float32
    table of sigma(a)/a, a <= a_bound (4 bytes per a, filled a SEGMENT at a
    time). That test drops no seed with a multiplier: both quotients are
    correctly rounded float64 divisions of integers below 2^53, cast to
    float32 alike, so equal rationals give equal keys; sigma(a)/a < 5.6 for
    a <= 2^28 (the Robin argument in sieve.build_sigma_sieve), so a total
    capped at 6*sigma admits no a; a spurious match costs one exact scan.

    total = sum alpha_i*N_i is the running min(. + min(alpha_i, 6*sigma)*N_i,
    6*sigma), >= sigma exactly when the true sum is. int64: sigma < 2^26 and
    N < 2^24 for N <= MAX_SEARCH_LIMIT, so each product is below 2^53.
    Raises ValueError for a_bound < 1, and CoverageError when the given
    sieve stops short of max(n_limit, a_bound).
    """
    alphas = tuple(alphas)
    if len(alphas) < 2:
        raise ValueError("seed search requires k >= 2")
    if min(alphas) < 1:
        raise ValueError("alphas must be positive integers")
    check_search_limit(n_limit)
    if a_bound is not None and a_bound < 1:
        raise ValueError("bound must be >= 1")
    sieve = covering_sieve(max(n_limit, a_bound or 1), sieve)
    if a_bound is not None:
        ratios = np.empty(a_bound, dtype=np.float32)
        for lo in range(1, a_bound + 1, SEGMENT):
            hi = min(lo + SEGMENT, a_bound + 1)
            ratios[lo - 1 : hi - 1] = sieve.read(slice(lo, hi)) / np.arange(lo, hi)
        ratios.sort()
    out = []
    for s, members in equal_sigma_blocks(sieve, n_limit, len(alphas)):
        total = np.zeros_like(s)
        for a, m in zip(alphas, members):
            total = np.minimum(total + np.minimum(_capped(a), 6 * s) * m, 6 * s)
        keep = total >= s
        if a_bound is not None:
            key = (total / s).astype(np.float32)
            keep &= ratios[np.minimum(np.searchsorted(ratios, key), a_bound - 1)] == key
        for row in np.flatnonzero(keep).tolist():
            ns = tuple(int(m[row]) for m in members)
            out.append(SeedTuple(alphas, ns, Fraction(sum(a * n for a, n in zip(alphas, ns)), int(s[row]))))
    out.sort(key=lambda seed: seed.ns)
    return out
