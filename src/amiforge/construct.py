"""Constructive generator for multiamicable tuples.

Seeds are equal-sigma tuples N_1, ..., N_k; any a coprime to every N_i with
sigma(a)/a = (alpha_1*N_1 + ... + alpha_k*N_k) / sigma(N_1) turns them into
the multiamicable tuple (a*N_1, ..., a*N_k), because sigma is multiplicative
over coprime factors. The seeds come from search.equal_sigma_blocks and the
multipliers from search.abundancy_solutions, so no scan of 1..L is made
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import sigma
from .families import is_multiamicable
from .search import _CAP, _capped, abundancy_solutions, check_search_limit, equal_sigma_blocks
from .sieve import SigmaSieve, covering_sieve


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
    denominator in one pass over the sieve; the coprimality filter then
    runs over its survivors only. Ascending, possibly empty; [] before the
    sieve is read when the denominator exceeds bound, since it divides
    every such a.

    Otherwise raises CoverageError when the given sieve stops short of bound.
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

    Seeds of one target share one find_multipliers scan, held for this call
    only; each seed keeps the multipliers coprime to its members. A seed
    whose target denominator exceeds a_bound admits no multiplier, since
    every a with sigma(a)/a = target is a multiple of it, so find_multipliers
    returns [] for it before the sieve is read. Otherwise raises
    CoverageError when the given sieve stops short of a_bound.
    """
    out, scans = [], {}
    for seed in seeds:
        # keyed by the ints: a Fraction's hash takes a modular inverse
        key = seed.target.numerator, seed.target.denominator
        if key not in scans:
            scans[key] = find_multipliers(seed.target, a_bound, sieve=sieve)
        coprime = [a for a in scans[key] if all(math.gcd(a, n) == 1 for n in seed.ns)]
        for a in coprime:
            members = tuple(a * n for n in seed.ns)
            if not is_multiamicable(members, seed.alphas, sieve):
                raise RuntimeError(f"construction produced a non-member {members} from seed {seed.ns} with a={a}")
            out.append(ConstructedTuple(seed, a, members))
    return out


def find_seed_tuples(
    alphas, n_limit: int, sieve: SigmaSieve | None = None, a_bound: int | None = None
) -> list[SeedTuple]:
    """All strictly increasing equal-sigma seeds N_1 < ... < N_k <= n_limit
    whose target ratio is at least 1, from search.equal_sigma_blocks.

    With a_bound, only the seeds whose target denominator is at most a_bound
    are kept: every multiplier is a multiple of that denominator, so the
    others admit none up to a_bound. Each block is filtered in numpy, and a
    Fraction is built only for the seeds kept: total = sum alpha_i*N_i
    reaches sigma when the running min(. + min(alpha_i, sigma)*N_i, sigma)
    does, and the denominator is sigma // gcd(total mod sigma, sigma), with
    total mod sigma summed from (alpha_i mod sigma)*N_i, taken per row in
    Python for a weight of 2^62 or more. int64: sigma < 2^26 and N < 2^24
    for N <= MAX_SEARCH_LIMIT, so both products stay below 2^50.

    Raises CoverageError when the given sieve stops short of n_limit.
    """
    alphas = tuple(alphas)
    k = len(alphas)
    if k < 2:
        raise ValueError("seed search requires k >= 2")
    if min(alphas) < 1:
        raise ValueError("alphas must be positive integers")
    check_search_limit(n_limit)
    bound = _CAP if a_bound is None else _capped(a_bound)
    out = []
    for s, members in equal_sigma_blocks(covering_sieve(n_limit, sieve), n_limit, k):
        reached, rest = np.zeros_like(s), np.zeros_like(s)
        for a, m in zip(alphas, members):
            reached = np.minimum(reached + np.minimum(_capped(a), s) * m, s)
            residue = a % s if a < _CAP else np.array([a % v for v in s.tolist()])
            rest = (rest + residue * m) % s
        keep = (reached == s) & (s // np.gcd(rest, s) <= bound)
        for row in np.flatnonzero(keep).tolist():
            ns = tuple(int(m[row]) for m in members)
            out.append(SeedTuple(alphas, ns, Fraction(sum(a * n for a, n in zip(alphas, ns)), int(s[row]))))
    out.sort(key=lambda seed: seed.ns)
    return out
