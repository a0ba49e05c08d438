"""Constructive generator for multiamicable tuples.

Seeds are equal-sigma tuples N_1, ..., N_k; any a coprime to every N_i with
sigma(a)/a = (alpha_1*N_1 + ... + alpha_k*N_k) / sigma(N_1) turns them into
the multiamicable tuple (a*N_1, ..., a*N_k), because sigma is multiplicative
over coprime factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .arith import SigmaSieve, covering_sieve, sigma
from .families import is_multiamicable
from .parallel import partition_range, run_tasks
from .search import _sigma_buckets


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


def seed_ratio(alphas, ns) -> SeedTuple:
    """Validate a seed and compute its target ratio (alpha . N) / sigma(N_1)."""
    alphas = tuple(alphas)
    ns = tuple(ns)
    if len(alphas) != len(ns) or not ns:
        raise ValueError("alphas and Ns must be non-empty lists of equal length")
    if min(alphas) < 1 or min(ns) < 1:
        raise ValueError("alphas and Ns must be positive integers")
    sigmas = [sigma(n) for n in ns]
    first = sigmas[0]
    for n, s in zip(ns[1:], sigmas[1:]):
        if s != first:
            raise ValueError(
                f"seed members must share one sigma value: "
                f"sigma({ns[0]}) = {first} but sigma({n}) = {s}"
            )
    target = Fraction(sum(a * n for a, n in zip(alphas, ns)), first)
    return SeedTuple(alphas, ns, target)


@dataclass(frozen=True)
class _MultiplierTask:
    num: int
    den: int
    coprime_to: tuple[int, ...]
    span: tuple[int, int]  # range of multiples j, candidates a = j*den


def _multiplier_kernel(task: _MultiplierTask):
    num, den = task.num, task.den
    out = []
    for j in range(*task.span):
        a = j * den
        if sigma(a) * den != num * a:
            continue
        if all(math.gcd(a, n) == 1 for n in task.coprime_to):
            out.append(a)
    return out


def find_multipliers(target: Fraction, bound: int, coprime_to=(), workers: int = 1) -> list[int]:
    """All a <= bound with sigma(a)/a = target and gcd(a, n) = 1 for each n.

    sigma(a)/a = num/den in lowest terms forces den | a, so only multiples of
    the denominator are scanned. Ascending, possibly empty.
    """
    target = Fraction(target)
    if target < 1:
        raise ValueError("target must be >= 1: sigma(a)/a >= 1 for every a")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    den = target.denominator
    last = bound // den
    if last < 1:
        return []
    spans = partition_range(1, last + 1, max(1, workers))
    tasks = [
        _MultiplierTask(target.numerator, den, tuple(coprime_to), span) for span in spans
    ]
    results = run_tasks(_multiplier_kernel, tasks, max(1, workers))
    return [a for chunk in results for a in chunk]


def construct_multiamicable(alphas, ns, a_bound: int, workers: int = 1) -> list[ConstructedTuple]:
    """Multiamicable tuples (a*N_1, ..., a*N_k) for every admissible a <= a_bound."""
    seed = seed_ratio(alphas, ns)
    out = []
    for a in find_multipliers(seed.target, a_bound, seed.ns, workers=workers):
        members = tuple(a * n for n in seed.ns)
        if not is_multiamicable(members, seed.alphas):
            raise RuntimeError(
                f"construction produced a non-member {members} from seed {seed.ns} with a={a}"
            )
        out.append(ConstructedTuple(seed, a, members))
    return out


def find_seed_tuples(alphas, n_limit: int, sieve: SigmaSieve | None = None) -> list[SeedTuple]:
    """All strictly increasing equal-sigma seeds N_1 < ... < N_k <= n_limit
    whose target ratio is at least 1, grouped from sigma buckets.

    Raises CoverageError when the given sieve stops short of n_limit.
    """
    alphas = tuple(alphas)
    k = len(alphas)
    if k < 2:
        raise ValueError("seed search requires k >= 2")
    if min(alphas) < 1:
        raise ValueError("alphas must be positive integers")
    if n_limit < 1:
        raise ValueError("N_limit must be >= 1")
    sig = covering_sieve(n_limit, sieve).table[: n_limit + 1].tolist()
    out = []
    for s_value, members in _sigma_buckets(sig, n_limit):
        if len(members) < k:
            continue
        for combo in combinations(members, k):
            target = Fraction(sum(a * n for a, n in zip(alphas, combo)), s_value)
            if target >= 1:
                out.append(SeedTuple(alphas, combo, target))
    out.sort(key=lambda seed: seed.ns)
    return out
