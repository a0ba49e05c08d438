"""Bounded exhaustive enumeration of every family, plus table verification
and scan harnesses for the open conjecture and question.

The linear kinds run in this process as whole-array numpy passes over the
sigma table: perfect numbers, amicable numbers and pairs, Cohen and
alpha-beta pairs, and multiamicable, Dickson and Yanney tuples of one or two
members, which solve sigma(m) = a*m + b*n for the partner n. Only the
super-linear kinds use worker processes: the mean families block-partition
their outer loop and the bucket kinds at k >= 3 partition the sigma buckets.
Workers emit locally ordered results over a shared immutable sieve, and the
merge applies one global sort, so reports are identical for any worker
count.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import tables
# CoverageError is imported here so that callers of the scans can catch it
# from this module, which raises it through covering_sieve.
from .arith import CoverageError, SigmaSieve, build_sigma_sieve, covering_sieve, sigma
from .families import FamilySpec, Mismatch, TupleRecord, check, is_wgm
from .parallel import partition_range, run_tasks

MAX_SEARCH_LIMIT = 10**7  # keeps sigma buckets and tables within memory bounds

# sigma(n) < 2^40 for every n <= 2^31, which bounds any sieve table of up to
# 16 GiB. The linear kernels compare weights and aliquot sums only with
# members, table entries, and their quotients and remainders, all below 2^40.
# A value of 2^62 or more can therefore never match, and capping it at 2^62
# keeps that while fitting int64.
_CAP = 1 << 62


@dataclass(frozen=True, eq=False)
class SearchConfig:
    spec: FamilySpec
    limit: int
    workers: int = 1
    sieve: SigmaSieve | None = None


@dataclass
class SearchReport:
    spec: FamilySpec
    limit: int
    workers: int
    records: list[TupleRecord]
    scanned: int
    elapsed: float
    label: str = ""


# Kinds grouped by sigma value when they have three or more members.
_BUCKET_KINDS = {"multiamicable", "dickson", "yanney"}


@dataclass(frozen=True, eq=False)
class _Task:
    spec: FamilySpec
    limit: int
    sieve: SigmaSieve
    span: tuple[int, int] | None = None
    items: tuple[tuple[int, tuple[int, ...]], ...] | None = None


def _capped(value: int) -> int:
    return min(value, _CAP)


def _aliquots(sieve: SigmaSieve, w: int, v: np.ndarray) -> np.ndarray:
    """s(w*v) = sigma(w*v) - w*v for each v >= 1, capped at 2^62.

    int64: the table serves every v <= sieve.limit // w, so w*v is an index
    within the table (a capped weight has no such v). The exact sigma()
    serves the rest, one index at a time, and the cap touches only values
    that no kernel compares with anything as large.
    """
    s = np.empty(len(v), dtype=np.int64)
    inside = v <= sieve.limit // w
    wv = _capped(w) * v[inside]
    s[inside] = sieve.table[wv] - wv
    for i in np.flatnonzero(~inside).tolist():
        x = w * int(v[i])
        s[i] = _capped(sigma(x) - x)
    return s


def _perfect(spec: FamilySpec, limit: int, sieve: SigmaSieve):
    """n <= limit with sigma(n) = 2n. int64: 2n <= 2*MAX_SEARCH_LIMIT."""
    n = np.arange(1, limit + 1)
    return [(v,) for v in n[sieve.table[1 : limit + 1] == 2 * n].tolist()]


def _amicable_numbers(spec: FamilySpec, limit: int, sieve: SigmaSieve):
    """2 <= n <= limit with s(n) != n and sigma(s(n)) = sigma(n), that is
    s(s(n)) = sigma(n) - s(n) = n.

    int64: s(n) is a difference of table entries and no product is formed.
    An s(n) past the sieve is read through the exact sigma().
    """
    n = np.arange(2, limit + 1)
    s = sieve.table[2 : limit + 1] - n
    keep = s != n
    n, s = n[keep], s[keep]
    return [(v,) for v in n[_aliquots(sieve, 1, s) == n].tolist()]


def partner_pairs(sieve: SigmaSieve, limit: int, alphas, strict: bool, partner_limit: int | None):
    """Arrays (m, n) of the pairs with sigma(m) = sigma(n) = a*m + b*n, m <= limit,
    m < n when strict and m <= n otherwise, and n <= partner_limit when one
    is given; the sieve must cover limit.

    The equation gives the partner n = (sigma(m) - a*m) / b, so each m is
    visited once, and n >= m exactly when sigma(m) >= (a + b)*m (n > m when
    sigma(m) > (a + b)*m). int64: that test is made in division form,
    sigma(m) // m >= a + b, or (sigma(m) - 1) // m when strict; past it
    a*m <= sigma(m) < 2^40, and b only divides. A partner past the sieve is
    read through the exact sigma().
    """
    a, b = _capped(alphas[0]), _capped(alphas[1])
    m = np.arange(1, limit + 1)
    m = m[(sieve.table[1 : limit + 1] - strict) // m >= _capped(a + b)]
    s = sieve.table[m]
    r = s - a * m
    keep = r % b == 0
    m, s, n = m[keep], s[keep], r[keep] // b
    if partner_limit is not None:
        keep = n <= partner_limit
        m, s, n = m[keep], s[keep], n[keep]
    hit = _aliquots(sieve, 1, n) == s - n
    return m[hit], n[hit]


def _solved_tuples(spec: FamilySpec, limit: int, sieve: SigmaSieve):
    """amicable-pair, and multiamicable, Dickson and Yanney tuples of at most two
    members: sigma(m) = sigma(n) = a*m + b*n with (a, b) the multiamicable
    weights and (1, 1) otherwise, since (k-1)*sigma = sum at k = 2 is the
    Dickson equation.

    A multiamicable singleton solves sigma(m) = a*m, tested as
    sigma(m) % m == 0 and sigma(m) // m == a, so int64 holds no product.
    """
    if spec.kind == "multiamicable":
        alphas, strict = spec.alphas, True
    else:
        alphas, strict = (1, 1), False
    if len(alphas) == 1:
        m = np.arange(1, limit + 1)
        s = sieve.table[1 : limit + 1]
        return [(v,) for v in m[(s % m == 0) & (s // m == _capped(alphas[0]))].tolist()]
    m, n = partner_pairs(sieve, limit, alphas, strict, limit)
    return list(zip(m.tolist(), n.tolist()))


def _cohen_pairs(spec: FamilySpec, limit: int, sieve: SigmaSieve):
    """(m, n), both <= limit, with s(m) = a*n and s(n) = b*m; m <= n when a = b.

    int64: n = s(m) / a is a quotient, and s(n) = b*m is tested as
    s(n) % m == 0 and s(n) // m == b, so no weight product is formed.
    """
    same = spec.alphas[0] == spec.alphas[1]
    a, b = _capped(spec.alphas[0]), _capped(spec.alphas[1])
    m = np.arange(1, limit + 1)
    r = sieve.table[1 : limit + 1] - m
    keep = (r >= a) & (r % a == 0)
    m, n = m[keep], r[keep] // a
    keep = n <= limit
    if same:
        keep &= m <= n
    m, n = m[keep], n[keep]
    rn = sieve.table[n] - n
    hit = (rn % m == 0) & (rn // m == b)
    return list(zip(m[hit].tolist(), n[hit].tolist()))


def _alpha_beta_pairs(spec: FamilySpec, limit: int, sieve: SigmaSieve):
    """(m, n), both <= limit, with s(a*n) = m and s(b*m) = n; m <= n when a = b.

    int64: both reads go through _aliquots, which forms a*n and b*m only
    as indices within the table and reads past it through the exact sigma().
    """
    a, b = spec.alphas
    n = np.arange(1, limit + 1)
    m = _aliquots(sieve, a, n)
    keep = (m >= 1) & (m <= limit)
    if a == b:
        keep &= m <= n
    n, m = n[keep], m[keep]
    hit = _aliquots(sieve, b, m) == n
    return list(zip(m[hit].tolist(), n[hit].tolist()))


_LINEAR_KERNELS = {
    "perfect": _perfect,
    "amicable-number": _amicable_numbers,
    "amicable-pair": _solved_tuples,
    "cohen-pair": _cohen_pairs,
    "alpha-beta": _alpha_beta_pairs,
    "multiamicable": _solved_tuples,
    "dickson": _solved_tuples,
    "yanney": _solved_tuples,
}


def _sigma_buckets(sig: list[int], limit: int) -> list[tuple[int, tuple[int, ...]]]:
    """Group 1..limit by sigma value; members ascending, keys ascending."""
    buckets: dict[int, list[int]] = {}
    for n in range(1, limit + 1):
        buckets.setdefault(sig[n], []).append(n)
    return [(s, tuple(ns)) for s, ns in sorted(buckets.items())]


def _solve_bucket(members, alphas, tails, target, strict):
    """All (strictly or weakly) increasing tuples from one sigma bucket with
    weighted element sum equal to target. The last element is solved for
    directly; earlier slots scan with the lower-bound prune
    partial + (sum of remaining alphas) * candidate > target."""
    k = len(alphas)
    mset = set(members)
    last_a = alphas[-1]
    out = []

    def rec(start, chosen, partial):
        i = len(chosen)
        if i == k - 1:
            rem = target - partial
            if rem >= last_a and rem % last_a == 0:
                v = rem // last_a
                if v in mset and ((v > chosen[-1]) if strict else (v >= chosen[-1])):
                    out.append(tuple(chosen) + (v,))
            return
        rest = tails[i]
        for idx in range(start, len(members)):
            v = members[idx]
            if partial + rest * v > target:
                break
            chosen.append(v)
            rec(idx + 1 if strict else idx, chosen, partial + alphas[i] * v)
            chosen.pop()

    rec(0, [], 0)
    return out


def _bucket_kernel(task: _Task):
    spec = task.spec
    if spec.kind == "multiamicable":
        alphas, strict = spec.alphas, True
    else:
        alphas, strict = (1,) * spec.k, False
    tails = [sum(alphas[i:]) for i in range(len(alphas))]
    factor = spec.k - 1 if spec.kind == "yanney" else 1
    out = []
    scanned = 0
    for s_value, members in task.items:
        scanned += 1
        out.extend(_solve_bucket(members, alphas, tails, factor * s_value, strict))
    return out, scanned


def _mean_family_kernel(task: _Task):
    """Non-decreasing k-tuple scan for the mean-equation families.

    Prefix aggregates are carried exactly; for pm with p=1 and for mp the
    defining equation isolates the last element, which is then resolved by a
    precomputed key index instead of a scan.
    """
    spec, limit = task.spec, task.limit
    lo, hi = task.span
    kind, k, p, q = spec.kind, spec.k, spec.p, spec.q
    sieve = task.sieve
    sig = sieve.table.tolist()
    out = []
    scanned = 0

    index: dict[int, list[int]] | None = None
    key = None
    if kind == "pm" and p == 1:
        index = {}
        for n in range(1, limit + 1):
            index.setdefault(sig[n] - q * n, []).append(n)

        def key(st):
            return q * st[1] - st[0]

    elif kind == "mp":
        index = {}
        for n in range(1, limit + 1):
            index.setdefault(sig[n] ** p - q * n**p, []).append(n)

        def key(st):
            return q * st[1] - st[0]

    if kind == "pm":
        init = (0, 0)  # (sum sigma^p, sum n)

        def push(st, v):
            return (st[0] + sig[v] ** p, st[1] + v)

        def test(st, v, prefix):
            return st[0] + sig[v] ** p == q * (st[1] + v) ** p

    elif kind == "mp":
        init = (0, 0)  # (sum sigma^p, sum n^p)

        def push(st, v):
            return (st[0] + sig[v] ** p, st[1] + v**p)

        def test(st, v, prefix):
            return st[0] + sig[v] ** p == q * (st[1] + v**p)

    elif kind == "wpm":
        init = (0, 0)  # (sum n*sigma^p, sum n)

        def push(st, v):
            return (st[0] + v * sig[v] ** p, st[1] + v)

        def test(st, v, prefix):
            return st[0] + v * sig[v] ** p == (st[1] + v) ** (p + 1)

    elif kind == "gm":
        init = (1, 0)  # (prod sigma, sum n)

        def push(st, v):
            return (st[0] * sig[v], st[1] + v)

        def test(st, v, prefix):
            return st[0] * sig[v] == (st[1] + v) ** k

    elif kind == "wgm":
        logsig = [0.0] * (limit + 1)
        for n in range(1, limit + 1):
            logsig[n] = math.log(sig[n])
        init = (0.0, 0)  # (sum n*log sigma, sum n)

        def push(st, v):
            return (st[0] + v * logsig[v], st[1] + v)

        def test(st, v, prefix):
            # cheap log filter, then the exact prime-exponent comparison
            s = st[1] + v
            if abs(st[0] + v * logsig[v] - s * math.log(s)) > 1e-6:
                return False
            return is_wgm(prefix + (v,), sieve)

    elif kind == "hm":
        init = (1, 0, 0)  # (prod sigma^p, sum of products excluding one, sum n)

        def push(st, v):
            svp = sig[v] ** p
            return (st[0] * svp, st[1] * svp + st[0], st[2] + v)

        def test(st, v, prefix):
            svp = sig[v] ** p
            return (st[2] + v) ** p * (st[1] * svp + st[0]) == q * st[0] * svp

    elif kind == "whm":
        init = (1, 0, 0, 0)  # (prod sigma^p, weighted excl-one sum, sum n^p, sum n)

        def push(st, v):
            svp = sig[v] ** p
            vp = v**p
            return (st[0] * svp, st[1] * svp + vp * st[0], st[2] + vp, st[3] + v)

        def test(st, v, prefix):
            svp = sig[v] ** p
            vp = v**p
            return (st[3] + v) ** p * (st[1] * svp + vp * st[0]) == (st[2] + vp) * st[0] * svp

    elif kind == "feebly":
        init = (1, 0)  # (prod sigma, weighted excl-one sum)

        def push(st, v):
            sv = sig[v]
            return (st[0] * sv, st[1] * sv + v * st[0])

        def test(st, v, prefix):
            sv = sig[v]
            return st[1] * sv + v * st[0] == st[0] * sv

    else:
        raise AssertionError(f"unexpected kind {kind!r}")

    def close(prefix, st, start, stop):
        nonlocal scanned
        if index is not None:
            scanned += 1
            lst = index.get(key(st))
            if lst:
                i = bisect_left(lst, start)
                while i < len(lst) and lst[i] < stop:
                    out.append(prefix + (lst[i],))
                    i += 1
        else:
            for v in range(start, stop):
                scanned += 1
                if test(st, v, prefix):
                    out.append(prefix + (v,))

    def rec(depth, prev, prefix, st):
        if depth == k - 1:
            start = lo if depth == 0 else prev
            stop = hi if depth == 0 else limit + 1
            close(prefix, st, start, stop)
            return
        rng = range(lo, hi) if depth == 0 else range(prev, limit + 1)
        for v in rng:
            rec(depth + 1, v, prefix + (v,), push(st, v))

    rec(0, 1, (), init)
    return out, scanned


def _run_task(task: _Task):
    if task.items is not None:
        return _bucket_kernel(task)
    return _mean_family_kernel(task)


def _needed_coverage(spec: FamilySpec, limit: int) -> int:
    if spec.kind == "alpha-beta":
        return max(spec.alphas) * limit
    return limit


def check_search_limit(limit: int) -> None:
    """Raise ValueError unless 1 <= limit <= MAX_SEARCH_LIMIT."""
    if limit < 1:
        raise ValueError("search limit must be >= 1")
    if limit > MAX_SEARCH_LIMIT:
        raise ValueError(f"search limit {limit} exceeds the cap of {MAX_SEARCH_LIMIT}")


def enumerate_family(config: SearchConfig) -> SearchReport:
    """Every tuple of the family with all elements <= config.limit.

    The linear kinds run in this process whatever config.workers says; the
    report still echoes the requested worker count.
    """
    t0 = time.perf_counter()
    spec, limit = config.spec, config.limit
    check_search_limit(limit)
    workers = max(1, config.workers)
    # A built sieve also covers the alpha*n that alpha-beta reads; a caller's
    # sieve need only cover limit, since sigma factorizes past its end.
    if config.sieve is None:
        sieve = build_sigma_sieve(_needed_coverage(spec, limit))
    else:
        sieve = covering_sieve(limit, config.sieve)

    linear = _LINEAR_KERNELS.get(spec.kind)
    if linear is not None and (spec.kind not in _BUCKET_KINDS or spec.k <= 2):
        found, scanned = linear(spec, limit, sieve), limit
    else:
        if spec.kind in _BUCKET_KINDS:
            items = _sigma_buckets(sieve.table[: limit + 1].tolist(), limit)
            spans = partition_range(0, len(items), workers)
            tasks = [_Task(spec, limit, sieve, items=tuple(items[a:b])) for a, b in spans]
        else:
            spans = partition_range(1, limit + 1, workers)
            tasks = [_Task(spec, limit, sieve, span=span) for span in spans]
        results = run_tasks(_run_task, tasks, workers)
        found = [t for tuples, _ in results for t in tuples]
        scanned = sum(count for _, count in results)
    records = _verified(spec, found, sieve)
    return SearchReport(spec, limit, workers, records, scanned, time.perf_counter() - t0)


def _verified(spec: FamilySpec, found, sieve: SigmaSieve) -> list[TupleRecord]:
    """The found tuples in sorted order, each re-proven by families.check.

    A tuple that fails the check is a bug in the scan and raises RuntimeError.
    """
    records = []
    for t in sorted(found):
        outcome = check(spec, t, sieve, provenance="found")
        if isinstance(outcome, Mismatch):
            raise RuntimeError(f"search produced a non-member: {outcome.describe()}")
        records.append(outcome)
    return records


@dataclass
class TableRowResult:
    group: str
    spec: FamilySpec
    members: tuple[int, ...]
    passed: bool
    sigmas: tuple[int, ...]
    detail: str


@dataclass
class TableReport:
    rows: list[TableRowResult]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def failures(self) -> list[TableRowResult]:
        return [r for r in self.rows if not r.passed]


def verify_tables(sieve: SigmaSieve | None = None) -> TableReport:
    """Check every stored reference tuple against its family predicate."""
    rows = []
    for group, spec, members in tables.all_rows():
        outcome = check(spec, members, sieve, provenance="table")
        if isinstance(outcome, TupleRecord):
            rows.append(TableRowResult(group, spec, members, True, outcome.sigmas, ""))
        else:
            sigmas = tuple(sigma(n, sieve) for n in members)
            rows.append(TableRowResult(group, spec, members, False, sigmas, outcome.describe()))
    return TableReport(rows)


def scan_open_question(limit: int, sieve: SigmaSieve | None = None) -> SearchReport:
    """Pairs m <= n <= limit with sigma(m) = sigma(n) and sigma(m)^2 = m^2 + n^2.

    Such a pair would answer the open question on mp(2,2) pairs with equal
    sigma; every scan so far comes back empty. The second equation fixes the
    partner of each m as n = sqrt(sigma(m)^2 - m^2), so the scan visits each
    candidate m once.
    """
    t0 = time.perf_counter()
    if limit < 1:
        raise ValueError("scan limit must be >= 1")
    sieve = covering_sieve(limit, sieve)
    sig = sieve.table[: limit + 1].tolist()
    spec = FamilySpec("mp", 2, p=2, q=2)
    found = []
    for m in range(1, limit + 1):
        sm = sig[m]
        target = sm * sm - m * m
        n = math.isqrt(target)
        if m <= n <= limit and n * n == target and sig[n] == sm:
            found.append((m, n))
    return SearchReport(
        spec,
        limit,
        1,
        _verified(spec, found, sieve),
        limit,
        time.perf_counter() - t0,
        label="equal-sigma mp(2,2) pairs",
    )


def conjecture_census(
    alphas,
    limits,
    sieve: SigmaSieve | None = None,
    workers: int = 1,
) -> list[tuple[int, int]]:
    """Counts of multiamicable tuples (every element within the limit) for an
    increasing list of limits. Evidence for the infinitude conjecture only;
    proves nothing."""
    alphas = tuple(alphas)
    limits = list(limits)
    if not limits:
        raise ValueError("limits must be non-empty")
    if any(b <= a for a, b in zip(limits, limits[1:])):
        raise ValueError("limits must be strictly increasing")
    spec = FamilySpec("multiamicable", len(alphas), alphas=alphas)
    report = enumerate_family(SearchConfig(spec, limits[-1], workers=workers, sieve=sieve))
    counts = []
    for bound in limits:
        counts.append((bound, sum(1 for r in report.records if r.members[-1] <= bound)))
    return counts
