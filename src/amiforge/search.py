"""Bounded exhaustive enumeration of every family, and the scan for the
open question.

Every search runs in this process as numpy passes over the sigma table.
The weighted families read their families.weighted_form: members of one
sigma with w_1*n_1 + ... + w_k*n_k = factor*sigma. weighted_tuples, its
one solver at k >= 2, takes the first members in blocks, in natural order
at k = 2 and at k >= 3 in the order of _sorted_entries, the ascending
sigma(n)*(L + 1) + n, grows the middle ones within each sigma run from a
binary search of that array and solves for the last; the amicable numbers
are the members of its pairs at weights (1, 1). abundancy_solutions, the
one solver of sigma(a)/a = r, gives the single members and construct's
multipliers. Cohen and alpha-beta pairs and the open-question scan are
each one blocked _partner_pass over members m: m solves for its partner,
and one test accepts the pair. The mean families evaluate each block of
candidate tuples against their MEAN_EQUATIONS entry modulo a prime, and
the exact check confirms the few that pass. Where the entry reads sum_i
key(n_i) = target (pm with p = 1, mp, feebly, and whm with p = 1, whose
key is n * sigma(n)^-1 modulo the prime) the last member is solved for
over the _sorted_entries of the key instead; hm and gm first narrow each
prefix's last slot with a necessary inequality. weighted_tuples, the mean
families and the equal-sigma seeds all grow their prefixes with
_tuple_blocks, in numpy blocks of bounded size."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .arith import factorize
from .families import MEAN_EQUATIONS, FamilySpec, Mismatch, TupleRecord, check, mean_sides, weighted_form
from .sieve import SEGMENT, SigmaSieve, covering_sieve, sigma_beyond

MAX_SEARCH_LIMIT = 10**7  # sigma(n) < 2^26 up to it, which the int64 arguments use

# Every sigma a kernel reads is below 2^59 (table entries below 2^31, values
# of sigma_beyond below 2^59) or is alpha-beta's sigma(a*n), capped at 2^62
# by _aliquots. The linear kernels compare weights and aliquot sums only
# with members, such sigmas, and their quotients and remainders. So a value
# of 2^62 or more never matches, and capping it at 2^62 keeps that while
# fitting int64.
_CAP = 1 << 62

# The mean families' row filter works modulo this prime, 2^31 - 1. Scans take
# blocks of at most _BLOCK tuples, or of sieve.SEGMENT members or prefixes
# for the partner passes and weighted_tuples, each read when the scan starts.
_MODULUS = 2**31 - 1
_BLOCK = 1 << 13


@dataclass
class SearchReport:
    spec: FamilySpec
    limit: int
    records: list[TupleRecord]
    scanned: int
    label: str = ""


def _capped(value: int) -> int:
    return min(value, _CAP)


def _aliquots(sieve: SigmaSieve, w: int, v: np.ndarray) -> np.ndarray:
    """s(w*v) = sigma(w*v) - w*v for each v >= 1, capped at 2^62.

    Every v is an alpha-beta member, within the sieve, so sigma(v) comes
    from the table. Then each p^e || w, from the cached factorize(w), turns
    sigma(v) into sigma(v * p^e): with q = p^k || v, sigma is
    multiplicative, so its factor sigma(q) becomes sigma(q * p^e) = sigma(q)
    + q*(sigma(p^e) - 1).

    int64: v <= MAX_SEARCH_LIMIT = 10^7, so sigma(v) < 2^26, and while
    sigma(w) < 2^36 every intermediate, the sigma of a divisor of w*v, is
    at most sigma(w)*sigma(v) < 2^62; q*p <= w*v < 2^60, and the new factor
    is formed as a sum, never above the result. A weight with sigma(w) >=
    2^36 takes the same steps on object arrays. The cap touches only values
    that no kernel compares with anything as large.
    """
    s = sieve.read(v)
    f = factorize(w)
    if f.sigma() >= 1 << 36:
        s, v = s.astype(object), v.astype(object)
    for p, e in f.factors:
        if p == 2:
            q = v & -v  # the lowest set bit, about 20 times faster than the loop
        else:
            q, live, power = np.ones_like(v), np.flatnonzero(v % p == 0), p
            while len(live):
                q[live], power = power, power * p
                live = live[v[live] % power == 0]
        old = (q * p - 1) // (p - 1)
        s = s // old * (old + q * ((p ** (e + 1) - p) // (p - 1)))
    return np.minimum(s - w * v, _CAP).astype(np.int64, copy=False)


def abundancy_solutions(sieve: SigmaSieve, bound: int, num: int, den: int) -> np.ndarray:
    """Every a <= bound with sigma(a)/a = num/den, for num/den in lowest
    terms, ascending: perfect numbers at 2/1, the multiamicable singletons
    at alpha/1, and construct's multipliers. den | a, so a = j*den, and then
    sigma(a)/a = num/den exactly when sigma(a) = num*j. The sieve must cover
    bound.

    int64: j*den <= bound is within the sieve, and sigma(a) = num*j is
    tested in division form, sigma(a) % num == 0 and sigma(a) // num == j,
    so no product with num is formed; a num capped at 2^62 divides no
    sigma(a), all of which are below 2^31, so it matches nothing, as its
    true value would not. j runs in blocks of SEGMENT, each reading
    sigma(j*den) in int64 through SigmaSieve.read of a strided slice.
    """
    num, count = _capped(num), bound // den
    found = [np.empty(0, dtype=np.int64)]
    for lo in range(1, count + 1, SEGMENT):
        hi = min(lo + SEGMENT, count + 1)
        j, s = np.arange(lo, hi), sieve.read(slice(lo * den, hi * den, den))
        found.append(j[(s % num == 0) & (s // num == j)] * den)
    return np.concatenate(found)


def _partner_pass(sieve: SigmaSieve, limit: int, partner, accept) -> tuple[np.ndarray, np.ndarray]:
    """The accepted pairs (m, n), m in 1..limit, as two arrays in the order
    of m: partner(m, s), s = sigma(m), gives each m its partner n and a mask
    of the valid ones, and accept(m, s, n) tests those. m runs in int64
    blocks of SEGMENT, so the pass holds a few block arrays besides the
    table; each rule states its own int64 argument."""
    found = [(np.empty(0, dtype=np.int64),) * 2]
    for lo in range(1, limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)
        m, s = np.arange(lo, hi), sieve.read(slice(lo, hi))
        n, keep = partner(m, s)
        m, s, n = m[keep], s[keep], n[keep]
        hit = accept(m, s, n)
        found.append((m[hit], n[hit]))
    return tuple(np.concatenate(column) for column in zip(*found))


def _cohen_pairs(spec: FamilySpec, limit: int, sieve: SigmaSieve):
    """(m, n), both <= limit, with s(m) = a*n and s(n) = b*m; m <= n when a = b.

    int64: n = s(m) / a is a quotient, and s(n) = b*m is tested as
    s(n) % m == 0 and s(n) // m == b, so no weight product is formed.
    """
    same = spec.alphas[0] == spec.alphas[1]
    a, b = _capped(spec.alphas[0]), _capped(spec.alphas[1])

    def partner(m, s):
        n, r = np.divmod(s - m, a)
        keep = (n >= 1) & (r == 0) & (n <= limit)
        return n, keep & (m <= n) if same else keep

    def accept(m, s, n):
        rn = sieve.read(n) - n
        return (rn % m == 0) & (rn // m == b)

    return _partner_pass(sieve, limit, partner, accept)


def _alpha_beta_pairs(spec: FamilySpec, limit: int, sieve: SigmaSieve):
    """(m, n), both <= limit, with s(a*n) = m and s(b*m) = n; m <= n when
    a = b. The pass runs over n, whose partner is m = s(a*n).

    int64: both reads go through _aliquots, which reads sigma(n) and
    sigma(m) from the table, as n, m <= limit, and applies the weight's
    factorization.
    """
    a, b = spec.alphas

    def partner(n, s):
        m = _aliquots(sieve, a, n)
        keep = (m >= 1) & (m <= limit)
        return m, keep & (m <= n) if a == b else keep

    return _partner_pass(sieve, limit, partner, lambda n, s, m: _aliquots(sieve, b, m) == n)[::-1]


def _sorted_entries(read, limit: int) -> np.ndarray:
    """The ascending int64 entries value(n)*(limit + 1) + n for n in
    1..limit, where read(slice) gives the int64 values over a slice of
    0..limit (SigmaSieve.read, or an int64 key array's __getitem__), built
    a block of SEGMENT at a time and sorted in place. The members of each
    value form one ascending run, and an entry e holds n = e % (limit + 1)
    and its value e // (limit + 1). As each holds its own
    n, no two are equal, so searchsorted finds an entry's own position
    (side="left") and the next (side="right"), where the slots start.
    int64: every value is below 2^31 and limit < 2^24, so every entry is
    below 2^55."""
    index = np.empty(limit, dtype=np.int64)
    for lo in range(0, limit, SEGMENT):
        hi = min(lo + SEGMENT, limit)
        index[lo:hi] = read(slice(lo + 1, hi + 1)) * (limit + 1) + np.arange(lo + 1, hi + 1)
    index.sort()
    return index


def _tuple_blocks(k: int, slot, size: int):
    """The k-tuples grown one slot at a time, in blocks of at most size
    tuples, each block a list of k member arrays, in the order of their
    prefixes and then of each prefix's slice.

    Slot j of every j-prefix runs over values[lo:hi], where
    (values, lo, hi) = slot(j, heads) for the list heads of a block's j
    member arrays, one prefix per row; lo and hi are ints or per-row
    arrays, and at j = 0 heads is [], the one empty prefix, and lo and hi
    are ints. k >= 1. Each level holds one block, views of values at level
    0 and _expand's (rows, column) after, so the k levels hold O(k) block
    arrays; _gather forms the heads for a slot rule and for the consumer.
    A stack of generators, not recursion, holds them, so any k runs.
    """
    values, lo, hi = slot(0, [])
    stack = [((None, values[start : min(start + size, hi)]) for start in range(lo, hi, size))]
    path = []  # the current block of each level but the last
    while stack:
        if (block := next(stack[-1], None)) is None:
            stack.pop()
            del path[-1:]
        elif len(stack) == k:
            yield _gather([*path, block])
        else:
            path.append(block)
            stack.append(_expand(*slot(len(stack), _gather(path)), size))


def _gather(path: list) -> list[np.ndarray]:
    """The member arrays of the last block of path, one (rows, column)
    block per level: its own column, and each earlier member read from its
    level's column through the rows of the levels after it."""
    members, rows = [], slice(None)
    for parent, column in reversed(path):
        members.append(column[rows])
        rows = rows if parent is None else parent[rows]
    return members[::-1]


def _expand(values: np.ndarray, lo, hi, size: int):
    """Each prefix row followed by each of values[lo:hi], lo and hi taken
    per row, in blocks (rows, column) of at most size rows: the prefix row
    each row extends and its new member; a slice splits where a block fills."""
    ends = np.cumsum(np.maximum(hi - lo, 0))
    offset = lo - np.append(0, ends[:-1])  # position p of all slices, in prefix i's, is values[p + offset[i]]
    del lo, hi
    total = int(ends[-1])
    for start in range(0, total, size):
        stop = min(start + size, total)
        a, b = np.searchsorted(ends, [start, stop - 1], side="right")
        length = np.minimum(ends[a : b + 1], stop) - start
        length[1:] = np.diff(length)
        rows = np.repeat(np.arange(a, b + 1), length)
        yield rows, values[np.arange(start, stop) + np.repeat(offset[a : b + 1], length)]


def equal_sigma_blocks(sieve: SigmaSieve, limit: int, k: int):
    """The strictly increasing k-tuples over 1..limit of one sigma value, in
    blocks (sigma, members) of at most _BLOCK tuples, members a list of k
    arrays; the sieve must cover limit. _tuple_blocks grows them over the
    _sorted_entries of sigma: slot j > 0 runs from the entry after the
    prefix's last member, found by searchsorted, to the end of its sigma
    run, less the k - 1 - j entries the later members need."""
    index, width = _sorted_entries(sieve.read, limit), limit + 1

    def slot(j, heads):
        if j == 0:
            return index, 0, limit
        end = np.searchsorted(index, (heads[-1] // width + 1) * width)
        return index, np.searchsorted(index, heads[-1], side="right"), end - (k - 1 - j)

    for block in _tuple_blocks(k, slot, _BLOCK):
        yield block[0] // width, [h % width for h in block]


def weighted_tuples(sieve: SigmaSieve, limit: int, alphas, factor: int, strict: bool, partner_limit: int | None):
    """The k = len(alphas) >= 2 member arrays of every tuple of one sigma
    value with a_1*n_1 + ... + a_k*n_k = T = factor*sigma, members
    non-decreasing (strictly increasing when strict), n_1, ..., n_(k-1) <=
    limit and n_k <= partner_limit when one is given; the sieve must cover
    limit. Rows come in the order of their first members.

    The first members n <= T // tails[0], tails[i] = a_i + ... + a_k, run
    in blocks of SEGMENT: at k = 2 in natural order, with no sort, and at
    k >= 3 in the order of the _sorted_entries of sigma. _tuple_blocks
    grows their prefixes of entries sigma*(limit + 1) + n: middle slot i
    runs from the previous member's entry (the next one when strict) to
    the last v with partial + tails[i]*v <= T, as every later member is
    >= v; one searchsorted finds each end. The last member v = (T -
    partial) / a_k is kept when the division is exact, v >= the previous
    member (> when strict), v <= partner_limit when one is given, and
    sigma(v) equals the prefix's sigma. A v within the sieve is read from
    the table at once. One past it waits: once at least SEGMENT such rows
    have gathered, and again at the end, one sigma_beyond call answers them
    all, as its cost is a pass per prime however few values it holds. The
    rows that wait keep their places among the rest, so the arrays come in
    the same order whatever SEGMENT is, which density's bisection needs.

    int64: sigma is read in int64, below 2^26 for n <= MAX_SEARCH_LIMIT, so
    an entry is below 2^50, and so is T when factor is 1. Weights and tails
    are capped at _CAP, which exceeds that T, so a capped one admits no
    member, as its true value would not. factor and T are capped at _CAP
    too; with weights of 1 and factor k - 1 (Yanney), T = n_1 + ... + n_k
    passes 2^62 only for k > 2^38. Slot 0 ends at T // tails[0] and slot i
    at the quotient (T - partial) // tails[i], so a_i*v is formed only once
    it is bounded by T - partial, and every partial sum stays <= T <= 2^62.
    Without a partner_limit, factor is 1 (the amicable numbers and density
    multi), so v <= T = sigma(n_1) <= n_1^2 <= limit^2, within the square
    of the sieve's limit, and sigma_beyond serves every v past the sieve;
    with a partner_limit no v lies past it. A call holds fewer than
    2*SEGMENT values, as one block adds at most SEGMENT."""
    k, width = len(alphas), limit + 1
    weights = [_capped(a) for a in alphas]
    tails = [_capped(sum(alphas[i:])) for i in range(k)]
    factor = _capped(factor)
    index = _sorted_entries(sieve.read, limit) if k > 2 else None

    def target(s):
        t = np.minimum(s, _CAP // factor)
        t *= factor
        return t

    def split(heads):
        # the sigma, last member and T - partial of each prefix, whose entries share one sigma
        s = heads[-1] // width
        base, left = s * width, target(s)
        for w, h in zip(weights, heads):
            left -= w * (h - base)
        return s, heads[-1] - base, left

    def slot(j, heads):
        if j == 0:
            return first, 0, len(first)
        s, _, left = split(heads)
        end = s * width + np.minimum(left // tails[j], limit)
        start = np.searchsorted(index, heads[-1], side="right" if strict else "left")
        return index, start, np.searchsorted(index, end, side="right")

    blocks = [[np.empty(0, dtype=np.int64)] * k]
    waiting, past = [], 0

    def answer():
        # one sigma_beyond call for every waiting row past the table
        *members, s = (np.concatenate(column) for column in zip(*waiting))
        v = members[-1]
        rows = np.flatnonzero(v > sieve.limit)
        hit = np.ones(len(v), dtype=bool)
        hit[rows] = sigma_beyond(sieve, v[rows]) == s[rows]
        blocks.append([m[hit] for m in members])
        waiting.clear()

    for lo in range(1, width, SEGMENT):
        hi = min(lo + SEGMENT, width)
        s, n = np.divmod(index[lo - 1 : hi - 1], width) if k > 2 else (sieve.read(slice(lo, hi)), np.arange(lo, hi))
        # the bound is formed in place, so each block allocates fewer
        # block-sized arrays
        bound = target(s)
        bound //= tails[0]
        keep = n <= bound
        s, n = s[keep], n[keep]
        first = s * width + n
        for heads in _tuple_blocks(k - 1, slot, SEGMENT):
            s, last, left = split(heads)
            v = left // weights[-1]
            keep = (v * weights[-1] == left) & (v >= last + strict) & (v <= (partner_limit or _CAP))
            heads, s, v = [h[keep] for h in heads], s[keep], v[keep]
            # rows within the sieve are answered now; those past it wait
            hit = v > sieve.limit
            inside = np.flatnonzero(~hit)
            hit[inside] = sieve.read(v[inside]) == s[inside]
            past += len(v) - len(inside)
            waiting.append([h[hit] - s[hit] * width for h in heads] + [v[hit], s[hit]])
            if past >= SEGMENT:
                answer()
                past = 0
    if waiting:
        answer()
    return [np.concatenate(column) for column in zip(*blocks)]


def _weighted(spec: FamilySpec, limit: int, sieve: SigmaSieve):
    """The tuples of a families.weighted_form, members <= limit and strictly
    increasing for multiamicable, and the amicable numbers: the members of
    the pairs m < n of sigma(m) = sigma(n) = m + n, each m <= limit with its
    n solved with no bound, and each n <= limit."""
    if spec.kind == "amicable-number":
        m, n = weighted_tuples(sieve, limit, (1, 1), 1, True, None)
        return [np.union1d(m, n[n <= limit])]
    weights, factor = weighted_form(spec)
    if spec.k == 1:
        return [abundancy_solutions(sieve, limit, weights[0], factor)]
    return weighted_tuples(sieve, limit, weights, factor, spec.kind == "multiamicable", limit)


# The kernel of each kind that is not a mean family: _weighted unless named.
_KERNELS = {"cohen-pair": _cohen_pairs, "alpha-beta": _alpha_beta_pairs}


def _powmod(base: np.ndarray, exp, mod: int) -> np.ndarray:
    """base**exp % mod elementwise by square-and-multiply; base holds
    residues below mod and exp is an int or an array of ints >= 0."""
    out = np.ones_like(base)
    exp = np.broadcast_to(np.asarray(exp, dtype=np.int64), base.shape).copy()
    while exp.any():
        out = np.where(exp & 1, out * base % mod, out)
        base = base * base % mod
        exp >>= 1
    return out


def _iroot(x: int, p: int) -> int:
    """The largest c >= 0 with c**p <= x, for x >= 0 and p >= 1, bit by bit
    from the top; c < 2^ceil(b/p) for x < 2^b, so no power tried exceeds
    2^(b + p)."""
    c = 0
    for bit in reversed(range(-(-x.bit_length() // p))):
        if (c | 1 << bit) ** p <= x:
            c |= 1 << bit
    return c


def _additive(spec: FamilySpec):
    """spec's MEAN_EQUATIONS entry as factor lists (num, den, rhs) that read
    sum_i key(n_i) = target, or None when it does not.

    The total sum n is positive, so a first power of it on both sides
    cancels: whm with p = 1, (sum n/sigma) * (sum n) = sum n, becomes the
    feebly equation sum n/sigma = 1. What is left must be q times one term
    on the left and q times at most one term on the right. A term is the
    sum of a column, or the first power of the total, which is the sum of
    n; the left term may instead be the cross sum of n^a over the
    denominator prod sigma^b, which is that denominator times
    sum n^a / sigma^b. At k = 1 each term is then its member's own value,
    which is what the search reads as the member's key.
    """
    _, *sides = MEAN_EQUATIONS[spec.kind]
    exponent = {"p": spec.p, "k": spec.k}
    total = ("sum", 1, 0)

    def resolved(f):
        f = (f[0], *(exponent.get(e, e) for e in f[1:]))
        return total if f == ("total", 1) else f

    num, den, rhs = ([resolved(f) for f in side] for side in sides)
    if total in num and total in rhs:
        num.remove(total)
        rhs.remove(total)
    left = [f for f in num if f[0] != "q"]
    right = [f for f in rhs if f[0] != "q"]
    if len(left) != 1 or len(right) > 1 or any(f[0] != "sum" for f in right):
        return None
    kind, _, b = left[0]
    if (kind, den) not in (("sum", []), ("cross", [("prod", 0, b)])):
        return None
    return num, den, rhs


def _last_slot(spec: FamilySpec, limit: int, sieve: SigmaSieve):
    """(last, keep) for the row scan of spec at k >= 2, or Nones when the
    whole slot is scanned. For a block's k - 1 prefix member arrays heads,
    last(heads) gives (values, lo, hi), and each prefix's last slot runs over
    values[lo:hi]; keep(v, total), when not None, masks the rows whose last
    member v cannot complete a member. Both are necessary conditions, so no
    member is skipped; the exact check follows.

    hm: (sum_i 1/sigma_i^p) * T^p = q with T = sum n reads
    sum_i (T/sigma_i)^p = q. Every term is positive and there are k >= 2
    of them, so each is below q: T^p < q*sigma_i^p for every member. With
    c = iroot(q * 2^(s*p), p), so that c/2^s <= q^(1/p) < (c+1)/2^s, and
    c' = c when c^p = q * 2^(s*p) and c + 1 otherwise, that reads
    T * 2^s < sigma_i * c', which is T <= cap(n_i) = (sigma_i*c' - 1) >> s.
    Each prefix member caps T, so the last member v <= min_i cap(n_i) - S
    with S the prefix sum, and the row of v is kept when T <= cap(v). That
    mask is left out when q >= k^p, where it drops at most the tuple of
    ones: every member is at most v <= sigma(v), so T <= k*sigma(v).
    s = min(16, 4096 // p) keeps the radicand within 4096 bits past q's,
    and the caps exceed the exact bound by at most sigma/2^s + 1; at p = 1,
    c' = q*2^s and cap(n) = q*sigma(n) - 1 exactly. int64: the caps are
    Python ints clamped at k*limit, which no total exceeds, so every value
    the mask and the slot ends compare is at most k*limit.

    gm: by AM-GM, T^k >= k^k * prod n_i, and prod sigma_i = T^k, so
    prod sigma_i/n_i >= k^k and some member is rich, sigma(n) >= k*n, a
    test in division form, sigma(n) // n >= k. A prefix with no rich member
    takes its last member from the rich numbers >= prefix[-1] only, which
    values holds after 1..limit.

    Other families scan the whole slot. wpm's condition, max sigma_i >= T
    from T^(p+1) = sum n_i*sigma_i^p <= T * max sigma_i^p, keeps 58% of the
    pairs at L = 3000 and gives no range, so it is not applied.
    """
    k = spec.k
    everything = np.arange(1, limit + 1)
    if spec.kind == "hm":
        p, q = spec.p, spec.q
        s = min(16, 4096 // p)
        c = _iroot(q << s * p, p)
        c += c**p != q << s * p
        cap = np.array([min((v * c - 1) >> s, k * limit) for v in sieve.read(slice(limit + 1)).tolist()])

        def last(heads):
            return everything, heads[-1] - 1, np.minimum(np.min([cap[h] for h in heads], axis=0) - sum(heads), limit)

        keep = None if _iroot(q, p) >= k else (lambda v, total: total <= cap[v])
        return last, keep
    if spec.kind == "gm":
        is_rich = np.append(False, sieve.read(slice(1, limit + 1)) // everything >= k)
        rich = np.flatnonzero(is_rich)
        first = limit + np.searchsorted(rich, np.arange(limit + 1))
        values = np.concatenate([everything, rich])

        def last(heads):
            any_rich = np.any([is_rich[h] for h in heads], axis=0)
            top = heads[-1]
            return values, np.where(any_rich, top - 1, first[top]), np.where(any_rich, limit, limit + len(rich))

        return last, None
    return None, None


def _mean_family_kernel(spec: FamilySpec, limit: int, sieve: SigmaSieve) -> list[TupleRecord]:
    """The records, in sorted order, of every non-decreasing k-tuple over
    1..limit that satisfies spec's MEAN_EQUATIONS entry.

    Each block of candidate tuples evaluates the entry in residues modulo the
    prime _MODULUS < 2^31, from the columns n^a * sigma(n)^b over 1..limit
    and the powers of the total over 1..k*limit, each tabulated once per run
    by square-and-multiply; _last_slot narrows each prefix's last slot for
    hm and gm first. When the entry reads sum_i key(n_i) = target
    (_additive: pm with p = 1, mp, feebly, and whm with p = 1), the last
    member is solved for instead, with no row filter: each (k-1)-prefix's
    last slot is the run of the key's _sorted_entries whose residue is
    target minus the prefix's sum: O(L log L) at k = 2, not L^2 / 2.
    A key over the denominator sigma(n)^b is n^a times the inverse of
    sigma(n)^b, which is sigma(n)^(b*(P-2)) by Fermat for the prime P; it
    exists since sigma(n) < 2^26 < P for every n <= MAX_SEARCH_LIMIT.
    int64: sigma is read in int64, and every value is a residue below
    2^31, reduced after each add and multiply, so a sum stays below 2^32
    and a product below 2^62, and every key is a value below 2^31 that
    _sorted_entries admits. A member's equation holds in the integers
    and hence modulo the prime, where each denominator is a unit, so the
    filter cannot drop a member. A candidate that passes is kept only when
    families.check proves it, so a false positive is dropped and each
    record is proven once. Only sigma(n) for n <= limit is read.
    """
    mod, k = _MODULUS, spec.k
    n = np.arange(limit + 1, dtype=np.int64)
    sig = sieve.read(slice(limit + 1)) % mod
    last, keep = _last_slot(spec, limit, sieve) if k > 1 else (None, None)

    @cache
    def columns(a, b):
        return _powmod(n, a, mod) * _powmod(sig, n if b == "n" else b, mod) % mod

    @cache
    def powers(e):
        t = np.arange(k * limit + 1, dtype=np.int64)
        return _powmod(t % mod, t if e == "n" else e, mod)

    def filtered(blocks):
        for members in blocks:
            total = sum(members)
            if keep is not None:
                rows = np.flatnonzero(keep(members[-1], total))
                members, total = [m[rows] for m in members], total[rows]
            column = cache(lambda a, b: [columns(a, b)[m] for m in members])
            num, den, rhs = mean_sides(spec, column, lambda e: powers(e)[total], mod)
            hit = np.flatnonzero(num == rhs * den % mod)
            yield [m[hit] for m in members]

    def solved(entry):
        # the last slot over 1..limit sorted by key, each key read from the
        # entry at k = 1
        num, den, rhs = mean_sides(spec, lambda a, b: [columns(a, b)], lambda e: columns(e, 0), mod, entry)
        if entry[1]:
            num = num * _powmod(den, mod - 2, mod) % mod
        # a right side without a term is the constant target
        key, target = ((num - rhs) % mod, 0) if np.ndim(rhs) else (num, rhs)
        order = _sorted_entries(key.__getitem__, limit)
        by_key = order % (limit + 1)

        def last(heads):
            base = ((target - sum(key[m] for m in heads)) % mod) * (limit + 1)
            return by_key, np.searchsorted(order, base + heads[-1]), np.searchsorted(order, base + limit + 1)

        return last

    def whole(heads):
        return n[1:], heads[-1] - 1 if heads else 0, limit

    entry = _additive(spec) if k > 1 else None
    last = solved(entry) if entry else last or whole

    blocks = _tuple_blocks(k, lambda j, heads: (last if j == k - 1 else whole)(heads), _BLOCK)
    records = []
    for members in blocks if entry else filtered(blocks):
        for t in zip(*(m.tolist() for m in members)):
            outcome = check(spec, t, sieve)
            if isinstance(outcome, TupleRecord):
                records.append(outcome)
    return sorted(records, key=lambda r: r.members)


def check_search_limit(limit: int, spec: FamilySpec | None = None) -> None:
    """Raise ValueError unless 1 <= limit <= MAX_SEARCH_LIMIT and spec's p,
    when given, fits the int64 exponents of the mean families' filter."""
    if limit < 1:
        raise ValueError("search limit must be >= 1")
    if limit > MAX_SEARCH_LIMIT:
        raise ValueError(f"search limit {limit} exceeds the cap of {MAX_SEARCH_LIMIT}")
    if spec is not None and spec.p is not None and spec.p >= 2**63:
        raise ValueError(f"search p {spec.p} must be below 2^63")


def enumerate_family(spec: FamilySpec, limit: int, sieve: SigmaSieve | None = None) -> SearchReport:
    """Every tuple of the family with all elements <= limit, found in this
    process over a sieve that covers limit: the caller's or one built to it,
    since every kernel, alpha-beta's sigma(a*n) too, reads the table only
    to limit."""
    check_search_limit(limit, spec)
    sieve = covering_sieve(limit, sieve)

    if spec.kind in MEAN_EQUATIONS:
        records = _mean_family_kernel(spec, limit, sieve)
        scanned = math.comb(limit + spec.k - 1, spec.k)
    else:
        records, scanned = _verified(spec, _KERNELS.get(spec.kind, _weighted)(spec, limit, sieve), sieve), limit
    return SearchReport(spec, limit, records, scanned)


def _verified(spec: FamilySpec, columns, sieve: SigmaSieve) -> list[TupleRecord]:
    """The tuples of the found member columns, in sorted order, each
    re-proven by families.check.

    A tuple that fails the check is a bug in the scan and raises RuntimeError.
    """
    records = []
    for t in sorted(zip(*(c.tolist() for c in columns))):
        outcome = check(spec, t, sieve, provenance="found")
        if isinstance(outcome, Mismatch):
            raise RuntimeError(f"search produced a non-member: {outcome.describe()}")
        records.append(outcome)
    return records


def scan_open_question(limit: int, sieve: SigmaSieve | None = None) -> SearchReport:
    """Pairs m <= n <= limit with sigma(m) = sigma(n) and sigma(m)^2 = m^2 + n^2.

    Such a pair would answer the open question on mp(2,2) pairs with equal
    sigma; every scan so far comes back empty. The second equation fixes the
    partner of each m as n = isqrt(sigma(m)^2 - m^2), so one partner pass
    visits each candidate m once.

    int64: sigma is read in int64; the limit is capped at MAX_SEARCH_LIMIT =
    10^7, and sigma(m) < 2^26 for every m <= 10^7, so the target
    sigma(m)^2 - m^2 is below 2^52. float64 holds it exactly, and its sqrt,
    truncated, is within one of isqrt(target); n is corrected by one either
    way and kept only when n*n == target exactly.
    """
    check_search_limit(limit)
    sieve = covering_sieve(limit, sieve)
    spec = FamilySpec("mp", 2, p=2, q=2)

    def partner(m, s):
        target = s * s - m * m
        n = np.sqrt(np.maximum(target, 0)).astype(np.int64)
        n -= n * n > target
        n += (n + 1) * (n + 1) <= target
        return n, (m <= n) & (n <= limit) & (n * n == target)

    found = _partner_pass(sieve, limit, partner, lambda m, s, n: sieve.read(n) == s)
    return SearchReport(spec, limit, _verified(spec, found, sieve), limit, label="equal-sigma mp(2,2) pairs")
