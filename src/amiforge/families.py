"""Membership predicates for the amicability families.

Each kind's k and parameter rules are one `KIND_RULES` entry. Each
family's defining equations are written once, in `_equations`; `holds`,
`check` with its mismatch diagnostics, and the `is_*` predicates all derive
from it. The search reads the weighted families' `WEIGHTED_EQUATIONS` and
`weighted_form`, and the mean families' `MEAN_EQUATIONS`, too. Every
equation is decided on exact integers (or Fractions where the defining
equation divides), so a True verdict is a proof at the tested tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

from .arith import factorize, sigma

if TYPE_CHECKING:
    from .sieve import SigmaSieve

class KindRules(NamedTuple):
    min_k: int  # the least k
    fixed_k: int | None  # the k required when only one is allowed
    params: tuple[str, ...]  # which of p, q and alphas the kind takes


KIND_RULES = {
    "amicable-pair": KindRules(2, 2, ()),
    "perfect": KindRules(1, 1, ()),
    "amicable-number": KindRules(1, 1, ()),
    "dickson": KindRules(2, None, ()),
    "yanney": KindRules(2, None, ()),
    "cohen-pair": KindRules(2, 2, ("alphas",)),
    "multiamicable": KindRules(1, None, ("alphas",)),
    "alpha-beta": KindRules(2, 2, ("alphas",)),
    "pm": KindRules(1, None, ("p", "q")),
    "wpm": KindRules(1, None, ("p",)),
    "gm": KindRules(1, None, ()),
    "wgm": KindRules(1, None, ()),
    "hm": KindRules(1, None, ("p", "q")),
    "whm": KindRules(1, None, ("p",)),
    "feebly": KindRules(1, None, ()),
    "mp": KindRules(1, None, ("p", "q")),
}
KINDS = tuple(KIND_RULES)


@dataclass(frozen=True)
class FamilySpec:
    """One tuple family with its parameters pinned down."""

    kind: str
    k: int
    p: int | None = None
    q: int | None = None
    alphas: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in KIND_RULES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        rules = KIND_RULES[self.kind]
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if rules.fixed_k is not None and self.k != rules.fixed_k:
            raise ValueError(f"{self.kind} requires k = {rules.fixed_k}")
        if self.k < rules.min_k:
            raise ValueError(f"{self.kind} requires k >= {rules.min_k}")
        for name in ("p", "q", "alphas"):
            if (getattr(self, name) is not None) != (name in rules.params):
                word = "requires" if name in rules.params else "does not take"
                label = name if name == "alphas" else f"parameter {name}"
                raise ValueError(f"{self.kind} {word} {label}")
        if self.p is not None:
            if self.p < 1:
                raise ValueError("p must be >= 1")
            if self.kind == "mp" and self.p < 2:
                raise ValueError("mp requires p >= 2")
        if self.q is not None and self.q < 1:
            raise ValueError("q must be >= 1")
        if self.alphas is not None:
            object.__setattr__(self, "alphas", tuple(self.alphas))
            if len(self.alphas) != self.k:
                raise ValueError(f"{self.kind} requires {self.k} alphas, got {len(self.alphas)}")
            if min(self.alphas) < 1:
                raise ValueError("alphas must be positive integers")

    def params(self) -> list[tuple[str, int | tuple[int, ...]]]:
        """(name, value) of each parameter that is set, in the order k, p, q, alphas."""
        named = (("k", self.k), ("p", self.p), ("q", self.q), ("alphas", self.alphas))
        return [(name, value) for name, value in named if value is not None]

    def describe(self) -> str:
        parts = [f"{name}={_joined(value, ',')}" for name, value in self.params()]
        return f"{self.kind}({' '.join(parts)})"


def _joined(value, sep: str) -> str:
    """value as text; the entries of a tuple are joined with sep."""
    return sep.join(map(str, value)) if isinstance(value, tuple) else str(value)


def is_perfect(n: int, sieve: SigmaSieve | None = None) -> bool:
    return holds(FamilySpec("perfect", 1), (n,), sieve)


def is_amicable_pair(m: int, n: int, sieve: SigmaSieve | None = None) -> bool:
    """sigma(m) = sigma(n) = m + n. Perfect numbers enter as (n, n)."""
    return holds(FamilySpec("amicable-pair", 2), (m, n), sieve)


def is_amicable_number(n: int, sieve: SigmaSieve | None = None) -> bool:
    """n is a member of an amicable pair: sigma(s(n)) = sigma(n).

    Perfect numbers satisfy the equation trivially and are excluded.
    """
    return holds(FamilySpec("amicable-number", 1), (n,), sieve)


def is_dickson_tuple(t, sieve: SigmaSieve | None = None) -> bool:
    """sigma(n_i) = n_1 + ... + n_k for every member."""
    return holds(FamilySpec("dickson", len(t)), t, sieve)


def is_yanney_tuple(t, sieve: SigmaSieve | None = None) -> bool:
    """(k - 1) * sigma(n_i) = n_1 + ... + n_k for every member."""
    return holds(FamilySpec("yanney", len(t)), t, sieve)


def is_cohen_pair(m: int, n: int, alpha: int, beta: int, sieve: SigmaSieve | None = None) -> bool:
    """s(m) = alpha * n and s(n) = beta * m."""
    return holds(FamilySpec("cohen-pair", 2, alphas=(alpha, beta)), (m, n), sieve)


def is_multiamicable(t, alphas, sieve: SigmaSieve | None = None) -> bool:
    """sigma(n_1) = ... = sigma(n_k) = alpha_1*n_1 + ... + alpha_k*n_k."""
    return holds(FamilySpec("multiamicable", len(t), alphas=alphas), t, sieve)


def is_alpha_beta_pair(m: int, n: int, alpha: int, beta: int, sieve: SigmaSieve | None = None) -> bool:
    """m = s(alpha * n) and n = s(beta * m)."""
    return holds(FamilySpec("alpha-beta", 2, alphas=(alpha, beta)), (m, n), sieve)


def is_pm(t, p: int, q: int, sieve: SigmaSieve | None = None) -> bool:
    """sigma^p(n_1) + ... + sigma^p(n_k) = q * (n_1 + ... + n_k)^p."""
    return holds(FamilySpec("pm", len(t), p=p, q=q), t, sieve)


def is_wpm(t, p: int, sieve: SigmaSieve | None = None) -> bool:
    """n_1*sigma^p(n_1) + ... + n_k*sigma^p(n_k) = (n_1 + ... + n_k)^(p+1)."""
    return holds(FamilySpec("wpm", len(t), p=p), t, sieve)


def is_gm(t, sieve: SigmaSieve | None = None) -> bool:
    """sigma(n_1) * ... * sigma(n_k) = (n_1 + ... + n_k)^k."""
    return holds(FamilySpec("gm", len(t)), t, sieve)


def is_wgm(t, sieve: SigmaSieve | None = None) -> bool:
    """sigma(n_1)^(n_1) * ... * sigma(n_k)^(n_k) = (n_1 + ... + n_k)^(n_1 + ... + n_k).

    Compared through prime-exponent vectors, never through the astronomically
    large powers themselves.
    """
    return holds(FamilySpec("wgm", len(t)), t, sieve)


def is_hm(t, p: int, q: int, sieve: SigmaSieve | None = None) -> bool:
    """(1/sigma^p(n_1) + ... + 1/sigma^p(n_k)) * (n_1 + ... + n_k)^p = q."""
    return holds(FamilySpec("hm", len(t), p=p, q=q), t, sieve)


def is_whm(t, p: int, sieve: SigmaSieve | None = None) -> bool:
    """(n_1^p/sigma^p(n_1) + ... ) * (n_1 + ... + n_k)^p = n_1^p + ... + n_k^p."""
    return holds(FamilySpec("whm", len(t), p=p), t, sieve)


def is_feebly_amicable(t, sieve: SigmaSieve | None = None) -> bool:
    """n_1/sigma(n_1) + ... + n_k/sigma(n_k) = 1."""
    return holds(FamilySpec("feebly", len(t)), t, sieve)


def is_mp(t, p: int, q: int, sieve: SigmaSieve | None = None) -> bool:
    """sigma^p(n_1) + ... + sigma^p(n_k) = q * (n_1^p + ... + n_k^p), p >= 2."""
    return holds(FamilySpec("mp", len(t), p=p, q=q), t, sieve)


def _equations(spec: FamilySpec, t: tuple[int, ...], sieve: SigmaSieve | None):
    """Yield (equation, lhs, rhs) for each defining equation of spec at t.

    t is a member exactly when lhs == rhs for every triple. Consumers stop
    at the first unequal triple, so the equations after it are never
    evaluated.
    """
    kind = spec.kind
    sg = [sigma(n, sieve) for n in t]
    total = sum(t)
    if kind in WEIGHTED_EQUATIONS:
        weights, factor = weighted_form(spec)
        target = sum(w * n for w, n in zip(weights, t))
        for n, s in zip(t, sg):
            yield WEIGHTED_EQUATIONS[kind].format(n=n), factor * s, target
    elif kind == "amicable-number":
        (n,), (sn,) = t, sg
        if n < 2:
            raise ValueError("amicable-number test requires n >= 2 (aliquot of 1 is 0)")
        if sn == 2 * n:
            # Perfect numbers solve the equation below trivially; this
            # triple is unequal by construction and so excludes them.
            yield "n not perfect", f"sigma({n}) = {sn}", f"2n = {2 * n} (perfect excluded)"
        yield f"sigma(s({n})) = sigma({n})", sigma(sn - n, sieve), sn
    elif kind == "cohen-pair":
        (m, n), (a, b) = t, spec.alphas
        yield f"s({m}) = alpha*n", sg[0] - m, a * n
        yield f"s({n}) = beta*m", sg[1] - n, b * m
    elif kind == "alpha-beta":
        (m, n), (a, b) = t, spec.alphas
        an, bm = a * n, b * m
        yield f"s({a}*{n}) = m", sigma(an, sieve) - an, m
        yield f"s({b}*{m}) = n", sigma(bm, sieve) - bm, n
    elif kind == "wgm":
        # Prime-exponent vectors of both sides, one equation per prime.
        lhs: dict[int, int] = {}
        for n, s in zip(t, sg):
            for prime, e in factorize(s).factors:
                lhs[prime] = lhs.get(prime, 0) + n * e
        rhs = {prime: total * e for prime, e in factorize(total).factors}
        for prime in sorted(lhs.keys() | rhs.keys()):
            yield (
                f"exponent of {prime} in {MEAN_EQUATIONS['wgm'][0]}",
                lhs.get(prime, 0),
                rhs.get(prime, 0),
            )
    elif kind in MEAN_EQUATIONS:
        num, den, rhs = mean_sides(
            spec,
            lambda a, b: [n**a * s**b for n, s in zip(t, sg)],
            lambda e: total**e,
        )
        yield MEAN_EQUATIONS[kind][0], Fraction(num, den), rhs


# The weighted families, each read as factor*sigma(n_i) = w_1*n_1 + ... +
# w_k*n_k for every member i, with the weights and factor of weighted_form;
# each entry names that equation at member {n}.
WEIGHTED_EQUATIONS = {
    "perfect": "sigma(n) = 2n",
    "amicable-pair": "sigma({n}) = m + n",
    "dickson": "sigma({n}) = sum",
    "yanney": "(k-1)*sigma({n}) = sum",
    "multiamicable": "sigma({n}) = sum alpha_i*n_i",
}


def weighted_form(spec: FamilySpec) -> tuple[tuple[int, ...], int]:
    """(weights, factor) of a WEIGHTED_EQUATIONS kind: (2,) for perfect, the
    alphas for multiamicable and ones otherwise; factor k - 1 for yanney."""
    if spec.kind == "perfect":
        return (2,), 1
    if spec.kind == "multiamicable":
        return spec.alphas, 1
    return (1,) * spec.k, spec.k - 1 if spec.kind == "yanney" else 1


# The mean families, each written once as a cleared-denominator identity
# num = rhs * den, read as num / den = rhs. A side is a product of factors
# over the per-member columns n^a * sigma(n)^b:
#   ("sum", a, b)    sum_i n_i^a * sigma(n_i)^b
#   ("prod", a, b)   prod_i n_i^a * sigma(n_i)^b
#   ("cross", a, b)  sum_i n_i^a * prod_{j != i} sigma(n_j)^b
#   ("total", e)     (sum_i n_i)^e
#   ("q",)           the parameter q
# An exponent is an int, "p", "k", or "n", which stands for the member
# itself in sigma(n)^n and for the total itself in (sum n)^(sum n). check
# decides wgm through prime exponents instead, since its powers are
# astronomically large; the search reads its entry modulo a prime.
MEAN_EQUATIONS = {
    "pm": ("sum sigma^p = q*(sum n)^p", [("sum", 0, "p")], [], [("q",), ("total", "p")]),
    "wpm": ("sum n*sigma^p = (sum n)^(p+1)", [("sum", 1, "p")], [], [("total", 1), ("total", "p")]),
    "gm": ("prod sigma = (sum n)^k", [("prod", 0, 1)], [], [("total", "k")]),
    "wgm": ("prod sigma(n_i)^(n_i) = (sum n)^(sum n)", [("prod", 0, "n")], [], [("total", "n")]),
    "hm": (
        "(sum 1/sigma^p)*(sum n)^p = q",
        [("total", "p"), ("cross", 0, "p")],
        [("prod", 0, "p")],
        [("q",)],
    ),
    "whm": (
        "(sum n^p/sigma^p)*(sum n)^p = sum n^p",
        [("total", "p"), ("cross", "p", "p")],
        [("prod", 0, "p")],
        [("sum", "p", 0)],
    ),
    "feebly": ("sum n/sigma(n) = 1", [("cross", 1, 1)], [("prod", 0, 1)], []),
    "mp": ("sum sigma^p = q*(sum n^p)", [("sum", 0, "p")], [], [("q",), ("sum", "p", 0)]),
}


def mean_sides(spec: FamilySpec, column, power, mod: int | None = None, entry=None):
    """(num, den, rhs) of spec's MEAN_EQUATIONS entry, so that a tuple is a
    member exactly when num == rhs * den; entry, when given, stands for the
    entry's three factor lists.

    column(a, b) gives the members' values of n^a * sigma(n)^b as a list
    and power(e) gives (sum n)^e, with each exponent resolved to an int or
    "n". The sides are exact when mod is None and residues modulo mod
    otherwise, reduced after every add and multiply; the values may be ints
    or numpy arrays.
    """
    exponent = {"p": spec.p, "k": spec.k}

    mul = (lambda x, y: x * y) if mod is None else (lambda x, y: x * y % mod)
    add = (lambda x, y: x + y) if mod is None else (lambda x, y: (x + y) % mod)

    def factor(f):
        if f[0] == "q":
            return spec.q if mod is None else spec.q % mod
        if f[0] == "total":
            return power(exponent.get(f[1], f[1]))
        a, b = (exponent.get(e, e) for e in f[1:])
        if f[0] == "cross":
            # sum_i f_i * prod_{j != i} g_j, carried with the prefix product of g
            fs, gs = column(a, 0), column(0, b)
            acc, prod = fs[0], gs[0]
            for fi, gi in zip(fs[1:], gs[1:]):
                acc = add(mul(acc, gi), mul(prod, fi))
                prod = mul(prod, gi)
            return acc
        return reduce(add if f[0] == "sum" else mul, column(a, b))

    def side(factors):
        return reduce(mul, map(factor, factors)) if factors else 1

    num, den, rhs = entry or MEAN_EQUATIONS[spec.kind][1:]
    return side(num), side(den), side(rhs)


def _validate_members(members, k: int) -> tuple[int, ...]:
    t = tuple(members)
    if not t:
        raise ValueError("tuple must be non-empty")
    if min(t) < 1:
        raise ValueError("tuple members must be positive integers")
    if len(t) != k:
        raise ValueError(f"tuple has {len(t)} members but spec.k = {k}")
    return t


def holds(spec: FamilySpec, members, sieve: SigmaSieve | None = None) -> bool:
    """Evaluate the membership predicate of spec at the given tuple."""
    t = _validate_members(members, spec.k)
    return all(lhs == rhs for _, lhs, rhs in _equations(spec, t, sieve))


@dataclass(frozen=True)
class TupleRecord:
    """A verified member of a family."""

    spec: FamilySpec
    members: tuple[int, ...]
    sigmas: tuple[int, ...]
    provenance: str = "found"  # found (a search) | table (verify-tables)


@dataclass(frozen=True)
class Mismatch:
    """A failed membership test, with both sides of the first broken equation."""

    spec: FamilySpec
    members: tuple[int, ...]
    equation: str
    lhs: str
    rhs: str

    def describe(self) -> str:
        return f"{self.equation}: LHS {self.lhs} != RHS {self.rhs}"


def check(spec: FamilySpec, members, sieve: SigmaSieve | None = None, provenance: str = "found"):
    """Full membership check: TupleRecord on success, Mismatch on failure."""
    t = _validate_members(members, spec.k)
    for equation, lhs, rhs in _equations(spec, t, sieve):
        if lhs != rhs:
            return Mismatch(spec, t, equation, str(lhs), str(rhs))
    return TupleRecord(spec, t, tuple(sigma(n, sieve) for n in t), provenance)
