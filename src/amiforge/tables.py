"""Reference tuples for every family, stored exactly as published.

Numbers that appear in factored form are kept as factored strings, which
seed_values expands; each expansion is cross-checked against factorize, so a
transcription slip cannot survive silently. The one duplicated hm row in the
source material is stored once. verify_tables checks every row against its
family predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arith import factorize, parse_factored, sigma
from .families import FamilySpec, TupleRecord, check

if TYPE_CHECKING:
    from .sieve import SigmaSieve


@dataclass(frozen=True)
class SeededRow:
    """A multiamicable pair together with the seed data that produced it."""

    alphas: tuple[int, int]
    n1: str
    n2: str
    target: str  # sigma(a)/a as 'num/den' (or a plain integer)
    a: str
    pair: tuple[int, int]


SEEDED_MULTIAMICABLE: tuple[SeededRow, ...] = (
    SeededRow((1, 2), "2^3*13", "2^2*29", "8/5", "3*5", (1560, 1740)),
    SeededRow((1, 2), "2^2*3^2*5*41", "2^5*3^5", "1", "1", (7380, 7776)),
    SeededRow((1, 2), "2^3*41", "2^2*89", "104/63", "3^2*7", (20664, 22428)),
    SeededRow((1, 2), "17*37", "683", "35/12", "2^5*3^3", (543456, 590112)),
    SeededRow((1, 2), "17*37", "683", "35/12", "2^3*3^2*13", (588744, 639288)),
    SeededRow((2, 1), "2^2*5*107", "2^5*71", "13/9", "3^2", (19260, 20448)),
    SeededRow((2, 1), "2^3*3^5*11", "2^5*3^2*79", "1", "1", (21384, 22752)),
    SeededRow((2, 1), "2^2*3^3*29", "2^3*3*139", "8/7", "7", (21924, 23352)),
    SeededRow((2, 1), "17*37*59", "179*227", "403/144", "2^4*3^2", (5343984, 5851152)),
    SeededRow((1, 3), "3^3*5^3", "3^2*5*79", "9/4", "2^5*7", (756000, 796320)),
    SeededRow((3, 1), "11*29", "17*19", "32/9", "2^2*3^3*5*7", (1205820, 1220940)),
    SeededRow((3, 1), "7*13^2", "11^3", "10/3", "2^3*3^3*5", (1277640, 1437480)),
    SeededRow((3, 1), "3^2*19*41", "3^5*29", "18/7", "2^3*5*7", (1963080, 1973160)),
)

# (alpha, beta) -> pairs (m, n) with m = s(alpha*n), n = s(beta*m)
ALPHA_BETA_PAIRS: tuple[tuple[int, int, tuple[int, int]], ...] = (
    (1, 2, (26, 46)),
    (1, 2, (296, 586)),
    (1, 3, (3, 4)),
    (1, 3, (15, 33)),
    (1, 3, (5919, 7905)),
)

# (k, p, q, tuple)
PM_TUPLES: tuple[tuple[int, int, int, tuple[int, ...]], ...] = (
    (2, 1, 2, (3, 20)),
    (2, 1, 2, (5, 12)),
    (2, 1, 2, (5, 70)),
    (2, 1, 2, (5, 88)),
    (2, 1, 2, (6, 28)),
    (2, 1, 2, (10, 20)),
    (2, 1, 3, (6, 180)),
    (2, 1, 3, (10, 780)),
    (2, 1, 3, (24, 780)),
    (2, 1, 3, (26, 660)),
    (2, 1, 3, (34, 504)),
    (2, 2, 1, (2, 3)),
    (2, 2, 1, (19, 33)),
    (2, 2, 1, (27, 77)),
    (2, 2, 1, (39, 161)),
    (2, 2, 1, (45, 133)),
    (2, 2, 1, (51, 69)),
    (2, 2, 2, (1, 4)),
    (2, 2, 2, (1378, 9962)),
    (2, 2, 2, (1660, 4892)),
    (2, 2, 2, (1975, 10425)),
    (3, 1, 2, (1, 2, 20)),
    (3, 1, 2, (1, 3, 18)),
    (3, 1, 2, (1, 4, 20)),
    (3, 1, 2, (1, 8, 20)),
    (3, 1, 2, (1, 10, 18)),
    (3, 1, 3, (1, 76, 360)),
    (3, 1, 3, (2, 11, 240)),
    (3, 1, 3, (2, 41, 420)),
    (3, 1, 3, (6, 120, 180)),
    (3, 2, 1, (1, 47, 185)),
    (3, 2, 1, (2, 11, 14)),
    (3, 2, 1, (2, 110, 371)),
    (3, 2, 1, (3, 302, 411)),
    (3, 2, 2, (3, 36, 98)),
    (3, 2, 2, (5, 34, 135)),
    (3, 2, 2, (5, 40, 105)),
    (3, 2, 2, (10, 106, 406)),
    (3, 2, 3, (14, 350, 1340)),
    (3, 2, 3, (22, 96, 1862)),
    (3, 2, 3, (31, 301, 1876)),
    (3, 2, 4, (3, 39, 156)),
    (3, 2, 4, (11, 40, 294)),
    (3, 2, 4, (12, 14, 60)),
    (3, 2, 4, (17, 70, 210)),
    (3, 2, 5, (6, 222, 1608)),
    (3, 2, 5, (15, 33, 168)),
    (3, 2, 5, (30, 66, 552)),
    (3, 3, 1, (2, 10, 15)),
    (3, 3, 1, (4, 20, 39)),
    (3, 3, 1, (8, 40, 87)),
    (3, 3, 1, (9, 45, 63)),
    (3, 3, 3, (56, 134, 710)),
    (3, 3, 3, (108, 268, 1724)),
    (3, 3, 3, (236, 404, 2510)),
)

# (k, p, tuple)
WPM_TUPLES: tuple[tuple[int, int, tuple[int, ...]], ...] = (
    (2, 1, (4, 6)),
    (2, 1, (10, 16)),
    (2, 1, (34, 68)),
    (2, 1, (60, 81)),
    (2, 1, (91, 273)),
    (2, 2, (7, 21)),
    (2, 2, (105, 231)),
    (2, 2, (1065, 2499)),
    (3, 1, (1, 21, 63)),
    (3, 1, (1, 22, 44)),
    (3, 1, (2, 38, 98)),
    (3, 1, (4, 6, 34)),
    (3, 2, (12, 276, 412)),
    (3, 2, (70, 210, 224)),
    (3, 2, (87, 189, 264)),
)

# (k, tuple)
GM_TUPLES: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2, (28, 84)),
    (2, (42, 102)),
    (2, (60, 276)),
    (2, (92, 160)),
    (3, (1080, 1092, 1188)),
    (3, (10164, 10584, 11172)),
)

# (k, p, q, tuple); the published list repeats (2001, 2607), kept once here
HM_TUPLES: tuple[tuple[int, int, int, tuple[int, ...]], ...] = (
    (2, 1, 2, (20, 28)),
    (2, 1, 2, (24, 56)),
    (2, 1, 2, (30, 66)),
    (2, 1, 2, (40, 90)),
    (2, 1, 2, (56, 88)),
    (2, 1, 2, (92, 132)),
    (2, 1, 3, (3, 6)),
    (2, 1, 3, (10, 32)),
    (2, 1, 3, (12, 60)),
    (2, 1, 3, (15, 33)),
    (2, 1, 3, (24, 116)),
    (2, 1, 3, (33, 57)),
    (2, 2, 1, (120, 168)),
    (2, 2, 1, (1272, 1320)),
    (2, 2, 1, (2160, 3792)),
    (2, 2, 1, (3672, 4968)),
    (2, 2, 4, (435, 717)),
    (2, 2, 4, (447, 513)),
    (2, 2, 4, (2001, 2607)),
    (3, 1, 3, (840, 1020, 1380)),
    (3, 1, 3, (1008, 1260, 1638)),
    (3, 1, 3, (2016, 2232, 2772)),
)

# (k, p, tuple)
WHM_TUPLES: tuple[tuple[int, int, tuple[int, ...]], ...] = ((3, 2, (117, 117, 4680)),)

# (k, p, q, tuple)
MP_TUPLES: tuple[tuple[int, int, int, tuple[int, ...]], ...] = (
    (2, 2, 2, (1, 2)),
    (2, 2, 2, (13, 21)),
    (2, 2, 2, (13, 27)),
    (2, 2, 2, (17, 175)),
    (2, 2, 2, (45, 123)),
    (3, 2, 2, (2, 4, 51)),
    (3, 2, 2, (3, 40, 71)),
    (3, 2, 2, (5, 12, 23)),
    (3, 2, 2, (7, 116, 303)),
    (3, 2, 3, (1, 81, 148)),
    (3, 2, 3, (10, 94, 164)),
    (3, 2, 3, (10, 164, 418)),
    (4, 3, 3, (1, 4, 5, 9)),
    (4, 3, 4, (2, 49, 56, 118)),
    (4, 3, 4, (2, 84, 121, 141)),
    (4, 3, 4, (7, 35, 51, 75)),
)


def expand_factored(text: str) -> int:
    """Expand a factored string and confirm the bases really are its primes."""
    value = parse_factored(text)
    claimed: dict[int, int] = {}
    for token in text.strip().split("*"):
        base, _, exp = token.partition("^")
        b = int(base)
        if b > 1:
            claimed[b] = claimed.get(b, 0) + (int(exp) if exp else 1)
    if dict(factorize(value).factors) != claimed:
        raise ValueError(f"factored form {text!r} is not the prime factorization of {value}")
    return value


def seed_values(row: SeededRow) -> tuple[int, int, int]:
    """(N1, N2, a) for a seeded row, expanded from their factored forms."""
    return expand_factored(row.n1), expand_factored(row.n2), expand_factored(row.a)


def all_rows() -> list[tuple[str, FamilySpec, tuple[int, ...]]]:
    """Every reference tuple as (group, spec, members)."""
    rows: list[tuple[str, FamilySpec, tuple[int, ...]]] = []
    for srow in SEEDED_MULTIAMICABLE:
        spec = FamilySpec("multiamicable", 2, alphas=srow.alphas)
        rows.append(("multiamicable-seeded", spec, srow.pair))
    for a, b, pair in ALPHA_BETA_PAIRS:
        rows.append(("alpha-beta", FamilySpec("alpha-beta", 2, alphas=(a, b)), pair))
    for k, p, q, t in PM_TUPLES:
        rows.append(("pm", FamilySpec("pm", k, p=p, q=q), t))
    for k, p, t in WPM_TUPLES:
        rows.append(("wpm", FamilySpec("wpm", k, p=p), t))
    for k, t in GM_TUPLES:
        rows.append(("gm", FamilySpec("gm", k), t))
    for k, p, q, t in HM_TUPLES:
        rows.append(("hm", FamilySpec("hm", k, p=p, q=q), t))
    for k, p, t in WHM_TUPLES:
        rows.append(("whm", FamilySpec("whm", k, p=p), t))
    for k, p, q, t in MP_TUPLES:
        rows.append(("mp", FamilySpec("mp", k, p=p, q=q), t))
    return rows


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
    for group, spec, members in all_rows():
        outcome = check(spec, members, sieve, provenance="table")
        if isinstance(outcome, TupleRecord):
            rows.append(TableRowResult(group, spec, members, True, outcome.sigmas, ""))
        else:
            sigmas = tuple(sigma(n, sieve) for n in members)
            rows.append(TableRowResult(group, spec, members, False, sigmas, outcome.describe()))
    return TableReport(rows)
