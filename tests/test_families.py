import random
from itertools import permutations

import pytest

from amiforge.families import (
    KINDS,
    FamilySpec,
    Mismatch,
    TupleRecord,
    check,
    holds,
    is_alpha_beta_pair,
    is_amicable_number,
    is_amicable_pair,
    is_cohen_pair,
    is_dickson_tuple,
    is_feebly_amicable,
    is_gm,
    is_hm,
    is_mp,
    is_multiamicable,
    is_perfect,
    is_pm,
    is_wgm,
    is_whm,
    is_wpm,
    is_yanney_tuple,
)


def test_perfect():
    assert is_perfect(6)
    assert is_perfect(28)
    assert not is_perfect(1)
    assert not is_perfect(12)


def test_amicable_pair():
    assert is_amicable_pair(220, 284)
    assert is_amicable_pair(6, 6)
    assert not is_amicable_pair(4, 12)


def test_amicable_number():
    assert is_amicable_number(220)
    assert is_amicable_number(284)
    assert not is_amicable_number(6)
    assert not is_amicable_number(10)


def test_amicable_number_rejects_one():
    with pytest.raises(ValueError):
        is_amicable_number(1)


def test_dickson():
    assert is_dickson_tuple((1980, 2016, 2556))
    assert is_dickson_tuple((220, 284))
    assert not is_dickson_tuple((1, 2, 3))


def test_yanney():
    assert is_yanney_tuple((238, 255, 371))
    assert is_yanney_tuple((6, 6))
    assert not is_yanney_tuple((220, 284, 504))


def test_cohen_pair():
    assert is_cohen_pair(220, 284, 1, 1)
    assert is_cohen_pair(6, 6, 1, 1)
    assert not is_cohen_pair(10, 14, 1, 1)


def test_multiamicable():
    assert is_multiamicable((1560, 1740), (1, 2))
    assert is_multiamicable((6,), (2,))
    assert is_multiamicable((7380, 7776), (1, 2))
    assert not is_multiamicable((220, 284), (1, 2))
    with pytest.raises(ValueError):
        is_multiamicable((1560, 1740), (1, 2, 3))


def test_alpha_beta_pair():
    assert is_alpha_beta_pair(26, 46, 1, 2)
    assert is_alpha_beta_pair(220, 284, 1, 1)
    assert is_alpha_beta_pair(3, 4, 1, 3)
    assert not is_alpha_beta_pair(5, 6, 1, 2)


def test_pm():
    assert is_pm((3, 20), 1, 2)
    assert is_pm((2, 3), 2, 1)
    for p in (1, 2, 3):
        assert is_pm((220, 284), p, 2)
    assert not is_pm((3, 21), 1, 2)


def test_wpm():
    assert is_wpm((4, 6), 1)
    assert is_wpm((7, 21), 2)
    assert is_wpm((220, 284), 3)
    assert not is_wpm((4, 7), 1)


def test_gm():
    assert is_gm((28, 84))
    assert is_gm((1080, 1092, 1188))
    assert is_gm((220, 284))
    assert not is_gm((28, 85))


def test_wgm():
    assert is_wgm((220, 284))
    assert is_wgm((1,))
    assert is_wgm((6, 6))
    assert not is_wgm((4, 6))


def test_hm():
    assert is_hm((20, 28), 1, 2)
    assert is_hm((3, 6), 1, 3)
    assert is_hm((840, 1020, 1380), 1, 3)
    assert not is_hm((20, 29), 1, 2)


def test_whm():
    assert is_whm((117, 117, 4680), 2)
    assert is_whm((4, 12), 1)
    assert is_whm((220, 284), 5)
    assert not is_whm((4, 13), 1)


def test_feebly():
    assert is_feebly_amicable((4, 12))
    assert not is_feebly_amicable((6,))
    assert is_feebly_amicable((220, 284))
    assert is_feebly_amicable((1,))


def test_mp():
    assert is_mp((1, 2), 2, 2)
    assert is_mp((1, 4, 5, 9), 3, 3)
    assert is_mp((6,), 2, 4)
    assert not is_mp((1, 3), 2, 2)


def test_parameter_floors():
    with pytest.raises(ValueError):
        is_pm((3, 20), 0, 2)
    with pytest.raises(ValueError):
        is_pm((3, 20), 1, 0)
    with pytest.raises(ValueError):
        is_mp((1, 2), 1, 2)
    with pytest.raises(ValueError):
        is_hm((20, 28), 1, 0)
    with pytest.raises(ValueError):
        is_wpm((4, 6), 0)
    with pytest.raises(ValueError):
        is_whm((4, 12), 0)


def test_member_validation():
    with pytest.raises(ValueError):
        is_gm(())
    with pytest.raises(ValueError):
        is_gm((0, 3))
    with pytest.raises(ValueError):
        is_pm((-2, 3), 1, 2)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("nosuch", 2)
    with pytest.raises(ValueError):
        FamilySpec("gm", 0)
    with pytest.raises(ValueError):
        FamilySpec("perfect", 2)
    with pytest.raises(ValueError):
        FamilySpec("dickson", 1)
    with pytest.raises(ValueError):
        FamilySpec("pm", 2, p=1)  # q missing
    with pytest.raises(ValueError):
        FamilySpec("pm", 2, q=2)  # p missing
    with pytest.raises(ValueError):
        FamilySpec("gm", 2, p=1)  # gm takes no p
    with pytest.raises(ValueError):
        FamilySpec("mp", 2, p=1, q=2)  # mp needs p >= 2
    with pytest.raises(ValueError):
        FamilySpec("multiamicable", 2, alphas=(1,))
    with pytest.raises(ValueError):
        FamilySpec("multiamicable", 2)  # alphas missing
    with pytest.raises(ValueError):
        FamilySpec("multiamicable", 2, alphas=(0, 1))
    with pytest.raises(ValueError):
        FamilySpec("feebly", 2, alphas=(1, 1))  # feebly takes no alphas
    with pytest.raises(ValueError):
        FamilySpec("cohen-pair", 2)
    # alphas list normalizes to a tuple
    spec = FamilySpec("multiamicable", 2, alphas=[1, 2])
    assert spec.alphas == (1, 2)
    assert "alphas=1,2" in spec.describe()


# The exact FamilySpec messages. For each kind: a wrong k, then p, q and
# alphas each missing where the kind takes them and given where it does
# not; then the value rules, and the order in which the rules are checked.
_SPEC_MESSAGES = [
    ("amicable-pair", {"k": 3}, "amicable-pair requires k = 2"),
    ("amicable-pair", {"k": 2, "p": 3}, "amicable-pair does not take parameter p"),
    ("amicable-pair", {"k": 2, "q": 3}, "amicable-pair does not take parameter q"),
    ("amicable-pair", {"k": 2, "alphas": (1, 1)}, "amicable-pair does not take alphas"),
    ("perfect", {"k": 2}, "perfect requires k = 1"),
    ("perfect", {"k": 1, "p": 3}, "perfect does not take parameter p"),
    ("perfect", {"k": 1, "q": 3}, "perfect does not take parameter q"),
    ("perfect", {"k": 1, "alphas": (1, 1)}, "perfect does not take alphas"),
    ("amicable-number", {"k": 2}, "amicable-number requires k = 1"),
    ("amicable-number", {"k": 1, "p": 3}, "amicable-number does not take parameter p"),
    ("amicable-number", {"k": 1, "q": 3}, "amicable-number does not take parameter q"),
    ("amicable-number", {"k": 1, "alphas": (1, 1)}, "amicable-number does not take alphas"),
    ("dickson", {"k": 1}, "dickson requires k >= 2"),
    ("dickson", {"k": 3, "p": 3}, "dickson does not take parameter p"),
    ("dickson", {"k": 3, "q": 3}, "dickson does not take parameter q"),
    ("dickson", {"k": 3, "alphas": (1, 1)}, "dickson does not take alphas"),
    ("yanney", {"k": 1}, "yanney requires k >= 2"),
    ("yanney", {"k": 3, "p": 3}, "yanney does not take parameter p"),
    ("yanney", {"k": 3, "q": 3}, "yanney does not take parameter q"),
    ("yanney", {"k": 3, "alphas": (1, 1)}, "yanney does not take alphas"),
    ("cohen-pair", {"k": 3, "alphas": (1, 2)}, "cohen-pair requires k = 2"),
    ("cohen-pair", {"k": 2, "alphas": (1, 2), "p": 3}, "cohen-pair does not take parameter p"),
    ("cohen-pair", {"k": 2, "alphas": (1, 2), "q": 3}, "cohen-pair does not take parameter q"),
    ("cohen-pair", {"k": 2}, "cohen-pair requires alphas"),
    ("multiamicable", {"k": 0, "alphas": (1, 2)}, "k must be >= 1"),
    ("multiamicable", {"k": 2, "alphas": (1, 2), "p": 3}, "multiamicable does not take parameter p"),
    ("multiamicable", {"k": 2, "alphas": (1, 2), "q": 3}, "multiamicable does not take parameter q"),
    ("multiamicable", {"k": 2}, "multiamicable requires alphas"),
    ("alpha-beta", {"k": 1, "alphas": (1, 2)}, "alpha-beta requires k = 2"),
    ("alpha-beta", {"k": 2, "alphas": (1, 2), "p": 3}, "alpha-beta does not take parameter p"),
    ("alpha-beta", {"k": 2, "alphas": (1, 2), "q": 3}, "alpha-beta does not take parameter q"),
    ("alpha-beta", {"k": 2}, "alpha-beta requires alphas"),
    ("pm", {"k": 0, "p": 1, "q": 2}, "k must be >= 1"),
    ("pm", {"k": 2, "q": 2}, "pm requires parameter p"),
    ("pm", {"k": 2, "p": 1}, "pm requires parameter q"),
    ("pm", {"k": 2, "p": 1, "q": 2, "alphas": (1, 1)}, "pm does not take alphas"),
    ("wpm", {"k": 0, "p": 1}, "k must be >= 1"),
    ("wpm", {"k": 2}, "wpm requires parameter p"),
    ("wpm", {"k": 2, "p": 1, "q": 3}, "wpm does not take parameter q"),
    ("wpm", {"k": 2, "p": 1, "alphas": (1, 1)}, "wpm does not take alphas"),
    ("gm", {"k": 0}, "k must be >= 1"),
    ("gm", {"k": 2, "p": 3}, "gm does not take parameter p"),
    ("gm", {"k": 2, "q": 3}, "gm does not take parameter q"),
    ("gm", {"k": 2, "alphas": (1, 1)}, "gm does not take alphas"),
    ("wgm", {"k": 0}, "k must be >= 1"),
    ("wgm", {"k": 2, "p": 3}, "wgm does not take parameter p"),
    ("wgm", {"k": 2, "q": 3}, "wgm does not take parameter q"),
    ("wgm", {"k": 2, "alphas": (1, 1)}, "wgm does not take alphas"),
    ("hm", {"k": 0, "p": 1, "q": 2}, "k must be >= 1"),
    ("hm", {"k": 2, "q": 2}, "hm requires parameter p"),
    ("hm", {"k": 2, "p": 1}, "hm requires parameter q"),
    ("hm", {"k": 2, "p": 1, "q": 2, "alphas": (1, 1)}, "hm does not take alphas"),
    ("whm", {"k": 0, "p": 1}, "k must be >= 1"),
    ("whm", {"k": 2}, "whm requires parameter p"),
    ("whm", {"k": 2, "p": 1, "q": 3}, "whm does not take parameter q"),
    ("whm", {"k": 2, "p": 1, "alphas": (1, 1)}, "whm does not take alphas"),
    ("feebly", {"k": 0}, "k must be >= 1"),
    ("feebly", {"k": 2, "p": 3}, "feebly does not take parameter p"),
    ("feebly", {"k": 2, "q": 3}, "feebly does not take parameter q"),
    ("feebly", {"k": 2, "alphas": (1, 1)}, "feebly does not take alphas"),
    ("mp", {"k": 0, "p": 2, "q": 2}, "k must be >= 1"),
    ("mp", {"k": 2, "q": 2}, "mp requires parameter p"),
    ("mp", {"k": 2, "p": 2}, "mp requires parameter q"),
    ("mp", {"k": 2, "p": 2, "q": 2, "alphas": (1, 1)}, "mp does not take alphas"),
    ("mp", {"k": 2, "p": 1, "q": 2}, "mp requires p >= 2"),
    ("pm", {"k": 2, "p": 0, "q": 2}, "p must be >= 1"),
    ("hm", {"k": 2, "p": 1, "q": 0}, "q must be >= 1"),
    ("cohen-pair", {"k": 2, "alphas": (1, 2, 3)}, "cohen-pair requires 2 alphas, got 3"),
    ("alpha-beta", {"k": 2, "alphas": (1,)}, "alpha-beta requires 2 alphas, got 1"),
    ("multiamicable", {"k": 3, "alphas": (1, 2)}, "multiamicable requires 3 alphas, got 2"),
    ("multiamicable", {"k": 2, "alphas": (0, 1)}, "alphas must be positive integers"),
    ("nosuch", {"k": 2}, "unknown family kind 'nosuch'"),
    # two faults at once: the first rule checked names its fault
    ("perfect", {"k": 2, "p": 1}, "perfect requires k = 1"),
    ("dickson", {"k": 1, "alphas": (0,)}, "dickson requires k >= 2"),
    ("pm", {"k": 2, "p": 0}, "pm requires parameter q"),
    ("cohen-pair", {"k": 2, "p": 0, "alphas": (1,)}, "cohen-pair does not take parameter p"),
    ("mp", {"k": 2, "p": 1, "q": 0}, "mp requires p >= 2"),
]


@pytest.mark.parametrize("kind, fields, message", _SPEC_MESSAGES)
def test_family_spec_messages(kind, fields, message):
    with pytest.raises(ValueError) as err:
        FamilySpec(kind, **fields)
    assert str(err.value) == message


def test_family_spec_messages_cover_every_kind():
    assert {kind for kind, _, _ in _SPEC_MESSAGES} >= set(KINDS)


def test_holds_dispatch_covers_every_kind(sieve_10k):
    cases = {
        "perfect": (FamilySpec("perfect", 1), (6,)),
        "amicable-number": (FamilySpec("amicable-number", 1), (220,)),
        "amicable-pair": (FamilySpec("amicable-pair", 2), (220, 284)),
        "dickson": (FamilySpec("dickson", 3), (1980, 2016, 2556)),
        "yanney": (FamilySpec("yanney", 3), (238, 255, 371)),
        "cohen-pair": (FamilySpec("cohen-pair", 2, alphas=(1, 1)), (220, 284)),
        "multiamicable": (FamilySpec("multiamicable", 2, alphas=(1, 2)), (1560, 1740)),
        "alpha-beta": (FamilySpec("alpha-beta", 2, alphas=(1, 2)), (26, 46)),
        "pm": (FamilySpec("pm", 2, p=1, q=2), (3, 20)),
        "wpm": (FamilySpec("wpm", 2, p=1), (4, 6)),
        "gm": (FamilySpec("gm", 2), (28, 84)),
        "wgm": (FamilySpec("wgm", 2), (220, 284)),
        "hm": (FamilySpec("hm", 2, p=1, q=2), (20, 28)),
        "whm": (FamilySpec("whm", 2, p=1), (4, 12)),
        "feebly": (FamilySpec("feebly", 2), (4, 12)),
        "mp": (FamilySpec("mp", 2, p=2, q=2), (1, 2)),
    }
    assert set(cases) == set(KINDS)
    for spec, members in cases.values():
        assert holds(spec, members, sieve_10k)
        assert holds(spec, members)  # sieve-free path agrees


def test_holds_length_mismatch():
    with pytest.raises(ValueError):
        holds(FamilySpec("gm", 2), (28, 84, 1))


def test_check_success_record(sieve_10k):
    spec = FamilySpec("multiamicable", 2, alphas=(1, 2))
    rec = check(spec, (1560, 1740), sieve_10k)
    assert isinstance(rec, TupleRecord)
    assert rec.members == (1560, 1740)
    assert rec.sigmas == (5040, 5040)
    assert rec.provenance == "found"
    rec2 = check(spec, (1560, 1740), sieve_10k, provenance="table")
    assert rec2.provenance == "table"


def test_check_gm_sigmas():
    rec = check(FamilySpec("gm", 2), (28, 84))
    assert rec.sigmas == (56, 224)


def test_check_mismatch_pm():
    out = check(FamilySpec("pm", 2, p=1, q=2), (3, 21))
    assert isinstance(out, Mismatch)
    assert out.lhs == "36"
    assert out.rhs == "48"
    assert out.describe() == f"{out.equation}: LHS 36 != RHS 48"


def test_check_mismatch_has_real_violation():
    # (equation, lhs, rhs) of the first broken equation, pinned exactly
    wgm_side = "in prod sigma(n_i)^(n_i) = (sum n)^(sum n)"
    cases = [
        (FamilySpec("perfect", 1), (10,), ("sigma(n) = 2n", "18", "20")),
        (FamilySpec("amicable-number", 1), (10,), ("sigma(s(10)) = sigma(10)", "15", "18")),
        (
            FamilySpec("amicable-number", 1),
            (6,),
            ("n not perfect", "sigma(6) = 12", "2n = 12 (perfect excluded)"),
        ),
        (FamilySpec("amicable-pair", 2), (4, 12), ("sigma(4) = m + n", "7", "16")),
        (FamilySpec("dickson", 3), (1, 2, 3), ("sigma(1) = sum", "1", "6")),
        (FamilySpec("yanney", 3), (220, 284, 504), ("(k-1)*sigma(504) = sum", "3120", "1008")),
        (FamilySpec("cohen-pair", 2, alphas=(1, 1)), (10, 14), ("s(10) = alpha*n", "8", "14")),
        (
            FamilySpec("multiamicable", 2, alphas=(1, 2)),
            (220, 284),
            ("sigma(220) = sum alpha_i*n_i", "504", "788"),
        ),
        (FamilySpec("alpha-beta", 2, alphas=(1, 2)), (5, 6), ("s(1*6) = m", "6", "5")),
        (FamilySpec("pm", 2, p=1, q=2), (3, 21), ("sum sigma^p = q*(sum n)^p", "36", "48")),
        (FamilySpec("wpm", 2, p=1), (4, 7), ("sum n*sigma^p = (sum n)^(p+1)", "84", "121")),
        (FamilySpec("gm", 2), (28, 85), ("prod sigma = (sum n)^k", "6048", "12769")),
        (FamilySpec("wgm", 2), (4, 6), (f"exponent of 2 {wgm_side}", "12", "10")),
        # primes 3, 17, 19 occur; the exponents of 3 agree, so 17 is the first mismatch
        (FamilySpec("wgm", 2), (2, 49), (f"exponent of 17 {wgm_side}", "0", "51")),
        (FamilySpec("hm", 2, p=1, q=2), (20, 29), ("(sum 1/sigma^p)*(sum n)^p = q", "14/5", "2")),
        (
            FamilySpec("whm", 2, p=1),
            (4, 13),
            ("(sum n^p/sigma^p)*(sum n)^p = sum n^p", "51/2", "17"),
        ),
        (FamilySpec("feebly", 1), (6,), ("sum n/sigma(n) = 1", "1/2", "1")),
        (FamilySpec("mp", 2, p=2, q=2), (1, 3), ("sum sigma^p = q*(sum n^p)", "17", "20")),
    ]
    assert {spec.kind for spec, _, _ in cases} == set(KINDS)
    for spec, members, expected in cases:
        out = check(spec, members)
        assert isinstance(out, Mismatch), spec.kind
        assert (out.equation, out.lhs, out.rhs) == expected, spec.kind
        assert not holds(spec, members)


def test_whm_one_is_feebly(sieve_10k):
    # whm at p = 1 collapses to the feebly equation
    rng = random.Random(3)
    tuples = [(4, 12), (220, 284), (117, 117, 4680)]
    tuples += [
        tuple(sorted(rng.randrange(1, 400) for _ in range(rng.choice((1, 2, 3)))))
        for _ in range(400)
    ]
    for t in tuples:
        assert is_whm(t, 1, sieve_10k) == is_feebly_amicable(t, sieve_10k), t


def test_alpha_beta_one_one_is_amicable(sieve_1k):
    rng = random.Random(5)
    pairs = [(220, 284), (284, 220), (6, 6), (10, 14)]
    pairs += [(rng.randrange(1, 1000), rng.randrange(1, 1000)) for _ in range(500)]
    for m, n in pairs:
        assert is_alpha_beta_pair(m, n, 1, 1, sieve_1k) == is_amicable_pair(m, n, sieve_1k)


def test_dickson_pairs_are_amicable(sieve_10k):
    rng = random.Random(9)
    pairs = [(220, 284), (1184, 1210), (12, 14)]
    pairs += [(rng.randrange(1, 10**4), rng.randrange(1, 10**4)) for _ in range(500)]
    for m, n in pairs:
        assert is_dickson_tuple((m, n), sieve_10k) == is_amicable_pair(m, n, sieve_10k)


def test_double_multiamicable_is_perfect(sieve_10k):
    for n in range(1, 10**4 + 1):
        assert is_multiamicable((n,), (2,), sieve_10k) == is_perfect(n, sieve_10k)


def test_symmetric_families_ignore_order(sieve_10k):
    symmetric = [
        (FamilySpec("dickson", 3), (1980, 2016, 2556)),
        (FamilySpec("yanney", 3), (238, 255, 371)),
        (FamilySpec("pm", 2, p=1, q=2), (3, 20)),
        (FamilySpec("wpm", 2, p=1), (4, 6)),
        (FamilySpec("gm", 3), (1080, 1092, 1188)),
        (FamilySpec("wgm", 2), (220, 284)),
        (FamilySpec("hm", 3, p=1, q=3), (840, 1020, 1380)),
        (FamilySpec("whm", 3, p=2), (117, 117, 4680)),
        (FamilySpec("feebly", 2), (4, 12)),
        (FamilySpec("mp", 4, p=3, q=3), (1, 4, 5, 9)),
    ]
    for spec, members in symmetric:
        for perm in set(permutations(members)):
            assert holds(spec, perm, sieve_10k), (spec.kind, perm)


def test_multiamicable_weights_are_positional(sieve_10k):
    # (1560, 1740) works with weights (1, 2) but not with (2, 1)
    assert is_multiamicable((1560, 1740), (1, 2), sieve_10k)
    assert not is_multiamicable((1740, 1560), (1, 2), sieve_10k)
    assert is_multiamicable((1740, 1560), (2, 1), sieve_10k)


def test_describe_format():
    spec = FamilySpec("pm", 2, p=1, q=2)
    assert spec.describe() == "pm(k=2 p=1 q=2)"
    assert FamilySpec("gm", 3).describe() == "gm(k=3)"
