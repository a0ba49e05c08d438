"""amiforge: search, verify, construct and count generalized amicable tuples."""

__version__ = "0.1.0"

from .arith import (
    CoverageError,
    Factorization,
    SigmaSieve,
    abundancy,
    aliquot,
    build_sigma_sieve,
    factorize,
    gcd_list,
    is_prime,
    lcm_list,
    parse_factored,
    sigma,
    zeta_approx,
)
from .families import (
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
from .search import (
    SearchReport,
    conjecture_census,
    enumerate_family,
    scan_open_question,
    verify_tables,
)
from .construct import (
    ConstructedTuple,
    SeedTuple,
    construct_multiamicable,
    find_multipliers,
    find_seed_tuples,
    seed_ratio,
)
from .density import (
    BoundReport,
    CountSeries,
    amicable_members,
    count_amicable,
    count_multiamicable_pairs,
    harmonic_floor_sum,
    lemma_sum_check,
    pomerance_curve,
)
