"""amiforge: search, verify, construct and count generalized amicable tuples.

The public names load from their home modules on first access (PEP 562), so
`import amiforge` itself imports no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module it lives in.
_HOME = {
    name: module
    for module, names in {
        "arith": (
            "Factorization",
            "abundancy",
            "aliquot",
            "factorize",
            "gcd_list",
            "is_prime",
            "lcm_list",
            "parse_factored",
            "sigma",
            "zeta_approx",
        ),
        "sieve": ("CoverageError", "SigmaSieve", "build_sigma_sieve"),
        "families": (
            "KINDS",
            "FamilySpec",
            "Mismatch",
            "TupleRecord",
            "check",
            "holds",
            "is_alpha_beta_pair",
            "is_amicable_number",
            "is_amicable_pair",
            "is_cohen_pair",
            "is_dickson_tuple",
            "is_feebly_amicable",
            "is_gm",
            "is_hm",
            "is_mp",
            "is_multiamicable",
            "is_perfect",
            "is_pm",
            "is_wgm",
            "is_whm",
            "is_wpm",
            "is_yanney_tuple",
        ),
        "search": ("SearchReport", "enumerate_family", "scan_open_question"),
        "tables": ("verify_tables",),
        "construct": (
            "ConstructedTuple",
            "SeedTuple",
            "construct_multiamicable",
            "find_multipliers",
            "find_seed_tuples",
            "seed_ratio",
        ),
        "density": (
            "BoundReport",
            "CountSeries",
            "amicable_members",
            "count_amicable",
            "count_multiamicable_pairs",
            "harmonic_floor_sum",
            "lemma_sum_check",
            "pomerance_curve",
        ),
    }.items()
    for name in names
}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
