"""Command-line surface with machine-readable JSON/CSV output.

Envelope keys are stable (command, params, results, timing, version) and all
payload arrays are canonically ordered, so identical invocations produce
byte-identical JSON apart from the timing block.

Only the requested format is rendered, and it is written in batches, never
held whole. Only arith and families load with this module; each handler
imports the modules its command uses when it runs, so check and
verify-tables, which build no sigma table, start without numpy.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time

from . import __version__
from .arith import DEFAULT_SIEVE_BUDGET, parse_factored
from .families import KIND_RULES, KINDS, FamilySpec, Mismatch, _joined, check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amiforge",
        description="Search, verify, construct and count generalized amicable tuples.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count, accepted and echoed; every command runs in one process",
    )
    common.add_argument(
        "--sieve-budget",
        type=int,
        default=DEFAULT_SIEVE_BUDGET,
        help="sigma sieve budget in bytes: 8 per entry covers the build and the int32 table; past 2^28 entries is refused",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common], help="tabulate sigma(n)")
    p.add_argument("--limit", type=int, default=10**6)

    p = sub.add_parser("check", parents=[common], help="test one tuple against a family")
    p.add_argument("family", choices=KINDS)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--alphas", default=None, help="comma-separated weights")
    p.add_argument("--tuple", required=True, dest="tuple_text", help="comma-separated members; factored forms like 2^3*13 accepted")

    p = sub.add_parser("search", parents=[common], help="enumerate a family up to a limit")
    p.add_argument("family", choices=KINDS)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--alphas", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("construct", parents=[common], help="build multiamicable tuples from seeds")
    p.add_argument("--alphas", required=True)
    p.add_argument("--ns", default=None, help="seed tuple N1,N2,...; factored forms accepted")
    p.add_argument("--seed-limit", type=int, default=None, help="search seeds up to this bound")
    p.add_argument("--a-bound", type=int, required=True, dest="a_bound")

    p = sub.add_parser("density", parents=[common], help="counting functions and bound checks")
    p.add_argument("mode", choices=("amicable", "multi", "lemma", "pomerance"))
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--beta", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--checkpoints", required=True)

    p = sub.add_parser("scan-question", parents=[common], help="scan for equal-sigma mp(2,2) pairs")
    p.add_argument("--limit", type=int, required=True)

    sub.add_parser("verify-tables", parents=[common], help="check every stored reference tuple")
    return parser


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed {what}: {text!r}") from None


def _parse_tuple(text: str) -> tuple[int, ...]:
    return tuple(parse_factored(tok) for tok in text.split(","))


def _spec_params(spec: FamilySpec) -> dict:
    params = {"kind": spec.kind}
    for name, value in spec.params():
        params[name] = list(value) if isinstance(value, tuple) else value
    return params


def _params_text(spec: FamilySpec) -> str:
    return ",".join(f"{name}={_joined(value, '/')}" for name, value in spec.params())


def _family_spec(family: str, k, p, q, alphas_text, tuple_len=None) -> FamilySpec:
    alphas = tuple(_parse_int_list(alphas_text, "alphas")) if alphas_text else None
    if k is None:
        k = tuple_len or KIND_RULES[family].fixed_k or (len(alphas) if family == "multiamicable" and alphas else 2)
    return FamilySpec(family, k, p=p, q=q, alphas=alphas)


def _array_text(blocks):
    """The text JSONEncoder(indent=2) gives a list of ints that is a value
    in the envelope's results, written from an iterable of at least one
    non-empty numpy block: a value a line at indent level 3, and the
    closing bracket at level 2, the level of its key."""
    lead, sep = "[\n      ", ",\n      "
    for block in blocks:
        yield lead
        yield sep.join(map(str, block.tolist()))
        lead = sep
    yield "\n    ]"


_PLACEHOLDER = "\0array"  # what the encoder writes for an array held as blocks


def _batches(chunks):
    """chunks joined 2^14 at a time, so the text is never held whole and
    the writes are few."""
    chunks = iter(chunks)
    return map("".join, iter(lambda: list(itertools.islice(chunks, 1 << 14)), []))


def _json_batches(envelope):
    """The text of envelope as JSONEncoder(indent=2, sort_keys=True) writes
    it, in batches. A results value held as an iterable of numpy blocks
    (the sieve's table) is not JSON, so the encoder hands it to its default
    hook, which writes the placeholder string for it in a chunk of its own;
    each batch thus holds the whole placeholder of every such value the
    encoder has met in it, and the value's text is written in its place, a
    block at a time."""
    arrays = []

    def placeholder(blocks):
        arrays.append(blocks)
        return _PLACEHOLDER

    marker = json.dumps(_PLACEHOLDER)
    encoder = json.JSONEncoder(indent=2, sort_keys=True, default=placeholder)
    for batch in _batches(encoder.iterencode(envelope)):
        for blocks in arrays:
            head, _, batch = batch.partition(marker)
            yield head
            yield from _array_text(blocks)
        arrays.clear()
        yield batch


def _csv(header: str, rows, sep: str = ";"):
    """A header line, then one line per row, each yielded as it is built;
    tuple cells are joined with commas."""
    yield header + "\n"
    for row in rows:
        yield sep.join(_joined(value, ",") for value in row) + "\n"


def _record_row(record) -> dict:
    return {
        "tuple": list(record.members),
        "sigmas": list(record.sigmas),
        "provenance": record.provenance,
    }


def _search_payload(report, workers: int) -> dict:
    return {
        "family": report.spec.kind,
        "params": _spec_params(report.spec),
        "limit": report.limit,
        "workers": workers,
        "count": len(report.records),
        "records": [_record_row(r) for r in report.records],
        "scanned": report.scanned,
    }


def _search_csv(report):
    params = _params_text(report.spec)
    rows = ((r.members, r.sigmas, report.spec.kind, params) for r in report.records)
    return _csv("tuple;sigmas;family;params", rows)


def _cmd_sieve(args):
    from .sieve import SEGMENT, build_sigma_sieve

    sieve = build_sigma_sieve(args.limit, args.sieve_budget)
    # either format reads sigma as Python ints a block of SEGMENT values
    # of n at a time, never all at once
    blocks = range(1, args.limit + 1, SEGMENT)
    results = {"limit": args.limit, "sigma": (sieve.read(slice(lo, lo + SEGMENT)) for lo in blocks)}
    rows = itertools.chain.from_iterable(enumerate(sieve.read(slice(lo, lo + SEGMENT)).tolist(), lo) for lo in blocks)
    return {"limit": args.limit}, results, _csv("n,sigma", rows, sep=","), 0


def _cmd_check(args):
    members = _parse_tuple(args.tuple_text)
    spec = _family_spec(args.family, None, args.p, args.q, args.alphas, tuple_len=len(members))
    outcome = check(spec, members)
    params = {"family": spec.kind, "params": _spec_params(spec), "tuple": list(members)}
    if isinstance(outcome, Mismatch):
        results = {
            "verdict": False,
            "equation": outcome.equation,
            "lhs": outcome.lhs,
            "rhs": outcome.rhs,
        }
        detail = outcome.describe()
    else:
        results = {"verdict": True, "sigmas": list(outcome.sigmas)}
        detail = "sigmas " + ",".join(str(s) for s in outcome.sigmas)
    row = (spec.kind, _params_text(spec), members, str(results["verdict"]).lower(), detail)
    return params, results, _csv("family;params;tuple;verdict;detail", [row]), 0


def _cmd_search(args):
    from .search import check_search_limit, enumerate_family
    from .sieve import build_sigma_sieve

    spec = _family_spec(args.family, args.k, args.p, args.q, args.alphas)
    check_search_limit(args.limit, spec)
    sieve = build_sigma_sieve(args.limit, args.sieve_budget)
    report = enumerate_family(spec, args.limit, sieve)
    params = {
        "family": spec.kind,
        "params": _spec_params(spec),
        "limit": args.limit,
        "workers": args.workers,
        "sieve_limit": args.limit,
    }
    return params, _search_payload(report, args.workers) if args.format == "json" else None, _search_csv(report), 0


def _cmd_construct(args):
    from .construct import construct_multiamicable, find_seed_tuples, seed_ratio
    from .search import check_search_limit
    from .sieve import build_sigma_sieve

    alphas = tuple(_parse_int_list(args.alphas, "alphas"))
    if (args.ns is None) == (args.seed_limit is None):
        raise ValueError("construct requires exactly one of --ns or --seed-limit")
    if args.a_bound < 1:
        raise ValueError("bound must be >= 1")
    if args.seed_limit is not None:
        check_search_limit(args.seed_limit)
    # one sieve serves the seed search and every multiplier scan, so the
    # budget refuses an oversized --a-bound before any work starts
    sieve = build_sigma_sieve(max(args.seed_limit or 1, args.a_bound), args.sieve_budget)
    if args.ns is not None:
        seeds = [seed_ratio(alphas, _parse_tuple(args.ns), sieve)]
        params = {"alphas": list(alphas), "ns": list(seeds[0].ns), "a_bound": args.a_bound}
    else:
        seeds = find_seed_tuples(alphas, args.seed_limit, sieve, args.a_bound)
        params = {"alphas": list(alphas), "seed_limit": args.seed_limit, "a_bound": args.a_bound}
    rows = construct_multiamicable(seeds, args.a_bound, sieve=sieve)
    results = [
        {
            "seed": {"alphas": list(b.seed.alphas), "ns": list(b.seed.ns)},
            "target": f"{b.seed.target.numerator}/{b.seed.target.denominator}",
            "a": b.a,
            "tuple": list(b.members),
        }
        for b in rows
    ]
    csv_rows = (
        (b.seed.alphas, b.seed.ns, r["target"], b.a, b.members) for b, r in zip(rows, results)
    )
    return params, results, _csv("alphas;ns;target;a;tuple", csv_rows), 0


def _series_payload(series) -> list[dict]:
    return [
        {"x": x, "count": c, "ratio": f"{r.numerator}/{r.denominator}"}
        for x, c, r in zip(series.checkpoints, series.counts, series.ratios)
    ]


def _series_csv(series):
    rows = ((x, c, c / x, "") for x, c in zip(series.checkpoints, series.counts))
    return _csv("x,count,ratio,bound", rows, sep=",")


def _cmd_density(args):
    from . import density
    from .search import check_search_limit
    from .sieve import build_sigma_sieve

    mode = args.mode
    if mode == "pomerance":
        try:
            pts = [float(tok) for tok in args.checkpoints.split(",")]
        except ValueError:
            raise ValueError(f"malformed checkpoints: {args.checkpoints!r}") from None
        if not all(map(math.isfinite, pts)):
            raise ValueError("checkpoints must be finite")
    else:
        pts = _parse_int_list(args.checkpoints, "checkpoints")
    params = {"mode": mode, "checkpoints": pts}
    # every mode sieves to its top checkpoint, and all but lemma share the
    # search cap, checked before the sieve is built
    top = max(int(max(pts)), 1) if mode == "pomerance" else max(pts)
    if mode != "lemma":
        check_search_limit(top)
    sieve = build_sigma_sieve(top, args.sieve_budget)

    if mode == "lemma":
        params["k"] = args.k
        reports = [density.lemma_sum_check(x, args.k, sieve) for x in pts]
        results = [
            {
                "x": r.x,
                "k": r.k,
                "lhs": float(r.lhs),
                "rhs": r.rhs,
                "margin": r.margin,
                "holds": r.holds,
                "exact": r.exact,
            }
            for r in reports
        ]
        rows = ((r.x, r.k, float(r.lhs), r.rhs, r.margin, r.holds, r.exact) for r in reports)
        return params, results, _csv("x,k,lhs,rhs,margin,holds,exact", rows, sep=","), 0

    if mode == "pomerance":
        rows = density.pomerance_curve(pts, sieve)
        results = [
            {"x": x, "count": c, "bound": bound, "ratio": ratio} for x, c, bound, ratio in rows
        ]
        csv_rows = ((x, c, ratio, bound) for x, c, bound, ratio in rows)
        return params, results, _csv("x,count,ratio,bound", csv_rows, sep=","), 0

    if mode == "multi":
        params["alpha"], params["beta"] = args.alpha, args.beta
        series = density.count_multiamicable_pairs(args.alpha, args.beta, pts, sieve)
    else:
        series = density.count_amicable(pts, sieve)
    return params, _series_payload(series), _series_csv(series), 0


def _cmd_scan_question(args):
    from .search import check_search_limit, scan_open_question
    from .sieve import build_sigma_sieve

    check_search_limit(args.limit)
    sieve = build_sigma_sieve(args.limit, args.sieve_budget)
    report = scan_open_question(args.limit, sieve)
    payload = _search_payload(report, 1) | {"label": report.label} if args.format == "json" else None
    return {"limit": args.limit}, payload, _search_csv(report), 0


def _cmd_verify_tables(args):
    from .tables import verify_tables

    report = verify_tables()
    rows = [
        {
            "group": r.group,
            "family": r.spec.kind,
            "params": _spec_params(r.spec),
            "tuple": list(r.members),
            "sigmas": list(r.sigmas),
            "pass": r.passed,
            "detail": r.detail,
        }
        for r in report.rows
    ]
    results = {
        "rows": rows,
        "total": len(rows),
        "failed": len(report.failures),
        "all_pass": report.all_pass,
    }
    csv_rows = (
        (
            r.group,
            r.spec.kind,
            _params_text(r.spec),
            r.members,
            "pass" if r.passed else "FAIL",
            r.sigmas,
            r.detail,
        )
        for r in report.rows
    )
    header = "group;family;params;tuple;verdict;sigmas;detail"
    return {}, results, _csv(header, csv_rows), 0 if report.all_pass else 1


_HANDLERS = {
    "sieve": _cmd_sieve,
    "check": _cmd_check,
    "search": _cmd_search,
    "construct": _cmd_construct,
    "density": _cmd_density,
    "scan-question": _cmd_scan_question,
    "verify-tables": _cmd_verify_tables,
}


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    t0 = time.perf_counter()
    try:
        if args.workers < 1:
            raise ValueError("workers must be >= 1")
        if args.sieve_budget < 1:
            raise ValueError("sieve budget must be >= 1")
        params, results, csv_chunks, code = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0

    if args.format == "csv":
        batches = _batches(csv_chunks)
    else:
        envelope = {
            "command": args.command,
            "params": params,
            "results": results,
            "timing": {"seconds": round(elapsed, 6)},
            "version": __version__,
        }
        batches = itertools.chain(_json_batches(envelope), ["\n"])
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(batches)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.writelines(batches)
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe, as `| head` does; the rest of the
        # output goes to devnull, so the flush at exit raises no second
        # error, and the exit code is 1, as for EPIPE (Python docs, "Note on
        # SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
