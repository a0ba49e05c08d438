"""Run one amiforge CLI job in this process with spans at the layer boundaries.

    PYTHONPATH=src python3 perfbench/tracer.py search hm --k 2 --limit 60 --workers 2

Module-level names that the layers call each other through are rebound, in
this process only, to wrappers that record a span (name, start, end, parent)
and read counters. Nothing under src/ changes. Functions that are pickled to
pool workers (`search._run_task`, `construct._multiplier_kernel`) are left
alone; after the job has finished, each task the job sent through `run_tasks`
is replayed here, one at a time, to time the kernel per task.

Prints one JSON line: the CLI's exit code and stdout, the spans, counters
and the replay timings. A name that no longer exists, or a task that cannot
be replayed, is reported under `notes` instead of failing the job.
"""

from __future__ import annotations

import functools
import io
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one job, kept in memory until the job ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.task_calls: list[tuple[dict, object, list]] = []
        self.notes: list[str] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Rebind module.attr to a spanned call; after(rec, result, args, kwargs)
        may annotate the span with counters read at this boundary."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.notes.append(f"{module.__name__}.{attr} not found; not traced")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = orig(*args, **kwargs)
            if after is not None:
                after(rec, out, args, kwargs)
            return out

        setattr(module, attr, wrapper)

    def wrap_run_tasks(self, module, layer: str) -> None:
        """Span each run_tasks call and keep its tasks for the replay."""
        orig = getattr(module, "run_tasks", None)
        if orig is None:
            self.notes.append(f"{module.__name__}.run_tasks not found; not traced")
            return

        def run_tasks(fn, tasks, *args, **kwargs):
            tasks = list(tasks)
            pools = self.counts.get("pools", 0)
            with self.span("parallel.run_tasks") as rec:
                out = orig(fn, tasks, *args, **kwargs)
            rec["layer"] = layer
            rec["pooled"] = self.counts.get("pools", 0) > pools
            rec["results"] = out
            self.task_calls.append((rec, fn, tasks))
            return out

        module.run_tasks = run_tasks

    def replay(self) -> list[dict]:
        """Time each recorded task alone in this process, and size what a pool
        had to pickle for it."""
        from multiprocessing.reduction import ForkingPickler

        calls = []
        for rec, fn, tasks in self.task_calls:
            times = []
            try:
                for task in tasks:
                    t0 = time.perf_counter()
                    fn(task)
                    times.append(time.perf_counter() - t0)
            except Exception as exc:  # a kernel may need state that only its pool sets up
                self.notes.append(f"replay of a {rec['layer']} run_tasks call failed: {exc!r}")
                continue
            sent = sum(len(ForkingPickler.dumps(t)) for t in tasks) if rec["pooled"] else 0
            scanned = 0
            if rec["layer"] == "search":
                try:
                    scanned = sum(count for _, count in rec["results"])
                except (TypeError, ValueError):
                    scanned = 0
            calls.append({
                "layer": rec["layer"],
                "wall": rec["end"] - rec["start"],
                "task_s": times,
                "task_bytes": sent,
                "pooled": rec["pooled"],
                "scanned": scanned,
            })
            del rec["results"]
        return calls


class _Capture(io.StringIO):
    """Stands in for sys.stdout during the job; times and counts every write."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def write(self, text):
        t0 = time.perf_counter()
        n = super().write(text)
        self._tracer.add("serialize_s", time.perf_counter() - t0)
        self._tracer.add("stdout_bytes", len(text.encode("utf-8")))
        return n


class _TimedJson:
    """Proxy for the json module inside amiforge.cli that times dumps."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def dumps(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._module.dumps(*args, **kwargs)
        self._tracer.add("serialize_s", time.perf_counter() - t0)
        return out


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported amiforge."""
    import multiprocessing.pool
    from fractions import Fraction

    from amiforge import cli, construct, density, search

    def on_sieve(rec, sieve, args, kwargs):
        tracer.add("sieve_entries", len(sieve.table))

    for module in (cli, search, density):
        tracer.wrap(module, "build_sigma_sieve", "arith.sieve", on_sieve)

    def on_buckets(rec, buckets, args, kwargs):
        tracer.add("buckets", len(buckets))
        tracer.add("singletons", sum(1 for _, members in buckets if len(members) == 1))

    tracer.wrap(search, "_sigma_buckets", "search.bucket", on_buckets)

    def on_report(rec, report, args, kwargs):
        tracer.add("records", len(report.records))

    tracer.wrap(cli, "enumerate_family", "search.enumerate", on_report)
    tracer.wrap(cli, "scan_open_question", "search.scan", on_report)
    tracer.wrap(search, "check", "families.check")
    tracer.wrap(cli, "check", "families.check")

    def on_tables(rec, report, args, kwargs):
        tracer.add("table_rows", len(report.rows))

    tracer.wrap(cli, "verify_tables", "tables.verify", on_tables)

    tracer.wrap(cli, "find_seed_tuples", "construct.seed")

    def on_construct(rec, out, args, kwargs):
        tracer.add("seeds", 1)

    tracer.wrap(cli, "construct_multiamicable", "construct.construct", on_construct)

    def on_multipliers(rec, out, args, kwargs):
        target = Fraction(args[0] if args else kwargs["target"])
        bound = args[1] if len(args) > 1 else kwargs["bound"]
        tracer.add("candidates", bound // target.denominator)

    tracer.wrap(construct, "find_multipliers", "construct.multiplier", on_multipliers)
    tracer.wrap(density, "count_amicable", "density.count")

    def on_lemma(rec, report, args, kwargs):
        rec["k"] = report.k
        rec["x"] = report.x

    tracer.wrap(density, "lemma_sum_check", "density.lemma", on_lemma)
    tracer.wrap_run_tasks(search, "search")
    tracer.wrap_run_tasks(construct, "construct")

    pool_init = multiprocessing.pool.Pool.__init__

    def counted_init(pool, *args, **kwargs):
        tracer.add("pools", 1)
        pool_init(pool, *args, **kwargs)

    multiprocessing.pool.Pool.__init__ = counted_init
    cli.json = _TimedJson(tracer, cli.json)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    # amiforge is imported before anything else it imports itself, so that
    # the span holds the whole import cost a CLI start pays.
    with tracer.span("cli.import") as rec:
        from amiforge import arith, cli
    import_s = rec["end"] - rec["start"]
    import json

    instrument(tracer)

    real_stdout, sys.stdout = sys.stdout, _Capture(tracer)
    try:
        with tracer.span("cli.run"):
            code = cli.run(argv)
        captured = sys.stdout.getvalue()
    finally:
        sys.stdout = real_stdout
    cache_info = getattr(getattr(arith, "factorize", None), "cache_info", None)
    if cache_info is not None:
        info = cache_info()
        tracer.add("factorize_hits", info.hits)
        tracer.add("factorize_calls", info.hits + info.misses)
    else:
        tracer.notes.append("amiforge.arith.factorize.cache_info not found; not counted")

    with tracer.span("trace.replay"):
        calls = tracer.replay()
    json.dump({
        "code": code,
        "stdout": captured,
        "import_s": import_s,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "task_calls": calls,
        "notes": tracer.notes,
    }, real_stdout)
    real_stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
