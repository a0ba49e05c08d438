"""Compare what two amiforge source trees print for a fixed list of commands.

    python tests/diff_cli.py PARENT_SRC CHANGE_SRC

Each command runs once per tree, in a fresh interpreter with PYTHONPATH set
to that tree's src directory. Every difference in exit code, stderr or
stdout is reported, JSON stdout by the paths of the keys that differ (such
as `params.sieve_limit`); it is compared with its `timing` blocks and
`scanned` counts removed, since they vary between runs and implementations.
A command that runs past TIMEOUT seconds in either tree is reported as
timed out and counts as a difference, since its outputs were never
compared. Each line also gives the command's peak RSS (ru_maxrss) in both
trees, and the last lines the largest changes in it. The exit status
depends on the outputs alone: 1 when anything differs or timed out and 0
otherwise.

The list covers every search kind (the weighted equal-sigma kinds at
k = 2 to 5, at k = 3 up to 3*10^6, yanney at k = 5 with repeated members
in a sigma run, each mean family at k = 1, 2 and 3, whm's key solve at
k = 3 up to 300, deep prefixes in yanney at k = 10, mp at k = 60, hm at
k = 100 and gm and pm at k = 300, alpha-beta with small, composite and
large weights, one of them 2^64, and the amicable numbers and pairs,
Cohen pairs and sigma(n) = a*n up to 10^7), `scan-question` up to 10^7
and as CSV,
`density multi` at weights (1, 2), (2, 1) and (1, 1) and `amicable` up to
3*10^6, whose partners past the sieve fill many sigma_beyond batches,
`pomerance`, and `lemma` at k = 1, 2 and 3,
`construct` with --ns and with --seed-limit (at k = 2, 3 and 4, weights up
to 2^64 and a-bounds from 1 to 10^7), the `sieve` table as JSON and CSV
up to 10^6 and at the odd, even and power-of-two limits 1, 2 and 2^17,
pm at k = 2 up to 10^5 in both formats, `check` on members that the exact
arithmetic must refuse or prove and on non-members of each weighted kind,
and one search refused by each FamilySpec rule. pytest does not collect
this file.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile

TIMEOUT = 30

# Runs the command in its argv as a child of this small interpreter, killed
# after the timeout, and writes "timed out" or the child's exit code and
# ru_maxrss in KiB to the report file descriptor. On Linux a child started
# from a large process, such as this script once it holds a parsed output,
# counts that process's peak in its ru_maxrss, so no command starts from it.
_LAUNCH = """
import os, signal, subprocess, sys
report, timeout, *cmd = sys.argv[1:]
child = subprocess.Popen(cmd)
expired = []
signal.signal(signal.SIGALRM, lambda *_: expired.append(child.kill()))
signal.alarm(int(timeout))
_, status, usage = os.wait4(child.pid, 0)
signal.alarm(0)
child.returncode = os.waitstatus_to_exitcode(status)
with open(int(report), "w") as out:
    out.write("timed out" if expired else f"{child.returncode} {usage.ru_maxrss}")
"""

MEAN = [
    ("pm", "--p", "1", "--q", "2"),
    ("pm", "--p", "2", "--q", "2"),
    ("mp", "--p", "2", "--q", "2"),
    ("wpm", "--p", "1"),
    ("gm",),
    ("wgm",),
    ("hm", "--p", "1", "--q", "2"),
    ("whm", "--p", "1"),
    ("whm", "--p", "2"),
    ("feebly",),
]

# One search refused by each kind of FamilySpec rule: a fixed k, a least k,
# a missing and an unwanted parameter, missing alphas, unwanted alphas, and
# mp's p >= 2.
REFUSED = [
    ("perfect", "--k", "2"),
    ("dickson", "--k", "1"),
    ("pm", "--k", "2", "--p", "1"),
    ("gm", "--k", "2", "--p", "1"),
    ("cohen-pair",),
    ("feebly", "--k", "2", "--alphas", "1,1"),
    ("mp", "--k", "2", "--p", "1", "--q", "2"),
]

COMMANDS = [
    ("search", "perfect", "--limit", "100000"),
    ("search", "amicable-number", "--limit", "100000"),
    ("search", "amicable-number", "--limit", "10000000"),
    ("search", "perfect", "--limit", "10000000"),
    ("search", "amicable-pair", "--limit", "100000"),
    ("search", "amicable-pair", "--limit", "3000000"),
    ("search", "amicable-pair", "--limit", "10000000"),
    ("search", "cohen-pair", "--alphas", "1,2", "--limit", "100000"),
    ("search", "cohen-pair", "--alphas", "1,2", "--limit", "10000000"),
    ("search", "alpha-beta", "--alphas", "1,2", "--limit", "100000"),
    ("search", "alpha-beta", "--alphas", "1,1000", "--limit", "100000"),
    ("search", "alpha-beta", "--alphas", "1,1000", "--limit", "1000000"),
    ("search", "alpha-beta", "--alphas", "2,3", "--limit", "1000000"),
    ("search", "alpha-beta", "--alphas", "8,8", "--limit", "1000000"),
    ("search", "alpha-beta", "--alphas", "2,2", "--limit", "1000000"),
    ("search", "alpha-beta", "--alphas", "6,10", "--limit", "300000"),
    ("search", "alpha-beta", "--alphas", "1,18446744073709551616", "--limit", "1000"),
    ("search", "multiamicable", "--alphas", "1,2", "--limit", "1000000"),
    ("search", "multiamicable", "--alphas", "2,1", "--limit", "1000000"),
    ("search", "multiamicable", "--alphas", "3", "--limit", "100000"),
    ("search", "multiamicable", "--alphas", "3", "--limit", "10000000"),
    ("search", "multiamicable", "--alphas", "1,2,3", "--limit", "100000"),
    ("search", "multiamicable", "--alphas", "1,1,2", "--limit", "300000"),
    ("search", "multiamicable", "--alphas", "1,1,1", "--limit", "1000000"),
    ("search", "multiamicable", "--alphas", "1,1,1,1", "--limit", "3000"),
    ("search", "dickson", "--k", "2", "--limit", "100000"),
    ("search", "dickson", "--k", "3", "--limit", "100000"),
    ("search", "dickson", "--k", "3", "--limit", "3000000"),
    ("search", "dickson", "--k", "4", "--limit", "3000"),
    ("search", "yanney", "--k", "2", "--limit", "100000"),
    ("search", "yanney", "--k", "3", "--limit", "1000000"),
    ("search", "yanney", "--k", "3", "--limit", "3000000"),
    ("search", "yanney", "--k", "4", "--limit", "20000"),
    ("search", "yanney", "--k", "5", "--limit", "3000"),
    *(("search", kind, "--k", "1", *flags, "--limit", "100000") for kind, *flags in MEAN),
    *(("search", kind, "--k", "2", *flags, "--limit", "1000") for kind, *flags in MEAN),
    *(("search", kind, "--k", "3", *flags, "--limit", "100") for kind, *flags in MEAN),
    ("search", "hm", "--k", "3", "--p", "1", "--q", "2", "--limit", "600"),
    ("search", "gm", "--k", "3", "--limit", "300"),
    ("search", "gm", "--k", "3", "--limit", "600"),
    ("search", "feebly", "--k", "3", "--limit", "300"),
    ("search", "whm", "--k", "3", "--p", "1", "--limit", "300"),
    ("search", "gm", "--k", "300", "--limit", "2"),
    ("search", "pm", "--k", "300", "--p", "1", "--q", "1", "--limit", "2"),
    ("search", "hm", "--k", "100", "--p", "1", "--q", "10000", "--limit", "3"),
    ("search", "mp", "--k", "60", "--p", "2", "--q", "1", "--limit", "3"),
    ("search", "yanney", "--k", "10", "--limit", "100"),
    ("search", "yanney", "--k", "3", "--limit", "3000", "--format", "csv"),
    ("scan-question", "--limit", "100000"),
    ("scan-question", "--limit", "100000", "--format", "csv"),
    ("scan-question", "--limit", "10000000"),
    ("sieve", "--limit", "1000000", "--format", "csv"),
    ("sieve", "--limit", "1000000"),
    ("sieve", "--limit", "1"),
    ("sieve", "--limit", "2", "--format", "csv"),
    ("sieve", "--limit", "131072"),
    ("search", "pm", "--k", "2", "--p", "1", "--q", "2", "--limit", "100000"),
    ("search", "pm", "--k", "2", "--p", "1", "--q", "2", "--limit", "100000", "--format", "csv"),
    ("density", "multi", "--alpha", "1", "--beta", "2", "--checkpoints", "100000,3000000"),
    ("density", "amicable", "--checkpoints", "100000,1000000"),
    ("density", "amicable", "--checkpoints", "10,3000000"),
    ("density", "multi", "--alpha", "2", "--beta", "1", "--checkpoints", "1000,1000000"),
    ("density", "multi", "--alpha", "1", "--beta", "1", "--checkpoints", "1000,1000000"),
    ("density", "pomerance", "--checkpoints", "1000,1000000"),
    ("density", "lemma", "--k", "1", "--checkpoints", "1000,1000000"),
    ("density", "lemma", "--k", "3", "--checkpoints", "1000,30000"),
    ("density", "lemma", "--k", "2", "--checkpoints", "30000"),
    ("construct", "--alphas", "1,2", "--seed-limit", "3000", "--a-bound", "3000"),
    ("construct", "--alphas", "2,1", "--seed-limit", "20000", "--a-bound", "200"),
    ("construct", "--alphas", "1,1,1", "--seed-limit", "3000", "--a-bound", "3000"),
    ("construct", "--alphas", "1,1,1", "--seed-limit", "20000", "--a-bound", "3000"),
    ("construct", "--alphas", "1,1,1,1", "--seed-limit", "10000", "--a-bound", "10000"),
    ("construct", "--alphas", "1,2", "--seed-limit", "100000", "--a-bound", "1"),
    ("construct", "--alphas", "1,18446744073709551616", "--seed-limit", "3000", "--a-bound", "3000"),
    ("construct", "--alphas", "1,2,18446744073709551616", "--seed-limit", "3000", "--a-bound", "3000"),
    ("construct", "--alphas", "3,1", "--seed-limit", "20000", "--a-bound", "1000000"),
    ("construct", "--alphas", "1,2", "--seed-limit", "100", "--a-bound", "10000000"),
    ("construct", "--alphas", "1,2", "--ns", "2^3*13,2^2*29", "--a-bound", "3000"),
    ("construct", "--alphas", "1,2", "--ns", "104,116", "--a-bound", "300000"),
    ("check", "perfect", "--tuple", "2^4*31"),
    ("check", "perfect", "--tuple", "2^60*1000000007"),
    ("check", "perfect", "--tuple", "1000003*1000033"),
    ("check", "perfect", "--tuple", "1000000007*1000000009"),
    ("check", "perfect", "--tuple", "2^99999999"),
    ("check", "perfect", "--tuple", "7*3317044064679887385961981"),
    ("check", "perfect", "--tuple", "7*318665857834031151167461"),
    ("check", "wgm", "--tuple", "7*3317044064679887385961981,1"),
    ("check", "perfect", "--tuple", "10"),
    ("check", "amicable-pair", "--tuple", "4,12"),
    ("check", "dickson", "--tuple", "1,2,3"),
    ("check", "yanney", "--tuple", "220,284,504"),
    ("check", "multiamicable", "--alphas", "1,2", "--tuple", "220,284"),
    ("verify-tables",),
    *(("search", *flags, "--limit", "10") for flags in REFUSED),
]


def _strip(value):
    """value without its `timing` and `scanned` entries, at every depth."""
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in ("timing", "scanned")}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _differences(a, b, path: str = ""):
    """The paths at which a and b differ: keys joined with dots, list
    positions in brackets, and the first differing line of a text."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _differences(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{path}[{i}]")
    elif isinstance(a, str) and isinstance(b, str) and a != b:
        lines = itertools.zip_longest(a.splitlines(), b.splitlines())
        yield f"{path} line {next(i for i, (x, y) in enumerate(lines, 1) if x != y)}"
    elif a != b:
        yield path


def _run(src: str, argv) -> tuple[tuple, int | None]:
    """The outcome of argv over the tree src, (exit code, stderr, stdout) or
    ("timed out",), and its peak RSS in KiB (None when it timed out)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = [sys.executable, "-c", "import sys; from amiforge.cli import run; sys.exit(run(sys.argv[1:]))", *argv]
    read, write = os.pipe()
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        launcher = [sys.executable, "-c", _LAUNCH, str(write), str(TIMEOUT), *cmd]
        with subprocess.Popen(launcher, env=env, stdout=out, stderr=err, pass_fds=(write,)):
            os.close(write)
            with os.fdopen(read) as report:
                verdict = report.read()
        if verdict == "timed out":
            return ("timed out",), None
        code, rss = map(int, verdict.split())
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    try:
        stdout = _strip(json.loads(stdout))
    except json.JSONDecodeError:
        pass
    return (code, stderr, stdout), rss


def _megabytes(rss: int | None) -> str:
    return "   --  " if rss is None else f"{rss / 1024:6.1f}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = argv
    differ = 0
    peaks = []
    for command in COMMANDS:
        (a, rss_a), (b, rss_b) = _run(parent, command), _run(change, command)
        line = " ".join(command)
        peaks.append((rss_a, rss_b, line))
        timed_out = [tree for tree, result in (("parent", a), ("change", b)) if result == ("timed out",)]
        same = a == b and not timed_out
        print(f"{'TIMEOUT' if timed_out else 'same   ' if same else 'DIFFERS'}  {_megabytes(rss_a)} -> {_megabytes(rss_b)} MiB  {line}")
        if same:
            continue
        differ += 1
        if timed_out:
            print(f"  timed out in {' and '.join(timed_out)}")
            continue
        sides = [dict(zip(("exit", "stderr", "stdout"), result)) for result in (a, b)]
        print(f"  {', '.join(_differences(*sides))}")
    print(f"{differ} of {len(COMMANDS)} commands differ or time out")
    timed = [p for p in peaks if None not in p[:2]]
    print("largest peak RSS changes (MiB):")
    for rss_a, rss_b, line in sorted(timed, key=lambda p: -abs(p[1] - p[0]))[:8]:
        print(f"  {(rss_b - rss_a) / 1024:+6.1f}  {_megabytes(rss_a)} -> {_megabytes(rss_b)}  {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
