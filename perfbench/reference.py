"""Stored job outputs and the comparison every benchmark job must pass.

Only the verdict-bearing part of an output is kept: records, sigmas, counts,
verdicts, holds/exact and CSV text. Keys that may change without changing
an answer are dropped before comparing: `timing`, `stats` and `scanned`
anywhere in the document, and the floating-point lhs/rhs/margin of the
lemma check, whose verdict is carried by `holds` and `exact`.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

IGNORED_KEYS = frozenset({"timing", "stats", "scanned"})
_LEMMA_FLOATS = ("lhs", "rhs", "margin")


def _strip(node):
    if isinstance(node, dict):
        return {k: _strip(v) for k, v in node.items() if k not in IGNORED_KEYS}
    if isinstance(node, list):
        return [_strip(v) for v in node]
    return node


def normalize(argv, stdout: str):
    """The comparable form of one job's stdout: CSV text as is, JSON stripped."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        return stdout
    doc = _strip(json.loads(stdout))
    if doc.get("command") == "density" and doc.get("params", {}).get("mode") == "lemma":
        doc["results"] = [
            {k: v for k, v in row.items() if k not in _LEMMA_FLOATS} for row in doc["results"]
        ]
    return doc


def load(path: Path = REFERENCE_FILE) -> dict:
    """Job id -> stored normalized output."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def mismatch(argv, stdout: str, expected) -> str | None:
    """None when the output matches the stored reference, else why it does not."""
    try:
        got = normalize(argv, stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unparseable output: {exc}"
    if got != expected:
        return "output differs from the stored reference"
    return None
