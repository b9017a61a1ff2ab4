"""Regression corpus: frozen relation claims re-verified by the engine.

Rows are JSON lines {name, p, q, semantics, expect, note}, the first five
strings.  expect is one of leq / geq / eq / incomparable (both directions are
decided) or holds / fails (only p-against-q is decided).  A row of another
shape raises ValueError naming its line.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from .preorders import holds
from .spectrum import parse_semantics
from .terms import canonicalize, parse_term

__all__ = ["CorpusReport", "run_corpus", "default_corpus_path"]

_FIELDS = ("name", "p", "q", "semantics", "expect")
_EXPECT = {"leq", "geq", "eq", "incomparable", "holds", "fails"}


class CorpusReport(NamedTuple):
    rows: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self):
        return {"rows": self.rows, "mismatches": self.mismatches}


def default_corpus_lines() -> list[str]:
    data = resources.files("procsem").joinpath("data/corpus.jsonl").read_text()
    return [line for line in data.splitlines() if line.strip()]


def default_corpus_path() -> str:
    return str(resources.files("procsem").joinpath("data/corpus.jsonl"))


def run_corpus(lines=None) -> CorpusReport:
    lines = default_corpus_lines() if lines is None else list(lines)
    mismatches = []
    for number, line in enumerate(lines, 1):
        row = json.loads(line)
        if not (isinstance(row, dict) and all(isinstance(row.get(key), str) for key in _FIELDS)):
            raise ValueError(f"row {number}: not an object with string fields {', '.join(_FIELDS)}")
        if row["expect"] not in _EXPECT:
            raise ValueError(f"row {number} ({row['name']!r}): bad expect {row['expect']!r}")
        sem = parse_semantics(row["semantics"])
        p = canonicalize(parse_term(row["p"]))
        q = canonicalize(parse_term(row["q"]))
        if row["expect"] in ("holds", "fails"):
            got = "holds" if holds(sem, p, q) else "fails"
        else:
            below = holds(sem, p, q)
            above = holds(sem, q, p)
            got = {
                (True, True): "eq",
                (True, False): "leq",
                (False, True): "geq",
                (False, False): "incomparable",
            }[(below, above)]
        if got != row["expect"]:
            mismatches.append({"name": row["name"], "expected": row["expect"], "got": got})
    return CorpusReport(len(lines), mismatches)
