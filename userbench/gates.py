"""Correctness gates for one ``repro explore`` command.

Every design point of a command passes or fails on its own: a point fails
when its CSV row is missing, repeated, out of place or differs from the
golden row, and on the OPT-RA grid also when its gap-report line differs
from the golden report, when OPT-RA is beaten by a heuristic at the same
(kernel, budget), or when OPT-RA's optimum is not certified.  Crashed and
quarantined points differ from their golden rows, so they fail too.
"""

from __future__ import annotations

import csv
import io
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: CSV columns that identify a design point (the rest are its outcome).
KEY_COLUMNS = 4  # kernel, allocator, budget, latency
OPT_RA = "OPT-RA"

_STATS = re.compile(r"explore: (\d+) points: \d+ evaluated, (\d+) cache hits")


@dataclass(frozen=True)
class Golden:
    """Golden CSV: its header and one line per point key."""

    header: str
    lines: "dict[tuple, str]"


def read_golden(name: str, key=None) -> Golden:
    header, *rows = (GOLDEN_DIR / name).read_text().splitlines()
    lines = {}
    for line in rows:
        k = (key or point_key)(line)
        if k in lines:
            raise ValueError(f"golden repeats point {k}")
        lines[k] = line
    return Golden(header, lines)


def _fields(line: str) -> "list[str]":
    return next(csv.reader(io.StringIO(line)))


def point_key(line: str) -> tuple:
    """``(kernel, allocator, budget, latency)`` of an output CSV row."""
    return tuple(_fields(line)[:KEY_COLUMNS])


def gap_key(line: str) -> tuple:
    """The point key of a gap-report line (``kernel,budget,allocator,...``)."""
    kernel, budget, allocator = _fields(line)[:3]
    return (kernel, allocator, budget, "default")


def latency_label(latency: "int | None") -> str:
    return "default" if latency is None else f"realistic(L={latency})"


def expand_order(kernels, allocators, budgets, latencies) -> "list[tuple]":
    """Point keys in the order ``repro explore`` prints them.

    Kernel-major, then budget, then latency, allocator innermost — the
    nesting of ``ExplorationSpace.expand``.
    """
    return [
        (kernel, allocator, str(budget), latency_label(latency))
        for kernel in kernels
        for budget in budgets
        for latency in latencies
        for allocator in allocators
    ]


@dataclass
class Verdict:
    """The outcome of one command: which of its points failed and why."""

    attempted: int
    failed: "set[tuple]" = field(default_factory=set)
    reasons: "list[str]" = field(default_factory=list)
    #: Failures that cannot be pinned to a point (e.g. cache misses).
    unpinned: int = 0

    def fail(self, keys, reason: str) -> None:
        keys = set(keys)
        if keys:
            self.failed |= keys
            self.reasons.append(f"{len(keys)} points: {reason}")

    @property
    def n_failed(self) -> int:
        return min(self.attempted, len(self.failed) + self.unpinned)


def check_rows(verdict: Verdict, text: str, golden: Golden, order) -> dict:
    """Compare the command's CSV with the golden rows; returns rows by key."""
    header, *rows = text.splitlines() or [""]
    if header != golden.header:
        verdict.fail(order, "CSV header differs from the golden header")
        return {}
    seen = defaultdict(list)
    for line in rows:
        seen[point_key(line)].append(line)
    expected = set(order)
    extra = [k for k in seen if k not in expected]
    if extra:
        # A row for a point nobody asked for is a failure of its own.
        verdict.attempted += len(extra)
        verdict.fail(extra, "unexpected rows")
    verdict.fail([k for k in order if not seen.get(k)], "missing rows")
    verdict.fail([k for k in order if len(seen.get(k, ())) > 1],
                 "repeated rows")
    verdict.fail(
        [k for k in order
         if len(seen.get(k, ())) == 1 and seen[k][0] != golden.lines[k]],
        "rows differ from the golden",
    )
    if not verdict.failed:
        got = [point_key(line) for line in rows]
        verdict.fail([k for k, g in zip(order, got) if k != g],
                     "rows out of command-line order")
    return {k: _fields(v[0]) for k, v in seen.items() if len(v) == 1}


def check_gap(verdict: Verdict, text: str, golden: Golden) -> None:
    """The gap report must equal the golden one as a multiset of lines."""
    header, *rows = text.splitlines() or [""]
    if header != golden.header:
        verdict.fail(golden.lines, "gap-report header differs")
        return
    seen = defaultdict(list)
    for line in rows:
        seen[gap_key(line)].append(line)
    keys = set(seen) | set(golden.lines)
    verdict.fail(
        [k for k in keys if seen.get(k) != [golden.lines.get(k)]],
        "gap-report lines differ from the golden report",
    )
    certified = header.split(",").index("opt_certified")
    verdict.fail(
        [(k[0], OPT_RA, k[2], k[3]) for k, lines in seen.items()
         if any(_fields(line)[certified] != "true" for line in lines)],
        "OPT-RA optimum not certified",
    )


def check_optimal(verdict: Verdict, rows: dict, header: str) -> None:
    """OPT-RA's cycles are <= every heuristic's at the same (kernel, budget)."""
    cycles = header.split(",").index("cycles")
    best = {}
    for key, fields in rows.items():
        if key[1] == OPT_RA and fields[cycles]:
            best[(key[0], key[2], key[3])] = int(fields[cycles])
    beaten = set()
    for key, fields in rows.items():
        opt = best.get((key[0], key[2], key[3]))
        if key[1] != OPT_RA and opt is not None and fields[cycles]:
            if int(fields[cycles]) < opt:
                beaten.add((key[0], OPT_RA, key[2], key[3]))
    verdict.fail(beaten, "OPT-RA beaten by a heuristic")


def parse_stats(stderr: str) -> "tuple[int, int] | None":
    """``(points, cache hits)`` from the sweep's stats line, if printed."""
    match = _STATS.search(stderr)
    return None if match is None else (int(match[1]), int(match[2]))
