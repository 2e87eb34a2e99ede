"""Auditing the production path against the reference oracle.

Production evaluation runs every fast path at once:

* window (rotating-register) references run the row-memoized Belady
  trace on the array engine (:func:`repro.sim.residency.opt_trace` with
  a period ladder), with one capacity-shared trace plane per group
  answering every register budget;
* pinned (invariant) references rank one representative region per
  shift-normalized region class and stamp the result across the class
  (:class:`repro.scalar.coverage.GroupCoverage`);
* the cycle counter classifies iterations over the kernel's shared
  iteration-atom partition and schedules each distinct joint hit/miss
  pattern once, weighted by its iteration count;
* the process's :class:`~repro.explore.context.EvalContext` memoizes the
  artifacts a sweep's points share.

The ``reference`` flag of :func:`~repro.explore.evaluate.evaluate_query`
turns all of them off at once: reference trace engine, per budget,
unbatched, full-grid classification, no context.  The two paths must
produce the **bit-identical** :class:`~repro.explore.query.DesignRecord`.
This module keeps that claim pinned: :func:`compare_reference` diffs one
query's production and reference records field by field, and
:func:`verify_reference` sweeps a whole query list (the acceptance tests
and the fuzz suite drive both).  They are the only callers of the
oracle outside the tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterable

from repro.explore.evaluate import design_for, evaluate_query
from repro.explore.query import DesignQuery, DesignRecord

__all__ = [
    "ReferenceMismatch",
    "compare_reference",
    "verify_reference",
    "iteration_classes",
]


@dataclass(frozen=True)
class ReferenceMismatch:
    """One field where the production record diverged from the oracle."""

    query: DesignQuery
    field: str
    production: Any
    reference: Any

    def describe(self) -> str:
        return (
            f"{self.query.describe()}: {self.field} "
            f"production={self.production!r} != "
            f"reference={self.reference!r}"
        )


def compare_reference(query: DesignQuery) -> list[ReferenceMismatch]:
    """Evaluate ``query`` on both paths; list every differing field."""
    production = evaluate_query(query)
    reference = evaluate_query(query, reference=True)
    mismatches: list[ReferenceMismatch] = []
    for field in dataclasses.fields(DesignRecord):
        if field.name == "query" or not field.compare:
            # compare=False fields (seconds, stages) are run bookkeeping,
            # not results.
            continue
        a = getattr(production, field.name)
        b = getattr(reference, field.name)
        if a != b:
            mismatches.append(ReferenceMismatch(query, field.name, a, b))
    return mismatches


def verify_reference(
    queries: "Iterable[DesignQuery]",
) -> list[ReferenceMismatch]:
    """All mismatches over a query list (empty = bit-identical sweep)."""
    mismatches: list[ReferenceMismatch] = []
    for query in queries:
        mismatches.extend(compare_reference(query))
    return mismatches


def iteration_classes(
    query: DesignQuery,
) -> tuple[tuple[tuple[str, ...], int, int], ...]:
    """The joint hit/miss pattern classes of one design point.

    Each entry is ``(miss events, iteration count, cycles per
    iteration)`` — the classification the cycle counter evaluates once
    per class.  A steady-state-dominated kernel shows one large class
    plus small boundary classes.  Raises the point's original error for
    infeasible queries.
    """
    design, _ = design_for(query)
    return design.cycles.pattern_counts
