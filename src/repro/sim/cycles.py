"""Exact whole-nest cycle counting.

For a kernel plus an allocation, every iteration's cycle cost is the
makespan of the body DFG scheduled with that iteration's hit/miss pattern
(see :mod:`repro.sim.scheduler`).  Patterns come from the coverage masks —
e.g. with ``d`` covered for ``k < 12``, iterations split into the
``k < 12`` and ``k >= 12`` classes of the paper's Figure 2(c) arithmetic.

Iterations with identical patterns cost the same, so the counter
classifies the whole iteration space into patterns, schedules each
distinct pattern once, and takes a weighted sum — exact, and fast even
for the million-iteration kernels.  The classification runs over the
kernel's iteration-atom partition (:mod:`repro.sim.patterns`, shared
through an evaluation context when there is one); the reference oracle
(``reference`` set) classifies the full grid.

Total cycles also include:

* epilogue write-backs of covered written elements (one RAM store each),
* a configurable per-iteration control overhead (sequential FSM designs
  spend at least one state transition per iteration; Table 1 runs use 1,
  the Figure 2(c) memory-only counting uses 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.groups import RefGroup
from repro.core.allocation import Allocation
from repro.dfg.build import build_dfg
from repro.dfg.graph import DataFlowGraph
from repro.dfg.latency import LatencyModel
from repro.errors import SimulationError
from repro.ir.kernel import Kernel
from repro.scalar.coverage import GroupCoverage, coverage_for
from repro.sim.patterns import PatternClassifier, node_channels, pattern_maps
from repro.sim.scheduler import schedule_iteration

if TYPE_CHECKING:  # pragma: no cover
    from repro.explore.context import EvalContext

__all__ = [
    "CycleReport",
    "count_cycles",
    "classify_patterns",
    "has_active_read",
]


@dataclass(frozen=True)
class CycleReport:
    """Cycle accounting for one (kernel, allocation) pair.

    Attributes
    ----------
    in_loop_cycles:
        Sum of per-iteration makespans (plus per-iteration overhead).
    epilogue_cycles:
        Write-back stores of covered written elements.
    memory_cycles:
        Cycles with a busy RAM port, summed over iterations and epilogue —
        the Figure 2(c) ``Tmem`` when an all-ops-free latency model is used.
    ram_accesses:
        Group name -> total RAM accesses (loop + epilogue).
    pattern_counts:
        Distinct hit/miss patterns and how many iterations hit each,
        for reports (pattern rendered as a sorted tuple of miss events).
    """

    in_loop_cycles: int
    epilogue_cycles: int
    memory_cycles: int
    ram_accesses: dict[str, int]
    pattern_counts: tuple[tuple[tuple[str, ...], int, int], ...]

    @property
    def total_cycles(self) -> int:
        return self.in_loop_cycles + self.epilogue_cycles

    @property
    def total_ram_accesses(self) -> int:
        return sum(self.ram_accesses.values())


def count_cycles(
    kernel: Kernel,
    groups: tuple[RefGroup, ...],
    allocation: Allocation,
    model: LatencyModel,
    ram_ports: int = 1,
    overhead_per_iteration: int = 0,
    dfg: DataFlowGraph | None = None,
    anchors: "dict[str, str] | None" = None,
    coverages: "dict[str, GroupCoverage] | None" = None,
    context: "EvalContext | None" = None,
    reference: bool = False,
) -> CycleReport:
    """Count execution cycles of ``kernel`` under ``allocation``.

    ``anchors`` optionally overrides the pinned-coverage anchor per group
    (see :meth:`GroupCoverage.result`); defaults to ``"low"``.

    ``coverages`` optionally shares pre-built coverage computers across
    repeated counts of the same design point (the pipeline's anchor
    search).  ``context`` (an
    :class:`~repro.explore.context.EvalContext`) memoizes each distinct
    hit/miss pattern's scheduled makespan, the iteration-atom partition
    and whole reports across the counts of a sweep — the grid points of
    one kernel mostly re-encounter the same patterns, so the DFG is
    re-scheduled only for genuinely new ones.  Without a context the
    count takes the same production path on artifacts of its own.

    ``reference`` selects the oracle every fast path is checked
    against: reference coverage computers
    (:func:`~repro.scalar.coverage.coverage_for`), full-grid pattern
    classification and a plain scheduler.  It never touches
    ``context``.  Results are bit-identical either way.
    """
    if reference:
        context = None
    if dfg is None:
        dfg = (
            context.dfg(kernel, groups)
            if context is not None
            else build_dfg(kernel, groups)
        )
    anchors = anchors or {}
    memo_key = None
    if context is not None:
        if coverages is None:
            coverages = context.coverages(kernel, groups)
        # The full parameterization of this count.  The context
        # additionally declines the memo when ``dfg``/``coverages`` are
        # not its canonical artifacts for this kernel.
        memo_key = (
            context.model_fingerprint(model),
            ram_ports,
            overhead_per_iteration,
            tuple((g.name, allocation.registers_for(g.name)) for g in groups),
            tuple(sorted(anchors.items())),
        )
        memoized = context.get_cycle_report(
            kernel, groups, memo_key, dfg=dfg, coverages=coverages
        )
        if memoized is not None:
            return memoized
    elif coverages is None:
        coverages = coverage_for(kernel, groups, reference=reference)
    shape = kernel.nest.trip_counts()

    # One bool "channel" per (group, access kind) that can miss.
    channels: list[tuple[str, str, np.ndarray]] = []  # (group, kind, miss grid)
    writebacks = 0
    ram_accesses: dict[str, int] = {}
    for group in groups:
        coverage = coverages.get(group.name)
        if coverage is None:
            coverage = coverage_for(
                kernel, (group,), reference=reference
            )[group.name]
        result = coverage.result(
            allocation.registers_for(group.name),
            anchor=anchors.get(group.name, "low"),
        )
        ram_accesses[group.name] = result.total_ram_accesses
        writebacks += result.writeback_stores
        if result.ram_reads or has_active_read(group):
            channels.append((group.name, "read", result.read_miss))
        if group.writes:
            channels.append((group.name, "write", result.write_miss))

    classifier = None
    if context is not None:
        classifier = context.pattern_classifier(kernel, dfg)

        def scheduler(hit: "dict[str, bool]") -> "tuple[int, int]":
            return context.schedule(kernel, dfg, model, hit, ram_ports)
    else:
        def scheduler(hit: "dict[str, bool]") -> "tuple[int, int]":
            schedule = schedule_iteration(dfg, model, hit, ram_ports)
            return schedule.makespan, schedule.memory_cycles
    if classifier is None and not reference:
        classifier = PatternClassifier(shape, dfg)

    in_loop, memory_cycles, pattern_rows = classify_patterns(
        shape, channels, dfg, overhead_per_iteration, scheduler,
        label=f"kernel {kernel.name}", classifier=classifier,
    )

    epilogue = writebacks * model.ram_latency
    report = CycleReport(
        in_loop_cycles=in_loop,
        epilogue_cycles=epilogue,
        memory_cycles=memory_cycles + epilogue,
        ram_accesses=ram_accesses,
        pattern_counts=tuple(pattern_rows),
    )
    if memo_key is not None:
        context.put_cycle_report(
            kernel, groups, memo_key, report, dfg=dfg, coverages=coverages
        )
    return report


def classify_patterns(
    shape: "tuple[int, ...]",
    channels: "list[tuple[str, str, np.ndarray]]",
    dfg: DataFlowGraph,
    overhead_per_iteration: int,
    scheduler: "Callable[[dict[str, bool]], tuple[int, int]]",
    label: str = "kernel",
    classifier: "PatternClassifier | None" = None,
) -> "tuple[int, int, list[tuple[tuple[str, ...], int, int]]]":
    """The pattern-classification core shared by every cycle counter.

    ``channels`` is one ``(group, kind, miss grid)`` triple per access
    channel that can miss; iterations with identical per-channel miss
    bits form one pattern, scheduled once through ``scheduler`` — a
    callable mapping the node hit/miss map to ``(makespan,
    memory_cycles)``, so callers plug in their own memoization
    (:meth:`~repro.explore.context.EvalContext.schedule`, or the
    oracle's per-search memo).  Returns ``(in_loop_cycles,
    memory_cycles, pattern_rows)`` exactly as :func:`count_cycles`
    reports them; OPT-RA's admissible relaxation bounds reuse this so
    the bound arithmetic cannot drift from the real counter's.

    With a ``classifier`` (the kernel bundle's
    :class:`~repro.sim.patterns.PatternClassifier`, handed out by
    :meth:`~repro.explore.context.EvalContext.pattern_classifier`) the
    histogram is built over the shared iteration-atom partition,
    weighted by atom size.  Without one, every iteration of the full
    grid is classified: that path is the reference oracle
    (:func:`count_cycles` with ``reference`` set), and the differential tests
    pin the two to identical results.
    """
    if len(channels) > 20:
        raise SimulationError(
            f"{label}: {len(channels)} access channels exceed "
            f"the pattern classifier's limit"
        )
    space = prod(shape)
    signature = tuple((group, kind) for group, kind, _ in channels)
    if classifier is not None:
        if classifier.dfg is not dfg or classifier.shape != tuple(shape):
            raise SimulationError(
                f"{label}: pattern classifier belongs to another kernel"
            )
        histogram = classifier.histogram([miss for _, _, miss in channels])
        patterns = [
            (count, *classifier.pattern_maps(signature, value))
            for value, count in histogram
        ]
    else:
        pattern = np.zeros(shape, dtype=np.int64)
        for bit, (_, _, miss) in enumerate(channels):
            pattern |= miss.astype(np.int64) << bit
        counts = np.bincount(pattern.reshape(-1), minlength=1)
        pairs = node_channels(dfg, signature)
        patterns = [
            (count, *pattern_maps(signature, pairs, value))
            for value, count in enumerate(counts.tolist())
            if count
        ]

    in_loop = 0
    memory_cycles = 0
    pattern_rows: list[tuple[tuple[str, ...], int, int]] = []
    for count, hit, misses in patterns:
        makespan, pattern_memory = scheduler(hit)
        cost = makespan + overhead_per_iteration
        in_loop += cost * count
        memory_cycles += pattern_memory * count
        pattern_rows.append((misses, count, cost))

    if sum(count for _, count, _ in pattern_rows) != space:
        raise SimulationError("pattern classification lost iterations")
    return in_loop, memory_cycles, pattern_rows


def has_active_read(group: RefGroup) -> bool:
    """Whether the group has a read site that is not store-forwarded."""
    return any(
        not s.is_write and s.site_id not in group.forwarded for s in group.sites
    )
