"""Tracked microbenchmark harness for the evaluation hot path.

Times the regimes that matter for sweep throughput and writes the
machine-readable ``BENCH_<n>.json`` the repo's perf trajectory tracks:

* **grid** — a Table-1-shaped kernels x allocators x budgets sweep at
  ``jobs=1`` with a *cold* :class:`~repro.explore.context.EvalContext`
  (first sweep of a fresh process) and again with the now-*warm* one
  (resumed / repeated sweeps); ``--min-speedup`` gates warm vs cold;
* **single point** — one representative :class:`DesignQuery`, each
  repeat on a fresh context (cold) and on a primed one (warm);
* **trace engine** — the *cold* coverage work of one CPA-RA point of
  every window-heavy kernel, timed below the query layer: fresh
  :class:`~repro.scalar.coverage.GroupCoverage` computers on the array
  trace engine vs the reference residency simulators
  (``--min-trace-speedup``);
* **budget column** — the *cold* cost of one full budget column (one
  window kernel, every grid budget) per budget vs in one ladder pass,
  at two levels: LRU miss counts (one stack-distance histogram answers
  the whole axis) and the window coverage trace (one shared
  capacity-independent plane);
* **supervision overhead** — the warm grid's ``Executor.run`` wall time
  minus the evaluation seconds its records carry: what the supervised
  drive loop, cost model and result assembly add on top of evaluation
  (``--max-supervision-overhead``);
* **imbalance** — a deliberately heterogeneous grid (cheap points, an
  OPT-RA column, and injected ``slow`` faults pinned on one kernel) at
  ``jobs=4`` through the work-stealing lease queue.  The cost model
  cannot see the hidden latency; a dispatcher that committed the slow
  kernel to one worker would serialize ``slow_points x slow_seconds``
  behind it, while the lease queue spreads those points across all four
  workers.  ``--min-steal-speedup`` gates that serialized latency over
  the measured wall time (``jobs / 2`` = wall within twice the ideal);
* **equivalence** — the grid's records are audited point by point
  against the reference oracle
  (:func:`~repro.explore.batch.verify_reference`), and the imbalance
  sweep's records against inline evaluation; a benchmark that got fast
  by changing answers fails loudly (``identical`` must be true).

Run it via ``repro perf`` (``--quick`` for the CI smoke grid, the
``--min-*`` / ``--max-*`` flags to fail outside the floors).
``repro perf --compare OLD.json NEW.json`` diffs two emitted reports
metric by metric: absolute seconds gate only between reports of the
same grid on the same host, speedup *ratios* otherwise (non-zero exit
on a regression beyond ``--threshold``, or when no metric gates at
all).  See ``docs/perf.md``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
import warnings

import numpy as np
from dataclasses import dataclass, field
from pathlib import Path

from repro.explore.batch import verify_reference
from repro.explore.context import EvalContext
from repro.explore.executor import Executor
from repro.explore.evaluate import evaluate_query
from repro.explore.query import DesignQuery
from repro.explore.results import ResultSet
from repro.explore.space import ExplorationSpace

__all__ = [
    "BENCH_NUMBER",
    "PerfReport",
    "CompareRow",
    "perf_grid",
    "run_perf",
    "render_perf",
    "write_report",
    "compare_reports",
    "render_compare",
]

#: Sequence number of this harness's output file (``BENCH_14.json``).
BENCH_NUMBER = 14

#: The Table-1-shaped reference grid: 4 kernels x 5 allocators x 16
#: budgets = 320 points.
GRID_KERNELS = ("fir", "mat", "pat", "bic")
GRID_ALLOCATORS = ("NO-SR", "FR-RA", "PR-RA", "CPA-RA", "KS-RA")
GRID_BUDGETS = tuple(range(4, 36, 2))

#: The CI smoke grid: small enough for a shared runner, same shape.
QUICK_KERNELS = ("fir", "pat")
QUICK_ALLOCATORS = ("FR-RA", "CPA-RA", "KS-RA")
QUICK_BUDGETS = (8, 16, 24, 32)

#: The single-point subject: a mid-ladder CPA-RA point of the running
#: example's kernel family (DFG + coverage + anchor search all active).
SINGLE_POINT = DesignQuery(kernel="pat", allocator="CPA-RA", budget=16)

#: Window-heavy kernels whose cold per-point cost is dominated by the
#: residency simulation — the subjects of the trace-engine comparison.
TRACE_KERNELS = ("fir", "pat", "decfir")
QUICK_TRACE_KERNELS = ("fir", "pat")

#: The imbalance grid: a heterogeneous mix of cheap allocator columns,
#: an expensive OPT-RA column, and injected ``slow`` faults pinned on
#: the kernel with the *smallest* static prior — the kernel a
#: cost-balancing packer would keep whole on one worker.
IMBALANCE_KERNELS = ("fir", "mat", "pat", "bic")
QUICK_IMBALANCE_KERNELS = ("bic", "pat")
IMBALANCE_ALLOCATORS = ("NO-SR", "FR-RA")
IMBALANCE_BUDGETS = (8, 16, 24, 32)
IMBALANCE_JOBS = 4
#: Hidden per-point latency injected on the slow kernel (quick, full).
IMBALANCE_SLOW_SECONDS = (0.25, 0.35)

#: Ratio metrics regress when ``new * threshold < old``; this is the
#: default ``--threshold`` (loose on purpose: ratios wobble with host
#: load even though they cancel absolute speed).
COMPARE_THRESHOLD = 1.5


def perf_grid(quick: bool = False) -> ExplorationSpace:
    """The benchmark's exploration grid (`--quick` for the CI smoke)."""
    if quick:
        return ExplorationSpace(
            kernels=QUICK_KERNELS,
            allocators=QUICK_ALLOCATORS,
            budgets=QUICK_BUDGETS,
        )
    return ExplorationSpace(
        kernels=GRID_KERNELS,
        allocators=GRID_ALLOCATORS,
        budgets=GRID_BUDGETS,
    )


@dataclass(frozen=True)
class PerfReport:
    """One harness run: timings (seconds), speedups, and the verdict."""

    quick: bool
    points: int
    grid_cold_context: float
    grid_warm_context: float
    single_cold_context: float
    single_warm_context: float
    single_repeats: int
    identical: bool
    #: Best warm-grid ``Executor.run`` wall seconds and the evaluation
    #: seconds its records carry (0.0 = unmeasured).
    grid_warm_run: float = 0.0
    grid_warm_evaluation: float = 0.0
    context_stats: dict[str, int] = field(default_factory=dict)
    #: kernel -> {"reference": seconds, "array": seconds}: the cold
    #: coverage work of one point under each trace engine.
    trace_coverage: "dict[str, dict[str, float]]" = field(default_factory=dict)
    #: kernel -> {"counts_per_budget": s, "counts_ladder": s,
    #: "trace_per_budget": s, "trace_ladder": s}: the full budget column
    #: per budget vs in one ladder pass (see :func:`_time_budget_column`).
    budget_column: "dict[str, dict[str, float]]" = field(default_factory=dict)
    #: The heterogeneous-grid dispatch measurement (empty = unmeasured):
    #: ``steal_s`` wall seconds plus the grid shape, the slow-kernel pin,
    #: and the scheduler counters (see :func:`_time_imbalance`).
    imbalance: "dict[str, object]" = field(default_factory=dict)

    @property
    def speedup_warm(self) -> float:
        return self.grid_cold_context / self.grid_warm_context

    @property
    def speedup_single(self) -> float:
        return self.single_cold_context / self.single_warm_context

    @property
    def supervision_overhead(self) -> float:
        """Warm-grid run seconds beyond evaluation, per evaluation second
        (0 = unmeasured)."""
        if not self.grid_warm_run or not self.grid_warm_evaluation:
            return 0.0
        return self.grid_warm_run / self.grid_warm_evaluation - 1.0

    def trace_speedup(self, kernel: str) -> float:
        timings = self.trace_coverage[kernel]
        return timings["reference"] / timings["array"]

    @property
    def best_trace_speedup(self) -> float:
        """The largest per-kernel array-engine speedup (0 when unmeasured)."""
        if not self.trace_coverage:
            return 0.0
        return max(self.trace_speedup(k) for k in self.trace_coverage)

    @property
    def steal_speedup(self) -> float:
        """Serialized slow latency / imbalance wall time (0 unmeasured).

        ``jobs`` is the ideal; a dispatcher that serialized the slow
        kernel on one worker lands at or below 1.
        """
        steal_s = float(self.imbalance.get("steal_s") or 0.0)
        if not steal_s:
            return 0.0
        serial = float(self.imbalance["slow_points"]) * float(
            self.imbalance["slow_seconds"]
        )
        return serial / steal_s

    def column_speedup(self, kernel: str, level: str = "counts") -> float:
        """Per-budget / ladder on one column level (counts, trace)."""
        timings = self.budget_column[kernel]
        return timings[f"{level}_per_budget"] / timings[f"{level}_ladder"]

    @property
    def best_column_speedup(self) -> float:
        """The largest per-kernel miss-count ladder speedup (0 unmeasured)."""
        if not self.budget_column:
            return 0.0
        return max(self.column_speedup(k) for k in self.budget_column)

    def to_dict(self) -> dict:
        grid = perf_grid(self.quick)
        return {
            "bench": BENCH_NUMBER,
            "name": "one production path",
            "quick": self.quick,
            "grid": {
                "kernels": list(grid.kernels),
                "allocators": list(grid.allocators),
                "budgets": list(grid.budgets),
                "points": self.points,
            },
            "seconds": {
                "grid_cold_context": self.grid_cold_context,
                "grid_warm_context": self.grid_warm_context,
                "single_point_cold_context": self.single_cold_context,
                "single_point_warm_context": self.single_warm_context,
                "grid_warm_run": self.grid_warm_run,
                "grid_warm_evaluation": self.grid_warm_evaluation,
                "imbalance_steal": float(
                    self.imbalance.get("steal_s") or 0.0
                ),
            },
            "speedup": {
                "grid_warm_vs_cold_context": self.speedup_warm,
                "single_point_warm_vs_cold_context": self.speedup_single,
                "steal_vs_serialized_imbalance": self.steal_speedup,
            },
            "supervision_overhead": self.supervision_overhead,
            "imbalance": dict(self.imbalance, speedup=self.steal_speedup),
            "trace_coverage": {
                kernel: {
                    "reference_s": timings["reference"],
                    "array_s": timings["array"],
                    "speedup": self.trace_speedup(kernel),
                }
                for kernel, timings in self.trace_coverage.items()
            },
            "budget_column": {
                kernel: {
                    "counts_per_budget_s": timings["counts_per_budget"],
                    "counts_ladder_s": timings["counts_ladder"],
                    "trace_per_budget_s": timings["trace_per_budget"],
                    "trace_ladder_s": timings["trace_ladder"],
                    "trace_speedup": self.column_speedup(kernel, "trace"),
                    "speedup": self.column_speedup(kernel),
                }
                for kernel, timings in self.budget_column.items()
            },
            "single_repeats": self.single_repeats,
            "identical": self.identical,
            "context_stats": dict(self.context_stats),
            "host": host_identity(),
        }


#: The ``host`` keys that tell machines apart; a report lacking any of
#: them cannot prove it ran where another report did.
HOST_IDENTITY_KEYS = ("node", "cpus", "cpu_model")


def _cpu_model() -> str:
    """The CPU model name (``/proc/cpuinfo`` where readable)."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_identity() -> "dict[str, object]":
    """The ``host`` block of a report: platform plus machine identity."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "node": platform.node(),
        "cpus": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _time_grid(
    space: ExplorationSpace, context: EvalContext
) -> "tuple[float, ResultSet]":
    started = time.perf_counter()
    results = Executor(jobs=1, context=context).run(space)
    return time.perf_counter() - started, results


def _time_single(
    query: DesignQuery, repeats: int, context: "EvalContext | None" = None
) -> float:
    """Best-of seconds for one query; a fresh context per repeat unless
    ``context`` is given."""
    best = float("inf")
    for _ in range(repeats):
        ctx = context if context is not None else EvalContext()
        started = time.perf_counter()
        evaluate_query(query, context=ctx)
        best = min(best, time.perf_counter() - started)
    return best


def _time_trace_engines(
    kernels: "tuple[str, ...]", repeats: int
) -> "dict[str, dict[str, float]]":
    """Cold coverage seconds per trace engine, per window kernel.

    The subject is one CPA-RA point at budget 16: fresh
    :class:`~repro.scalar.coverage.GroupCoverage` computers (batched,
    budget ladder on) answer every group's coverage at the registers
    the point allocates, once on each engine — the per-kernel trace and
    region-ranking bill the array engine exists to cut, timed without
    the query layer around it.
    """
    from repro.analysis.groups import build_groups
    from repro.core.pipeline import allocator_by_name
    from repro.scalar.coverage import GroupCoverage

    timings: dict[str, dict[str, float]] = {}
    for kernel_name in kernels:
        kernel = DesignQuery(
            kernel=kernel_name, allocator="NO-SR", budget=1
        ).build_kernel()
        groups = build_groups(kernel)
        allocation = allocator_by_name("CPA-RA").allocate(kernel, 16, groups)
        per_engine: dict[str, float] = {}
        for engine in ("reference", "array"):
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                for group in groups:
                    GroupCoverage(kernel, group, engine=engine).result(
                        allocation.registers_for(group.name)
                    )
                best = min(best, time.perf_counter() - started)
            per_engine[engine] = best
        timings[kernel_name] = per_engine
    return timings


def _window_stream(kernel_name: str) -> "tuple[object, object, np.ndarray]":
    """(kernel, window group, flat access stream) of one window kernel."""
    from repro.analysis.groups import build_groups
    from repro.scalar.coverage import GroupCoverage

    kernel = DesignQuery(
        kernel=kernel_name, allocator="NO-SR", budget=1
    ).build_kernel()
    groups = build_groups(kernel)
    group = next(
        g for g in groups if GroupCoverage(kernel, g).kind == "window"
    )
    grids = kernel.nest.meshgrids()
    stream = np.broadcast_to(
        group.ref.flat_address_grid(grids), kernel.nest.trip_counts()
    ).reshape(-1)
    return kernel, group, stream


def _time_budget_column(
    kernels: "tuple[str, ...]", budgets: "tuple[int, ...]", repeats: int
) -> "dict[str, dict[str, float]]":
    """Cold full-budget-column seconds, per budget vs ladder, per kernel.

    Two levels per window kernel, every one a real consumer path and
    bit-identical across modes:

    * ``counts`` — LRU miss counts of the window stream at every grid
      budget: one :func:`~repro.sim.residency.lru_misses` replay per
      budget vs a single stack-distance histogram + suffix-sum pass
      (:func:`~repro.sim.residency.lru_miss_counts`), the
      ``residency_study`` path;
    * ``trace`` — the window coverage result at every budget: a fresh
      :class:`~repro.scalar.coverage.GroupCoverage` per mode, ladder
      off (one Belady trace per budget) vs on (one shared
      capacity-independent plane, a memoized walk per budget).
    """
    from repro.scalar.coverage import GroupCoverage
    from repro.sim.residency import lru_miss_counts, lru_misses

    timings: dict[str, dict[str, float]] = {}
    for kernel_name in kernels:
        kernel, group, stream = _window_stream(kernel_name)
        per_mode: dict[str, float] = {}

        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for budget in budgets:
                lru_misses(stream, budget).sum()
            best = min(best, time.perf_counter() - started)
        per_mode["counts_per_budget"] = best
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            lru_miss_counts(stream, budgets)
            best = min(best, time.perf_counter() - started)
        per_mode["counts_ladder"] = best

        for mode, ladder in (("trace_per_budget", False), ("trace_ladder", True)):
            best = float("inf")
            for _ in range(repeats):
                coverage = GroupCoverage(kernel, group, ladder=ladder)
                started = time.perf_counter()
                for budget in budgets:
                    coverage.result(budget)
                best = min(best, time.perf_counter() - started)
            per_mode[mode] = best
        timings[kernel_name] = per_mode
    return timings


def _imbalance_queries(quick: bool) -> "list[DesignQuery]":
    """The heterogeneous dispatch-comparison grid, in query order."""
    kernels = QUICK_IMBALANCE_KERNELS if quick else IMBALANCE_KERNELS
    queries = [
        DesignQuery(kernel=kernel, allocator=allocator, budget=budget)
        for kernel in kernels
        for allocator in IMBALANCE_ALLOCATORS
        for budget in IMBALANCE_BUDGETS
    ]
    opt_kernels = ("pat",) if quick else ("pat", "mat")
    queries += [
        DesignQuery(kernel=kernel, allocator="OPT-RA", budget=budget)
        for kernel in opt_kernels
        for budget in (8, 16)
    ]
    return queries


def _time_imbalance(quick: bool) -> "dict[str, object]":
    """The work-stealing lease queue on the imbalance grid at ``jobs=4``.

    The grid mixes cheap allocator columns with an OPT-RA column, then
    pins a ``slow`` fault on *every* point of the kernel with the
    smallest static-prior group cost.  The cost model cannot see the
    injected latency, which is the point: a dispatcher that committed
    that kernel to one worker would serialize ``slow_points x
    slow_seconds`` behind it, while the lease queue hands the same
    points out one at a time to whichever worker frees up.  The sweep
    runs cache-less; the returned ``identical`` verdict compares its
    records with inline, fault-free evaluation.
    """
    from repro.explore.faults import FaultPlan
    from repro.explore.schedule import static_cost

    queries = _imbalance_queries(quick)
    group_cost: dict[str, float] = {}
    for query in queries:
        group_cost[query.kernel] = (
            group_cost.get(query.kernel, 0.0) + static_cost(query)
        )
    slow_kernel = min(group_cost.items(), key=lambda kv: (kv[1], kv[0]))[0]
    slow_queries = [q for q in queries if q.kernel == slow_kernel]
    slow_seconds = IMBALANCE_SLOW_SECONDS[0] if quick else (
        IMBALANCE_SLOW_SECONDS[1]
    )
    plan = FaultPlan.targeting(
        "slow", slow_queries, slow_seconds=slow_seconds
    )
    executor = Executor(jobs=IMBALANCE_JOBS, faults=plan)
    started = time.perf_counter()
    stolen = executor.run(list(queries))
    steal_seconds = time.perf_counter() - started
    stats = stolen.stats
    inline = tuple(evaluate_query(query) for query in queries)
    return {
        "jobs": IMBALANCE_JOBS,
        "points": len(queries),
        "kernels": sorted(group_cost),
        "slow_kernel": slow_kernel,
        "slow_points": len(slow_queries),
        "slow_seconds": slow_seconds,
        "steal_s": steal_seconds,
        "leases": stats.leases,
        "steals": stats.steals,
        "affinity_hits": stats.affinity_hits,
        "identical": tuple(stolen) == inline,
    }


def run_perf(quick: bool = False, single_repeats: int = 5) -> PerfReport:
    """Run the full harness at ``jobs=1``; pure measurement, no I/O.

    Context runs use explicit fresh :class:`EvalContext` instances (never
    the process-global one), so cold really means cold even inside a
    long-lived process.
    """
    space = perf_grid(quick)

    ctx = EvalContext()
    cold_seconds, cold = _time_grid(space, ctx)
    warm_seconds, warm = _time_grid(space, ctx)
    identical = tuple(cold) == tuple(warm)
    identical = identical and not verify_reference(space.expand())

    # Supervision overhead: warm-grid run wall vs the evaluation seconds
    # its records carry, best-of so one scheduler hiccup cannot fake a
    # regression.
    run_seconds = evaluation_seconds = float("inf")
    for _ in range(min(single_repeats, 3)):
        seconds, results = _time_grid(space, ctx)
        if seconds < run_seconds:
            run_seconds = seconds
            evaluation_seconds = sum(r.seconds or 0.0 for r in results)
        identical = identical and tuple(results) == tuple(cold)

    single_cold = _time_single(SINGLE_POINT, single_repeats)
    single_ctx = EvalContext()
    # Prime, then time: every repeat after the first runs warm anyway.
    evaluate_query(SINGLE_POINT, context=single_ctx)
    single_warm = _time_single(SINGLE_POINT, single_repeats, single_ctx)

    trace_coverage = _time_trace_engines(
        QUICK_TRACE_KERNELS if quick else TRACE_KERNELS, single_repeats
    )
    # The column benchmark always measures the FULL budget axis — its
    # ratios must be comparable between quick and full reports (the CI
    # smoke gates against the committed full run) — and a column is
    # ~|budgets| points per timing, so a couple of repeats keep the
    # harness's runtime sane without losing the best-of floor.
    budget_column = _time_budget_column(
        QUICK_TRACE_KERNELS if quick else TRACE_KERNELS,
        GRID_BUDGETS,
        min(single_repeats, 2),
    )
    imbalance = _time_imbalance(quick)
    identical = identical and bool(imbalance.pop("identical"))

    return PerfReport(
        quick=quick,
        points=space.size,
        grid_cold_context=cold_seconds,
        grid_warm_context=warm_seconds,
        single_cold_context=single_cold,
        single_warm_context=single_warm,
        single_repeats=single_repeats,
        identical=identical,
        grid_warm_run=run_seconds,
        grid_warm_evaluation=evaluation_seconds,
        context_stats=ctx.stats.as_dict(),
        trace_coverage=trace_coverage,
        budget_column=budget_column,
        imbalance=imbalance,
    )


def render_perf(report: PerfReport) -> str:
    """Human-readable summary of one harness run."""
    lines = [
        f"perf: {report.points}-point grid at jobs=1"
        + (" (quick)" if report.quick else ""),
        f"  cold context  {report.grid_cold_context:8.2f}s",
        f"  warm context  {report.grid_warm_context:8.2f}s   "
        f"{report.speedup_warm:5.2f}x",
        f"  single point  {report.single_cold_context * 1e3:8.2f}ms -> "
        f"{report.single_warm_context * 1e3:.2f}ms warm "
        f"({report.speedup_single:.2f}x, best of {report.single_repeats})",
    ]
    if report.grid_warm_run:
        lines.append(
            f"  supervision   {report.grid_warm_run:8.3f}s run vs "
            f"{report.grid_warm_evaluation:.3f}s evaluation "
            f"({report.supervision_overhead:+.1%} overhead, warm grid)"
        )
    for kernel, timings in report.trace_coverage.items():
        lines.append(
            f"  trace {kernel:<7} {timings['reference'] * 1e3:8.2f}ms -> "
            f"{timings['array'] * 1e3:.2f}ms array "
            f"({report.trace_speedup(kernel):.2f}x cold coverage)"
        )
    for kernel, timings in report.budget_column.items():
        lines.append(
            f"  column {kernel:<6} counts "
            f"{timings['counts_per_budget'] * 1e3:8.2f}ms -> "
            f"{timings['counts_ladder'] * 1e3:.2f}ms "
            f"({report.column_speedup(kernel):.2f}x), trace "
            f"{report.column_speedup(kernel, 'trace'):.2f}x "
            f"(full budget axis, one ladder pass vs per budget)"
        )
    if report.imbalance:
        lines.append(
            f"  imbalance     {report.imbalance['steal_s']:8.2f}s at jobs="
            f"{report.imbalance['jobs']} ({report.steal_speedup:.2f}x the "
            f"{report.imbalance['slow_points']} slow points pinned on "
            f"{report.imbalance['slow_kernel']} serialized)"
        )
    lines.append(f"  records bit-identical: {report.identical}")
    return "\n".join(lines)


def write_report(report: PerfReport, out: "Path | str") -> Path:
    """Write the JSON document the perf trajectory tracks."""
    path = Path(out)
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


# -- report comparison ---------------------------------------------------------


@dataclass(frozen=True)
class CompareRow:
    """One metric of two reports side by side.

    ``kind`` is ``"ratio"`` for speedups (bigger is better) or
    ``"seconds"`` for absolute timings (smaller is better); ``gates``
    says whether this row can fail the comparison (see
    :func:`compare_reports` for the rule) — non-gating rows print as
    information only.
    """

    metric: str
    old: float
    new: float
    kind: str
    gates: bool = True

    @property
    def change(self) -> float:
        """new/old for ratios, old/new for seconds — both >1 = better."""
        if self.kind == "ratio":
            return self.new / self.old if self.old else float("inf")
        return self.old / self.new if self.new else float("inf")

    def regressed(self, threshold: float) -> bool:
        return self.gates and self.change * threshold < 1.0


def _flat_ratios(doc: dict) -> "dict[str, float]":
    """Every gating ratio metric of one report document, flattened."""
    ratios = {
        f"speedup.{key}": float(value)
        for key, value in (doc.get("speedup") or {}).items()
    }
    for section in ("trace_coverage", "budget_column"):
        for kernel, timings in (doc.get(section) or {}).items():
            for key, value in timings.items():
                if key == "speedup" or key.endswith("_speedup"):
                    ratios[f"{section}.{kernel}.{key}"] = float(value)
    return ratios


def _host_key(doc: dict) -> "tuple | None":
    """The machine identity of a report, or None when it has none."""
    host = doc.get("host")
    if not isinstance(host, dict) or any(
        host.get(key) is None for key in HOST_IDENTITY_KEYS
    ):
        return None
    return tuple(host[key] for key in HOST_IDENTITY_KEYS)


def compare_reports(
    old: dict, new: dict, threshold: float = COMPARE_THRESHOLD
) -> "tuple[list[CompareRow], list[CompareRow]]":
    """Diff two report documents; returns ``(rows, regressions)``.

    Ratio metrics present in *both* documents are compared; a ratio
    only the *new* report has (the harness grows new sections over
    time — ``BENCH_4.json`` has no trace-engine block, ``BENCH_5.json``
    no budget-column block) still prints, as a non-gating info row with
    no old value.  A metric regresses when the new report is more than
    ``threshold`` times worse; which metrics *gate* depends on whether
    the two reports measured the same grid (identical ``grid`` blocks)
    on the same machine (identical ``host`` identity: node name, CPU
    count and CPU model):

    * **same grid, same host** — the committed ``BENCH_<n>.json``
      trajectory: absolute **seconds** gate (the honest comparison on
      one host) and the speedup ratios print as information, because a
      ratio deflates whenever its *baseline* gets faster — exactly what
      a perf PR does — without anything having regressed;
    * **otherwise** (e.g. a ``--quick`` CI run vs the committed full
      run, or the same grid timed on another machine): only the
      host-independent **ratio** metrics gate, and the threshold should
      stay loose — grid shape and hardware shift ratios too.

    A report with no ``grid`` block, or no host identity (reports
    written before the identity was recorded), cannot prove it shares a
    grid and a machine with anything.  Such comparisons fall back to
    ratio-only gating, with a warning naming the defect.
    """
    rows: list[CompareRow] = []
    missing = []
    for label, doc in (("old", old), ("new", new)):
        if doc.get("grid") is None:
            missing.append(f"{label} report missing its 'grid' block")
        if _host_key(doc) is None:
            missing.append(f"{label} report missing its host identity")
    if missing:
        warnings.warn(
            f"perf compare: {'; '.join(missing)}; cannot prove the "
            "reports measured the same grid on the same host — absolute "
            "seconds will not gate (ratio-only comparison)",
            stacklevel=2,
        )
        comparable = False
    else:
        comparable = old["grid"] == new["grid"] and (
            _host_key(old) == _host_key(new)
        )
    old_ratios, new_ratios = _flat_ratios(old), _flat_ratios(new)
    for metric in sorted(old_ratios.keys() & new_ratios.keys()):
        rows.append(
            CompareRow(
                metric, old_ratios[metric], new_ratios[metric], "ratio",
                gates=not comparable,
            )
        )
    for metric in sorted(new_ratios.keys() - old_ratios.keys()):
        # New-only sections (harness growth) cannot regress anything,
        # but their ratios are the headline of a perf PR — show them.
        rows.append(
            CompareRow(
                metric, float("nan"), new_ratios[metric], "ratio",
                gates=False,
            )
        )
    old_seconds = old.get("seconds") or {}
    new_seconds = new.get("seconds") or {}
    for key in sorted(old_seconds.keys() & new_seconds.keys()):
        rows.append(
            CompareRow(
                f"seconds.{key}",
                float(old_seconds[key]),
                float(new_seconds[key]),
                "seconds",
                gates=comparable,
            )
        )
    regressions = [row for row in rows if row.regressed(threshold)]
    return rows, regressions


def render_compare(
    rows: "list[CompareRow]",
    old_label: str,
    new_label: str,
    threshold: float = COMPARE_THRESHOLD,
) -> str:
    """Human-readable regression/speedup table for two reports.

    Verdicts are derived from ``threshold`` directly, so they cannot
    disagree with the threshold printed in the title.
    """
    from repro.bench.formatting import render_table

    regressions = [row for row in rows if row.regressed(threshold)]
    body = []
    for row in rows:
        verdict = "REGRESSED" if row.regressed(threshold) else (
            "ok" if row.gates else "info"
        )
        # New-only metrics carry NaN for the missing old value; render
        # them as '-' (and skip the meaningless change factor).
        new_only = math.isnan(row.old)
        body.append([
            row.metric,
            "-" if new_only else f"{row.old:.4g}",
            f"{row.new:.4g}",
            "-" if new_only else f"{row.change:.2f}x",
            verdict,
        ])
    table = render_table(
        ["Metric", old_label, new_label, "Change", "Verdict"],
        body,
        title=f"perf compare (threshold {threshold:.2f}x on gated metrics)",
    )
    if regressions:
        names = ", ".join(row.metric for row in regressions)
        return table + f"\nperf: FAIL — regressed beyond {threshold:.2f}x: {names}"
    if not any(row.gates for row in rows):
        return table + "\nperf: FAIL — no metric gates this comparison"
    return table + "\nperf: no regressions on gated metrics"
