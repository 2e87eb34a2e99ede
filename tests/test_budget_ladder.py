"""Acceptance pins: budget-ladder evaluation is bit-identical everywhere.

Mirrors ``test_trace_engine.py`` for the budget-ladder layer: coverage
computers with the ladder agree with per-budget evaluation on every
registered kernel (at every internal ``batch`` × ``engine`` selector
combination); the miss-count ladders
(:func:`~repro.sim.residency.lru_miss_counts`,
:func:`~repro.sim.residency.opt_miss_ladder`) and the capacity-shared
trace plane (:class:`~repro.sim.residency.OptTraceLadder`) are pinned
white-box against brute-force per-capacity simulation; a budget column
swept through the executor agrees with the reference oracle, and the
retired ``--no-budget-ladder`` flag is rejected; the ``repro perf
--compare`` satellite fixes (missing-grid ratio-only fallback, new-only
info rows) gate the way their contracts say; and the cost model reads
documents whose rows were keyed by trace engine.
"""

import math
import warnings
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from fuzz_kernels import random_case, random_stream
from repro.bench.perf import compare_reports, render_compare
from repro.cli import main
from repro.core.pipeline import _ALLOCATORS
from repro.errors import AnalysisError, SimulationError
from repro.analysis.groups import build_groups
from repro.explore import (
    DesignQuery,
    EvalContext,
    ResultCache,
    compare_reference,
    evaluate_query,
    reset_process_context,
    run_queries,
)
from repro.explore.schedule import CostModel
from repro.kernels import KERNEL_FACTORIES, get_kernel
from repro.scalar.coverage import GroupCoverage
from repro.sim.residency import (
    OptTraceLadder,
    lru_miss_counts,
    lru_misses,
    opt_miss_ladder,
    opt_misses,
    opt_trace,
    opt_trace_ladder,
)

BUDGETS = (4, 16, 64)
GRID = [
    DesignQuery(kernel=kernel, allocator=allocator, budget=budget)
    for kernel in sorted(KERNEL_FACTORIES)
    for allocator in sorted(_ALLOCATORS)
    for budget in BUDGETS
]


# -- registered-grid bit-identity ---------------------------------------------


def _assert_ladder_agrees(kernel_name, **selectors):
    """Ladder vs per-budget coverage of every group at every budget."""
    kernel = get_kernel(kernel_name)
    for group in build_groups(kernel):
        fast = GroupCoverage(kernel, group, ladder=True, **selectors)
        slow = GroupCoverage(kernel, group, ladder=False, **selectors)
        values = sorted({1, *BUDGETS, group.full_registers})
        for anchor in ("low", "high"):
            ladder = fast.ram_access_ladder(values, anchor=anchor)
            for registers in values:
                a = fast.result(registers, anchor=anchor)
                b = slow.result(registers, anchor=anchor)
                label = f"{kernel_name}/{group.name} r={registers} {anchor}"
                assert np.array_equal(a.read_miss, b.read_miss), label
                assert np.array_equal(a.write_miss, b.write_miss), label
                assert a.writeback_stores == b.writeback_stores, label
                assert ladder[registers] == b.total_ram_accesses, label


def test_every_registered_point_is_bit_identical():
    for kernel_name in sorted(KERNEL_FACTORIES):
        _assert_ladder_agrees(kernel_name)


@pytest.mark.parametrize("batch", (True, False))
@pytest.mark.parametrize("engine", ("array", "reference"))
def test_ladder_composes_with_batch_and_engine(batch, engine):
    for kernel_name in ("fir", "pat", "mat"):
        _assert_ladder_agrees(kernel_name, batch=batch, engine=engine)


def test_compare_ladder_reports_fields():
    # KS-RA's DP answers a whole budget axis from one table.
    assert compare_reference(
        DesignQuery(kernel="pat", allocator="KS-RA", budget=64)
    ) == []


# -- miss-count ladders: white-box histogram / suffix-sum pins ----------------


def _brute_force_lru_misses(addresses, capacity):
    """Reference per-capacity LRU simulation (ordered dict recency)."""
    misses = 0
    cache: "OrderedDict[int, None]" = OrderedDict()
    for address in addresses:
        if capacity and address in cache:
            cache.move_to_end(address)
        else:
            misses += 1
            if capacity:
                cache[address] = None
                if len(cache) > capacity:
                    cache.popitem(last=False)
    return misses


def test_lru_miss_counts_matches_brute_force_simulation():
    for seed in range(80):
        addresses, _, _ = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        footprint = len(set(addresses))
        capacities = sorted({0, 1, 2, 3, 7, footprint, footprint + 5, 256})
        ladder = lru_miss_counts(stream, capacities)
        assert sorted(ladder) == capacities
        for capacity in capacities:
            want = _brute_force_lru_misses(addresses, capacity)
            assert ladder[capacity] == want, f"seed {seed} cap {capacity}"
            # ... and the per-access API agrees with its own histogram.
            assert int(lru_misses(stream, capacity).sum()) == want


def test_lru_miss_counts_edges():
    empty = np.asarray([], dtype=np.int64)
    assert lru_miss_counts(empty, [0, 1, 4]) == {0: 0, 1: 0, 4: 0}
    stream = np.asarray([5, 5, 5], dtype=np.int64)
    assert lru_miss_counts(stream, [0, 1]) == {0: 3, 1: 1}
    with pytest.raises(SimulationError):
        lru_miss_counts(stream, [-1])


def test_opt_miss_ladder_matches_per_capacity():
    for seed in range(60):
        addresses, _, _ = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        footprint = len(set(addresses))
        capacities = sorted({0, 1, 3, footprint // 2, footprint, 128})
        ladder = opt_miss_ladder(stream, capacities)
        for capacity in capacities:
            assert ladder[capacity] == int(opt_misses(stream, capacity).sum()), (
                f"seed {seed} cap {capacity}"
            )


# -- the capacity-shared trace plane ------------------------------------------


def _assert_traces_equal(expected, got, label):
    for name, left, right in zip(
        ("misses", "inserted", "evicted", "freed"), expected, got
    ):
        assert np.array_equal(left, right), f"{label}: {name} diverged"


@pytest.mark.parametrize("engine", ("array", "reference"))
def test_trace_plane_is_bit_identical_across_shared_capacities(engine):
    """One plane, many capacities in adversarial order == fresh traces."""
    for seed in range(40):
        addresses, capacity, row_len = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        capacities = [capacity, 1, capacity + 7, 2, capacity, 0, 64]
        plane = OptTraceLadder(stream, periods=(row_len,), engine=engine)
        for c in capacities:
            fresh = opt_trace(stream, c, periods=(row_len,), engine=engine)
            _assert_traces_equal(
                fresh, plane.trace(c), f"seed {seed} cap {c} ({engine})"
            )


def test_opt_trace_ladder_convenience_matches_opt_trace():
    for seed in range(20):
        addresses, capacity, row_len = random_stream(seed)
        stream = np.asarray(addresses, dtype=np.int64)
        capacities = sorted({0, 1, capacity, capacity + 3})
        traces = opt_trace_ladder(stream, capacities, row_len=row_len)
        assert sorted(traces) == capacities
        for c, got in traces.items():
            _assert_traces_equal(
                opt_trace(stream, c, row_len=row_len), got, f"seed {seed}/{c}"
            )


def test_trace_plane_validation():
    plane = OptTraceLadder(np.asarray([1, 2, 1], dtype=np.int64))
    with pytest.raises(SimulationError):
        plane.trace(-1)
    with pytest.raises(SimulationError):
        OptTraceLadder(np.asarray([1], dtype=np.int64), engine="simd")
    misses, inserted, evicted, freed = plane.trace(0)
    assert misses.all() and not inserted.any()
    assert (evicted == -1).all() and not freed.any()


# -- coverage: the pinned rank-histogram budget axis --------------------------


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_ram_access_ladder_matches_per_count_results(seed):
    case = random_case(seed)
    values = sorted({0, 1, 2, 3, case.budget, case.budget + 4})
    for group in case.groups:
        for anchor in ("low", "high"):
            fast = GroupCoverage(case.kernel, group, ladder=True)
            slow = GroupCoverage(case.kernel, group, ladder=False)
            ladder = fast.ram_access_ladder(values, anchor=anchor)
            for registers in values:
                want = slow.result(registers, anchor=anchor).total_ram_accesses
                assert ladder[registers] == want, (
                    f"seed {seed} group {group.name} r={registers} {anchor}"
                )
    with pytest.raises(AnalysisError):
        GroupCoverage(case.kernel, case.groups[0]).ram_access_ladder(
            [1], anchor="middle"
        )
    with pytest.raises(AnalysisError):
        GroupCoverage(case.kernel, case.groups[0]).ram_access_ladder([-1])


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_fuzz_coverage_ladder_masks_equal(seed):
    """Full coverage masks agree across the ladder switch, all modes."""
    case = random_case(seed)
    for group in case.groups:
        for registers in {0, 2, case.budget, group.full_registers}:
            for anchor in ("low", "high"):
                fast = GroupCoverage(case.kernel, group, ladder=True).result(
                    registers, anchor=anchor
                )
                slow = GroupCoverage(case.kernel, group, ladder=False).result(
                    registers, anchor=anchor
                )
                assert np.array_equal(fast.read_miss, slow.read_miss)
                assert np.array_equal(fast.write_miss, slow.write_miss)
                assert fast.writeback_stores == slow.writeback_stores


# -- executor / CLI plumbing --------------------------------------------------


def test_executor_ladder_flag_changes_nothing(tmp_path):
    """A whole budget column shares one ladder plane per group; every
    point of it must still match the per-budget oracle."""
    queries = [
        DesignQuery(kernel="pat", allocator="CPA-RA", budget=budget)
        for budget in range(4, 36, 4)
    ]
    cache = f"sqlite:{tmp_path / 'cache.db'}"
    swept = run_queries(queries, cache=cache, context=EvalContext())
    assert list(swept) == [
        evaluate_query(q, reference=True) for q in queries
    ]
    resumed = run_queries(queries, cache=cache)
    assert resumed.stats.cache_hits == len(queries)


def test_cli_no_budget_ladder_smoke(capsys):
    argv = [
        "explore", "--kernels", "fir", "--allocators", "CPA-RA",
        "--budgets", "16", "--format", "csv",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("kernel,")
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--no-budget-ladder"])
    assert exit_info.value.code == 2


def test_profile_trace_stage_survives_worker_pools():
    """Stage seconds are jobs-invariant: the trace clock folds worker-side.

    Before the fix, ``--profile`` undercounted the trace stage under
    ``--jobs N>1``: the fold ran in the parent, after the worker's
    stage dict had already been pickled.
    """
    queries = [
        DesignQuery(kernel="fir", allocator="PR-RA", budget=budget)
        for budget in (8, 12, 16, 24)
    ]
    solo = run_queries(queries, jobs=1, context=EvalContext())
    # Forked workers inherit the process context: start them cold.
    reset_process_context()
    pooled = run_queries(queries, jobs=2)
    for results in (solo, pooled):
        stages = results.stats.stage_seconds
        assert "trace" in stages and stages["trace"] > 0.0
    # Which record pays for the shared trace work depends on how points
    # meet the memo, but the stage set of the sweep does not.
    assert set(solo.stats.stage_seconds) == set(pooled.stats.stage_seconds)


# -- perf compare: the satellite gate fixes -----------------------------------


def _report_doc(**overrides):
    doc = {
        "grid": {"kernels": ["fir"], "budgets": [4, 8], "points": 2},
        "host": {"node": "bench-a", "cpus": 2, "cpu_model": "Example CPU"},
        "speedup": {"grid_warm_vs_no_context": 10.0},
        "seconds": {"grid_no_context": 1.0, "grid_warm_context": 0.1},
    }
    doc.update(overrides)
    return doc


def test_compare_missing_grid_falls_back_to_ratio_gating():
    gridless = {k: v for k, v in _report_doc().items() if k != "grid"}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows, regressions = compare_reports(dict(gridless), dict(gridless))
    assert any("grid" in str(w.message) for w in caught)
    # Two grid-less reports may come from unrelated hosts: absolute
    # seconds must NOT gate, host-independent ratios must.
    assert all(not r.gates for r in rows if r.kind == "seconds")
    assert all(r.gates for r in rows if r.kind == "ratio")
    assert not regressions

    slower = dict(gridless)
    slower["seconds"] = {"grid_no_context": 100.0, "grid_warm_context": 10.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, regressions = compare_reports(dict(gridless), slower)
    assert not regressions, "absolute seconds gated across missing grids"


def test_compare_same_grid_still_gates_seconds():
    old = _report_doc()
    new = _report_doc(seconds={"grid_no_context": 10.0, "grid_warm_context": 1.0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows, regressions = compare_reports(old, new)
    assert not caught
    assert {r.metric for r in regressions} == {
        "seconds.grid_no_context", "seconds.grid_warm_context",
    }


def test_compare_new_only_ratios_are_info_rows():
    old = _report_doc()
    new = _report_doc(
        budget_column={
            "fir": {
                "counts_per_budget_s": 0.2,
                "counts_ladder_s": 0.0125,
                "speedup": 16.0,
                "trace_speedup": 3.5,
                "evaluate_speedup": 1.8,
            }
        }
    )
    rows, regressions = compare_reports(old, new)
    assert not regressions
    new_only = {r.metric: r for r in rows if math.isnan(r.old)}
    assert set(new_only) == {
        "budget_column.fir.speedup",
        "budget_column.fir.trace_speedup",
        "budget_column.fir.evaluate_speedup",
    }
    assert all(not r.gates for r in new_only.values())
    rendered = render_compare(rows, "old", "new")
    line = next(
        l for l in rendered.splitlines() if "budget_column.fir.speedup" in l
    )
    assert "-" in line and "16" in line and "info" in line


# -- cost model: documents written when rows were keyed by engine ------------


def _query(allocator="CPA-RA", budget=16):
    return DesignQuery(kernel="fir", allocator=allocator, budget=budget)


def _row(allocator, mean, weight, engine):
    row = {
        "kernel": "fir", "kernel_json_digest": None,
        "allocator": allocator, "mean": mean, "weight": weight,
    }
    if engine is not None:
        row["engine"] = engine
    return row


def test_cost_model_prefers_timings_from_its_own_engine():
    """Rows the retired reference engine timed are dropped on absorb."""
    model = CostModel()
    absorbed = model.absorb_doc({"version": 1, "rows": [
        _row("CPA-RA", 10.0, 3.0, "reference"),
        _row("CPA-RA", 1.0, 3.0, "array"),
    ]})
    assert absorbed == 1
    assert model.estimate(_query()) == pytest.approx(1.0)
    assert all("engine" not in row for row in model.to_doc()["rows"])


def test_cost_model_cross_engine_fallback():
    # Array and engine-unknown rows of one pair merge into one mean.
    model = CostModel()
    model.absorb_doc({"version": 1, "rows": [
        _row("CPA-RA", 4.0, 1.0, "array"),
        _row("CPA-RA", 6.0, 1.0, None),
    ]})
    assert model.estimate(_query()) == pytest.approx(5.0)
    (row,) = model.to_doc()["rows"]
    assert row["weight"] == pytest.approx(2.0)


def test_cost_model_from_cache_reads_producing_engine(tmp_path):
    cache = ResultCache(tmp_path)
    record = evaluate_query(_query())
    cache.put(replace(record, seconds=0.5))
    legacy = evaluate_query(_query(allocator="FR-RA"))
    cache.put(replace(legacy, seconds=0.25))
    model = CostModel.from_cache(cache)
    assert model.observations == 2
    assert model.estimate(_query()) == pytest.approx(0.5)
    assert model.estimate(_query(allocator="FR-RA")) == pytest.approx(0.25)


@pytest.mark.parametrize("spec", ["dir", "sqlite"])
def test_resume_reads_cost_model_of_engine_keyed_cache(tmp_path, spec):
    """A cache whose persisted model still keys rows by trace engine
    resumes without raising and keeps its fitted model."""
    from repro.explore import Executor
    from repro.explore.schedule import COST_MODEL_META_KEY

    location = (
        str(tmp_path / "cache") if spec == "dir"
        else f"sqlite:{tmp_path / 'cache.db'}"
    )
    cache = ResultCache(location)
    cache.write_meta(COST_MODEL_META_KEY, {"version": 1, "rows": [
        _row("CPA-RA", 0.75, 1.0, "array"),
        _row("CPA-RA", 9.0, 1.0, "reference"),
        _row("FR-RA", 0.25, 1.0, None),
    ]})
    executor = Executor(cache=location)
    model = executor._cost_model()
    assert model.fitted
    assert model.estimate(_query()) == pytest.approx(0.75)
    assert "cost model: fitted" in executor.dry_run([_query()])
    results = executor.run([_query(), _query(allocator="FR-RA")])
    assert results.stats.evaluated == 2
    rows = ResultCache(location).read_meta(COST_MODEL_META_KEY)["rows"]
    assert {row["allocator"] for row in rows} == {"CPA-RA", "FR-RA"}
    assert all("engine" not in row for row in rows)
