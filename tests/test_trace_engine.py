"""Acceptance pins: the array trace engine is bit-identical everywhere.

Mirrors ``test_batch_equivalence.py`` for the trace-engine layer: the
coverage computers agree across the engine selector at both batch
settings (the selector is internal to
:class:`~repro.scalar.coverage.GroupCoverage`; the pipeline only runs
the array engine, or the reference engine under the oracle), records
agree with the oracle through a parallel sweep, the retired
``--no-array-trace`` flag is rejected, the period ladder actually
replays tiles when outer rows never repeat, and the ``repro perf
--compare`` report diff gates the way its contract says.
"""

import json
import math

import numpy as np
import pytest

from repro.analysis.groups import build_groups
from repro.bench.perf import compare_reports
from repro.cli import main
from repro.core.pipeline import _ALLOCATORS
from repro.errors import ReproError, SimulationError
from repro.explore import (
    DesignQuery,
    EvalContext,
    compare_reference,
    evaluate_query,
    run_queries,
    verify_reference,
)
from repro.kernels import KERNEL_FACTORIES, get_kernel
from repro.scalar.coverage import GroupCoverage
from repro.sim import residency
from repro.sim.residency import lru_misses, opt_trace

BUDGETS = (4, 16, 64)
GRID = [
    DesignQuery(kernel=kernel, allocator=allocator, budget=budget)
    for kernel in sorted(KERNEL_FACTORIES)
    for allocator in sorted(_ALLOCATORS)
    for budget in BUDGETS
]


def _assert_engines_agree(kernel_name, batch):
    kernel = get_kernel(kernel_name)
    for group in build_groups(kernel):
        fast = GroupCoverage(kernel, group, batch=batch, engine="array")
        slow = GroupCoverage(kernel, group, batch=batch, engine="reference")
        for registers in sorted({1, 2, 8, group.full_registers}):
            for anchor in ("low", "high"):
                a = fast.result(registers, anchor=anchor)
                b = slow.result(registers, anchor=anchor)
                label = f"{kernel_name}/{group.name} r={registers} {anchor}"
                assert np.array_equal(a.read_miss, b.read_miss), label
                assert np.array_equal(a.write_miss, b.write_miss), label
                assert a.writeback_stores == b.writeback_stores, label


def test_every_registered_point_is_bit_identical():
    for kernel_name in sorted(KERNEL_FACTORIES):
        _assert_engines_agree(kernel_name, batch=True)


def test_unbatched_engines_also_agree():
    for kernel_name in sorted(KERNEL_FACTORIES):
        _assert_engines_agree(kernel_name, batch=False)


def test_compare_trace_engines_reports_fields():
    # OPT-RA drives the most coverage queries per point of any allocator.
    assert compare_reference(
        DesignQuery(kernel="fir", allocator="OPT-RA", budget=16)
    ) == []


def test_executor_trace_engine_flag_changes_nothing(tmp_path):
    queries = GRID[::9]
    pooled = run_queries(queries, jobs=2, cache=tmp_path / "a")
    assert not verify_reference(queries)
    assert list(pooled) == [evaluate_query(q) for q in queries]
    # Bit-identical records mean a resume is 100% cache hits.
    resumed = run_queries(queries, cache=tmp_path / "a")
    assert resumed.stats.cache_hits == len(queries)


def test_unknown_engine_rejected_everywhere():
    with pytest.raises(TypeError):
        run_queries([], trace_engine="array")
    with pytest.raises(SimulationError):
        opt_trace(np.array([1, 2]), 1, engine="simd")
    with pytest.raises(SimulationError):
        lru_misses(np.array([1, 2]), 1, engine="simd")
    kernel = get_kernel("fir")
    with pytest.raises(ReproError):
        GroupCoverage(kernel, build_groups(kernel)[0], engine="simd")


def test_cli_no_array_trace_smoke(capsys):
    argv = [
        "explore", "--kernels", "fir", "--allocators", "CPA-RA",
        "--budgets", "16", "--format", "csv",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("kernel,")
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--no-array-trace"])
    assert exit_info.value.code == 2


def test_profile_splits_out_a_trace_stage():
    results = run_queries(
        [DesignQuery(kernel="fir", allocator="PR-RA", budget=16)],
        context=EvalContext(),
    )
    stages = results.stats.stage_seconds
    assert "trace" in stages and stages["trace"] > 0.0
    assert stages.get("cycles", 0.0) >= 0.0
    assert "trace engine" in results.stats.profile()


def test_ladder_replays_tiles_when_rows_never_repeat(monkeypatch):
    """White-box: the tile level cuts per-access simulation work.

    The stream's rows never repeat (per-row tile stride grows), so a
    row-only memo simulates every row; with the tile period on the
    ladder, only the first tile of each distinct (state, pattern) class
    is simulated and the rest replay.
    """
    pattern = (0, 1, 0, 1)
    addresses = []
    for row in range(4):
        stride = 10 * (row + 1)  # rows are never shift-equal
        for tile in range(3):
            base = 1000 * row + tile * stride
            addresses.extend(base + offset for offset in pattern)
    stream = np.asarray(addresses, dtype=np.int64)

    spans = []
    real = residency._belady_span

    def spy(positions, *args, **kwargs):
        spans.append(len(positions))
        return real(positions, *args, **kwargs)

    monkeypatch.setattr(residency, "_belady_span", spy)
    reference = opt_trace(stream, 2, engine="reference")

    spans.clear()
    row_only = opt_trace(stream, 2, periods=(12,), engine="array")
    row_only_accesses = sum(spans)

    spans.clear()
    laddered = opt_trace(stream, 2, periods=(12, 4), engine="array")
    ladder_accesses = sum(spans)

    for left, mid, right in zip(reference, row_only, laddered):
        assert np.array_equal(left, mid)
        assert np.array_equal(left, right)
    # Row-only simulates all 48 accesses; the ladder simulates one tile.
    assert ladder_accesses < row_only_accesses
    assert ladder_accesses <= len(pattern)


# -- repro perf --compare -----------------------------------------------------


HOST = {"node": "bench-a", "cpus": 2, "cpu_model": "Example CPU"}


def _doc(grid, speedup, seconds, trace=None, host=HOST):
    doc = {
        "grid": grid, "speedup": speedup, "seconds": seconds,
        "host": dict(host),
    }
    if trace is not None:
        doc["trace_coverage"] = trace
    return doc


GRID_A = {"kernels": ["fir"], "budgets": [8], "points": 1}
GRID_B = {"kernels": ["fir", "pat"], "budgets": [8, 16], "points": 4}


def test_compare_same_grid_gates_seconds_not_ratios():
    old = _doc(GRID_A, {"warm": 50.0}, {"grid_warm_context": 1.0})
    new = _doc(GRID_A, {"warm": 10.0}, {"grid_warm_context": 1.1})
    rows, regressions = compare_reports(old, new, threshold=1.5)
    # The ratio collapsed (baseline got faster) but seconds held: clean.
    assert regressions == []
    slow = _doc(GRID_A, {"warm": 50.0}, {"grid_warm_context": 2.0})
    rows, regressions = compare_reports(old, slow, threshold=1.5)
    assert [r.metric for r in regressions] == ["seconds.grid_warm_context"]


def test_compare_same_grid_on_another_host_gates_ratios_not_seconds():
    old = _doc(GRID_A, {"warm": 50.0}, {"grid_warm_context": 1.0})
    elsewhere = dict(HOST, node="bench-b", cpus=8)
    # Twice as slow on another machine: seconds must not gate ...
    slow = _doc(GRID_A, {"warm": 50.0}, {"grid_warm_context": 2.0},
                host=elsewhere)
    rows, regressions = compare_reports(old, slow, threshold=1.5)
    assert regressions == []
    assert all(not r.gates for r in rows if r.kind == "seconds")
    # ... and the host-independent ratios do.
    worse = _doc(GRID_A, {"warm": 10.0}, {"grid_warm_context": 1.0},
                 host=elsewhere)
    _, regressions = compare_reports(old, worse, threshold=1.5)
    assert [r.metric for r in regressions] == ["speedup.warm"]


def test_compare_cross_grid_gates_ratios_not_seconds():
    old = _doc(GRID_A, {"warm": 50.0}, {"grid_warm_context": 1.0})
    new = _doc(GRID_B, {"warm": 2.0}, {"grid_warm_context": 9.0})
    rows, regressions = compare_reports(old, new, threshold=1.5)
    assert [r.metric for r in regressions] == ["speedup.warm"]
    ok = _doc(GRID_B, {"warm": 40.0}, {"grid_warm_context": 9.0})
    _, regressions = compare_reports(old, ok, threshold=1.5)
    assert regressions == []


def test_compare_includes_trace_block_when_both_have_it():
    trace = {"fir": {"speedup": 3.0}}
    old = _doc(GRID_A, {}, {}, trace={"fir": {"speedup": 9.0}})
    new = _doc(GRID_B, {}, {}, trace=trace)
    rows, regressions = compare_reports(old, new, threshold=1.5)
    assert [r.metric for r in rows] == ["trace_coverage.fir.speedup"]
    assert [r.metric for r in regressions] == ["trace_coverage.fir.speedup"]
    # Present only in the NEW document (harness growth, e.g. BENCH_4
    # has no trace block) -> a non-gating information row, never a
    # regression.
    rows, regressions = compare_reports(_doc(GRID_A, {}, {}), new)
    assert regressions == []
    assert [r.metric for r in rows] == ["trace_coverage.fir.speedup"]
    assert not rows[0].gates and math.isnan(rows[0].old)


def test_cli_perf_compare_exit_codes(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(
        _doc(GRID_A, {"warm": 50.0}, {"grid_warm_context": 1.0})
    ))
    new.write_text(json.dumps(
        _doc(GRID_B, {"warm": 45.0}, {"grid_warm_context": 1.0})
    ))
    assert main(["perf", "--compare", str(old), str(new)]) == 0
    assert "no regressions on gated metrics" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        _doc(GRID_B, {"warm": 2.0}, {"grid_warm_context": 1.0})
    ))
    assert main(["perf", "--compare", str(old), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    # A looser threshold waves the same pair through.
    assert main([
        "perf", "--compare", str(old), str(bad), "--threshold", "30",
    ]) == 0
    # A pair sharing no gated metric proves nothing and fails.
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(json.dumps(
        _doc(GRID_B, {"cold": 2.0}, {"grid_cold_context": 1.0})
    ))
    assert main(["perf", "--compare", str(old), str(disjoint)]) == 1
    assert "no metric gates this comparison" in capsys.readouterr().out
