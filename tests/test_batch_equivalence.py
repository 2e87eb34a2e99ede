"""Acceptance pin: the production path is bit-identical to the oracle.

``verify_reference`` sweeps registered kernel × allocator × budget
points and must come back empty; the executor, the bench adapters and
Table 1 (all on the production path) agree with the reference oracle,
and the retired ``--no-batch`` escape hatch is rejected by the CLI.
The whole registered grid at every ``BENCH_7`` budget, OPT-RA
included, runs in the slow oracle tier.
"""

import pytest

from repro.bench.sweeps import budget_sweep, policy_comparison
from repro.bench.table1 import generate_table1
from repro.cli import main
from repro.core.pipeline import _ALLOCATORS, PAPER_VERSIONS
from repro.explore import (
    DesignQuery,
    compare_reference,
    evaluate_query,
    iteration_classes,
    run_queries,
    verify_reference,
)
from repro.explore.context import process_context
from repro.explore.evaluate import design_for
from repro.kernels import KERNEL_FACTORIES, get_kernel
from repro.kernels.registry import PAPER_REGISTER_BUDGET

BUDGETS = (4, 16, 64)
HEURISTICS = tuple(sorted(set(_ALLOCATORS) - {"OPT-RA"}))
GRID = [
    DesignQuery(kernel=kernel, allocator=allocator, budget=budget)
    for kernel in sorted(KERNEL_FACTORIES)
    for allocator in HEURISTICS
    for budget in BUDGETS
]
#: The budgets of the committed optimality-gap report (BENCH_7).
GAP_BUDGETS = (4, 8, 12, 16, 24, 32, 48, 64)


def _reference_cycles(query):
    record = evaluate_query(query, reference=True)
    record.raise_error()
    return record.cycles


def test_every_registered_point_is_bit_identical():
    mismatches = verify_reference(GRID)
    assert not mismatches, "\n".join(m.describe() for m in mismatches)


@pytest.mark.slow
@pytest.mark.oracle
def test_gap_grid_every_allocator_is_bit_identical():
    """Registered grid × all six allocators × the BENCH_7 budgets."""
    queries = [
        DesignQuery(kernel=kernel, allocator=allocator, budget=budget)
        for kernel in sorted(KERNEL_FACTORIES)
        for allocator in sorted(_ALLOCATORS)
        for budget in GAP_BUDGETS
    ]
    mismatches = verify_reference(queries)
    assert not mismatches, "\n".join(m.describe() for m in mismatches)


def test_compare_batched_reports_fields():
    assert compare_reference(GRID[0]) == []
    # Infeasible points fail identically on both paths.
    assert compare_reference(
        DesignQuery(kernel="imi", allocator="PR-RA", budget=4)
    ) == []


def test_reference_leaves_the_process_context_untouched():
    query = DesignQuery(kernel="pat", allocator="OPT-RA", budget=12)
    before = process_context().stats.as_dict()
    record = evaluate_query(query, reference=True)
    assert record.ok
    assert process_context().stats.as_dict() == before


def test_executor_batch_flag_changes_nothing(tmp_path):
    queries = GRID[:8]
    swept = run_queries(queries, cache=tmp_path / "a")
    assert [r.cycles for r in swept] == [
        evaluate_query(q, reference=True).cycles for q in queries
    ]
    resumed = run_queries(queries, cache=tmp_path / "a")
    assert resumed.stats.cache_hits == len(queries)
    assert list(resumed) == list(swept)


def test_bench_adapters_accept_batch():
    kernel = get_kernel("mat")
    points = budget_sweep(kernel, [16], algorithms=("FR-RA",))
    assert [p.cycles for p in points] == [
        _reference_cycles(DesignQuery(kernel="mat", allocator="FR-RA",
                                      budget=16))
    ]
    algorithms = ("FR-RA", "CPA-RA", "NO-SR")
    rows = policy_comparison(kernel, budget=16, algorithms=algorithms)
    oracle = {
        algorithm: evaluate_query(
            DesignQuery(kernel="mat", allocator=algorithm, budget=16),
            reference=True,
        )
        for algorithm in algorithms
    }
    naive = oracle["NO-SR"].total_ram_accesses
    assert rows == {
        algorithm: (naive - record.total_ram_accesses, record.cycles)
        for algorithm, record in oracle.items()
    }
    assert rows["CPA-RA"][0] > 0


def test_table1_accepts_batch():
    kernels = [get_kernel("mat")]
    table = generate_table1(kernels=kernels)
    assert [row.cycles for row in table.rows] == [
        _reference_cycles(DesignQuery(kernel="mat", allocator=algorithm,
                                      budget=PAPER_REGISTER_BUDGET))
        for algorithm in PAPER_VERSIONS
    ]


def test_cli_no_batch_smoke(capsys):
    argv = [
        "explore", "--kernels", "mat", "--allocators", "FR-RA",
        "--budgets", "16", "--format", "csv",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("kernel,")
    # The escape hatch is gone: the oracle is reachable from tests and
    # auditors only.
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--no-batch"])
    assert exit_info.value.code == 2


def test_iteration_classes_expose_steady_state():
    query = DesignQuery(kernel="fir", allocator="CPA-RA", budget=64)
    classes = iteration_classes(query)
    total = sum(count for _, count, _ in classes)
    assert total == 1024 * 32
    design, _ = design_for(query, reference=True)
    assert classes == design.cycles.pattern_counts
    # steady state dominates: the largest class covers most iterations
    assert max(count for _, count, _ in classes) > total // 2


@pytest.mark.parametrize("kernel", sorted(KERNEL_FACTORIES))
def test_pattern_classes_cover_space_per_kernel(kernel):
    classes = iteration_classes(
        DesignQuery(kernel=kernel, allocator="PR-RA", budget=64)
    )
    space = 1
    for trip in get_kernel(kernel).nest.trip_counts():
        space *= trip
    assert sum(count for _, count, _ in classes) == space
