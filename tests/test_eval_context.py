"""The shared-artifact evaluation plane: equivalence, memos, leases.

The contract under test is the one the perf work stands on: evaluation
with an :class:`EvalContext` (shared DFGs, coverage structures, pattern
makespans, critical graphs, knapsack tables, whole cycle reports) is
**bit-identical** to the reference oracle, which uses none, across the
whole grid shape the paper's experiments use — while the memos actually
hit, the lease planner keeps each lease on one kernel, and the LRU
bound holds.
"""

import dataclasses

import pytest

from repro.core.pipeline import allocator_by_name
from repro.explore import (
    DesignQuery,
    EvalContext,
    ExplorationSpace,
    Executor,
    plan_leases,
    run_queries,
)
from repro.explore.context import (
    DEFAULT_KERNEL_MEMO,
    process_context,
    reset_process_context,
)
from repro.explore.evaluate import evaluate_query
from repro.kernels.registry import KERNEL_FACTORIES


GRID = ExplorationSpace(
    kernels=tuple(sorted(KERNEL_FACTORIES)),
    allocators=("NO-SR", "FR-RA", "PR-RA", "CPA-RA", "KS-RA"),
    budgets=(4, 12, 64),
)


def _assert_records_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        # Dataclass equality already excludes bookkeeping (seconds,
        # stages); compare field-by-field for a readable failure.
        for f in dataclasses.fields(type(a)):
            if not f.compare:
                continue
            assert getattr(a, f.name) == getattr(b, f.name), (
                f"{a.query.describe()}: field {f.name} diverged"
            )


class TestGridEquivalence:
    def test_full_registered_grid_bit_identical(self):
        """Every kernel x allocator x budget point: context == oracle.

        The 4-register budget is deliberately below several kernels'
        mandatory floor, so failed records are part of the equivalence
        too.
        """
        reference = [
            evaluate_query(query, reference=True) for query in GRID.expand()
        ]
        ctx = EvalContext()
        contexted = Executor(jobs=1, context=ctx).run(GRID)
        rerun = Executor(jobs=1, context=ctx).run(GRID)  # fully warm
        _assert_records_identical(tuple(reference), tuple(contexted))
        _assert_records_identical(tuple(reference), tuple(rerun))
        # The plane must actually be shared, not silently bypassed.
        assert ctx.stats.kernel_hits > 0
        assert ctx.stats.coverage_hits > 0
        assert ctx.stats.schedule_hits > 0
        assert ctx.stats.cycles_hits > 0
        assert ctx.stats.critical_hits > 0
        assert ctx.stats.knapsack_hits > 0

    def test_unbatched_grid_bit_identical(self):
        """OPT-RA on a shared context (certified optima reused along the
        budget axis) still matches the oracle's fresh searches."""
        space = ExplorationSpace(
            kernels=("fir", "pat"), allocators=("OPT-RA",),
            budgets=(16, 15, 8),
        )
        reference = [
            evaluate_query(query, reference=True) for query in space.expand()
        ]
        ctx = EvalContext()
        contexted = Executor(jobs=1, context=ctx).run(space)
        _assert_records_identical(tuple(reference), tuple(contexted))
        assert ctx.stats.optra_hits > 0

    def test_parallel_context_matches_inline(self):
        space = ExplorationSpace(
            kernels=("fir",), allocators=("FR-RA", "CPA-RA"), budgets=(8, 16),
        )
        inline = Executor(jobs=1).run(space)
        pooled = Executor(jobs=2).run(space)
        _assert_records_identical(tuple(inline), tuple(pooled))

    def test_cycle_report_memo_is_batch_keyed(self):
        """A production report must never answer the oracle's count."""
        from repro.dfg.latency import LatencyModel
        from repro.sim.cycles import count_cycles

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("fir", None)
        allocation = allocator_by_name("CPA-RA").allocate(kernel, 16, groups)
        model = LatencyModel.realistic(ram_latency=2)
        production = count_cycles(
            kernel, groups, allocation, model, overhead_per_iteration=1,
            context=ctx,
        )
        stats = ctx.stats.as_dict()
        oracle = count_cycles(
            kernel, groups, allocation, model, overhead_per_iteration=1,
            context=ctx, reference=True,
        )
        assert oracle == production
        # The oracle count neither read nor filled any memo.
        assert ctx.stats.as_dict() == stats


class TestForeignArtifactSafety:
    def test_cycle_report_memo_declines_foreign_dfg(self):
        """A caller-supplied DFG neither poisons nor reads the memo."""
        from repro.core.pipeline import allocator_by_name
        from repro.dfg.build import build_dfg
        from repro.dfg.latency import LatencyModel
        from repro.sim.cycles import count_cycles

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("fir", None)
        allocation = allocator_by_name("FR-RA").allocate(kernel, 16, groups)
        model = LatencyModel.realistic(ram_latency=2)

        foreign_dfg = build_dfg(kernel, groups)  # equal, not canonical
        foreign = count_cycles(
            kernel, groups, allocation, model, dfg=foreign_dfg, context=ctx
        )
        canonical = count_cycles(
            kernel, groups, allocation, model, context=ctx
        )
        again = count_cycles(kernel, groups, allocation, model, context=ctx)
        assert foreign == canonical == again
        # The foreign-DFG count was never stored: the canonical count
        # missed, and only the canonical repeat hit.
        assert ctx.stats.cycles_misses == 1
        assert ctx.stats.cycles_hits == 1


class TestAllocatorArtifactReuse:
    def test_ksra_dp_table_shared_across_budgets(self):
        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("mat", None)
        allocator = allocator_by_name("KS-RA")
        plain = [
            allocator_by_name("KS-RA").allocate(kernel, budget, groups)
            for budget in range(6, 40, 2)
        ]
        shared = [
            allocator.allocate(kernel, budget, groups, context=ctx)
            for budget in range(6, 40, 2)
        ]
        assert plain == shared
        # One DP solve (at the all-items capacity) serves the whole
        # ascending ladder.
        assert ctx.stats.knapsack_misses == 1
        assert ctx.stats.knapsack_hits == len(plain) - 1

    def test_cpara_critical_graphs_shared_across_budgets(self):
        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("pat", None)
        allocator = allocator_by_name("CPA-RA")
        budgets = range(6, 30, 2)
        plain = [
            allocator_by_name("CPA-RA").allocate(kernel, budget, groups)
            for budget in budgets
        ]
        shared = [
            allocator.allocate(kernel, budget, groups, context=ctx)
            for budget in budgets
        ]
        assert plain == shared
        assert ctx.stats.critical_hits > 0
        assert ctx.stats.dfg_hits > 0


class TestContextBookkeeping:
    def test_kernel_memo_lru_bound(self):
        ctx = EvalContext(kernel_memo_size=2)
        for name in ("fir", "mat", "pat"):
            ctx.kernel_and_groups(name, None)
        assert len(ctx._bundles) == 2
        # "fir" was evicted: touching it again is a miss.
        misses = ctx.stats.kernel_misses
        ctx.kernel_and_groups("fir", None)
        assert ctx.stats.kernel_misses == misses + 1

    def test_kernel_memo_size_validated(self):
        with pytest.raises(ValueError):
            EvalContext(kernel_memo_size=0)
        assert DEFAULT_KERNEL_MEMO >= 1

    def test_resolve_context(self):
        """``context`` is an EvalContext or None (the process context)."""
        import repro.explore as explore
        from repro.errors import ReproError

        assert not hasattr(explore, "resolve_context")
        for flag in (True, False):
            with pytest.raises(ReproError, match="EvalContext or None"):
                Executor(context=flag)
        query = DesignQuery(kernel="mat", allocator="FR-RA", budget=8)
        ctx = EvalContext()
        evaluate_query(query, context=ctx)
        assert ctx.stats.kernel_misses == 1
        before = process_context().stats.kernel_hits + (
            process_context().stats.kernel_misses
        )
        evaluate_query(query)
        after = process_context().stats.kernel_hits + (
            process_context().stats.kernel_misses
        )
        assert after == before + 1

    def test_reset_process_context(self):
        old = process_context()
        fresh = reset_process_context(kernel_memo_size=3)
        try:
            assert process_context() is fresh
            assert fresh is not old
            assert fresh.kernel_memo_size == 3
        finally:
            reset_process_context()

    def test_foreign_groups_decline_memoization(self):
        """Artifact APIs never mix memos across inconsistent groupings."""
        from repro.analysis.groups import build_groups

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("fir", None)
        other_groups = build_groups(kernel)  # equal, different identity
        assert other_groups is not groups
        foreign = ctx.coverages(kernel, other_groups)
        canonical = ctx.coverages(kernel, groups)
        assert foreign is not canonical
        assert ctx.coverages(kernel, groups) is canonical

    def test_stage_profile_aggregated(self):
        space = ExplorationSpace(
            kernels=("fir",), allocators=("CPA-RA",), budgets=(8, 16),
        )
        results = Executor(jobs=1).run(space)
        stages = results.stats.stage_seconds
        for key in ("kernel", "alloc", "dfg_schedule", "cycles", "other"):
            assert key in stages and stages[key] >= 0.0
        text = results.stats.profile()
        assert "cycle count" in text and "allocation" in text

    def test_run_queries_context_passthrough(self):
        queries = [DesignQuery(kernel="fir", allocator="FR-RA", budget=8)]
        ctx = EvalContext()
        with_ctx = run_queries(queries, context=ctx)
        assert ctx.stats.kernel_misses == 1
        process = run_queries(queries)
        _assert_records_identical(tuple(with_ctx), tuple(process))


class TestKernelMajorChunking:
    """The lease planner keeps a worker's artifacts to one kernel per
    lease, while still cutting a lone kernel up for parallelism."""

    @staticmethod
    def _queries(spec):
        """[(kernel, cost)] -> query-shaped items with a cost lookup."""
        items = []
        costs = {}
        for kernel, cost in spec:
            index = len(items)
            items.append((index, kernel))
            costs[index] = cost
        return items, lambda item: costs[item[0]]

    def test_single_kernel_splits_for_parallelism(self):
        items, cost = self._queries([("fir", 1.0)] * 40)
        leases = plan_leases(items, cost, jobs=2, key=lambda item: item[1])
        # ceil(40 / (2 * 16)) = 2 points per lease: many pulls per worker.
        assert [len(lease.items) for lease in leases] == [2] * 20
        assert sorted(i for lease in leases for i, _ in lease.items) == list(
            range(40)
        )

    def test_kernels_stay_whole_when_they_fit(self):
        spec = [("a", 1.0)] * 4 + [("b", 1.0)] * 4 + [("c", 1.0)] * 4
        items, cost = self._queries(spec)
        leases = plan_leases(
            items, cost, jobs=1, key=lambda item: item[1], max_points=4
        )
        assert len(leases) == 3
        for lease in leases:
            assert len({kernel for _, kernel in lease.items}) == 1
            assert len(lease.items) == 4

    def test_deterministic(self):
        spec = [("a", 2.0), ("b", 1.0)] * 6
        items, cost = self._queries(spec)
        first = plan_leases(items, cost, jobs=3, key=lambda item: item[1])
        second = plan_leases(items, cost, jobs=3, key=lambda item: item[1])
        assert first == second

    def test_executor_plans_kernel_major_with_context(self):
        space = ExplorationSpace(
            kernels=("fir", "pat"), allocators=("FR-RA", "CPA-RA"),
            budgets=(8, 16, 24),
        )
        pending = list(enumerate(space.expand()))
        executor = Executor(jobs=2, lease_points=4)
        leases = executor._plan_leases(pending, executor._cost_model())
        # Every lease is a single-kernel run in query order, so a worker
        # builds each kernel's artifacts at most once per lease.
        assert sorted(i for lease in leases for i, _ in lease.items) == list(
            range(len(pending))
        )
        for lease in leases:
            kernels = {query.kernel for _, query in lease.items}
            assert len(kernels) == 1
            assert lease.key == (next(iter(kernels)), None)
            indices = [i for i, _ in lease.items]
            assert indices == sorted(indices)


class TestStatsExactAccounting:
    """The stats counters are an auditable ledger: a scripted call
    sequence must produce exactly the hits and misses it implies."""

    def test_direct_memo_sequence(self):
        from repro.dfg.latency import LatencyModel

        ctx = EvalContext()
        kernel, groups = ctx.kernel_and_groups("fir", None)

        shared = ctx.coverages(kernel)
        assert ctx.coverages(kernel) is shared
        assert (ctx.stats.coverage_misses, ctx.stats.coverage_hits) == (1, 1)

        dfg = ctx.dfg(kernel)
        assert ctx.dfg(kernel) is dfg
        assert (ctx.stats.dfg_misses, ctx.stats.dfg_hits) == (1, 1)

        model = LatencyModel.realistic(ram_latency=2)
        first = ctx.schedule(kernel, dfg, model, {}, 1)
        assert ctx.schedule(kernel, dfg, model, {}, 1) == first
        assert (ctx.stats.schedule_misses, ctx.stats.schedule_hits) == (1, 1)

        params = ("fp", 1, 1)
        entry = {"budget": 16, "total": 9, "registers": (), "cycles": 1}
        assert ctx.optra_lookup(kernel, groups, params, 16) is None
        ctx.optra_store(kernel, groups, params, entry)
        # Certified at 16 with total 9: answers every budget in [9, 16].
        assert ctx.optra_lookup(kernel, groups, params, 16) == entry
        assert ctx.optra_lookup(kernel, groups, params, 9) == entry
        assert ctx.optra_lookup(kernel, groups, params, 8) is None
        assert (ctx.stats.optra_misses, ctx.stats.optra_hits) == (2, 2)

    def test_optra_query_sequence(self):
        """OPT-RA at budgets (16, 16, 15, 8): the 16-budget optimum is
        certified with total 15, so the repeat and the 15-budget query
        answer from the memo while 8 falls below the certified interval
        and recomputes.  Every counter is pinned — the evaluation plane
        is deterministic, so this ledger is too."""
        ctx = EvalContext()
        for budget in (16, 16, 15, 8):
            record = evaluate_query(
                DesignQuery(kernel="fir", allocator="OPT-RA", budget=budget),
                context=ctx,
            )
            assert record.error is None
        assert ctx.stats.as_dict() == {
            "kernel_hits": 3, "kernel_misses": 1,
            "dfg_hits": 7, "dfg_misses": 1,
            "coverage_hits": 5, "coverage_misses": 1,
            "schedule_hits": 899, "schedule_misses": 8,
            "critical_hits": 1, "critical_misses": 1,
            "knapsack_hits": 1, "knapsack_misses": 1,
            "cycles_hits": 39, "cycles_misses": 183,
            "optra_hits": 2, "optra_misses": 2,
        }
