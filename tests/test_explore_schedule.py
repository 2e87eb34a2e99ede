"""Cost model and lease planning (`repro.explore.schedule`)."""

import pytest

from repro.errors import ReproError
from repro.explore import (
    CostModel,
    DesignQuery,
    ExplorationSpace,
    Executor,
    ResultCache,
    plan_leases,
    static_cost,
)
from repro.explore.schedule import ALLOCATOR_WEIGHT


def q(kernel="fir", allocator="FR-RA", budget=8):
    return DesignQuery(kernel=kernel, allocator=allocator, budget=budget)


class TestStaticCost:
    def test_positive_for_every_registered_point(self):
        for query in ExplorationSpace(budgets=(8, 64)).expand():
            assert static_cost(query) > 0

    def test_allocator_weights_order_the_prior(self):
        # The exact knapsack must be scheduled as the most expensive pass.
        costs = {
            alloc: static_cost(q(allocator=alloc)) for alloc in ALLOCATOR_WEIGHT
        }
        assert costs["KS-RA"] > costs["FR-RA"] > costs["NO-SR"]

    def test_bigger_kernels_cost_more(self):
        from repro.kernels import build_fir

        tiny = DesignQuery.from_kernel(
            build_fir(n=8, taps=4), allocator="FR-RA", budget=8
        )
        assert static_cost(q(kernel="fir")) > static_cost(tiny)

    def test_unbuildable_subject_defaults_instead_of_raising(self):
        broken = DesignQuery(
            kernel="weird", allocator="FR-RA", budget=8,
            kernel_json='{"broken": true}',
        )
        assert static_cost(broken) > 0


class TestCostModel:
    def test_cold_start_is_the_static_prior(self):
        model = CostModel()
        assert model.observations == 0
        assert model.estimate(q()) == static_cost(q())

    def test_exact_pair_mean_wins(self):
        model = CostModel()
        for seconds in (1.0, 3.0):
            model.observe(q(), seconds)
        model.observe(q(allocator="NO-SR"), 100.0)
        assert model.estimate(q()) == pytest.approx(2.0)

    def test_kernel_fallback_scales_by_allocator_weight(self):
        model = CostModel()
        model.observe(q(allocator="FR-RA"), 2.0)
        # KS-RA never measured: kernel mean x its static weight.
        assert model.estimate(q(allocator="KS-RA")) == pytest.approx(
            2.0 * ALLOCATOR_WEIGHT["KS-RA"]
        )

    def test_global_fallback_is_positive_and_prior_ordered(self):
        model = CostModel()
        model.observe(q(kernel="mat"), 5.0)
        fir_ks = model.estimate(q(kernel="fir", allocator="KS-RA"))
        fir_no = model.estimate(q(kernel="fir", allocator="NO-SR"))
        assert fir_ks > fir_no > 0

    def test_from_cache_learns_real_timings(self, tmp_path):
        space = ExplorationSpace(
            kernels=("fir",), allocators=("FR-RA", "NO-SR"), budgets=(8, 16)
        )
        Executor(jobs=1, cache=tmp_path).run(space)
        model = CostModel.from_cache(ResultCache(tmp_path))
        assert model.observations == 4
        for query in space.expand():
            assert model.estimate(query) > 0

    def test_from_cache_tolerates_missing_or_garbage(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        assert CostModel.from_cache(ResultCache(tmp_path)).observations == 0
        assert CostModel.from_cache(None).observations == 0


def _leases(items, cost, jobs, max_points=None):
    return plan_leases(
        items, cost, jobs=jobs, key=lambda item: "k", max_points=max_points
    )


class TestPlanChunks:
    """:func:`plan_leases`, the one chunk planner of the dispatcher."""

    def test_lpt_balances_known_example(self):
        items = ["a", "b", "c", "d", "e"]
        costs = dict(zip(items, [7.0, 5.0, 4.0, 3.0, 2.0]))
        leases = _leases(items, costs.__getitem__, jobs=2, max_points=1)
        # Longest first: workers pull the expensive points before the
        # cheap ones, so the tail of the sweep is short.
        assert [lease.items for lease in leases] == [
            ("a",), ("b",), ("c",), ("d",), ("e",)
        ]

    def test_partition_is_exact(self):
        items = list(range(17))
        leases = _leases(items, lambda i: float(i % 5 + 1), jobs=4,
                         max_points=3)
        flat = [i for lease in leases for i in lease.items]
        assert sorted(flat) == items
        assert all(len(lease.items) <= 3 for lease in leases)

    def test_deterministic(self):
        items = list(range(20))
        cost = lambda i: float(i % 3)  # noqa: E731
        assert _leases(items, cost, 4) == _leases(items, cost, 4)

    def test_more_bins_than_items_collapses(self):
        # More workers than pull opportunities: every point is a lease.
        leases = _leases(list(range(6)), lambda _: 1.0, jobs=8)
        assert [len(lease.items) for lease in leases] == [1] * 6

    def test_empty_and_invalid(self):
        assert _leases([], lambda _: 1.0, jobs=3) == []
        with pytest.raises(ReproError):
            _leases([1], lambda _: 1.0, jobs=0)
        with pytest.raises(ReproError):
            _leases([1], lambda _: 1.0, jobs=1, max_points=0)

    def test_one_expensive_point_gets_its_own_chunk(self):
        # The motivating failure of the fixed split: a single hot point
        # must not drag cheap siblings into its lease.
        costs = [100.0] + [1.0] * 99
        leases = _leases(list(range(100)), lambda i: costs[i], jobs=2)
        hot = next(lease for lease in leases if 0 in lease.items)
        assert hot.items == (0,)
        assert leases[0] is hot
        assert max(len(lease.items) for lease in leases) > 1


class TestAdaptiveExecutor:
    def test_warm_cache_schedules_identically_to_cold(self, tmp_path):
        # Scheduling changes chunk shapes only, never results: a warm
        # cost model (second executor, same cache, fresh re-evaluation)
        # reproduces the cold run's records exactly.
        space = ExplorationSpace(
            kernels=("fir", "mat"),
            allocators=("FR-RA", "NO-SR"),
            budgets=(8,),
        )
        cold = Executor(jobs=2, cache=tmp_path).run(space)
        warm = Executor(jobs=2, cache=tmp_path, reuse_cache=False).run(space)
        assert [r.to_dict() for r in cold] == [r.to_dict() for r in warm]
        assert warm.stats.evaluated == 4
