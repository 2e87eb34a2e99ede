"""The iteration-atom pattern classifier against the full-grid reference.

With an evaluation context, :func:`repro.sim.cycles.classify_patterns`
builds its histogram over the kernel bundle's
:class:`~repro.sim.patterns.PatternClassifier`; without one it
classifies every iteration of the full grid, which is the reference.
The differential tests here replay every classification a real
evaluation makes (cycle counts, the anchor search and OPT-RA's
relaxation bounds) through the reference and require identical
``(in_loop, memory_cycles, pattern_rows)``.  The whole registered grid
and the whole fuzz corpus run in the slow oracle tier; the default tier
replays OPT-RA's searches on the registered grid (with the effort pins)
and every tenth fuzz seed.

The OPT-RA effort pins record, per (kernel, budget) of the
``BENCH_7_optgap.csv`` grid, how many branch-and-bound nodes the search
visits and how many leaves it evaluates: a faster classifier must make
leaves cheaper, never change which leaves are searched.
"""

from __future__ import annotations

import random
import re

import numpy as np
import pytest

import repro.core.optra as optra
import repro.sim.cycles as cycles
from fuzz_kernels import oracle_case
from repro.core.pipeline import allocator_by_name
from repro.dfg.latency import LatencyModel
from repro.errors import ReproError, SimulationError
from repro.explore.context import EvalContext
from repro.explore.evaluate import design_for
from repro.explore.query import DesignQuery
from repro.kernels import KERNEL_FACTORIES
from repro.sim.patterns import PatternClassifier
from repro.sim.scheduler import schedule_iteration
from repro.synth.estimate import build_design

REGISTERED = sorted(KERNEL_FACTORIES)
ALLOCATORS = ("CPA-RA", "FR-RA", "KS-RA", "NO-SR", "OPT-RA", "PR-RA")
#: The register budgets of BENCH_7_optgap.csv.
GAP_BUDGETS = (4, 8, 12, 16, 24, 32, 48, 64)
MODEL = LatencyModel.realistic(ram_latency=2)


@pytest.fixture
def replayed(monkeypatch):
    """Check every classifier call against the full grid as it happens.

    Returns a log with the number of calls, how many went through a
    classifier, and the labels of any call whose result differed.
    """
    original = cycles.classify_patterns
    log = {"calls": 0, "classified": 0, "mismatches": []}

    def checked(shape, channels, dfg, overhead, scheduler, label="kernel",
                classifier=None):
        result = original(shape, channels, dfg, overhead, scheduler,
                          label=label, classifier=classifier)
        log["calls"] += 1
        if classifier is not None:
            log["classified"] += 1
            reference = original(shape, channels, dfg, overhead, scheduler,
                                 label=label)
            if reference != result:
                log["mismatches"].append(
                    (label, [channel[:2] for channel in channels])
                )
        return result

    # OPT-RA's bound imports the function by name; patch both bindings.
    monkeypatch.setattr(cycles, "classify_patterns", checked)
    monkeypatch.setattr(optra, "classify_patterns", checked)
    return log


def _memo_scheduler(dfg):
    memo = {}

    def scheduler(hit):
        key = tuple(sorted(hit.items()))
        if key not in memo:
            schedule = schedule_iteration(dfg, MODEL, hit, 1)
            memo[key] = (schedule.makespan, schedule.memory_cycles)
        return memo[key]

    return scheduler


def _kernel_masks(name):
    """Every coverage mask of a registered kernel: groups x r <= 64 x anchors."""
    ctx = EvalContext()
    kernel, groups = ctx.kernel_and_groups(name, None)
    dfg = ctx.dfg(kernel, groups)
    coverages = ctx.coverages(kernel, groups)
    results = {
        group.name: [
            coverages[group.name].result(registers, anchor)
            for registers in range(65)
            for anchor in ("low", "high")
        ]
        for group in groups
    }
    return kernel, groups, dfg, results


# -- differential: the registered grid and the fuzz corpus --------------------


@pytest.mark.slow
@pytest.mark.oracle
@pytest.mark.parametrize("name", REGISTERED)
def test_registered_grid_matches_full_grid(name, replayed):
    """kernel x every allocator (OPT-RA too) x BENCH_7 budgets x anchors."""
    ctx = EvalContext()
    for budget in GAP_BUDGETS:
        for allocator in ALLOCATORS:
            query = DesignQuery(kernel=name, allocator=allocator, budget=budget)
            try:
                design_for(query, context=ctx)
            except ReproError:
                continue  # budget below the per-group floor
    assert replayed["calls"] > 0
    assert replayed["classified"] == replayed["calls"]
    assert replayed["mismatches"] == []


def _fuzz_case_matches(seed, replayed):
    case = oracle_case(seed)
    ctx = EvalContext()
    for name in ALLOCATORS:
        allocator = allocator_by_name(name)
        try:
            allocation = allocator.allocate(
                case.kernel, case.budget, case.groups, context=ctx
            )
        except ReproError:
            continue
        build_design(case.kernel, allocation, case.groups, context=ctx)
    assert replayed["classified"] == replayed["calls"] > 0
    assert replayed["mismatches"] == []


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_fuzz_kernels_match_full_grid(seed, replayed):
    _fuzz_case_matches(seed, replayed)


@pytest.mark.slow
@pytest.mark.oracle
@pytest.mark.parametrize("seed", range(120))
def test_fuzz_corpus_matches_full_grid(seed, replayed):
    _fuzz_case_matches(seed, replayed)


# -- refinement order and degenerate partitions --------------------------------


def _random_channels(groups, results, rng):
    channels = []
    for group in groups:
        result = rng.choice(results[group.name])
        channels.append((group.name, "read", result.read_miss))
        if group.writes:
            channels.append((group.name, "write", result.write_miss))
    return channels


def test_refinement_order_does_not_matter():
    kernel, groups, dfg, results = _kernel_masks("mat")
    masks = [
        mask
        for per_group in results.values()
        for result in per_group
        for mask in (result.read_miss, result.write_miss)
    ]
    rng = random.Random(13)
    combos = [_random_channels(groups, results, rng) for _ in range(40)]
    # Reversed channel lists: same masks, another signature (bit order).
    combos += [combo[::-1] for combo in combos[:10]]
    shape = kernel.nest.trip_counts()
    scheduler = _memo_scheduler(dfg)
    reference = [
        cycles.classify_patterns(shape, combo, dfg, 1, scheduler)
        for combo in combos
    ]

    atoms = set()
    for order_seed in range(3):
        shuffled = list(masks)
        random.Random(order_seed).shuffle(shuffled)
        classifier = PatternClassifier(shape, dfg)
        for mask in shuffled:
            classifier.vector(mask)
        atoms.add(classifier.atoms)
        assert [
            cycles.classify_patterns(
                shape, combo, dfg, 1, scheduler, classifier=classifier
            )
            for combo in combos
        ] == reference
    # The coarsest partition refining every mask, whatever the order.
    assert atoms == {145}


def test_mask_splitting_every_atom_degrades_to_the_full_grid():
    kernel, groups, dfg, results = _kernel_masks("imi")
    shape = kernel.nest.trip_counts()
    space = int(np.prod(shape))
    index = np.arange(space).reshape(shape)
    # Bits 1.. of the flat index leave atoms of two iterations each;
    # bit 0 then splits every one of them.
    digits = [
        ((index >> bit) & 1).astype(bool)
        for bit in range(1, space.bit_length() - 1)
    ]
    lowest = (index & 1).astype(bool)
    classifier = PatternClassifier(shape, dfg)
    for mask in digits:
        classifier.vector(mask)
    assert classifier.atoms == space // 2
    classifier.vector(lowest)
    assert classifier.atoms == space

    names = [group.name for group in groups]
    channels = [
        (names[bit % len(names)], "read", mask)
        for bit, mask in enumerate([lowest] + digits[:6])
    ]
    channels += _random_channels(groups, results, random.Random(5))
    scheduler = _memo_scheduler(dfg)
    fast = cycles.classify_patterns(
        shape, channels, dfg, 1, scheduler, classifier=classifier
    )
    assert fast == cycles.classify_patterns(shape, channels, dfg, 1, scheduler)
    assert len(fast[2]) >= 2 ** 7  # the index bits alone make 128 patterns


def test_classifier_rejects_foreign_masks_and_graphs():
    kernel, groups, dfg, results = _kernel_masks("fir")
    shape = kernel.nest.trip_counts()
    classifier = PatternClassifier(shape, dfg)
    with pytest.raises(SimulationError):
        classifier.vector(np.zeros(7, dtype=bool))
    other = EvalContext()
    other_kernel, other_groups = other.kernel_and_groups("fir", None)
    other_dfg = other.dfg(other_kernel, other_groups)
    channels = [(groups[0].name, "read", np.zeros(shape, dtype=bool))]
    with pytest.raises(SimulationError):
        cycles.classify_patterns(
            shape, channels, other_dfg, 1, _memo_scheduler(other_dfg),
            classifier=classifier,
        )


def test_context_shares_one_classifier_per_kernel_bundle():
    ctx = EvalContext()
    kernel, groups = ctx.kernel_and_groups("fir", None)
    dfg = ctx.dfg(kernel, groups)
    classifier = ctx.pattern_classifier(kernel, dfg)
    assert classifier is not None
    assert ctx.pattern_classifier(kernel, dfg) is classifier
    # A DFG that is not the bundle's gets no classifier (full grid).
    foreign = EvalContext()
    foreign_kernel, foreign_groups = foreign.kernel_and_groups("fir", None)
    assert ctx.pattern_classifier(
        kernel, foreign.dfg(foreign_kernel, foreign_groups)
    ) is None


# -- OPT-RA search effort ------------------------------------------------------

#: (kernel, budget) -> (branch-and-bound nodes, leaf evaluations) of the
#: BENCH_7 grid, one shared context per kernel with budgets ascending;
#: None where the budget is below the per-group floor.  Leaf evaluations
#: count the search's objective evaluations (one
#: ``count_with_best_anchors`` per distinct register vector).
OPTRA_EFFORT = {
    ("bic", 4): (5, 3),
    ("bic", 8): (21, 16),
    ("bic", 12): (55, 46),
    ("bic", 16): (105, 92),
    ("bic", 24): (227, 211),
    ("bic", 32): (347, 331),
    ("bic", 48): (587, 571),
    ("bic", 64): (827, 811),
    ("decfir", 4): (5, 3),
    ("decfir", 8): (21, 16),
    ("decfir", 12): (55, 46),
    ("decfir", 16): (105, 92),
    ("decfir", 24): (253, 232),
    ("decfir", 32): (465, 436),
    ("decfir", 48): (1081, 1036),
    ("decfir", 64): (1953, 1892),
    ("fir", 4): (5, 3),
    ("fir", 8): (21, 16),
    ("fir", 12): (55, 46),
    ("fir", 16): (105, 92),
    ("fir", 24): (253, 232),
    ("fir", 32): (465, 436),
    ("fir", 48): (872, 840),
    ("fir", 64): (1024, 992),
    ("imi", 4): None,
    ("imi", 8): (10, 7),
    ("imi", 12): (36, 29),
    ("imi", 16): (78, 67),
    ("imi", 24): (210, 191),
    ("imi", 32): (406, 379),
    ("imi", 48): (990, 947),
    ("imi", 64): (1830, 1771),
    ("mat", 4): (5, 3),
    ("mat", 8): (21, 16),
    ("mat", 12): (55, 46),
    ("mat", 16): (105, 92),
    ("mat", 24): (227, 211),
    ("mat", 32): (347, 331),
    ("mat", 48): (587, 571),
    ("mat", 64): (827, 811),
    ("pat", 4): (5, 3),
    ("pat", 8): (16, 12),
    ("pat", 12): (31, 23),
    ("pat", 16): (50, 38),
    ("pat", 24): (100, 80),
    ("pat", 32): (166, 138),
    ("pat", 48): (346, 302),
    ("pat", 64): (590, 530),
}


@pytest.mark.oracle
@pytest.mark.parametrize("name", REGISTERED)
def test_optra_search_effort_is_pinned(name, monkeypatch, replayed):
    """Same nodes, same leaves, and every classification exact."""
    leaves = []
    evaluate = optra.count_with_best_anchors

    def counted(*args, **kwargs):
        leaves.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(optra, "count_with_best_anchors", counted)
    ctx = EvalContext()
    effort = {}
    for budget in GAP_BUDGETS:
        leaves.clear()
        query = DesignQuery(kernel=name, allocator="OPT-RA", budget=budget)
        try:
            design, _ = design_for(query, context=ctx)
        except ReproError:
            effort[(name, budget)] = None
            continue
        nodes = [
            int(match.group(1))
            for line in design.allocation.trace
            for match in [re.search(r"after (\d+) nodes", line)]
            if match
        ]
        assert len(nodes) == 1, design.allocation.trace
        effort[(name, budget)] = (nodes[0], len(leaves))
    expected = {key: value for key, value in OPTRA_EFFORT.items()
                if key[0] == name}
    assert effort == expected
    assert replayed["classified"] == replayed["calls"] > 0
    assert replayed["mismatches"] == []
