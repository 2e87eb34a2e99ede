"""Tests of the benchmark itself: its gates, its seeding, its span accounting."""

from __future__ import annotations

import csv
import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CYCLES = 6  # column index of ``cycles`` in the explore CSV


def golden_output(workload: run.Workload, seed: int):
    """A workload's correct CSV for one seeded command, with its order."""
    axes = workload.axes(random.Random(seed))
    order = gates.expand_order(axes["kernels"], axes["allocators"],
                               axes["budgets"], axes["latencies"])
    golden = gates.read_golden(workload.golden)
    lines = [golden.header] + [golden.lines[k] for k in order]
    return golden, order, lines


def check(golden, order, lines) -> gates.Verdict:
    verdict = gates.Verdict(attempted=len(order))
    gates.check_rows(verdict, "\n".join(lines) + "\n", golden, order)
    return verdict


def mutate_cycles(line: str) -> str:
    fields = line.split(",")
    fields[CYCLES] = str(int(fields[CYCLES]) + 1)
    return ",".join(fields)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_golden_output_passes(name):
    golden, order, lines = golden_output(run.WORKLOADS[name], seed=5)
    verdict = check(golden, order, lines)
    assert verdict.n_failed == 0, verdict.reasons


def test_mutated_rows_fail_exactly_their_points():
    golden, order, lines = golden_output(run.WORKLOADS["optra_gap"], seed=1)
    victims = [3, 40, 41, 287]  # 0-based indices of feasible points
    for i in victims:
        lines[i + 1] = mutate_cycles(lines[i + 1])
    verdict = check(golden, order, lines)
    assert verdict.failed == {order[i] for i in victims}


@pytest.mark.parametrize("edit", ["drop", "repeat", "swap"])
def test_missing_repeated_or_misplaced_rows_fail_their_points(edit):
    golden, order, lines = golden_output(run.WORKLOADS["heuristic_sweep"], 2)
    if edit == "drop":
        del lines[101]
        expected = {order[100]}
    elif edit == "repeat":
        lines.insert(101, lines[101])
        expected = {order[100]}
    else:
        lines[101], lines[102] = lines[102], lines[101]
        expected = {order[100], order[101]}
    assert check(golden, order, lines).failed == expected


def test_mutated_gap_line_fails_exactly_its_point():
    golden = gates.read_golden("optra_gap.gap.csv", gates.gap_key)
    lines = [golden.header, *golden.lines.values()]
    victim = lines[10]
    lines[10] = victim[:-1] + str((int(victim[-1]) + 1) % 10)
    verdict = gates.Verdict(attempted=288)
    gates.check_gap(verdict, "\n".join(lines) + "\n", golden)
    assert verdict.failed == {gates.gap_key(victim)}


def test_gap_report_is_compared_as_a_multiset_of_lines():
    golden = gates.read_golden("optra_gap.gap.csv", gates.gap_key)
    shuffled = list(golden.lines.values())
    random.Random(0).shuffle(shuffled)
    verdict = gates.Verdict(attempted=288)
    gates.check_gap(verdict, "\n".join([golden.header, *shuffled]), golden)
    assert not verdict.failed


def test_gap_golden_is_the_committed_gap_table():
    committed = ROOT / "BENCH_7_optgap.csv"
    if not committed.exists():
        pytest.skip("no committed gap table in this tree")
    golden = (gates.GOLDEN_DIR / "optra_gap.gap.csv").read_text()
    assert sorted(golden.splitlines()) == sorted(
        committed.read_text().splitlines())


def test_uncertified_optimum_fails_the_opt_point():
    golden = gates.read_golden("optra_gap.gap.csv", gates.gap_key)
    lines = [golden.header, *golden.lines.values()]
    lines[1] = lines[1].replace(",true,", ",false,")
    verdict = gates.Verdict(attempted=288)
    gates.check_gap(verdict, "\n".join(lines), golden)
    kernel, _, budget, latency = gates.gap_key(lines[1])
    assert (kernel, gates.OPT_RA, budget, latency) in verdict.failed


def test_opt_ra_beaten_by_a_heuristic_fails_the_opt_point():
    golden, order, lines = golden_output(run.WORKLOADS["optra_gap"], seed=0)
    rows = {k: next(csv.reader([line])) for k, line in zip(order, lines[1:])}
    key = next(k for k in order if k[1] == "FR-RA" and rows[k][CYCLES])
    rows[key][CYCLES] = "1"
    verdict = gates.Verdict(attempted=len(order))
    gates.check_optimal(verdict, rows, golden.header)
    assert verdict.failed == {(key[0], gates.OPT_RA, key[2], key[3])}


FLAG_AXES = {"--kernels": "kernels", "--allocators": "allocators",
             "--budgets": "budgets", "--ram-latencies": "latencies"}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_changes_only_the_axis_order(name):
    workload = run.WORKLOADS[name]

    def flags(seed):
        argv = workload.argv(workload.axes(random.Random(seed)), None, None)
        groups, current = {}, None
        for token in argv[4:]:
            if token.startswith("--"):
                current = groups.setdefault(token, [])
            else:
                current.append(token)
        return argv[:4], groups

    head0, base = flags(0)
    differs = False
    for seed in range(1, 6):
        head, other = flags(seed)
        assert head == head0
        assert list(other) == list(base)
        for flag, values in base.items():
            assert sorted(other[flag]) == sorted(values), flag
            differs |= other[flag] != values
            if FLAG_AXES.get(flag) not in workload.shuffled:
                assert other[flag] == values, flag
    assert differs
    golden = gates.read_golden(workload.golden)
    for seed in (0, 7):
        axes = workload.axes(random.Random(seed))
        keys = gates.expand_order(axes["kernels"], axes["allocators"],
                                  axes["budgets"], axes["latencies"])
        assert len(keys) == len(set(keys))
        assert set(keys) <= set(golden.lines)


def test_same_seed_gives_the_same_commands():
    workload = run.WORKLOADS["optra_gap"]
    a, b = random.Random(4), random.Random(4)
    for _ in range(3):
        assert workload.axes(a) == workload.axes(b)


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
    commands = [
        run.Command(wall_s=2.0, setup_s=0.5, run_s=1.0, rss_mb=50.0,
                    cpu_s=1.5, traced=False,
                    verdict=gates.Verdict(attempted=10)),
    ]
    printed = run.end_to_end_metrics(commands)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: unit for name, (_, unit) in printed.items()}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        spans.per_layer_names())


def test_import_times_stop_at_the_first_sweep():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        200 |     numpy",
        "import time:       300 |       5000 | repro",
        "import time:       100 |       1000 |   repro.bench",
        "import time:        50 |        700 | repro.cli",
        spans.RUN_MARKER,
        "import time:       100 |       9000 | repro.late",
    ])
    found = spans.import_seconds(stderr)
    assert found == pytest.approx({"repro": 0.0057, "numpy": 0.0002,
                                   "networkx": 0.0, "repro_bench": 0.001})


def test_double_counted_span_is_an_error():
    process = {"pid": 1, "role": "cli", "start": 0.0, "end": 1.0,
               "spans": {"sim.count_cycles": [3, 2.0, 2.0]},
               "counts": {}, "context": {}, "runs": []}
    profile = spans.Profile([process], launched=0.0, exited=1.5, jobs=1)
    assert any("exceed" in e for e in profile.errors)


@pytest.mark.parametrize("start, end", [(-0.1, 1.0), (0.2, 1.6)])
def test_process_recorded_outside_its_command_is_an_error(start, end):
    process = {"pid": 1, "role": "cli", "start": start, "end": end,
               "spans": {}, "counts": {}, "context": {}, "runs": []}
    profile = spans.Profile([process], launched=0.0, exited=1.5, jobs=1)
    assert any("outside its command" in e for e in profile.errors)


SMALL = dataclasses.replace(
    run.WORKLOADS["heuristic_sweep"], allocators=("CPA-RA", "KS-RA"),
    budgets=(8, 16), latencies=(2,), cache=None,
    required_spans=("explore.executor.run", "explore.evaluate.evaluate_query",
                    "sim.count_cycles", "explore.results.to_csv"),
)


#: Seconds the CLI process may spend between its first ``Executor.run``
#: and writing its span file outside the two top-level spans (printing
#: the CSV and the stats line; about 1 ms).
UNCOVERED_S = 0.05


@pytest.mark.parametrize("jobs", [1, 2])
def test_traced_command_accounts_for_its_time(tmp_path, jobs):
    bench = run.Bench(ROOT, dataclasses.replace(SMALL, jobs=jobs), seed=0,
                      work=tmp_path)
    command = bench.run(traced=True)
    profile = command.profile
    assert command.verdict.n_failed == 0, command.verdict.reasons
    # Among the errors: each process's recorded lifetime lies inside the
    # command's launch-to-exit, read by the benchmark on its own.
    assert profile.errors == []
    assert profile.workers == (0 if jobs == 1 else jobs)
    assert profile.unattributed_s >= 0
    # The CLI process's top-level spans cover its time from the first
    # sweep to its exit handler, so a layer that drops out of the spans
    # shows up here.
    top = (profile.span("explore.executor.run")[1]
           + profile.span("explore.results.to_csv")[1])
    after_setup = profile.cli["end"] - profile.cli["runs"][0][0]
    assert 0 <= after_setup - top < UNCOVERED_S
    # The workers' evaluations fit inside the pool's dispatch loop.
    if jobs > 1:
        drive = profile.span("explore.supervise.drive")[1]
        assert 0 < profile.worker_busy <= jobs * drive
    values = profile.values()
    assert values["explore.evaluate.evaluate_query.calls"] == 24


def test_layer_without_spans_is_an_error(tmp_path):
    workload = dataclasses.replace(
        SMALL, required_spans=SMALL.required_spans + ("core.optra.allocate",))
    command = run.Bench(ROOT, workload, seed=0, work=tmp_path).run(traced=True)
    assert command.profile.errors == [
        "no spans recorded for core.optra.allocate"]
