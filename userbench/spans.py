"""Per-layer metrics from the probes' span files and the import-time log.

One traced command leaves one JSON file per process (the CLI process and
each forked pool worker, see ``hook/sitecustomize.py``).  A command's
profile sums them; a run reports the mean over its traced commands.
Self time is a span's duration minus its nested spans, so within one
process the self times are disjoint, and

    sum(self times) + trace.unattributed_s == sum of process wall times

where the CLI process's wall time is the command time (launch to exit)
and a worker's runs from its fork to its exit.  At ``--jobs 1`` there is
only the CLI process, so the right-hand side is the command time.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

#: (span name, reported fields); metrics are named ``<span>.<field>``.
SPAN_METRICS = (
    ("explore.versions.query_vector", ("calls", "self_s")),
    ("explore.versions.module_hash", ("calls", "self_s")),
    ("explore.cache.lookup.dir", ("self_s",)),
    ("explore.cache.lookup.sqlite", ("self_s",)),
    ("explore.cache.put.dir", ("self_s",)),
    ("explore.cache.put.sqlite", ("self_s",)),
    ("explore.results.to_csv", ("self_s",)),
    ("explore.executor.run", ("self_s",)),
    ("explore.supervise.drive", ("self_s",)),
    ("explore.evaluate.evaluate_query", ("calls", "busy_s")),
    ("kernels.get_kernel", ("calls", "self_s")),
    ("analysis.build_groups", ("calls", "self_s")),
    ("dfg.build_dfg", ("calls", "self_s")),
    ("dfg.critical_graph", ("calls", "self_s")),
    ("core.heuristics.allocate", ("self_s",)),
    ("core.optra.allocate", ("self_s",)),
    ("core.dp.solve_knapsack", ("self_s",)),
    ("scalar.coverage.result", ("calls", "self_s")),
    ("scalar.coverage.ram_access_ladder", ("self_s",)),
    ("sim.count_cycles", ("calls", "self_s")),
    ("sim.classify_patterns", ("calls", "self_s")),
    ("sim.schedule_iteration", ("calls", "self_s")),
    ("sim.residency.trace", ("self_s",)),
    ("synth.build_design", ("self_s",)),
    ("synth.count_with_best_anchors", ("self_s",)),
)

CONTEXT_MEMOS = ("kernel", "dfg", "coverage", "schedule", "critical",
                 "knapsack", "cycles", "optra")
RUN_COUNTERS = (
    ("explore.schedule.leases", "run.leases"),
    ("explore.schedule.steals", "run.steals"),
    ("explore.schedule.affinity_hits", "run.affinity_hits"),
    ("explore.supervise.retries", "run.retries"),
    ("explore.supervise.pool_breaks", "run.pool_breaks"),
)
IMPORTS = (("repro", None), ("numpy", "numpy"), ("networkx", "networkx"),
           ("repro_bench", "repro.bench"))

UNITS = {"calls": "count", "self_s": "s", "busy_s": "s"}


def per_layer_names() -> "dict[str, str]":
    """Every per-layer metric name -> unit, in report order."""
    names = {f"cli.import.{label}_s": "s" for label, _ in IMPORTS}
    for name, fields in SPAN_METRICS:
        for f in fields:
            names[f"{name}.{f}"] = UNITS[f]
    names.update({
        "explore.cache.lookup.calls": "count",
        "explore.cache.lookup.hit_ratio": "ratio",
        "explore.cache.put.calls": "count",
        "explore.executor.worker_busy_frac": "ratio",
        "explore.executor.idle_s": "s",
        "core.optra.leaf_evals": "count",
    })
    names.update({name: "count" for name, _ in RUN_COUNTERS})
    names.update({f"explore.context.{m}.hit_ratio": "ratio"
                  for m in CONTEXT_MEMOS})
    names["trace.unattributed_s"] = "s"
    names["trace.overhead_s"] = "s"
    return names


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)$")
RUN_MARKER = "userbench: executor-run"


def import_seconds(stderr: str) -> "dict[str, float]":
    """Cumulative start-up import times from ``-X importtime`` output.

    Only imports logged before the first ``Executor.run`` count.
    ``repro`` sums every top-level ``repro*`` import (the package, then
    ``repro.cli`` and friends imported by ``python -m repro``); the others
    are the cumulative time of the named module, 0 when it was not
    imported at start-up.
    """
    found = {label: 0.0 for label, _ in IMPORTS}
    for line in stderr.splitlines():
        if line.startswith(RUN_MARKER):
            break
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        cumulative = int(match.group(2)) / 1e6
        depth = len(match.group(3)) - 1
        name = match.group(4)
        if depth == 0 and (name == "repro" or name.startswith("repro.")):
            found["repro"] += cumulative
        for label, module in IMPORTS:
            if module == name and not found[label]:
                found[label] = cumulative
    return found


def read_processes(directory: Path) -> "list[dict]":
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


class Profile:
    """The summed span profile of one traced command."""

    def __init__(self, processes: "list[dict]", launched: float,
                 exited: float, jobs: int):
        """``launched`` and ``exited``: the benchmark's own clock readings
        around the command, on the clock the span files use."""
        self.errors: "list[str]" = []
        self.spans: "dict[str, list]" = {}
        self.counts: "dict[str, int]" = {}
        self.context: "dict[str, int]" = {}
        self.self_s = 0.0
        self.process_s = 0.0
        self.jobs = jobs
        self.worker_busy = 0.0
        cli = [p for p in processes if p["role"] == "cli"]
        if len(cli) != 1:
            self.errors.append(f"{len(cli)} CLI span files, expected 1")
        #: The CLI process's span file, as the hook wrote it.
        self.cli = cli[0] if cli else None
        self.workers = len(processes) - len(cli)
        for proc in processes:
            if not launched <= proc["start"] <= proc["end"] <= exited:
                self.errors.append(
                    f"{proc['role']} {proc['pid']}: recorded "
                    f"{proc['start']:.4f}..{proc['end']:.4f}s, outside its "
                    f"command's {launched:.4f}..{exited:.4f}s")
            if proc["role"] == "cli":
                wall = exited - launched
            else:
                wall = proc["end"] - proc["start"]
            own = sum(agg[2] for agg in proc["spans"].values())
            if own > wall + 1e-6:
                self.errors.append(
                    f"{proc['role']} {proc['pid']}: self times {own:.4f}s "
                    f"exceed its wall time {wall:.4f}s (a span counted twice)"
                )
            self.self_s += own
            self.process_s += wall
            for name, (calls, total, own_s) in proc["spans"].items():
                agg = self.spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own_s
            if proc["role"] == "worker":
                self.worker_busy += proc["spans"].get(
                    "explore.evaluate.evaluate_query", [0, 0.0, 0.0])[1]
            for source, into in ((proc["counts"], self.counts),
                                 (proc["context"], self.context)):
                for name, n in source.items():
                    into[name] = into.get(name, 0) + n
        self.unattributed_s = self.process_s - self.self_s

    def span(self, name: str) -> "list":
        return self.spans.get(name, [0, 0.0, 0.0])

    def values(self) -> "dict[str, float]":
        """This command's additive quantities (means are taken over these)."""
        out = {}
        for name, fields in SPAN_METRICS:
            calls, total, own = self.span(name)
            picked = {"calls": calls, "self_s": own, "busy_s": total}
            for f in fields:
                out[f"{name}.{f}"] = picked[f]
        for op in ("lookup", "put"):
            out[f"explore.cache.{op}.calls"] = sum(
                self.span(f"explore.cache.{op}.{kind}")[0]
                for kind in ("dir", "sqlite"))
        out["explore.cache.lookup.hits"] = self.counts.get(
            "explore.cache.lookup.hits", 0)
        drive = self.span("explore.supervise.drive")[1]
        if self.jobs > 1:
            busy = self.worker_busy
        else:
            busy = self.span("explore.evaluate.evaluate_query")[1]
        out["executor.slots_s"] = self.jobs * drive
        out["executor.busy_s"] = busy
        out["explore.executor.idle_s"] = self.jobs * drive - busy
        out["core.optra.leaf_evals"] = self.counts.get(
            "core.optra.leaf_evals", 0)
        for name, counter in RUN_COUNTERS:
            out[name] = self.counts.get(counter, 0)
        for memo in CONTEXT_MEMOS:
            out[f"context.{memo}.hits"] = self.context.get(f"{memo}_hits", 0)
            out[f"context.{memo}.misses"] = self.context.get(
                f"{memo}_misses", 0)
        out["trace.unattributed_s"] = self.unattributed_s
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(profiles: "list[Profile]", imports: "list[dict]",
                      overhead_s: float) -> "dict[str, float]":
    """Per-command means over a run's traced commands, by metric name."""
    sums: "dict[str, float]" = {}
    for profile in profiles:
        for name, value in profile.values().items():
            sums[name] = sums.get(name, 0) + value
    n = len(profiles)
    mean = {name: value / n for name, value in sums.items()}
    for label, _ in IMPORTS:
        key = f"cli.import.{label}_s"
        mean[key] = sum(entry[label] for entry in imports) / len(imports)
    mean["explore.cache.lookup.hit_ratio"] = _ratio(
        sums["explore.cache.lookup.hits"], sums["explore.cache.lookup.calls"])
    mean["explore.executor.worker_busy_frac"] = _ratio(
        sums["executor.busy_s"], sums["executor.slots_s"])
    for memo in CONTEXT_MEMOS:
        hits = sums[f"context.{memo}.hits"]
        mean[f"explore.context.{memo}.hit_ratio"] = _ratio(
            hits, hits + sums[f"context.{memo}.misses"])
    mean["trace.overhead_s"] = overhead_s
    return {name: mean[name] for name in per_layer_names()}
