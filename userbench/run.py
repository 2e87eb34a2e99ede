"""End-to-end benchmark of ``python -m repro explore`` as users run it.

    python3 userbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client drives a closed loop: each
command is a fresh ``python -m repro explore ...`` process, started only
after the previous one exited, until ``--seconds`` have passed.  Every
command's output is checked against goldens (``gates.py``).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics (``spans.py``) with ``--trace 1``.  A record of the
run, with the host facts needed to explain noise, is written under
``.userbench/records/``.

``--seed`` only permutes the order of axis values on each command line
(on ``optra_gap`` only the kernel order); the point set and the goldens
are the same for every seed.
``--write-goldens`` regenerates ``golden/`` from the current source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import spans  # noqa: E402

KERNELS = ("bic", "decfir", "fir", "imi", "mat", "pat")
BACKENDS = ("dir", "sqlite")
HEURISTICS = ("CPA-RA", "FR-RA", "KS-RA", "NO-SR", "PR-RA")
AXES = ("kernels", "allocators", "budgets", "latencies")
#: A command that has not exited after this long is killed and fails.
COMMAND_TIMEOUT_S = 60.0

#: Spans every traced command of a workload must record: a layer the
#: workload exercises that records nothing is an error, never a 0.
COMPUTE_SPANS = (
    "explore.supervise.drive", "explore.evaluate.evaluate_query",
    "kernels.get_kernel", "analysis.build_groups", "dfg.build_dfg",
    "dfg.critical_graph", "core.heuristics.allocate",
    "core.dp.solve_knapsack", "scalar.coverage.result",
    "sim.count_cycles", "sim.classify_patterns", "sim.schedule_iteration",
    "sim.residency.trace", "synth.build_design",
    "synth.count_with_best_anchors",
)


@dataclass(frozen=True)
class Workload:
    name: str
    allocators: "tuple[str, ...]"
    budgets: "tuple[int, ...]"
    latencies: "tuple[int | None, ...]"
    jobs: int
    golden: str
    #: None: no cache; "fresh": a new cache per command; "warm": a cache
    #: filled before timing starts.  Cached commands alternate between
    #: the ``dir:`` and ``sqlite:`` backends; with tracing on they do so
    #: in pairs, each traced command after a plain one on its backend.
    cache: "str | None"
    gap_golden: "str | None"
    required_spans: "tuple[str, ...]"
    #: The axes whose order the seed permutes; the others keep theirs.
    shuffled: "tuple[str, ...]" = AXES

    def axes(self, rng: random.Random) -> dict:
        """One command's axis values, ``shuffled`` ones in a seeded order."""
        axes = {"kernels": list(KERNELS), "allocators": list(self.allocators),
                "budgets": list(self.budgets),
                "latencies": list(self.latencies)}
        for name in self.shuffled:
            rng.shuffle(axes[name])
        return axes

    def argv(self, axes: dict, cache: "str | None", gap: "Path | None"):
        argv = [sys.executable, "-m", "repro", "explore",
                "--kernels", *axes["kernels"],
                "--allocators", *axes["allocators"],
                "--budgets", *map(str, axes["budgets"])]
        if axes["latencies"] != [None]:
            argv += ["--ram-latencies", *map(str, axes["latencies"])]
        argv += ["--jobs", str(self.jobs), "--format", "csv"]
        if cache is not None:
            argv += ["--cache-dir", cache]
        if gap is not None:
            argv += ["--gap-report", str(gap)]
        return argv


HEURISTIC_GRID = dict(
    allocators=HEURISTICS, budgets=tuple(range(4, 65, 2)), latencies=(2, 4),
    jobs=1, golden="heuristic_sweep.csv", gap_golden=None,
)
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="optra_gap", allocators=HEURISTICS + ("OPT-RA",),
            budgets=(4, 8, 12, 16, 24, 32, 48, 64), latencies=(None,),
            jobs=2, golden="optra_gap.csv", cache=None,
            gap_golden="optra_gap.gap.csv",
            # The allocator and budget orders decide which OPT-RA points
            # share a lease, and so the makespan; the kernel order does not.
            shuffled=("kernels",),
            required_spans=COMPUTE_SPANS + (
                "explore.executor.run", "explore.results.to_csv",
                "core.optra.allocate", "scalar.coverage.ram_access_ladder"),
        ),
        Workload(
            name="heuristic_sweep", cache="fresh", **HEURISTIC_GRID,
            required_spans=COMPUTE_SPANS + (
                "explore.executor.run", "explore.results.to_csv",
                "explore.versions.query_vector"),
        ),
        Workload(
            name="warm_resume", cache="warm", **HEURISTIC_GRID,
            required_spans=(
                "explore.executor.run", "explore.results.to_csv",
                "explore.versions.module_hash"),
        ),
    )
}


@dataclass
class Command:
    """One finished command: its timings, resources and verdict."""

    wall_s: float
    setup_s: float
    run_s: float
    rss_mb: float
    #: User + system CPU seconds of the command's processes.
    cpu_s: float
    traced: bool
    verdict: gates.Verdict
    profile: "spans.Profile | None" = None
    imports: "dict | None" = None
    backend: "str | None" = None

    def record(self) -> dict:
        return {
            "wall_s": self.wall_s, "setup_s": self.setup_s,
            "run_s": self.run_s, "rss_mb": self.rss_mb, "cpu_s": self.cpu_s,
            "traced": self.traced, "backend": self.backend,
            "attempted": self.verdict.attempted,
            "failed": self.verdict.n_failed, "reasons": self.verdict.reasons,
            "trace_errors": self.profile.errors if self.profile else [],
        }


class Bench:
    """Runs one workload's commands inside ``root/.userbench``."""

    def __init__(self, root: Path, workload: Workload, seed: int,
                 work: "Path | None" = None):
        self.root = root
        self.workload = workload
        self.rng = random.Random(seed)
        self.work = work or root / ".userbench" / "work" / f"{os.getpid()}"
        self.golden = gates.read_golden(workload.golden)
        self.gap_golden = (
            gates.read_golden(workload.gap_golden, gates.gap_key)
            if workload.gap_golden else None)
        self.counter = 0
        self.warm: "dict[str, str]" = {}

    def env(self, spans_dir: Path, traced: bool) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), str(HERE / "hook")])
        env["USERBENCH_OUT"] = str(spans_dir)
        env["USERBENCH_TRACE"] = "1" if traced else "0"
        if traced:
            env["PYTHONPROFILEIMPORTTIME"] = "1"
        else:
            env.pop("PYTHONPROFILEIMPORTTIME", None)
        return env

    def cache_uri(self, backend: str) -> str:
        path = self.work / f"cache-{self.counter}"
        return f"sqlite:{path}.db" if backend == "sqlite" else f"dir:{path}"

    def run(self, traced: bool = False, cache: "str | None" = None,
            backend: "str | None" = None, all_hits: bool = False) -> Command:
        """Launch one command, wait for it and check its output.

        ``all_hits``: the command resumes from a filled cache, so every
        point must be a cache hit.
        """
        workload = self.workload
        self.counter += 1
        step = self.work / f"cmd-{self.counter}"
        spans_dir = step / "spans"
        spans_dir.mkdir(parents=True)
        axes = workload.axes(self.rng)
        gap = step / "gap.csv" if workload.gap_golden else None
        argv = workload.argv(axes, cache, gap)
        with open(step / "out", "wb") as out, open(step / "err", "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, cwd=self.root,
                env=self.env(spans_dir, traced), start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
        returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)

        order = gates.expand_order(axes["kernels"], axes["allocators"],
                                   axes["budgets"], axes["latencies"])
        verdict = gates.Verdict(attempted=len(order))
        stdout = (step / "out").read_text()
        stderr = (step / "err").read_text()
        processes = spans.read_processes(spans_dir)
        cli = [p for p in processes if p["role"] == "cli"]
        runs = cli[0]["runs"] if cli else []
        if returncode != 0 or not runs:
            verdict.fail(order, f"exit status {returncode}: "
                         + stderr.strip()[-300:])
        else:
            self.check(verdict, order, stdout, stderr, gap, all_hits)
        command = Command(
            wall_s=exited - launched,
            setup_s=runs[0][0] - launched if runs else exited - launched,
            run_s=sum(end - start for start, end, _ in runs),
            rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            traced=traced, verdict=verdict, backend=backend,
        )
        if traced:
            command.profile = spans.Profile(
                processes, launched, exited, workload.jobs)
            self.check_trace(command.profile)
            command.imports = spans.import_seconds(stderr)
        shutil.rmtree(step)
        return command

    def check(self, verdict, order, stdout, stderr, gap, all_hits) -> None:
        rows = gates.check_rows(verdict, stdout, self.golden, order)
        if self.gap_golden is not None:
            gates.check_gap(verdict, gap.read_text() if gap.exists() else "",
                            self.gap_golden)
            gates.check_optimal(verdict, rows, self.golden.header)
        stats = gates.parse_stats(stderr)
        if stats is None:
            verdict.fail(order, "no stats line on stderr")
        elif all_hits and stats[1] < stats[0]:
            verdict.unpinned += stats[0] - stats[1]
            verdict.reasons.append(f"{stats[0] - stats[1]} cache misses")

    def check_trace(self, profile: spans.Profile) -> None:
        missing = [name for name in self.workload.required_spans
                   if not profile.span(name)[0]]
        if missing:
            profile.errors.append("no spans recorded for " + ", ".join(missing))
        if self.workload.jobs > 1 and not profile.counts.get("run.pool_breaks"):
            if profile.workers != self.workload.jobs:
                profile.errors.append(
                    f"{profile.workers} worker span files, expected "
                    f"{self.workload.jobs}")

    def command(self, index: int, trace: bool) -> Command:
        """The ``index``-th measured command of a plain or traced run."""
        traced = trace and index % 2 == 1
        cache = self.workload.cache
        if cache is None:
            return self.run(traced)
        backend = BACKENDS[index // (2 if trace else 1) % 2]
        if cache == "fresh":
            uri = self.cache_uri(backend)
            command = self.run(traced, uri, backend)
            _remove_cache(uri)
            return command
        return self.run(traced, self.warm[backend], backend, all_hits=True)

    def warm_up(self) -> "list[Command]":
        """Untimed set-up: compile bytecode, fill any warm caches."""
        self.work.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(self.root / "src" / "repro")], check=True)
        if self.workload.cache != "warm":
            return []
        commands = []
        for backend in BACKENDS:
            self.warm[backend] = self.cache_uri(backend)
            commands.append(self.run(cache=self.warm[backend], backend=backend))
        return commands


def _kill_group(pgid: int) -> None:
    """Stop anything the command left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _remove_cache(uri: str) -> None:
    path = Path(uri.split(":", 1)[1])
    if path.is_dir():
        shutil.rmtree(path)
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def host_cpu() -> "dict[str, float]":
    """Seconds of CPU the whole machine has spent, from ``/proc/stat``.

    Compared with the commands' own CPU seconds, the difference is what
    other processes on the machine took while the run was measured.
    """
    try:
        with open("/proc/stat") as handle:
            ticks = [int(v) for v in handle.readline().split()[1:9]]
    except OSError:
        return {}
    hz = os.sysconf("SC_CLK_TCK")
    user, nice, system, idle, iowait, irq, softirq, steal = ticks
    return {"busy_s": (user + nice + system + irq + softirq) / hz,
            "steal_s": steal / hz}


def host_probe() -> float:
    """Median ms of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(7):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> "str | None":
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def median_per_backend(commands: "list[Command]", attr: str) -> float:
    """The mean over cache backends of each backend's median.

    Commands on different backends differ in speed; averaging the
    per-backend medians keeps the figure off the boundary between them.
    """
    groups: "dict[str | None, list[float]]" = {}
    for c in commands:
        groups.setdefault(c.backend, []).append(getattr(c, attr))
    return statistics.fmean(statistics.median(v) for v in groups.values())


def end_to_end_metrics(commands: "list[Command]") -> dict:
    delivered = sum(c.verdict.attempted - c.verdict.n_failed
                    for c in commands)
    run_s = sum(c.run_s for c in commands)
    return {
        "points_per_s": (delivered / run_s if run_s else 0.0, "1/s"),
        "setup_s": (median_per_backend(commands, "setup_s"), "s"),
        "command_s": (median_per_backend(commands, "wall_s"), "s"),
        "peak_rss_mb": (median_per_backend(commands, "rss_mb"), "MB"),
    }


def per_layer_metrics(commands: "list[Command]") -> dict:
    traced = [c for c in commands if c.traced]
    # Each traced command is paired with the plain one launched before it.
    overhead = statistics.median(
        b.wall_s - a.wall_s for a, b in zip(commands[::2], commands[1::2]))
    values = spans.per_layer_metrics(
        [c.profile for c in traced], [c.imports for c in traced], overhead)
    units = spans.per_layer_names()
    return {name: (value, units[name]) for name, value in values.items()}


def measure(root: Path, workload: Workload, seed: int, seconds: float,
            trace: bool) -> "tuple[dict, dict]":
    """Run the closed loop; returns (result line, run record)."""
    bench = Bench(root, workload, seed)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "source_digest": source_digest(root),
        "git_commit": git_commit(root), "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_before": os.getloadavg(),
        "probe_ms_before": host_probe(),
    }
    try:
        warm = bench.warm_up()
        commands: "list[Command]" = []
        cpu_before = host_cpu()
        started = time.monotonic()
        # With --trace 1 commands alternate plain and traced, so tracing
        # overhead is measured within the run; cached workloads alternate
        # backends.  Stop only after a whole cycle: the same mix every run.
        cycle = (2 if trace else 1) * (2 if workload.cache else 1)
        while time.monotonic() - started < seconds or len(commands) % cycle:
            commands.append(bench.command(len(commands), trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    cpu_after = host_cpu()
    record.update({
        "host_cpu_s": {k: cpu_after[k] - cpu_before[k] for k in cpu_after},
        "own_cpu_s": sum(c.cpu_s for c in commands),
        "probe_ms_after": host_probe(),
        "loadavg_after": os.getloadavg(),
        "warm_up": [c.record() for c in warm],
        "commands": [c.record() for c in commands],
    })
    checked = warm + commands
    errors = [e for c in commands if c.profile for e in c.profile.errors]
    failed = sum(c.verdict.n_failed for c in checked)
    metrics = per_layer_metrics(commands) if trace else end_to_end_metrics(
        commands)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": sum(c.verdict.attempted for c in checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    record["trace_errors"] = errors
    return result, record


def write_goldens(root: Path) -> None:
    """Regenerate ``golden/`` from the source tree under ``root``."""
    gates.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in (WORKLOADS["optra_gap"], WORKLOADS["heuristic_sweep"]):
        work = root / ".userbench" / "golden-tmp"
        work.mkdir(parents=True, exist_ok=True)
        axes = {"kernels": list(KERNELS),
                "allocators": sorted(workload.allocators),
                "budgets": list(workload.budgets),
                "latencies": list(workload.latencies)}
        gap = work / "gap.csv" if workload.gap_golden else None
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(workload.argv(axes, None, gap), cwd=root,
                              env=env, capture_output=True, text=True,
                              check=True)
        (gates.GOLDEN_DIR / workload.golden).write_text(done.stdout)
        if gap is not None:
            shutil.copyfile(gap, gates.GOLDEN_DIR / workload.gap_golden)
        shutil.rmtree(work)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        print(f"userbench: no repro source under {root / 'src'}; run from "
              f"the repository root", file=sys.stderr)
        return 2
    if args.write_goldens:
        write_goldens(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, record = measure(root, WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    records = root / ".userbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.time_ns()}.json")
    path.write_text(json.dumps(record, indent=1))
    print(f"userbench: run record -> {path.relative_to(root)}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
