"""In-process probes for the ``userbench`` benchmark.

Python's ``site`` module imports this file at start-up when its
directory is on ``PYTHONPATH``; the benchmark puts it there for the
``python -m repro explore`` commands it launches, so each command is
still started the way a user starts it.  Nothing happens unless
``USERBENCH_OUT`` names a directory.

* Always: the entry and exit times of every ``Executor.run`` call and
  the number of records it returned.  The benchmark derives set-up time
  (launch to the first entry) and sweep throughput from them.
* With ``USERBENCH_TRACE=1`` as well: spans around the public functions
  of every layer, listed in ``SPANS``.  A span records calls, total time
  and self time (total minus the time of spans nested inside it), so
  OPT-RA's inner cycle counting is charged to ``sim``, not to ``core``.
  Forked pool workers start with empty aggregates and write their own
  file when they exit.

Each process writes ``<USERBENCH_OUT>/<pid>.json`` once: the CLI process
at interpreter exit, a worker from its multiprocessing finalizer.  The
probes wrap functions after their module is imported (a meta-path
finder), so the program's source is never edited.  Times come from
``time.monotonic``, the clock the benchmark reads for launch and exit.
"""

import os
import sys
import time

_OUT = os.environ.get("USERBENCH_OUT")
_TRACE = os.environ.get("USERBENCH_TRACE") == "1"

#: Span name -> (module, attribute path).  Names ending in ``*`` are
#: completed per call by ``_NAMERS``.
SPANS = (
    ("explore.executor.run", "repro.explore.executor", "Executor.run"),
    ("explore.supervise.drive", "repro.explore.supervise",
     "SupervisedDriver.drive"),
    ("explore.evaluate.evaluate_query", "repro.explore.evaluate",
     "evaluate_query"),
    ("explore.cache.lookup.*", "repro.explore.cache", "ResultCache.lookup"),
    ("explore.cache.put.*", "repro.explore.cache", "ResultCache.put"),
    ("explore.versions.query_vector", "repro.explore.versions",
     "query_vector"),
    ("explore.versions.module_hash", "repro.explore.versions",
     "VersionRegistry.module_hash"),
    ("explore.results.to_csv", "repro.explore.results", "ResultSet.to_csv"),
    ("kernels.get_kernel", "repro.kernels.registry", "get_kernel"),
    ("kernels.get_kernel", "repro.explore.query", "DesignQuery.build_kernel"),
    ("analysis.build_groups", "repro.analysis.groups", "build_groups"),
    ("dfg.build_dfg", "repro.dfg.build", "build_dfg"),
    ("dfg.critical_graph", "repro.dfg.critical", "critical_graph"),
    ("core.*.allocate", "repro.core.base", "Allocator.allocate"),
    ("core.dp.solve_knapsack", "repro.core.dp", "solve_knapsack"),
    ("scalar.coverage.result", "repro.scalar.coverage",
     "GroupCoverage.result"),
    ("scalar.coverage.ram_access_ladder", "repro.scalar.coverage",
     "GroupCoverage.ram_access_ladder"),
    ("sim.count_cycles", "repro.sim.cycles", "count_cycles"),
    ("sim.classify_patterns", "repro.sim.cycles", "classify_patterns"),
    ("sim.schedule_iteration", "repro.sim.scheduler", "schedule_iteration"),
    ("sim.residency.trace", "repro.sim.residency", "opt_trace"),
    ("sim.residency.trace", "repro.sim.residency", "OptTraceLadder.trace"),
    ("synth.build_design", "repro.synth.estimate", "build_design"),
    ("synth.count_with_best_anchors", "repro.synth.estimate",
     "count_with_best_anchors"),
)

OPTRA_SPAN = "core.optra.allocate"
#: Executor statistics copied into the record after each run.
RUN_STATS = ("leases", "steals", "affinity_hits", "retries", "pool_breaks")


def _backend_kind(cache):
    return "sqlite" if type(cache.backend).__name__ == "SqliteBackend" else "dir"


_NAMERS = {
    "explore.cache.lookup.*": lambda args: (
        "explore.cache.lookup." + _backend_kind(args[0])),
    "explore.cache.put.*": lambda args: (
        "explore.cache.put." + _backend_kind(args[0])),
    "core.*.allocate": lambda args: (
        OPTRA_SPAN if args[0].name == "OPT-RA" else "core.heuristics.allocate"),
}


class Recorder:
    """One process's aggregates: spans, counters and ``Executor.run`` calls."""

    def __init__(self, role):
        self.role = role
        self.start = time.monotonic()
        self.stack = []  # open spans: [name, start, child time, first segment]
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self.runs = []  # [entered, exited, records]
        self.context_base = {}

    def enter(self, name, first=True):
        self.stack.append([name, time.monotonic(), 0.0, first])

    def leave(self):
        name, started, child, first = self.stack.pop()
        spent = time.monotonic() - started
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += first
        agg[1] += spent
        agg[2] += spent - child
        if self.stack:
            self.stack[-1][2] += spent

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def in_span(self, name):
        return any(frame[0] == name for frame in self.stack)

    def write(self):
        import json

        doc = {
            "pid": os.getpid(),
            "role": self.role,
            "start": self.start,
            "end": time.monotonic(),
            "runs": self.runs,
            "spans": self.spans,
            "counts": self.counts,
            "context": _context_stats(self.context_base) if _TRACE else {},
        }
        path = os.path.join(_OUT, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(doc, handle)
        os.replace(path + ".tmp", path)


def _context_stats(base):
    """This process's evaluation-context memo counters since it started."""
    module = sys.modules.get("repro.explore.context")
    if module is None:
        return {}
    stats = module.process_context().stats.as_dict()
    return {key: value - base.get(key, 0) for key, value in stats.items()}


_recorder = Recorder("cli")


def _span_wrapper(fn, name):
    import functools
    import inspect

    namer = _NAMERS.get(name)
    if inspect.isgeneratorfunction(fn):
        # Time only the stretches where the generator runs, so work its
        # consumer does between items is not charged to it.
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            try:
                while True:
                    _recorder.enter(name, first)
                    first = False
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        _recorder.leave()
                    yield item
            finally:
                inner.close()

        return generator

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = namer(args) if namer is not None else name
        if label == "sim.count_cycles" and _recorder.in_span(OPTRA_SPAN):
            _recorder.count("core.optra.leaf_evals")
        _recorder.enter(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            _recorder.leave()
        if name == "explore.cache.lookup.*" and result[0] is not None:
            _recorder.count("explore.cache.lookup.hits")
        return result

    return wrapper


def _run_wrapper(fn):
    import functools

    traced = _span_wrapper(fn, "explore.executor.run") if _TRACE else fn

    @functools.wraps(fn)
    def run(*args, **kwargs):
        entered = time.monotonic()
        if not _recorder.runs:
            # Marks the end of start-up in the import-time log on stderr.
            os.write(2, b"userbench: executor-run\n")
        result = traced(*args, **kwargs)
        _recorder.runs.append([entered, time.monotonic(), len(result)])
        if _TRACE:
            for key in RUN_STATS:
                _recorder.count("run." + key, getattr(result.stats, key))
        return result

    return run


def _patch(module):
    for name, module_name, path in SPANS:
        if module_name != module.__name__:
            continue
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        if name == "explore.executor.run":
            wrapped = _run_wrapper(fn)
        elif _TRACE:
            wrapped = _span_wrapper(fn, name)
        else:
            continue
        setattr(owner, attr, wrapped)
    if module.__name__ == "repro.explore.supervise" and _TRACE:
        import multiprocessing.util

        multiprocessing.util.register_after_fork(_recorder, _start_worker)


def _start_worker(_):
    """Runs in each forked pool worker: fresh aggregates, written at exit."""
    global _recorder
    import multiprocessing.util

    _recorder = Recorder("worker")
    _recorder.context_base = _context_stats({})
    multiprocessing.util.Finalize(None, _recorder.write, exitpriority=100)


class _PatchingFinder:
    """Meta-path finder that patches target modules right after they load."""

    def __init__(self, modules):
        self.modules = modules

    def find_spec(self, name, path=None, target=None):
        if name not in self.modules:
            return None
        import importlib.machinery

        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            _patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _install():
    import atexit

    modules = {module for _, module, _ in SPANS}
    if not _TRACE:
        modules = {"repro.explore.executor"}
    sys.meta_path.insert(0, _PatchingFinder(modules))
    atexit.register(lambda: _recorder.write())


if _OUT:
    _install()
