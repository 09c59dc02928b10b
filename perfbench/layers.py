"""Per-layer attribution for the traced run.

Two sources, both observed from outside the program:

* **Self time** comes from the stdlib profiler.  Each profiled function
  is charged to the layer of the ``repro`` module that defines it.
  Functions outside ``repro`` (builtins, numpy, the stdlib) are charged
  to the layers of their callers, split by the time spent under each
  caller, so a numpy reduction called from a detector counts as
  workloads time.  What no ``repro`` frame called (the benchmark's own
  code) lands in ``other``, so the layer shares add up to the profiled
  total.
* **Counts** come from public state of the testbeds a spec built, read
  after the spec finished, and from thin wrappers installed by
  :class:`Probes` for the duration of one traced child.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of each ``repro`` module prefix; the longest matching prefix
#: wins.  ``platform`` holds the backend glue the issue's layers do not
#: name (registries, billing, pricing, calibration, fault injection);
#: ``harness`` is the rest of the package.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.storage", "storage"),
    ("repro.telemetry", "telemetry"),
    ("repro.core.deployments", "deployments"),
    ("repro.aws.lambda_service", "runtime"),
    ("repro.azure.app", "runtime"),
    ("repro.azure.queues", "runtime"),
    ("repro.gcp.functions", "runtime"),
    ("repro.aws.stepfunctions", "interp"),
    ("repro.aws.asl", "interp"),
    ("repro.aws.states", "interp"),
    ("repro.aws.jsonpath", "interp"),
    ("repro.azure.durable", "interp"),
    ("repro.gcp.workflows", "interp"),
    ("repro.workloads", "workloads"),
    ("repro.platforms", "platform"),
    ("repro.aws", "platform"),
    ("repro.azure", "platform"),
    ("repro.gcp", "platform"),
    ("repro", "harness"),
)
LAYERS = ("sim", "storage", "telemetry", "deployments", "runtime",
          "interp", "workloads", "harness", "platform", "other")
#: the module whose charged self time is reported as ``harness.audit_s``
AUDIT_MODULE = "repro.core.audit"

#: the profiler key of a function: (filename, line, name)
FuncKey = Tuple[str, int, str]


def module_of(filename: str, src_root: str) -> Optional[str]:
    """Dotted ``repro`` module defining ``filename``, or ``None``."""
    root = os.path.join(src_root, "repro")
    if not filename.startswith(root + os.sep) and filename != root:
        return None
    relative = os.path.relpath(filename, src_root)
    dotted = relative[:-3] if relative.endswith(".py") else relative
    dotted = dotted.replace(os.sep, ".")
    return dotted[:-len(".__init__")] if dotted.endswith(".__init__") \
        else dotted


def layer_of(module: str) -> str:
    best = ("", "harness")
    for prefix, layer in LAYER_PREFIXES:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best[0]):
            best = (prefix, layer)
    return best[1]


def attribute_self_time(stats: Dict[FuncKey, tuple],
                        src_root: str) -> Dict[Tuple[str, str], float]:
    """Profiled self time per ``(layer, module)`` bucket.

    ``stats`` is ``pstats.Stats(profile).stats``: for each function
    ``(primitive calls, calls, self time, cumulative time, callers)``,
    where ``callers`` maps each calling function to the same tuple
    restricted to calls from it.  The buckets sum to the total self
    time in ``stats``.
    """
    owners: Dict[FuncKey, Dict[Tuple[str, str], float]] = {}
    other = {("other", ""): 1.0}

    def owner(func: FuncKey, visiting: frozenset) -> Dict[Tuple[str, str],
                                                          float]:
        if func in owners:
            return owners[func]
        module = module_of(func[0], src_root)
        if module is not None:
            result = {(layer_of(module), module): 1.0}
            owners[func] = result
            return result
        entry = stats.get(func)
        edges = [(caller, edge) for caller, edge in
                 (entry[4].items() if entry else ())
                 if caller != func and caller not in visiting]
        # Split by time spent under each caller; by call count when the
        # function took no measurable time at all.
        weights = [edge[2] for _, edge in edges]
        if sum(weights) <= 0:
            weights = [edge[1] for _, edge in edges]
        total = sum(weights)
        if total <= 0:
            result = other
        else:
            result = {}
            inner = visiting | {func}
            for (caller, _), weight in zip(edges, weights):
                for bucket, share in owner(caller, inner).items():
                    result[bucket] = (result.get(bucket, 0.0)
                                      + share * weight / total)
        # A result computed while an ancestor was excluded from the
        # walk depends on the path; only memoize path-free ones.
        if not visiting:
            owners[func] = result
        return result

    buckets: Dict[Tuple[str, str], float] = {}
    for func, entry in stats.items():
        self_time = entry[2]
        if self_time <= 0:
            continue
        for bucket, share in owner(func, frozenset()).items():
            buckets[bucket] = buckets.get(bucket, 0.0) + self_time * share
    return buckets


def call_count(stats: Dict[FuncKey, tuple], src_root: str,
               module_prefix: str, name: str) -> int:
    """Total calls of every function called ``name`` (method or
    function) defined under ``module_prefix``."""
    calls = 0
    for (filename, _, funcname), entry in stats.items():
        if funcname != name:
            continue
        module = module_of(filename, src_root)
        if module is not None and (module == module_prefix or
                                   module.startswith(module_prefix + ".")):
            calls += entry[1]
    return calls


class Spans:
    """In-memory host-time spans around the harness calls the benchmark
    makes.  Spans of one spec share its id; each names its parent."""

    def __init__(self):
        self.records: List[dict] = []
        #: index of the spec being run; new spans carry it
        self.current = -1
        self._stack: List[int] = []

    def span(self, name: str, call: Callable, *args):
        """``call(*args)`` inside a span named ``name``."""
        index = len(self.records)
        record = {"name": name, "spec": self.current,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._stack.append(index)
        try:
            return call(*args)
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(record["end"] - record["start"]
                   for record in self.records if record["name"] == name)

    def chrome_trace(self) -> dict:
        """The spans in the Chrome trace-event format (``chrome://tracing``
        and Perfetto open it)."""
        origin = min((r["start"] for r in self.records), default=0.0)
        return {"traceEvents": [
            {"name": r["name"], "ph": "X", "pid": 1, "tid": 1,
             "ts": (r["start"] - origin) * 1e6,
             "dur": (r["end"] - r["start"]) * 1e6,
             "args": {"spec": r["spec"], "id": index,
                      "parent": r["parent"]}}
            for index, r in enumerate(self.records)]}


class Probes:
    """Thin counting wrappers, installed only in a traced child.

    They observe arguments and public state and return whatever the
    wrapped call returns, so a traced run's outcomes stay bit-identical
    to an untraced run's (the benchmark checks this).
    """

    def __init__(self):
        self.counts: Dict[str, int] = {
            "sim.events": 0, "telemetry.spans": 0, "storage.ops": 0,
            "runtime.invocations": 0, "storage.table.partition_reads": 0,
            "storage.table.rows_scanned": 0,
            "deployments.spans_scanned": 0,
        }
        self._testbeds: list = []
        self._restore: List[Tuple[object, str, object]] = []

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        from repro.core.deployments import ml
        from repro.core.testbed import Testbed
        from repro.storage.table import TableStore

        counts = self.counts
        testbeds = self._testbeds

        init = Testbed.__init__

        def testbed_init(testbed, *args, **kwargs):
            init(testbed, *args, **kwargs)
            testbeds.append(testbed)

        def scanning(method, reads: bool):
            def wrapper(table, partition_key):
                if reads:
                    counts["storage.table.partition_reads"] += 1
                counts["storage.table.rows_scanned"] += len(table)
                return method(table, partition_key)
            return wrapper

        first_delay = ml._first_execution_delay

        def first_execution_delay(telemetry, since):
            counts["deployments.spans_scanned"] += len(telemetry.spans)
            return first_delay(telemetry, since)

        self._patch(Testbed, "__init__", testbed_init)
        self._patch(TableStore, "read_partition",
                    scanning(TableStore.read_partition, True))
        self._patch(TableStore, "delete_partition",
                    scanning(TableStore.delete_partition, False))
        self._patch(ml, "_first_execution_delay", first_execution_delay)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def harvest(self) -> None:
        """Add the counters of every testbed built since the last call
        (the spec that built them has finished) and let them go."""
        counts = self.counts
        for testbed in self._testbeds:
            # The kernel gives every scheduled event the next sequence
            # number; it exposes no public counter.
            counts["sim.events"] += testbed.env._sequence
            for stack in testbed.stacks.values():
                counts["telemetry.spans"] += len(stack.telemetry)
                counts["storage.ops"] += len(stack.meter)
                counts["runtime.invocations"] += \
                    stack.billing.total_requests()
        self._testbeds.clear()
