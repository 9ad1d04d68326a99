"""In-memory span recorder for the traced benchmark run.

The recorder wraps public names of ``cbdsim`` where their callers look
them up, so per-layer time can be read without changing the package:
``engine.simulate`` calls ``engine.flatten`` and ``engine.dependency_sort``,
not the ``graph`` attributes, so both lookup sites are wrapped under the
same layer name.  A name that no longer exists is reported as absent
instead of failing the run.

Spans live in flat arrays until the run ends.  Each span has a name, a
start, an end, the span that was open when it began (its parent) and the
operation it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

ROOT_SPAN = "bench.operation"

# (layer name, module, class or None, attribute)
TARGETS = (
    ("dsl.parse", "cbdsim.dsl", None, "parse"),
    ("dsl.validate", "cbdsim.dsl", None, "validate"),
    ("graph.flatten", "cbdsim.graph", None, "flatten"),
    ("graph.flatten", "cbdsim.engine", None, "flatten"),
    ("graph.dependency_sort", "cbdsim.graph", None, "dependency_sort"),
    ("graph.dependency_sort", "cbdsim.engine", None, "dependency_sort"),
    ("engine.simulate", "cbdsim.engine", None, "simulate"),
    ("engine.compute_step", "cbdsim.engine", "Engine", "compute_step"),
    ("engine.flipped_conditions", "cbdsim.engine", "Engine",
     "flipped_conditions"),
    ("engine.locate_crossing", "cbdsim.engine", "Engine", "locate_crossing"),
    ("engine.commit", "cbdsim.engine", "Engine", "commit"),
    ("cli.write_trace", "cbdsim.cli", None, "write_trace"),
    ("cli.write_impulses", "cbdsim.cli", None, "write_impulses"),
    ("cli.read_trace", "cbdsim.cli", None, "read_trace"),
    ("analysis.compare_traces", "cbdsim.analysis", None, "compare_traces"),
)

LAYERS = tuple(dict.fromkeys(name for name, *_ in TARGETS))


class Tracer:
    """Records spans around the wrapped names while installed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = [ROOT_SPAN, *LAYERS]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        present: set[str] = set()
        for layer, module_name, class_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            present.add(layer)
            self._patches.append(
                (owner, attr, original, self._wrap(layer, original)))
        self.absent = [layer for layer in LAYERS if layer not in present]

    def _begin(self, name_id: int) -> int:
        span = len(self.name_of)
        self.name_of.append(name_id)
        self.parent.append(self._open[-1])
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(span)
        self.start[span] = self.clock()
        return span

    def _finish(self, span: int) -> None:
        self.end[span] = self.clock()
        self._open.pop()

    def _wrap(self, layer: str, original):
        name_id = self.name_ids[layer]
        begin, finish = self._begin, self._finish

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = begin(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                finish(span)

        return wrapper

    def operation(self, op_id: int, run):
        """Run ``run()`` as operation ``op_id`` with every wrapper installed."""
        self._op = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            root = self._begin(self.name_ids[ROOT_SPAN])
            try:
                return run()
            finally:
                self._finish(root)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._op = -1

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[span] - self.start[span]
        return own

    def write_csv(self, path) -> None:
        base = self.start[0] if self.start else 0.0
        with open(path, "w") as out:
            out.write("span,op,parent,name,start_s,end_s\n")
            for span, name_id in enumerate(self.name_of):
                out.write(
                    f"{span},{self.op[span]},{self.parent[span]},"
                    f"{self.names[name_id]},{self.start[span] - base:.9f},"
                    f"{self.end[span] - base:.9f}\n")
