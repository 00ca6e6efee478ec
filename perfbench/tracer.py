"""Outside-in span tracer for the benchmark's traced pass.

:class:`Tracer` records nested wall-clock spans around wrapped callables and
reduces them to per-name self times and call counts.  :func:`instrument`
patches the public functions of each ``repro`` layer *where they are looked
up*: a module-level function is replaced in every loaded ``repro`` module (and
module-level dict) that holds it, a method on its class and on every subclass
that overrides it.  Nothing in the library itself changes; the returned
callable restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Span name → wrapped public callables (``module:qualname``).
SPANS: Dict[str, Tuple[str, ...]] = {
    "matching.greedy_batch": ("repro.matching.greedy:greedy_assignment_batch",),
    "matching.solve_assignment": ("repro.matching.bipartite:solve_assignment",),
    "core.plan_adjacency": ("repro.core.strategies:Strategy.plan_adjacency",),
    "core.refresh_adjacency": ("repro.core.strategies:Strategy.refresh_adjacency",),
    "hardware.build": ("repro.experiments.sweeps:build_hardware",),
    "hardware.inject_post": (
        "repro.pipeline.mapping_engine:HardwareEnvironment.inject_post_deployment",
    ),
    "hardware.bist_scan": ("repro.hardware.bist:BISTController.scan",),
    "graph.load_dataset": ("repro.graph.datasets:load_dataset",),
    "graph.partition": ("repro.graph.partition:partition_graph",),
    "graph.decompose": ("repro.pipeline.mapping_engine:decompose_adjacency",),
    "pipeline.trainer_init": ("repro.pipeline.trainer:FaultyTrainer.__init__",),
    "pipeline.train": ("repro.pipeline.trainer:FaultyTrainer.train",),
    "pipeline.apply_mapping": (
        "repro.pipeline.mapping_engine:AdjacencyCrossbarMapper.apply_mapping",
    ),
    "pipeline.effective_weights": (
        "repro.pipeline.mapping_engine:WeightCrossbarMapper.effective_weights",
    ),
    "pipeline.apply_fault_delta": ("repro.pipeline.trainer:FaultyTrainer.apply_fault_delta",),
    # The top-level model call only: the layers are GNNModels too.
    "nn.forward": (
        "repro.nn.gcn:GCN.__call__",
        "repro.nn.gat:GAT.__call__",
        "repro.nn.sage:GraphSAGE.__call__",
    ),
    "tensor.backward": ("repro.tensor.tensor:Tensor.backward",),
    "tensor.optim_step": ("repro.tensor.optim:Optimizer.step",),
    "tensor.csr_matmat": ("repro.tensor.kernels:csr_matmat",),
    "experiments.execute_spec": ("repro.experiments.sweeps:execute_spec",),
}


def _stacked_problems(cost, *args, **kwargs) -> int:
    """Number of matching problems in a batched ``(P, n, n)`` cost stack."""
    shape = getattr(cost, "shape", ())
    return int(shape[0]) if len(shape) == 3 else 1


#: Span name → function of the call's arguments whose sum is reported as
#: ``<name>_problems``.
MEASURES: Dict[str, Callable[..., int]] = {"matching.greedy_batch": _stacked_problems}


class Span(NamedTuple):
    """One finished call: ``self_s`` is ``duration`` minus its children's."""

    name: str
    start: float
    duration: float
    self_s: float
    depth: int
    span_id: int
    parent_id: Optional[int]


class Tracer:
    """Records nested spans in memory; a span's self time excludes its children's."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Finished spans, in the order they ended.
        self.events: List[Span] = []
        self.measured: Dict[str, int] = defaultdict(int)
        #: Open spans as ``[children seconds, span id]``, innermost last.
        self._stack: List[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        clock, stack, events, measured = self.clock, self._stack, self.events, self.measured

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if measure is not None:
                measured[name] += measure(*args, **kwargs)
            parent_id = stack[-1][1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                events.append(
                    Span(name, start, duration, duration - frame[0], len(stack), frame[1], parent_id)
                )

        return traced

    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name → ``(calls, self seconds)``."""
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for span in self.events:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
        return {name: (calls[name], self_s[name]) for name in calls}

    def root_seconds(self) -> float:
        """Wall time covered by root spans (depth 0)."""
        return sum(span.duration for span in self.events if span.parent_id is None)

    def chrome_trace(self) -> Dict:
        """The spans as Chrome trace-event JSON (viewable in Perfetto)."""
        origin = min((span.start for span in self.events), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": span.span_id, "parent": span.parent_id, "self_us": span.self_s * 1e6},
                }
                for span in sorted(self.events, key=lambda span: span.span_id)
            ],
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


# --------------------------------------------------------------------------- #
# Patching the library
# --------------------------------------------------------------------------- #
def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _subclasses(cls) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found.append(current)
            pending.extend(current.__subclasses__())
    return found


_MISSING = object()


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target of :data:`SPANS` with ``tracer``; return the undo callable."""
    patches: List[Tuple[object, str, object]] = []

    def patch(container, key, name, original, restore):
        wrapped = tracer.wrap(name, original, MEASURES.get(name))
        if isinstance(container, dict):
            container[key] = wrapped
        else:
            setattr(container, key, wrapped)
        patches.append((container, key, restore))

    for name, targets in SPANS.items():
        for target in targets:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                for cls in _subclasses(owner):
                    # Inherited methods (e.g. Module.__call__) are set on the
                    # named class itself; overrides on each subclass.
                    if attr in vars(cls) or cls is owner:
                        restore = vars(cls).get(attr, _MISSING)
                        patch(cls, attr, name, getattr(cls, attr), restore)
                continue
            original = getattr(owner, attr)
            for module_name, module in list(sys.modules.items()):
                if module is None or module_name.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        patch(module, key, name, original, original)
                    elif isinstance(value, dict) and key != "__builtins__":
                        for entry, item in list(value.items()):
                            if item is original:
                                patch(value, entry, name, original, original)

    def undo() -> None:
        for container, key, original in reversed(patches):
            if isinstance(container, dict):
                container[key] = original
            elif original is _MISSING:
                delattr(container, key)
            else:
                setattr(container, key, original)

    return undo
