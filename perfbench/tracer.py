"""Outside-in host-time tracer for the benchmark's traced run.

Nothing under ``src/`` knows about this module. :meth:`Tracer.install`
wraps the public calls of each layer in place (class attributes and
module-level functions), and :meth:`Tracer.uninstall` puts every
original object back:

* ``Environment.process`` is patched so each process generator runs
  behind a :class:`TracedGenerator` keyed by the module and qualified
  name of the function that made it (``satin.worker:Worker._run``).
  The proxy keeps the generator's ``__name__``, so process names, and
  therefore the simulation, are unchanged.
* Every public method of the classes in :data:`LAYER_CLASSES` and every
  function in :data:`LAYER_FUNCTIONS` gets a span. Generator functions
  such as ``Network.transfer`` return a :class:`TracedGenerator`, so
  their span covers each resumption, including under ``yield from``.

Spans are aggregated in memory by ``(key, parent key)``: count, total
seconds and seconds covered by child spans. A span's self time is its
duration minus its children's; :meth:`Tracer.self_seconds` sums that per
layer. Time inside the traced window that no span covers is the
``other`` layer, so the layers' self times add up to the window.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Iterable, Optional

#: (layer, module, class): every public method plus ``__init__`` is
#: wrapped. The engine is the exception: only ``run`` and the constructor,
#: because ``timeout``/``sleep`` called from a process are that process's
#: own inline cost.
LAYER_CLASSES: tuple[tuple[str, str, str], ...] = (
    ("engine", "repro.simgrid.engine", "Environment"),
    ("queues", "repro.simgrid.queues", "Store"),
    ("queues", "repro.simgrid.queues", "PriorityStore"),
    ("queues", "repro.simgrid.queues", "Resource"),
    ("network", "repro.simgrid.network", "Network"),
    ("events", "repro.simgrid.events", "EventInjector"),
    ("satin.runtime", "repro.satin.runtime", "SatinRuntime"),
    ("registry", "repro.registry.registry", "Registry"),
    ("zorilla", "repro.zorilla.scheduler", "ResourcePool"),
    ("coordinator", "repro.core.coordinator", "AdaptationCoordinator"),
    ("apps", "repro.apps.barneshut", "BarnesHutSimulation"),
    ("gridstate", "repro.core.gridstate", "GridState"),
    ("streaming", "repro.core.streaming", "StreamingDecisionState"),
    ("streaming", "repro.core.streaming", "TopKBadness"),
    ("service", "repro.serving.service", "SimulationService"),
    ("pool", "repro.serving.pool", "WarmPool"),
    ("cache", "repro.serving.cache", "ResultCache"),
)

ENGINE_METHODS = frozenset({"__init__", "run"})

#: (layer, module, function): patched wherever a ``repro`` module binds it.
LAYER_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("zorilla", "repro.zorilla.probing", "probe_and_allocate"),
    ("largegrid", "repro.experiments.largegrid", "run_large_grid"),
    ("cache", "repro.serving.cache", "cache_key"),
)

#: process generators: (module, qualname) exact matches first, then the
#: longest matching module prefix.
PROCESS_FUNCTIONS = {
    ("repro.satin.worker", "Worker._run"): "satin.worker",
    ("repro.satin.worker", "Worker._remote_steal"): "satin.remote_steal",
}
PROCESS_MODULES = (
    ("repro.satin.worker", "satin.worker"),
    ("repro.satin", "satin.runtime"),
    ("repro.simgrid.network", "network"),
    ("repro.simgrid.events", "events"),
    ("repro.registry", "registry"),
    ("repro.zorilla", "zorilla"),
    ("repro.core", "coordinator"),
    ("repro.apps", "apps"),
)

#: every layer a span can land in, in report order (``other`` = no span).
LAYERS = (
    "engine", "queues", "network", "events", "satin.worker",
    "satin.remote_steal", "satin.runtime", "registry", "zorilla",
    "coordinator", "apps", "gridstate", "streaming", "largegrid",
    "service", "pool", "cache", "other",
)

#: classes whose instances are kept until :meth:`Tracer.harvest` reads
#: their public counters.
HARVESTED = frozenset({
    "Environment", "SatinRuntime", "AdaptationCoordinator",
    "StreamingDecisionState", "WarmPool", "ResultCache",
})

#: attribute every wrapper carries; :func:`leftover_wrappers` looks for it.
MARKER = "__perfbench_span__"


class TracedGenerator:
    """Generator proxy: each ``send``/``throw``/``close`` is one span."""

    def __init__(self, tracer: "Tracer", key: str, gen: Any) -> None:
        self._tracer = tracer
        self._key = key
        self._gen = gen
        self.__name__ = getattr(gen, "__name__", key)
        self.__qualname__ = getattr(gen, "__qualname__", self.__name__)

    def __iter__(self) -> "TracedGenerator":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        return self._tracer.timed(self._key, self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._tracer.timed(self._key, self._gen.throw, *args)

    def close(self) -> None:
        return self._tracer.timed(self._key, self._gen.close)


class Tracer:
    """Wraps layer calls from outside and aggregates the spans."""

    def __init__(self) -> None:
        #: open spans, innermost last: [key, seconds covered by children]
        self._stack: list[list] = []
        #: (key, parent key) -> [count, total seconds, child seconds]
        self.spans: dict[tuple[str, Optional[str]], list] = {}
        #: key -> calls made (a generator function's call, not its resumes)
        self.calls: dict[str, int] = {}
        #: counters read from harvested instances' public state
        self.counts: dict[str, float] = {}
        self._instances: list[tuple[str, Any]] = []
        #: (owner, attribute, original, owner had its own attribute)
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self._process_keys: dict[tuple[str, str], str] = {}
        self._window_start: Optional[float] = None
        self.window_seconds = 0.0

    # -- spans -------------------------------------------------------------

    def timed(self, key: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside one span named ``key``."""
        stack = self._stack
        frame = [key, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                parent = stack[-1]
                parent[1] += dt
                where = (key, parent[0])
            else:
                where = (key, None)
            agg = self.spans.get(where)
            if agg is None:
                self.spans[where] = [1, dt, frame[1]]
            else:
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[1]

    # -- install / uninstall ------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every layer and open the traced window."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, class_name in LAYER_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for name, attr in list(vars(cls).items()):
                if name != "__init__" and name.startswith("_"):
                    continue
                if not inspect.isfunction(attr):
                    continue
                if layer == "engine" and name not in ENGINE_METHODS:
                    continue
                key = f"{layer}:{class_name}.{name}"
                keep = name == "__init__" and class_name in HARVESTED
                self._patch(cls, name, self._wrap(key, attr, keep))
        for layer, module_name, func_name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(f"{layer}:{func_name}", original, False)
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        engine = importlib.import_module("repro.simgrid.engine")
        self._patch(
            engine.Environment, "process",
            self._wrap_process(engine.Environment.process),
        )
        self._window_start = time.perf_counter()
        return self

    def uninstall(self) -> None:
        """Close the window and restore every patched attribute."""
        if self._window_start is not None:
            self.window_seconds = time.perf_counter() - self._window_start
            self._window_start = None
        for owner, name, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        had_own = name in vars(owner)
        self._patches.append((owner, name, getattr(owner, name), had_own))
        setattr(owner, name, value)

    def _wrap(self, key: str, fn: Callable, keep: bool) -> Callable:
        calls = self.calls
        calls.setdefault(key, 0)
        timed = self.timed
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[key] += 1
                return TracedGenerator(self, key, fn(*args, **kwargs))
        elif keep:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[key] += 1
                self._instances.append((key, args[0]))
                return timed(key, fn, *args, **kwargs)
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[key] += 1
                return timed(key, fn, *args, **kwargs)
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARKER, key)
        return wrapper

    def _wrap_process(self, original: Callable) -> Callable:
        def process(env: Any, generator: Any, name: str = "") -> Any:
            self.counts["engine.processes"] = (
                self.counts.get("engine.processes", 0) + 1
            )
            if not isinstance(generator, TracedGenerator):
                generator = TracedGenerator(
                    self, self._process_key(generator), generator
                )
            return original(env, generator, name)

        functools.update_wrapper(process, original)
        setattr(process, MARKER, "engine:Environment.process")
        return process

    def _process_key(self, gen: Any) -> str:
        frame = getattr(gen, "gi_frame", None)
        module = frame.f_globals.get("__name__", "") if frame else ""
        qualname = getattr(gen, "__qualname__", "process")
        cached = self._process_keys.get((module, qualname))
        if cached is not None:
            return cached
        layer = PROCESS_FUNCTIONS.get((module, qualname))
        if layer is None:
            layer = "other"
            for prefix, candidate in PROCESS_MODULES:
                if module == prefix or module.startswith(prefix + "."):
                    layer = candidate
                    break
        key = f"{layer}:{qualname}"
        self._process_keys[(module, qualname)] = key
        return key

    # -- counters ------------------------------------------------------------

    def harvest(self) -> None:
        """Read public counters off the instances made since the last call.

        Called after each operation so finished simulations are released.
        """
        counts = self.counts

        def add(name: str, value: float) -> None:
            counts[name] = counts.get(name, 0) + value

        for key, obj in self._instances:
            kind = key.split(":", 1)[1].split(".", 1)[0]
            if kind == "Environment":
                add("engine.events", obj.event_count)
                counts["engine.max_queue_len"] = max(
                    counts.get("engine.max_queue_len", 0), obj.max_queue_len
                )
            elif kind == "SatinRuntime":
                attempted, successful = obj.total_steals()
                add("satin.steal.attempts", attempted)
                add("satin.steal.successes", successful)
            elif kind == "AdaptationCoordinator":
                add("coordinator.decisions", len(obj.decisions))
            elif kind == "StreamingDecisionState":
                add("streaming.refolds", obj.refolds)
            elif kind == "WarmPool":
                add("pool.jobs", obj.stats["completed"])
                add("pool.retries", obj.stats["retries"])
            elif kind == "ResultCache":
                add("cache.memory_hits", obj.stats.memory_hits)
                add("cache.disk_hits", obj.stats.disk_hits)
                add("cache.misses", obj.stats.misses)
        self._instances = []

    # -- rollups ---------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self seconds per layer; ``other`` is the window no span covers."""
        out = dict.fromkeys(LAYERS, 0.0)
        top = 0.0
        for (key, parent), (_, total, child) in self.spans.items():
            out[key.split(":", 1)[0]] += total - child
            if parent is None:
                top += total
        out["other"] += self.window_seconds - top
        return out

    def total_seconds(self, key: str) -> float:
        """Inclusive seconds of every span named ``key``."""
        return sum(
            agg[1] for (k, _), agg in self.spans.items() if k == key
        )

    def span_count(self, key: str) -> int:
        """Spans named ``key``: calls, or resumptions for a generator."""
        return sum(agg[0] for (k, _), agg in self.spans.items() if k == key)

    def layer_calls(self, layer: str) -> int:
        """Calls into a layer's public functions, constructors excluded."""
        return sum(
            n for key, n in self.calls.items()
            if key.startswith(layer + ":") and not key.endswith(".__init__")
        )

    def span_records(self) -> list[dict]:
        """The aggregated spans, heaviest first (what the run writes out)."""
        rows = [
            {
                "key": key,
                "parent": parent,
                "count": count,
                "total_s": total,
                "self_s": total - child,
            }
            for (key, parent), (count, total, child) in self.spans.items()
        ]
        rows.sort(key=lambda row: -row["total_s"])
        return rows


def _repro_modules() -> Iterable[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def leftover_wrappers() -> list[str]:
    """Every tracer wrapper still reachable from a loaded ``repro`` module."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and hasattr(value, MARKER):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if inspect.isfunction(member) and hasattr(member, MARKER):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))
