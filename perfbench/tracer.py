"""In-memory span tracer, installed around the program's public functions.

The tracer wraps calls into each layer from the outside: module
functions are rebound in every loaded ``repro`` module that holds them
(so callers that imported the name directly see the wrapper too), and
methods are replaced on their class.  Nothing under ``src/`` changes.

Each wrapped call is a span.  A span's self time is its duration minus
the time its child spans cover; children of one span never overlap,
because every wrapped call is synchronous within its thread or asyncio
task, so that coverage is the sum of the child durations, accumulated as
each child closes.  Parentage follows a ``ContextVar``, which asyncio
tasks and ``asyncio.to_thread`` workers inherit.

Layers whose calls number in the millions per run (the power system,
reservoir and boosters under the executor) are *counted*: their calls
and self time are aggregated but no per-call record is kept.  Every
other span is *recorded* as (name, start, end, parent, request id) and
written out as JSON lines when the benchmark ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Span records plus per-name call counts and self time."""

    def __init__(self) -> None:
        #: Recorded spans: [name, start, end, parent index, request id, self_s].
        self.spans: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Totals added by ``after`` hooks (bytes moved, cache hits).
        self.totals: Dict[str, float] = {}
        #: Request id stamped on recorded spans (set by the workloads).
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._frame: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_frame", default=None
        )
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _enter(self, name: str, record: bool) -> Tuple[Optional[list], list, Any]:
        parent = self._frame.get()
        index = -1
        if record:
            with self._lock:
                index = len(self.spans)
                self.spans.append(
                    [
                        name,
                        0.0,
                        0.0,
                        parent[2] if parent is not None else -1,
                        self.request.get(),
                        0.0,
                    ]
                )
        # Frame: [start, child seconds, span index].
        frame = [0.0, 0.0, index]
        token = self._frame.set(frame)
        frame[0] = time.perf_counter()
        return parent, frame, token

    def _exit(self, name: str, parent: Optional[list], frame: list, token: Any) -> None:
        end = time.perf_counter()
        self._frame.reset(token)
        duration = end - frame[0]
        own = duration - frame[1]
        with self._lock:
            if parent is not None:
                parent[1] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if frame[2] >= 0:
                span = self.spans[frame[2]]
                span[1] = frame[0]
                span[2] = end
                span[5] = own

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.totals[name] = self.totals.get(name, 0) + amount

    def _after(self, hook: Callable, parent: Optional[list], args: tuple, result: Any) -> None:
        # The hook runs on the caller's clock; charge it to no layer.
        started = time.perf_counter()
        hook(self, args, result)
        if parent is not None:
            with self._lock:
                parent[1] += time.perf_counter() - started

    def wrap(
        self,
        fn: Callable,
        name: str,
        record: bool = True,
        after: Optional[Callable] = None,
    ) -> Callable:
        """*fn* timed as span *name* (a coroutine function stays one).

        *after(tracer, args, result)* runs once the span has closed.
        """
        enter, leave = self._enter, self._exit
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent, frame, token = enter(name, record)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    leave(name, parent, frame, token)
                if after is not None:
                    self._after(after, parent, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, frame, token = enter(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, parent, frame, token)
            if after is not None:
                self._after(after, parent, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set *owner.attr* to *value* until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: str, record: bool = True) -> None:
        """Wrap module function *attr* wherever a ``repro`` module binds it."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(original, name, record)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapped)
                    bound += 1
        if not bound:
            raise LookupError(f"{module}.{attr} is bound nowhere")

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: str,
        record: bool = True,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap one method (plain, class-, static- or property getter)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            value: Any = classmethod(self.wrap(raw.__func__, name, record, after))
        elif isinstance(raw, staticmethod):
            value = staticmethod(self.wrap(raw.__func__, name, record, after))
        elif isinstance(raw, property):
            value = property(self.wrap(raw.fget, name, record, after), raw.fset, raw.fdel)
        else:
            value = self.wrap(raw, name, record, after)
        self.replace(cls, attr, value)

    def patch_class(self, cls: type, name: str, record: bool = False) -> None:
        """Wrap every public method and property of *cls* as span *name*."""
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, property) and raw.fget is not None:
                self.patch_method(cls, attr, name, record)
            elif inspect.isfunction(raw):
                self.patch_method(cls, attr, name, record)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def own(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def write(self, path) -> None:
        """Recorded spans as JSON lines (times relative to the first span)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w") as out:
            for index, (name, start, end, parent, request, own) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                            "parent": parent,
                            "request": request,
                            "self_s": round(own, 9),
                        }
                    )
                    + "\n"
                )


def _entry_size(args: tuple) -> int:
    cache, key = args[0], args[1]
    return cache._path(key).stat().st_size


def _count_cache_read(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.add("cache.hits", 1)
        tracer.add("cache.bytes_read", _entry_size(args))


def _count_cache_write(tracer: Tracer, args: tuple, result: Any) -> None:
    if args[0].enabled:
        tracer.add("cache.bytes_written", _entry_size(args))


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Span names are the layer metric prefixes in ``README.md``.
    """
    from repro.core.powersystem import CapybaraPowerSystem
    from repro.energy.booster import InputBooster, OutputBooster
    from repro.energy.reservoir import ActiveSetView, ReconfigurableReservoir
    from repro.experiments.cache import ResultCache
    from repro.kernel.baselines import ContinuousExecutor
    from repro.kernel.executor import IntermittentExecutor
    from repro.service.app import ServiceApp
    from repro.service.jobs import JobRequest
    from repro.vec.kernel import FleetKernel

    # kernel.executor: the intermittent loop, and the continuous-power
    # baseline that runs the Pwr system kind.
    tracer.patch_method(IntermittentExecutor, "run", "executor.run")
    tracer.patch_method(ContinuousExecutor, "run", "executor.run")
    # core.powersystem / energy.reservoir / energy.booster: counted only.
    tracer.patch_method(CapybaraPowerSystem, "charge", "powersystem.charge", record=False)
    tracer.patch_method(CapybaraPowerSystem, "discharge", "powersystem.discharge", record=False)
    tracer.patch_class(ReconfigurableReservoir, "reservoir")
    tracer.patch_class(ActiveSetView, "reservoir")
    tracer.patch_class(InputBooster, "booster")
    tracer.patch_class(OutputBooster, "booster")
    # core.builder: one span per assembled power system.
    tracer.patch_function("repro.core.builder", "build_capybara_system", "builder.build")
    tracer.patch_function("repro.core.builder", "build_fixed_system", "builder.build")
    # spec: parsing and hashing.
    tracer.patch_function("repro.spec.model", "load_scenario", "spec.parse")
    tracer.patch_function("repro.spec.model", "spec_hash", "spec.hash")
    tracer.patch_function("repro.spec.build", "scenario_trace_hash", "spec.hash")
    # experiments.plan and vec.
    tracer.patch_function("repro.experiments.plan", "plan_campaign", "plan.plan_campaign")
    tracer.patch_function("repro.experiments.plan", "execute_plan", "plan.execute")
    tracer.patch_function("repro.experiments.plan", "run_fleet_batch", "vec.batch")
    tracer.patch_function("repro.vec.batch", "build_fleet", "vec.build_fleet")
    tracer.patch_method(FleetKernel, "run", "vec.kernel")
    tracer.patch_method(FleetKernel, "run_segments", "vec.kernel")
    # experiments.cache.
    tracer.patch_method(ResultCache, "get", "cache.get", after=_count_cache_read)
    tracer.patch_method(ResultCache, "put", "cache.put", after=_count_cache_write)
    # service: the edge (validation + key), the run, the result handler.
    tracer.patch_method(JobRequest, "from_payload", "service.edge")
    tracer.patch_method(JobRequest, "result_key", "service.edge")
    tracer.patch_function("repro.service.runner", "run_scenario_job", "service.run")
    tracer.patch_method(ServiceApp, "_result", "service.result")
