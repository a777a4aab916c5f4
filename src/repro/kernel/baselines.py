"""Execution baselines.

The paper compares Capybara against two baselines:

* **Continuous power** ("Pwr") — the same application code on a bench
  supply: no charging, no power failures.  :class:`ContinuousExecutor`
  runs the task graph with operations consuming only time (their energy
  is unconstrained).
* **Fixed capacity** ("Fixed") — a statically-provisioned single bank.
  That baseline needs no special executor: build a power system whose
  reservoir has one hardwired bank and run the ordinary
  :class:`~repro.kernel.executor.IntermittentExecutor` with the
  ``FIXED`` runtime variant (see :mod:`repro.core.builder`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import TaskGraphError
from repro.device.board import Board
from repro.kernel.executor import (
    _DONE,
    OperationHandlers,
    SensorBinding,
    _default_binding,
)
from repro.kernel.memory import NonVolatileStore
from repro.kernel.tasks import TaskContext, TaskGraph, WaitForInterrupt
from repro.observability.telemetry import Telemetry, resolve_telemetry
from repro.sim.trace import Trace

_TIME_EPSILON = 1e-9


class ContinuousExecutor(OperationHandlers):
    """Run a task graph on continuous power (the "Pwr" baseline).

    Operations take their real durations (so latency comparisons are
    fair) but never brown out.  Energy consumed is tallied in the trace
    counters for reference.
    """

    def __init__(
        self,
        board: Board,
        graph: TaskGraph,
        trace: Optional[Trace] = None,
        sensor_binding: SensorBinding = _default_binding,
        interrupt_source=None,
        rng: Optional[np.random.Generator] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.board = board
        self.graph = graph
        self.telemetry = resolve_telemetry(telemetry)
        self.trace = trace if trace is not None else Trace()
        self.sensor_binding = sensor_binding
        self.interrupt_source = interrupt_source
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.nv = NonVolatileStore()
        self.now = 0.0
        self.energy_consumed = 0.0
        self._irq_consumed = {}

    def run(self, horizon: float) -> Trace:
        """Run until simulation time *horizon*; returns the trace."""
        if horizon < self.now:
            raise TaskGraphError(
                f"horizon {horizon} precedes current time {self.now}"
            )
        self.trace.record_state(self.now, "running", "continuous power")
        task_name = self.graph.entry
        done_counters = {}
        while self.now < horizon - _TIME_EPSILON:
            task = self.graph.task(task_name)
            context = TaskContext(self.nv, lambda: self.now)
            generator = task.body(context)
            to_send = None
            completed = True
            while True:
                if self.now >= horizon - _TIME_EPSILON:
                    completed = False
                    break
                try:
                    operation = generator.send(to_send)
                except StopIteration as stop:
                    next_name = stop.value if stop.value is not None else task.name
                    if next_name not in self.graph:
                        raise TaskGraphError(
                            f"task {task.name!r} transitioned to unknown "
                            f"task {next_name!r}"
                        )
                    self.nv.commit()
                    counter = done_counters.get(task.name)
                    if counter is None:
                        counter = done_counters[task.name] = f"task_done:{task.name}"
                    self.trace.bump(counter)
                    if self.telemetry.enabled:
                        self.telemetry.inc("kernel.tasks_completed")
                        self.telemetry.inc(f"kernel.tasks_completed.{task.name}")
                    task_name = next_name
                    break
                to_send = self._perform(operation, horizon)
            if not completed:
                self.nv.abort()
        return self.trace

    # ------------------------------------------------------------------

    def _perform_wait(self, operation: WaitForInterrupt, horizon: float):
        # Latched edge-triggered semantics, mirroring the intermittent
        # executor (each edge wakes exactly one wait).
        consumed = self._irq_consumed.get(operation.line, float("-inf"))
        edge = None
        if self.interrupt_source is not None:
            query_from = consumed + 1e-9 if consumed != float("-inf") else 0.0
            edge = self.interrupt_source(operation.line, query_from)
        deadline = (
            self.now + operation.timeout
            if operation.timeout is not None
            else float("inf")
        )
        until = min(edge if edge is not None else float("inf"), deadline)
        if until == float("inf"):
            raise TaskGraphError(
                f"WaitForInterrupt({operation.line!r}) would sleep "
                "forever: no interrupt edge remains and no timeout "
                "was given"
            )
        self._run_load(
            max(0.0, until - self.now),
            self.board.mcu.sleep_power + operation.sentinel_power,
            horizon,
        )
        if edge is not None and edge <= until + 1e-12:
            self._irq_consumed[operation.line] = edge
        return self._read(operation.line)

    def _run_load(self, duration: float, power: float, horizon: float):
        """Advance the clock through a load (clipped at *horizon*) and
        tally its energy; on continuous power every load completes."""
        step = min(duration, max(0.0, horizon - self.now))
        self.now += step
        self.energy_consumed += power * step
        return _DONE
