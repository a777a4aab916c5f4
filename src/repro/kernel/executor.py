"""The intermittent executor.

Drives a :class:`~repro.device.board.Board` through the intermittent
execution model of Section 2: the device is **off while charging**,
boots only once the active buffer is full, executes tasks until the
buffer empties (a power failure), and repeats.  The executor also
performs the Capybara runtime's power plans — reconfiguration steps and
deliberate charge pauses — between tasks.

The executor owns the experiment clock (`now`, seconds) and advances it
by exact analytic segments (charge durations from the power system's
integrator, load durations from the board's load points), so runs are
deterministic given the RNG seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ProvisioningError, TaskGraphError
from repro.device.board import Board
from repro.kernel.capybara import CapybaraRuntime, Charge, Reconfigure
from repro.kernel.memory import VolatileStore
from repro.kernel.tasks import (
    Compute,
    Sample,
    Sleep,
    Task,
    TaskContext,
    TaskGraph,
    Transmit,
    WaitForInterrupt,
)
from repro.observability.telemetry import Telemetry, resolve_telemetry
from repro.sim.trace import Trace

#: Non-volatile key holding the current task pointer.
TASK_POINTER_KEY = "kernel/task-pointer"

#: Executor-internal chunk for charge calls, so the trace reflects
#: charging progress and the horizon is honoured.
_CHARGE_CHUNK = 120.0

_TIME_EPSILON = 1e-9


class DeviceState(enum.Enum):
    """Coarse device state recorded in the trace."""

    CHARGING = "charging"
    BOOTING = "booting"
    RUNNING = "running"
    OFF = "off"


@dataclass(frozen=True)
class SensorReading:
    """What a sensor binding returns for one acquisition.

    Attributes:
        value: the physical reading.
        event_id: ground-truth event observed, if the rig says one was
            in progress at sampling time.
    """

    value: float
    event_id: Optional[int] = None


#: An application's binding from (sensor name, time) to a reading —
#: the simulated analogue of wiring a rig to the board's sensors.
SensorBinding = Callable[[str, float], SensorReading]

#: An application's interrupt wiring: (line name, time) -> the next
#: instant at or after *time* when the line asserts, or ``None`` if it
#: never will.  The simulated analogue of a sensor's wake-up comparator.
InterruptSource = Callable[[str, float], Optional[float]]


def _default_binding(sensor: str, time: float) -> SensorReading:
    return SensorReading(value=0.0, event_id=None)


class OperationHandlers:
    """Operation dispatch shared by :class:`IntermittentExecutor` and the
    continuous-power baseline.

    A subclass supplies ``_run_load(duration, power, horizon)``, its
    energy step (returning :data:`_DONE`, :data:`_POWER_FAILED` or
    :data:`_HORIZON`), and ``_perform_wait``.  The task loop dispatches
    each yielded operation with one lookup in the subclass's type-keyed
    handler table.  The table lives on the class and holds plain
    functions, not bound methods, so an executor is no reference cycle
    and is freed as soon as its run's last reference goes.
    """

    #: Operation type -> name of the method that performs it.
    _HANDLER_NAMES = {
        Compute: "_perform_compute",
        Sample: "_perform_sample",
        Transmit: "_perform_transmit",
        Sleep: "_perform_sleep",
        WaitForInterrupt: "_perform_wait",
    }

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        #: Operation type -> handler function (see :meth:`_perform`).
        cls._handlers = {
            kind: getattr(cls, name) for kind, name in cls._HANDLER_NAMES.items()
        }

    def _perform(self, operation, horizon: float):
        """Execute one yielded operation; returns the value to send back
        into the task generator, or the :data:`_POWER_FAILED` /
        :data:`_HORIZON` sentinels.

        Dispatch is by exact type through ``_handlers``; a subclass of
        an operation type resolves to its nearest registered base, and
        the resolution is stored so the next one is an exact hit.
        """
        kind = type(operation)
        handlers = self._handlers
        handler = handlers.get(kind)
        if handler is None:
            for cls in kind.__mro__[1:]:
                handler = handlers.get(cls)
                if handler is not None:
                    handlers[kind] = handler
                    break
            else:
                raise TaskGraphError(
                    f"task yielded unknown operation {operation!r}"
                )
        return handler(self, operation, horizon)

    def _perform_compute(self, operation: Compute, horizon: float):
        load = self.board.compute_load(operation.ops)
        outcome = self._run_load(load.duration, load.power, horizon)
        return None if outcome is _DONE else outcome

    def _perform_sample(self, operation: Sample, horizon: float):
        load = self.board.sense_load(operation.sensor, operation.samples)
        outcome = self._run_load(load.duration, load.power, horizon)
        if outcome is not _DONE:
            return outcome
        return self._read(operation.sensor)

    def _perform_transmit(self, operation: Transmit, horizon: float):
        load = self.board.transmit_load(operation.size_bytes)
        outcome = self._run_load(load.duration, load.power, horizon)
        if outcome is _POWER_FAILED:
            self.trace.bump("tx_failures")
            return outcome
        if outcome is _HORIZON:
            return outcome
        delivered = True
        radio = self.board.radio
        if radio is not None and radio.loss_rate > 0.0:
            delivered = self.rng.random() >= radio.loss_rate
        if delivered:
            self.trace.record_packet(
                self.now,
                operation.payload,
                operation.size_bytes,
                operation.event_id,
            )
        else:
            self.trace.bump("packets_lost_rf")
        return delivered

    def _perform_sleep(self, operation: Sleep, horizon: float):
        load = self.board.sleep_load(operation.duration)
        outcome = self._run_load(load.duration, load.power, horizon)
        return None if outcome is _DONE else outcome

    def _read(self, sensor: str) -> SensorReading:
        """Resolve and trace a reading of *sensor* at ``now``."""
        reading = self.sensor_binding(sensor, self.now)
        self.trace.record_sample(self.now, sensor, reading.value, reading.event_id)
        return reading


class IntermittentExecutor(OperationHandlers):
    """Charge / boot / run / power-fail loop for one board.

    Args:
        board: the hardware platform.
        graph: the application task graph.
        runtime: the Capybara runtime (any variant).
        trace: destination for records; a fresh one is made if omitted.
        sensor_binding: resolves :class:`~repro.kernel.tasks.Sample`
            operations against the environment.
        rng: randomness for radio loss; defaults to a fixed seed.
        max_power_failures_per_task: safety valve detecting tasks that
            can never complete under the current provisioning.
    """

    def __init__(
        self,
        board: Board,
        graph: TaskGraph,
        runtime: CapybaraRuntime,
        trace: Optional[Trace] = None,
        sensor_binding: SensorBinding = _default_binding,
        interrupt_source: Optional[InterruptSource] = None,
        rng: Optional[np.random.Generator] = None,
        max_power_failures_per_task: int = 10_000,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.board = board
        self.graph = graph
        self.runtime = runtime
        self.telemetry = resolve_telemetry(telemetry)
        self.trace = trace if trace is not None else Trace()
        self.sensor_binding = sensor_binding
        self.interrupt_source = interrupt_source
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.max_power_failures_per_task = max_power_failures_per_task

        self.now = 0.0
        self.nv = runtime.nv
        self.volatile = VolatileStore()
        self.state = DeviceState.OFF
        self._consecutive_failures = 0
        self._last_voltage_record = (-1.0, -1.0)
        #: Minimum spacing of voltage trace records, seconds.  Keeps the
        #: trace at plot resolution instead of one record per operation.
        self.voltage_record_interval = 0.02
        #: Task name -> its ``task_done:<name>`` trace counter.
        self._done_counters: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def power_system(self):
        return self.board.power_system

    def current_task_name(self) -> str:
        return self.nv.get(TASK_POINTER_KEY, self.graph.entry)

    def run(self, horizon: float) -> Trace:
        """Run the device until simulation time *horizon*.

        Returns the trace (also available as ``self.trace``).
        """
        if horizon < self.now:
            raise TaskGraphError(
                f"horizon {horizon} precedes current time {self.now}"
            )
        while self.now < horizon - _TIME_EPSILON:
            self._cycle(horizon)
        return self.trace

    # ------------------------------------------------------------------
    # One charge/boot/run cycle
    # ------------------------------------------------------------------

    def _cycle(self, horizon: float) -> None:
        # Phase 1: charge the active configuration to full.
        if not self._charge_to(None, horizon, reason="recharge"):
            return  # horizon reached while charging
        # Phase 2: boot.
        if not self._boot(horizon):
            return
        # Phase 3: run tasks until power failure or horizon.
        self._run_tasks(horizon)

    def _boot(self, horizon: float) -> bool:
        """Boot the device; returns True if it came up."""
        self._record_state(DeviceState.BOOTING)
        boot = self.board.boot_load()
        outcome = self._run_load(boot.duration, boot.power, horizon)
        if outcome is _HORIZON:
            return False
        if outcome is _POWER_FAILED:
            self.trace.bump("boot_failures")
            if self.telemetry.enabled:
                self.telemetry.inc("kernel.boot_failures")
            self._on_power_failure()
            return False
        if self.telemetry.enabled:
            self.telemetry.inc("kernel.reboots")
            self.telemetry.event(self.now, "kernel", "reboot")
        return True

    def _run_tasks(self, horizon: float) -> None:
        self._record_state(DeviceState.RUNNING)
        while self.now < horizon - _TIME_EPSILON:
            task = self.graph.task(self.current_task_name())
            if not self._execute_plan(task, horizon):
                return  # power failure or horizon during the plan
            if not self._execute_task(task, horizon):
                return  # power failure or horizon during the task

    # ------------------------------------------------------------------
    # Power plans
    # ------------------------------------------------------------------

    def _execute_plan(self, task: Task, horizon: float) -> bool:
        """Perform the runtime's plan for *task*.

        Returns True if the device is powered and ready to run the task.
        """
        plan = self.runtime.plan_for_task(task, self.now)
        for step in plan:
            if self.now >= horizon - _TIME_EPSILON:
                return False
            if isinstance(step, Reconfigure):
                toggle_energy = self.power_system.reservoir.configure(
                    step.config, self.now
                )
                if toggle_energy > 0.0:
                    self.power_system.reservoir.extract(toggle_energy, self.now)
                self.runtime.note_reconfigured(step.config)
                self.trace.bump("reconfigurations")
                self._record_voltage()
            elif isinstance(step, Charge):
                # A deliberate pause: the device powers down, charges the
                # newly configured buffer, and boots again (Section 4.1:
                # "After the reservoir charges, the device boots, and the
                # runtime executes the task").
                self.volatile.power_fail()
                target = (
                    self.power_system.charge_target_voltage(self.now)
                    - step.voltage_offset
                )
                if not self._charge_to(target, horizon, reason=step.reason):
                    return False
                if step.mark_precharged_mode is not None:
                    self.runtime.mark_precharged(
                        step.mark_precharged_mode,
                        self.power_system.reservoir.active_voltage(self.now),
                        time=self.now,
                    )
                if not self._boot(horizon):
                    return False
                self._record_state(DeviceState.RUNNING)
            else:  # pragma: no cover - plans only contain the two kinds
                raise TaskGraphError(f"unknown plan step {step!r}")
        return True

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------

    def _execute_task(self, task: Task, horizon: float) -> bool:
        """Run *task* to completion.

        Returns True if it completed and the device remains powered.  A
        horizon interruption aborts the in-flight transaction without
        counting a power failure — on the next :meth:`run` the task
        restarts, exactly the task-atomic semantics a real pause has.
        """
        context = TaskContext(self.nv, lambda: self.now)
        generator = task.body(context)
        to_send = None
        while True:
            if self.now >= horizon - _TIME_EPSILON:
                self.nv.abort()
                return False
            try:
                operation = generator.send(to_send)
            except StopIteration as stop:
                return self._complete_task(task, stop.value)
            to_send = self._perform(operation, horizon)
            if to_send is _HORIZON:
                self.nv.abort()
                return False
            if to_send is _POWER_FAILED:
                self.nv.abort()
                if self.telemetry.enabled:
                    self.telemetry.inc("kernel.task_restarts")
                    self.telemetry.event(
                        self.now, "kernel", "task_restart", task=task.name
                    )
                self._on_power_failure()
                self._check_livelock(task)
                return False
        # unreachable

    def _complete_task(self, task: Task, next_name: Optional[str]) -> bool:
        self.nv.commit()
        self.runtime.note_task_complete(task)
        counter = self._done_counters.get(task.name)
        if counter is None:
            counter = self._done_counters[task.name] = f"task_done:{task.name}"
        self.trace.bump(counter)
        if self.telemetry.enabled:
            self.telemetry.inc("kernel.tasks_completed")
            self.telemetry.inc(f"kernel.tasks_completed.{task.name}")
        self._consecutive_failures = 0
        target = next_name if next_name is not None else task.name
        if target not in self.graph:
            raise TaskGraphError(
                f"task {task.name!r} transitioned to unknown task {target!r}"
            )
        self.nv.put(TASK_POINTER_KEY, target)
        return True

    def _perform_wait(self, operation: WaitForInterrupt, horizon: float):
        """Sleep until the interrupt line's next edge (or the timeout).

        Edges are latched and consumed exactly once (the flag-register
        behaviour of real interrupt controllers): an edge that asserted
        while the device was busy or powered off wakes the next wait
        immediately; a consumed edge never re-fires, so a still-
        asserting level cannot storm the MCU.  Consumption is tracked in
        non-volatile memory — a power failure must not replay edges.
        """
        consumed_key = f"kernel/irq-consumed:{operation.line}"
        consumed = self.nv.get(consumed_key, float("-inf"))
        edge: Optional[float] = None
        if self.interrupt_source is not None:
            query_from = consumed + 1e-9 if consumed != float("-inf") else float("-inf")
            edge = self.interrupt_source(
                operation.line, max(query_from, 0.0)
            )
        deadline = (
            self.now + operation.timeout
            if operation.timeout is not None
            else float("inf")
        )
        until = min(edge if edge is not None else float("inf"), deadline)
        if until == float("inf"):
            raise TaskGraphError(
                f"WaitForInterrupt({operation.line!r}) would sleep forever: "
                "no interrupt edge remains and no timeout was given"
            )
        outcome = self._run_load(
            max(0.0, until - self.now),
            self.board.mcu.sleep_power + operation.sentinel_power,
            horizon,
        )
        if outcome is not _DONE:
            return outcome
        if edge is not None and edge <= until + 1e-12:
            # The edge (not the watchdog) ended the wait: consume it.
            self.nv.put(consumed_key, edge)
        reading = self._read(operation.line)
        self.trace.bump("interrupt_wakes")
        return reading

    # ------------------------------------------------------------------
    # Energy plumbing
    # ------------------------------------------------------------------

    def _run_load(self, load_duration: float, power: float, horizon: float):
        """Drain a *load_duration*-second load of *power* watts from the
        reservoir.

        Returns :data:`_DONE` when the load ran to completion,
        :data:`_POWER_FAILED` on brownout, or :data:`_HORIZON` when the
        run horizon interrupted it (the partial drain is real; the
        operation's side effect is not).
        """
        now = self.now
        duration = min(load_duration, max(0.0, horizon - now))
        truncated = duration < load_duration - _TIME_EPSILON
        result = self.board.power_system.discharge(now, power, duration)
        self.now = now + result.elapsed
        self._record_voltage(result.voltage)
        if result.elapsed < duration - _TIME_EPSILON:
            # Browning out exactly at the end still counts as finishing.
            return _POWER_FAILED
        return _HORIZON if truncated else _DONE

    def _charge_to(
        self, target: Optional[float], horizon: float, reason: str
    ) -> bool:
        """Charge the active set to *target* volts (None = full).

        Returns True when the target is reached before the horizon.
        """
        start = self.now
        self._record_state(DeviceState.CHARGING, detail=reason)
        self._record_voltage()
        ps = self.power_system
        while True:
            resolved = (
                ps.charge_target_voltage(self.now) if target is None else target
            )
            if ps.reservoir.active_voltage(self.now) >= resolved - 1e-9:
                break
            if self.now >= horizon - _TIME_EPSILON:
                self.trace.record_duration(f"charge_incomplete:{reason}", self.now - start)
                return False
            chunk = min(_CHARGE_CHUNK, horizon - self.now)
            result = ps.charge(self.now, chunk, target_voltage=resolved)
            self.now += result.elapsed
            self._record_voltage()
            if result.reached_target:
                break
        self.trace.bump("charge_cycles")
        self.trace.record_duration(f"charge:{reason}", self.now - start)
        self.trace.record_duration("charge", self.now - start)
        if self.telemetry.enabled:
            self.telemetry.inc("kernel.charge_cycles")
            self.telemetry.observe("kernel.charge_seconds", self.now - start)
            self.telemetry.span(
                start, self.now, "kernel", "charge", reason=reason
            )
        return True

    def _on_power_failure(self) -> None:
        self.trace.bump("power_failures")
        if self.telemetry.enabled:
            self.telemetry.inc("kernel.power_failures")
            self.telemetry.event(self.now, "kernel", "power_failure")
        self.volatile.power_fail()
        self.nv.power_fail()
        self.runtime.note_power_failure()
        self._record_state(DeviceState.OFF, detail="power failure")
        self.state = DeviceState.OFF

    def _check_livelock(self, task: Task) -> None:
        self._consecutive_failures += 1
        if self._consecutive_failures > self.max_power_failures_per_task:
            raise ProvisioningError(
                f"task {task.name!r} failed {self._consecutive_failures} "
                "consecutive times; the active configuration cannot "
                "complete it (misprovisioned system)"
            )

    # ------------------------------------------------------------------
    # Trace helpers
    # ------------------------------------------------------------------

    def _record_state(self, state: DeviceState, detail: str = "") -> None:
        self.state = state
        self.trace.record_state(self.now, state.value, detail)

    def _record_voltage(self, voltage: Optional[float] = None) -> None:
        """Trace the active-set voltage at ``now``; *voltage*, when the
        caller already holds it validated (a discharge result), skips
        the reservoir lookup."""
        if voltage is None:
            voltage = self.power_system.reservoir.active_voltage(self.now)
        last_time, last_voltage = self._last_voltage_record
        if (
            self.now - last_time < self.voltage_record_interval
            and abs(voltage - last_voltage) < 0.01
        ):
            return
        self._last_voltage_record = (self.now, voltage)
        self.trace.record_voltage(self.now, voltage)


class _Outcome:
    """Sentinel type for load outcomes (see :meth:`_run_load`)."""

    def __init__(self, label: str) -> None:
        self._label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<outcome {self._label}>"


_DONE = _Outcome("done")
_POWER_FAILED = _Outcome("power-failed")
_HORIZON = _Outcome("horizon")
