"""Shared application harness.

:func:`assemble_app` wires a platform spec, a board recipe, a task
graph, and a sensor binding into the right executor for each of the
paper's four systems; :class:`AppInstance` is the runnable result that
experiments score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.core.builder import (
    PlatformSpec,
    SystemKind,
    build_capybara_system,
    build_fixed_system,
)
from repro.device.board import Board
from repro.device.mcu import MCUModel
from repro.device.radio import RadioModel
from repro.device.sensors import SensorModel
from repro.errors import ConfigurationError
from repro.kernel.baselines import ContinuousExecutor
from repro.kernel.executor import IntermittentExecutor, SensorBinding
from repro.kernel.tasks import TaskGraph
from repro.apps.rigs import EventSchedule
from repro.sim.trace import Trace


@dataclass
class AppInstance:
    """A runnable application on one power system.

    Attributes:
        name: application name ("TempAlarm", "GestureFast", ...).
        kind: which of the four systems this instance runs.
        executor: the driver (intermittent or continuous).
        schedule: ground-truth events, recorded into the trace at run.
        trace: the shared trace the executor writes into.
        extras: app-specific objects (rig, reference instance, ...).
    """

    name: str
    kind: SystemKind
    executor: Union[IntermittentExecutor, ContinuousExecutor]
    schedule: EventSchedule
    trace: Trace
    extras: Dict[str, object] = field(default_factory=dict)

    def run(self, horizon: float) -> Trace:
        """Run the device to *horizon*, pre-marking ground-truth events."""
        if not self.trace.events:
            for event in self.schedule.events:
                self.trace.record_event(event.start, event.kind, event.event_id)
        return self.executor.run(horizon)


def assemble_app(
    name: str,
    kind: SystemKind,
    spec: PlatformSpec,
    mcu: MCUModel,
    graph: TaskGraph,
    binding: SensorBinding,
    schedule: EventSchedule,
    sensors: Sequence[SensorModel],
    radio: Optional[RadioModel],
    rng: Optional[np.random.Generator] = None,
    extras: Optional[Dict[str, object]] = None,
) -> AppInstance:
    """Build the board + executor stack for one system variant."""
    if kind is SystemKind.FIXED:
        assembly = build_fixed_system(spec)
    elif kind in (SystemKind.CAPY_P, SystemKind.CAPY_R):
        assembly = build_capybara_system(spec, kind)
    elif kind is SystemKind.CONTINUOUS:
        # The continuous baseline still needs a board for op timings; a
        # Capy-P assembly provides the (unused) power system.
        assembly = build_capybara_system(spec, SystemKind.CAPY_P)
    else:  # pragma: no cover - enum is closed
        raise ConfigurationError(f"unknown system kind {kind!r}")

    board = Board(
        mcu=mcu,
        power_system=assembly.power_system,
        sensors=sensors,
        radio=radio,
    )
    trace = Trace()
    executor: Union[IntermittentExecutor, ContinuousExecutor]
    if kind is SystemKind.CONTINUOUS:
        executor = ContinuousExecutor(
            board, graph, trace=trace, sensor_binding=binding, rng=rng
        )
    else:
        executor = IntermittentExecutor(
            board,
            graph,
            assembly.runtime,
            trace=trace,
            sensor_binding=binding,
            rng=rng,
        )
    return AppInstance(
        name=name,
        kind=kind,
        executor=executor,
        schedule=schedule,
        trace=trace,
        extras=extras or {},
    )


def make_binding(table: Dict[str, Callable[[float], object]]) -> SensorBinding:
    """Build a sensor binding from a {sensor name: time -> reading} map."""

    def binding(sensor: str, time: float):
        reader = table.get(sensor)
        if reader is None:
            raise ConfigurationError(f"no rig binding for sensor {sensor!r}")
        return reader(time)

    return binding
