"""Continuous-power baseline executor."""

import gc
import weakref

import pytest

from repro.core.builder import SystemKind, build_capybara_system
from repro.device.board import Board
from repro.device.mcu import MCU_MSP430FR5969
from repro.device.radio import BLE_CC2650
from repro.device.sensors import SENSOR_TMP36
from repro.errors import TaskGraphError
from repro.kernel.annotations import NoAnnotation
from repro.kernel.baselines import ContinuousExecutor
from repro.kernel.tasks import Compute, Sample, Sleep, Task, TaskGraph, Transmit

from tests.helpers import constant_binding, make_platform, sense_alarm_graph


def make_continuous(graph=None, binding=None) -> ContinuousExecutor:
    assembly = build_capybara_system(make_platform(), SystemKind.CAPY_P)
    board = Board(
        MCU_MSP430FR5969,
        assembly.power_system,
        sensors=[SENSOR_TMP36],
        radio=BLE_CC2650,
    )
    return ContinuousExecutor(
        board,
        graph if graph is not None else sense_alarm_graph(),
        sensor_binding=binding if binding is not None else constant_binding(20.0),
    )


class TestContinuousExecution:
    def test_no_power_failures_ever(self):
        executor = make_continuous()
        executor.run(60.0)
        assert "power_failures" not in executor.trace.counters

    def test_no_charging_states(self):
        executor = make_continuous()
        executor.run(60.0)
        assert executor.trace.time_in_state("charging") == 0.0

    def test_samples_continuously(self):
        executor = make_continuous()
        executor.run(30.0)
        # sense + proc loop takes ~11 ms, so hundreds of samples.
        assert len(executor.trace.samples) > 100

    def test_alarm_packets_sent(self):
        executor = make_continuous(binding=constant_binding(50.0))
        executor.run(30.0)
        assert len(executor.trace.packets_with_payload_prefix("alarm")) > 0

    def test_time_advances_by_op_durations(self):
        def one_sleep(ctx):
            yield Sleep(5.0)
            return None

        graph = TaskGraph([Task("s", one_sleep, NoAnnotation())], entry="s")
        executor = make_continuous(graph=graph)
        executor.run(22.0)
        assert executor.now == pytest.approx(22.0, abs=1e-6)
        assert executor.trace.counters.get("task_done:s", 0) == 4

    def test_energy_accounted(self):
        executor = make_continuous()
        executor.run(10.0)
        assert executor.energy_consumed > 0.0

    def test_transitions_validated(self):
        def bad(ctx):
            yield Compute(10)
            return "missing"

        graph = TaskGraph([Task("bad", bad, NoAnnotation())], entry="bad")
        executor = make_continuous(graph=graph)
        with pytest.raises(TaskGraphError):
            executor.run(5.0)

    def test_backwards_horizon_rejected(self):
        executor = make_continuous()
        executor.run(5.0)
        with pytest.raises(TaskGraphError):
            executor.run(1.0)

    def test_channel_commit_on_completion(self):
        def writer(ctx):
            yield Compute(10)
            ctx.write("x", 7)
            return "reader"

        def reader(ctx):
            yield Compute(10)
            ctx.write("seen", ctx.read("x"))
            return "writer"

        graph = TaskGraph(
            [Task("writer", writer, NoAnnotation()), Task("reader", reader, NoAnnotation())],
            entry="writer",
        )
        executor = make_continuous(graph=graph)
        executor.run(1.0)
        assert executor.nv.get("seen") == 7


def test_finished_executor_is_freed_without_the_cycle_collector():
    executor = make_continuous()
    executor.run(30.0)
    ref = weakref.ref(executor)
    gc.disable()
    try:
        del executor
        assert ref() is None
    finally:
        gc.enable()
