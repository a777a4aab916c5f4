"""Intermittent executor semantics: charge/boot/run cycles, power
failures, task atomicity, and Capybara plan execution."""

import gc
import weakref

import pytest

from repro.core.builder import SystemKind
from repro.errors import TaskGraphError
from repro.kernel.annotations import ConfigAnnotation, NoAnnotation
from repro.kernel.executor import TASK_POINTER_KEY, DeviceState, SensorReading
from repro.kernel.tasks import Compute, Sample, Sleep, Task, TaskGraph, Transmit

from tests.helpers import (
    MODE_BIG,
    MODE_SMALL,
    build_executor,
    constant_binding,
    sense_alarm_graph,
)


class TestBasicCycle:
    def test_charges_before_running(self):
        executor = build_executor()
        executor.run(30.0)
        states = [s.state for s in executor.trace.states]
        assert states[0] == DeviceState.CHARGING.value
        assert DeviceState.RUNNING.value in states

    def test_tasks_complete_and_chain(self):
        executor = build_executor()
        executor.run(60.0)
        done = executor.trace.counters
        assert done.get("task_done:sense", 0) > 0
        assert done.get("task_done:proc", 0) > 0

    def test_samples_recorded(self):
        executor = build_executor()
        executor.run(60.0)
        assert len(executor.trace.samples) > 0
        assert executor.trace.samples[0].sensor == "tmp36"

    def test_horizon_respected(self):
        executor = build_executor()
        executor.run(25.0)
        assert executor.now == pytest.approx(25.0, abs=0.5)

    def test_run_backwards_rejected(self):
        executor = build_executor()
        executor.run(10.0)
        with pytest.raises(TaskGraphError):
            executor.run(5.0)


class TestPowerFailureSemantics:
    def test_power_failures_occur(self):
        executor = build_executor()
        executor.run(120.0)
        assert executor.trace.counters.get("power_failures", 0) > 0

    def test_task_pointer_survives_failures(self):
        executor = build_executor()
        executor.run(120.0)
        assert executor.current_task_name() in ("sense", "proc", "alarm")

    def test_staged_writes_rollback_on_failure(self):
        """A task that never completes must never commit."""

        def doomed(ctx):
            ctx.write("poison", True)
            # Far more energy than any bank holds.
            yield Compute(1e9)
            return None

        graph = TaskGraph([Task("doomed", doomed, NoAnnotation())], entry="doomed")
        executor = build_executor(graph=graph)
        executor.run(60.0)
        assert executor.nv.get("poison") is None
        assert executor.trace.counters.get("power_failures", 0) > 0

    def test_alarm_flow_produces_packet(self):
        executor = build_executor(binding=constant_binding(40.0))
        executor.run(200.0)
        alarms = executor.trace.packets_with_payload_prefix("alarm")
        assert len(alarms) > 0


class TestPlanExecution:
    def test_reconfigurations_happen(self):
        executor = build_executor(binding=constant_binding(40.0))
        executor.run(120.0)
        assert executor.trace.counters.get("reconfigurations", 0) > 0

    def test_precharge_marker_written(self):
        executor = build_executor()
        executor.run(120.0)
        assert executor.runtime.precharge_target_recorded(MODE_BIG) is not None

    def test_precharged_voltage_below_full_target(self):
        executor = build_executor()
        executor.run(120.0)
        recorded = executor.runtime.precharge_target_recorded(MODE_BIG)
        target = executor.power_system.input_booster.v_charge_target
        assert recorded <= target - 0.25

    def test_burst_runs_without_recharge_wait(self):
        """Once pre-charged, the alarm burst's packet must go out
        without a big-bank charge on the critical path."""
        clock = {"trigger": False}

        def binding(sensor, time):
            if clock["trigger"]:
                return SensorReading(value=99.0)
            return SensorReading(value=10.0)

        executor = build_executor(binding=binding)
        executor.run(60.0)  # warm up, pre-charge
        assert executor.runtime.precharge_target_recorded(MODE_BIG) is not None
        clock["trigger"] = True
        before = executor.now
        executor.run(before + 30.0)
        alarms = executor.trace.packets_with_payload_prefix("alarm")
        assert alarms, "alarm packet expected after trigger"
        # First alarm should land within a few seconds of the trigger
        # (small-bank cycle + transmit), far below the big-bank charge
        # time at this harvest power (~60 s).
        assert alarms[0].time - before < 15.0


class TestOperations:
    def test_transmit_returns_delivery_flag(self):
        log = []

        def tx_task(ctx):
            delivered = yield Transmit("ping", 8)
            log.append(delivered)
            yield Sleep(5.0)
            return None

        graph = TaskGraph(
            [Task("tx", tx_task, ConfigAnnotation(MODE_BIG))], entry="tx"
        )
        executor = build_executor(graph=graph)
        executor.run(180.0)
        assert log and all(isinstance(flag, bool) for flag in log)

    def test_sample_returns_reading(self):
        log = []

        def sampler(ctx):
            reading = yield Sample("tmp36")
            log.append(reading)
            yield Sleep(1.0)
            return None

        graph = TaskGraph(
            [Task("s", sampler, ConfigAnnotation(MODE_SMALL))], entry="s"
        )
        executor = build_executor(graph=graph, binding=constant_binding(33.0))
        executor.run(30.0)
        assert log and log[0].value == 33.0

    def test_unknown_transition_rejected(self):
        def bad(ctx):
            yield Compute(10)
            return "nowhere"

        graph = TaskGraph([Task("bad", bad, NoAnnotation())], entry="bad")
        executor = build_executor(graph=graph)
        with pytest.raises(TaskGraphError):
            executor.run(30.0)

    def test_none_transition_repeats_task(self):
        def loop(ctx):
            yield Compute(10)
            return None

        graph = TaskGraph([Task("loop", loop, NoAnnotation())], entry="loop")
        executor = build_executor(graph=graph)
        executor.run(10.0)
        assert executor.nv.get(TASK_POINTER_KEY) == "loop"
        assert executor.trace.counters.get("task_done:loop", 0) > 1


class TestChargeAccounting:
    def test_charge_cycles_counted(self):
        executor = build_executor()
        executor.run(60.0)
        assert executor.trace.counters.get("charge_cycles", 0) > 0

    def test_charge_durations_recorded(self):
        executor = build_executor()
        executor.run(60.0)
        assert executor.trace.mean_duration("charge") > 0.0

    def test_voltage_trace_recorded(self):
        executor = build_executor()
        executor.run(30.0)
        voltages = [v.voltage for v in executor.trace.voltages]
        assert max(voltages) > 2.0  # reached near the charge target
        assert min(voltages) < max(voltages)


class TestLifetime:
    def test_finished_executor_is_freed_without_the_cycle_collector(self):
        # An executor holding bound methods of itself would stay alive
        # (with its trace) until the next cyclic collection.
        executor = build_executor()
        executor.run(30.0)
        ref = weakref.ref(executor)
        gc.disable()
        try:
            del executor
            assert ref() is None
        finally:
            gc.enable()
