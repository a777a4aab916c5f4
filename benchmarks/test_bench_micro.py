"""Micro-benchmarks of the simulation substrate itself.

Unlike the figure benches (one experiment per round), these measure the
hot kernels with proper statistics — useful when changing the
integrators or the reservoir cache, whose cost dominates experiment
wall time.
"""

import pytest

from repro.core.builder import SystemKind, build_capybara_system, PlatformSpec
from repro.device.board import Board
from repro.apps import grc
from repro.device.mcu import MCU_CC2650, MCU_MSP430FR5969
from repro.device.radio import BLE_CC2650
from repro.device.sensors import SENSOR_PHOTOTRANSISTOR, SENSOR_TMP36
from repro.energy.bank import BankSpec, CapacitorBank
from repro.energy.booster import OutputBooster
from repro.energy.capacitor import CERAMIC_X5R, EDLC_CPH3225A, TANTALUM_POLYMER
from repro.energy.harvester import RegulatedSupply
from repro.kernel.annotations import ConfigAnnotation, PreburstAnnotation
from repro.kernel.executor import IntermittentExecutor, SensorReading
from repro.kernel.tasks import Compute, Sample, Task, TaskGraph


def _platform() -> PlatformSpec:
    return PlatformSpec(
        banks=[
            BankSpec.of_parts("small", [(CERAMIC_X5R, 3), (TANTALUM_POLYMER, 1)]),
            BankSpec.of_parts("big", [(TANTALUM_POLYMER, 3), (EDLC_CPH3225A, 1)]),
        ],
        modes={"m-small": ["small"], "m-big": ["small", "big"]},
        fixed_bank=BankSpec.of_parts("fixed", [(CERAMIC_X5R, 3)]),
        harvester=RegulatedSupply(voltage=3.0, max_power=2e-3),
    )


def test_output_booster_discharge_throughput(benchmark):
    """One full bank discharge through the droop integrator."""
    spec = BankSpec.of_parts("bench", [(TANTALUM_POLYMER, 4)])
    booster = OutputBooster()

    def discharge_once():
        bank = CapacitorBank(spec, initial_voltage=2.4)
        return booster.discharge(bank, 4e-3, 1e6)

    _, browned = benchmark(discharge_once)
    assert browned


def test_power_system_charge_throughput(benchmark):
    """Charging the two-bank reservoir from empty to the target."""

    def charge_once():
        assembly = build_capybara_system(_platform(), SystemKind.CAPY_P)
        return assembly.power_system.charge(0.0, 1e5)

    result = benchmark(charge_once)
    assert result.reached_target


def test_executor_cycle_throughput(benchmark):
    """Simulated seconds per wall second on a sense-loop workload."""

    def build():
        assembly = build_capybara_system(_platform(), SystemKind.CAPY_P)
        board = Board(
            MCU_MSP430FR5969,
            assembly.power_system,
            sensors=[SENSOR_TMP36],
            radio=BLE_CC2650,
        )

        def sense(ctx):
            yield Sample("tmp36")
            yield Compute(20_000)
            return "sense"

        graph = TaskGraph(
            [Task("sense", sense, ConfigAnnotation("m-small"))], entry="sense"
        )
        return IntermittentExecutor(
            board,
            graph,
            assembly.runtime,
            sensor_binding=lambda s, t: SensorReading(value=20.0),
        )

    def run_sixty_seconds():
        executor = build()
        executor.run(60.0)
        return executor.trace

    trace = benchmark(run_sixty_seconds)
    assert trace.counters.get("task_done:sense", 0) > 100


def test_executor_poll_op_throughput(benchmark):
    """The headline path's dominant operation: GRC's photo poll
    (``Compute(4000)`` then ``Sample("phototransistor")``) on CB-P, one
    discharge per operation, with no event ever in view."""

    def build():
        platform = grc.make_banks(grc.GRCVariant.FAST)
        assembly = build_capybara_system(platform, SystemKind.CAPY_P)
        board = Board(
            MCU_CC2650,
            assembly.power_system,
            sensors=[SENSOR_PHOTOTRANSISTOR],
            radio=BLE_CC2650,
        )

        def photo(ctx):
            yield Compute(grc.POLL_OPS)
            yield Sample("phototransistor")
            return "photo"

        graph = TaskGraph(
            [
                Task(
                    "photo",
                    photo,
                    PreburstAnnotation(grc.MODE_BURST, grc.MODE_SMALL),
                )
            ],
            entry="photo",
        )
        return IntermittentExecutor(
            board,
            graph,
            assembly.runtime,
            sensor_binding=lambda s, t: SensorReading(value=0.0),
        )

    def run_poll_loop():
        # The first ~40 s charge both banks; the rest is ~8k poll tasks
        # (~16k discharges) across ~100 charge cycles.
        executor = build()
        executor.run(180.0)
        return executor.trace

    trace = benchmark(run_poll_loop)
    assert trace.counters.get("task_done:photo", 0) > 5000
