"""Energy harvester models.

A harvester converts an environmental trace into electrical output,
characterised at each instant by an *output voltage* and an *available
power* (the maximum the downstream converter can draw, i.e. the maximum
power point).  The input booster (:mod:`repro.energy.booster`) performs
maximum-power-point extraction, so harvesters report MPP power directly.

Three sources cover the paper's experiments:

* :class:`RegulatedSupply` — the GRC/CSR rig: "a harvester built from a
  voltage regulator and an attenuating resistor that supplies at most
  10 mW" (Section 6.1.1).
* :class:`SolarPanel` — TrisolX-class panels, possibly in series (the
  input limiter motivation of Section 5.1), driven by an irradiance
  trace.
* :class:`RFHarvester` — a Powercast-class RF source: microwatts at low
  voltage; exercises the input booster's weak-input path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Tuple

from repro.errors import ConfigurationError
from repro.energy.environment import FULL_SUN, ConstantTrace, EnvironmentTrace


class Harvester:
    """Interface: electrical output of an environmental energy source.

    Attributes:
        time_invariant: class-level declaration that :meth:`output` is a
            constant of the (frozen) harvester's fields, independent of
            time.  Power systems memoise the limited operating point of
            such harvesters instead of re-reading it on every operation;
            anything driven by a trace, a fault window or mutable state
            keeps the default ``False``.
    """

    time_invariant: ClassVar[bool] = False

    def output(self, time: float) -> Tuple[float, float]:
        """Return ``(voltage, power)`` available at *time*.

        voltage: open-circuit-order output voltage, volts (used for the
            limiter and the cold-start bypass path).
        power: maximum extractable power, watts.
        """
        raise NotImplementedError

    def spec_dict(self) -> dict:
        """This harvester as a plain JSON-safe dict (:mod:`repro.spec`
        harvester schema); concrete sources override."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support spec extraction"
        )


@dataclass(frozen=True)
class RegulatedSupply(Harvester):
    """Bench supply behind an attenuating resistor (GRC/CSR rig).

    Supplies a constant voltage and at most *max_power* watts.
    """

    time_invariant: ClassVar[bool] = True

    voltage: float = 3.0
    max_power: float = 10e-3

    def __post_init__(self) -> None:
        if self.voltage <= 0.0:
            raise ConfigurationError("voltage must be positive")
        if self.max_power < 0.0:
            raise ConfigurationError("max_power must be non-negative")

    def output(self, time: float) -> Tuple[float, float]:
        return self.voltage, self.max_power

    def spec_dict(self) -> dict:
        return {
            "kind": "regulated",
            "voltage": self.voltage,
            "max_power": self.max_power,
        }


@dataclass
class SolarPanel(Harvester):
    """A small solar panel (or series string) under an irradiance trace.

    Attributes:
        area: active cell area, m^2 (a TrisolX wing is ~2.3 cm^2).
        efficiency: cell conversion efficiency at MPP.
        cells_in_series: panels chained in series; multiplies voltage
            (the Section 5.1 dim-light trick the limiter makes safe).
        voltage_per_panel: MPP voltage of one panel at full sun.
        irradiance: trace of W/m^2 versus time.
    """

    area: float = 2.3e-4
    efficiency: float = 0.18
    cells_in_series: int = 2
    voltage_per_panel: float = 2.7
    irradiance: EnvironmentTrace = field(
        default_factory=lambda: ConstantTrace(FULL_SUN)
    )

    def __post_init__(self) -> None:
        if self.area <= 0.0:
            raise ConfigurationError("area must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        if self.cells_in_series < 1:
            raise ConfigurationError("cells_in_series must be >= 1")
        if self.voltage_per_panel <= 0.0:
            raise ConfigurationError("voltage_per_panel must be positive")

    def output(self, time: float) -> Tuple[float, float]:
        level = self.irradiance(time)
        if level <= 0.0:
            return 0.0, 0.0
        # Series panels add voltage at the same current, so MPP power
        # scales with the string length too.
        power = level * self.area * self.efficiency * self.cells_in_series
        # MPP voltage sags gently in dim light; model as a sqrt roll-off
        # that reaches the full value at full sun.
        dimness = min(1.0, level / FULL_SUN)
        voltage = self.cells_in_series * self.voltage_per_panel * (
            0.6 + 0.4 * dimness ** 0.5
        )
        return voltage, power

    def spec_dict(self) -> dict:
        trace_dict = getattr(self.irradiance, "spec_dict", None)
        if trace_dict is None:
            raise ConfigurationError(
                f"irradiance trace {type(self.irradiance).__name__} does not "
                "support spec extraction"
            )
        return {
            "kind": "solar",
            "area": self.area,
            "efficiency": self.efficiency,
            "cells_in_series": self.cells_in_series,
            "voltage_per_panel": self.voltage_per_panel,
            "irradiance": trace_dict(),
        }


@dataclass(frozen=True)
class RFHarvester(Harvester):
    """Far-field RF harvesting (Powercast-class receiver).

    Power falls with distance squared from the transmitter; output
    voltage is low, exercising the input booster's weak-input path.
    """

    time_invariant: ClassVar[bool] = True

    transmit_power: float = 3.0
    distance: float = 3.0
    #: Aggregate path gain constant folding antenna gains and rectifier
    #: efficiency; calibrated so 3 W at 3 m yields ~100 uW.
    path_gain: float = 3e-4
    voltage: float = 1.2

    def __post_init__(self) -> None:
        if self.transmit_power < 0.0:
            raise ConfigurationError("transmit_power must be non-negative")
        if self.distance <= 0.0:
            raise ConfigurationError("distance must be positive")
        if self.voltage <= 0.0:
            raise ConfigurationError("voltage must be positive")

    def output(self, time: float) -> Tuple[float, float]:
        power = self.transmit_power * self.path_gain / (self.distance ** 2)
        return self.voltage, power

    def spec_dict(self) -> dict:
        return {
            "kind": "rf",
            "transmit_power": self.transmit_power,
            "distance": self.distance,
            "path_gain": self.path_gain,
            "voltage": self.voltage,
        }


@dataclass
class FaultyHarvester(Harvester):
    """Wrap a harvester, applying a fault injector's output transform.

    The injection point for harvester blackouts and brown-out sags
    (:mod:`repro.faults`): ``output`` defers to the inner source, then
    lets the injector zero or sag the operating point inside its fault
    windows.  Deterministic — the transform is a pure function of
    simulation time, so faulted replays are bit-identical.

    ``spec_dict`` deliberately extracts the *inner* harvester: the fault
    schedule is a separate document with its own hash, not part of the
    platform description.
    """

    inner: Harvester
    injector: object = None

    def __post_init__(self) -> None:
        if self.injector is None:
            raise ConfigurationError("FaultyHarvester needs a fault injector")

    def output(self, time: float) -> Tuple[float, float]:
        voltage, power = self.inner.output(time)
        return self.injector.transform_output(time, voltage, power)

    def spec_dict(self) -> dict:
        return self.inner.spec_dict()


@dataclass
class ScaledHarvester(Harvester):
    """Wrap a harvester, scaling its power (test and sweep helper)."""

    inner: Harvester
    power_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.power_scale < 0.0:
            raise ConfigurationError("power_scale must be non-negative")

    def output(self, time: float) -> Tuple[float, float]:
        voltage, power = self.inner.output(time)
        return voltage, power * self.power_scale

    def spec_dict(self) -> dict:
        return {
            "kind": "scaled",
            "inner": self.inner.spec_dict(),
            "power_scale": self.power_scale,
        }
