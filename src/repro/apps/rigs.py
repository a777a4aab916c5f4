"""Experimental rigs: the simulated environment drivers.

The paper drives its applications with physical rigs: a servo-actuated
pendulum swinging over the gesture sensor (Figure 7, reused with a
magnet for CSR), and a heatsink with a 60 W heater and a Peltier cooler
cycled by a control board (TempAlarm).  Events are "drawn from a
Poisson distribution" (Section 6.2).

The rigs here expose the same observables to the device under test:
sensor readings as functions of time, plus the ground-truth event
schedule the experiment scores against.  Crucially, rig behaviour does
not depend on the device — the environment is precomputed, so the same
schedule can be replayed against all four power systems.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.kernel.executor import SensorReading
from repro.sim.rand import poisson_arrival_times


# ---------------------------------------------------------------------------
# Event schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduledEvent:
    """One ground-truth environmental event.

    Attributes:
        event_id: unique index.
        start: event onset, seconds.
        duration: how long the stimulus lasts, seconds.
        kind: "gesture", "magnet", "temperature", ...
        direction: stimulus polarity (gesture swipe direction, or
            over/under temperature), +1 or -1.
    """

    event_id: int
    start: float
    duration: float
    kind: str
    direction: int = 1

    @property
    def end(self) -> float:
        return self.start + self.duration


class EventSchedule:
    """An ordered, non-overlapping sequence of scheduled events.

    Point queries bisect over the start (and end) times: events are
    sorted by start, durations are non-negative and windows never
    overlap, so both sequences are non-decreasing.
    """

    def __init__(self, events: Sequence[ScheduledEvent]) -> None:
        ordered = sorted(events, key=lambda event: event.start)
        for event in ordered:
            if not event.duration >= 0.0:
                raise ConfigurationError(
                    f"event {event.event_id} has negative duration {event.duration}"
                )
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.end:
                raise ConfigurationError(
                    f"events {earlier.event_id} and {later.event_id} overlap"
                )
        self.events: Tuple[ScheduledEvent, ...] = tuple(ordered)
        self._starts: List[float] = [event.start for event in ordered]
        self._ends: List[float] = [event.end for event in ordered]

    @staticmethod
    def poisson(
        rng: np.random.Generator,
        mean_interarrival: float,
        count: int,
        duration: float,
        kind: str,
        start_offset: float = 0.0,
        alternate_direction: bool = True,
    ) -> "EventSchedule":
        """Draw *count* events with exponential gaps (Section 6.2).

        Gaps shorter than *duration* are stretched so stimuli never
        overlap (the physical pendulum cannot swing twice at once).
        """
        arrivals = poisson_arrival_times(
            rng, mean_interarrival, count=count, start=start_offset
        )
        events: List[ScheduledEvent] = []
        last_end = start_offset
        for index, arrival in enumerate(arrivals):
            start = max(arrival, last_end + 0.1)
            direction = 1 if (index % 2 == 0 or not alternate_direction) else -1
            events.append(
                ScheduledEvent(
                    event_id=index,
                    start=start,
                    duration=duration,
                    kind=kind,
                    direction=direction,
                )
            )
            last_end = start + duration
        return EventSchedule(events)

    def __len__(self) -> int:
        return len(self.events)

    def event_at(self, time: float) -> Optional[ScheduledEvent]:
        """The event whose stimulus window contains *time*, if any."""
        # The last event starting at or before *time* is the only
        # candidate: every earlier one ends by its start.
        index = bisect_right(self._starts, time) - 1
        if index >= 0 and time < self._ends[index]:
            return self.events[index]
        return None

    def event_covering(self, begin: float, end: float) -> Optional[ScheduledEvent]:
        """The first event overlapping the interval [begin, end)."""
        # The first event ending after *begin* is the only candidate:
        # every later one starts no earlier than it.
        index = bisect_right(self._ends, begin)
        if index < len(self.events) and self._starts[index] < end:
            return self.events[index]
        return None

    @property
    def horizon(self) -> float:
        """Time by which all events have finished, seconds."""
        return self.events[-1].end if self.events else 0.0

    def next_event_start(self, time: float) -> Optional[float]:
        """Start of the first event at or after *time*, or ``None``.

        Event starts are the *edges* an interrupt comparator fires on;
        callers that need latched-edge semantics (wake even when armed
        after the edge) track consumption themselves — see
        :meth:`repro.kernel.executor.IntermittentExecutor._perform_wait`.
        """
        index = bisect_left(self._starts, time)
        return self._starts[index] if index < len(self._starts) else None


# ---------------------------------------------------------------------------
# Pendulum rig (GRC and CSR)
# ---------------------------------------------------------------------------

#: The phototransistor's reading between events (readings are frozen,
#: so the poll loop can share one).
_PHOTO_DARK = SensorReading(value=0.0, event_id=None)


class PendulumRig:
    """Servo-swung pendulum over the gesture sensor (Figure 7).

    A tap-and-swipe motion holds the object over the sensor for the
    event's duration.  Classification physics (Section 6.2):

    * the gesture engine decodes the swipe **direction** only if its
      250 ms window *starts* early enough in the swing
      (``correct_phase``);
    * a later start sees enough motion to report *a* gesture but not
      its direction (misclassified, up to ``wrong_phase``);
    * later still, the motion is over: the sensor reports nothing
      (proximity-only failure).

    Intrinsic sensor error (present even on continuous power — the
    paper's imperfect "Pwr" accuracy) corrupts a small fraction of
    would-be-correct decodes.
    """

    #: Reading codes returned in :class:`SensorReading.value` by the
    #: gesture sensor.
    GESTURE_NONE = 0.0
    GESTURE_WRONG = 1.0
    GESTURE_CORRECT = 2.0

    def __init__(
        self,
        schedule: EventSchedule,
        noise_rng: np.random.Generator,
        gesture_window: float = 0.25,
        correct_phase: float = 0.48,
        wrong_phase: float = 0.72,
        sensor_error_rate: float = 0.10,
        sensor_dropout_rate: float = 0.04,
    ) -> None:
        if not 0.0 < correct_phase < wrong_phase <= 1.0:
            raise ConfigurationError("phases must satisfy 0 < correct < wrong <= 1")
        self.schedule = schedule
        self.rng = noise_rng
        self.gesture_window = gesture_window
        self.correct_phase = correct_phase
        self.wrong_phase = wrong_phase
        self.sensor_error_rate = sensor_error_rate
        self.sensor_dropout_rate = sensor_dropout_rate

    # -- GRC sensors ---------------------------------------------------

    def photo_reading(self, time: float) -> SensorReading:
        """Phototransistor: object present above the board?"""
        event = self.schedule.event_at(time)
        if event is None:
            return _PHOTO_DARK
        return SensorReading(value=1.0, event_id=event.event_id)

    def gesture_reading(self, time_done: float) -> SensorReading:
        """APDS gesture engine result; *time_done* is when the 250 ms
        engine window ended (the binding is called at op completion)."""
        started = time_done - self.gesture_window
        event = self.schedule.event_covering(started, time_done)
        if event is None:
            return SensorReading(value=self.GESTURE_NONE, event_id=None)
        phase = (started - event.start) / event.duration
        if phase < 0.0:
            # Engine started before the swing; it still captures the
            # motion onset — treat as an early (correct-capable) start.
            phase = 0.0
        if phase <= self.correct_phase:
            roll = self.rng.random()
            if roll < self.sensor_dropout_rate:
                return SensorReading(self.GESTURE_NONE, event.event_id)
            if roll < self.sensor_dropout_rate + self.sensor_error_rate:
                return SensorReading(self.GESTURE_WRONG, event.event_id)
            return SensorReading(self.GESTURE_CORRECT, event.event_id)
        if phase <= self.wrong_phase:
            return SensorReading(self.GESTURE_WRONG, event.event_id)
        return SensorReading(self.GESTURE_NONE, event.event_id)

    # -- CSR sensors ----------------------------------------------------

    def magnetometer_reading(self, time: float) -> SensorReading:
        """Magnetic flux magnitude; high while the magnet swings by."""
        event = self.schedule.event_at(time)
        if event is None:
            noise = 2.0 + self.rng.random()
            return SensorReading(value=noise, event_id=None)
        phase = (time - event.start) / event.duration
        field = 20.0 + 40.0 * math.sin(math.pi * min(1.0, max(0.0, phase)))
        return SensorReading(value=field, event_id=event.event_id)

    def interrupt_source(self, line: str, time: float) -> Optional[float]:
        """Wake-up comparator wiring: any armed line asserts at the next
        pendulum pass (proximity and magnetic-threshold interrupts alike)."""
        return self.schedule.next_event_start(time)

    def distance_reading(self, time: float) -> SensorReading:
        """Proximity distance to the magnet, mm-order units."""
        event = self.schedule.event_at(time)
        if event is None:
            return SensorReading(value=100.0, event_id=None)
        phase = (time - event.start) / event.duration
        distance = 10.0 + 40.0 * abs(phase - 0.5)
        return SensorReading(value=distance, event_id=event.event_id)


# ---------------------------------------------------------------------------
# Thermal rig (TempAlarm)
# ---------------------------------------------------------------------------

class ThermalRig:
    """Heatsink + heater + Peltier cooler under bang-bang control.

    A first-order thermal plant is driven by a hysteresis controller
    whose setpoint normally keeps the heatsink inside the alarm range;
    at each scheduled event the controller pushes the temperature out of
    range (alternating over- and under-temperature), then recovers —
    exactly the paper's Section 6.1.2 apparatus.

    The trajectory is precomputed over a horizon, so readings are pure
    functions of time and identical across power-system variants.
    """

    def __init__(
        self,
        schedule: EventSchedule,
        horizon: float,
        alarm_low: float = 30.0,
        alarm_high: float = 45.0,
        setpoint_normal: float = 37.0,
        setpoint_over: float = 54.0,
        setpoint_under: float = 21.0,
        ambient: float = 25.0,
        thermal_capacity: float = 12.0,
        loss_coefficient: float = 0.8,
        heater_power: float = 25.0,
        cooler_power: float = 25.0,
        time_step: float = 0.25,
    ) -> None:
        if alarm_low >= alarm_high:
            raise ConfigurationError("alarm_low must be below alarm_high")
        if horizon <= 0.0:
            raise ConfigurationError("horizon must be positive")
        self.schedule = schedule
        self.alarm_low = alarm_low
        self.alarm_high = alarm_high
        self._dt = time_step
        self._times, self._temps = self._integrate(
            schedule,
            horizon,
            setpoint_normal,
            setpoint_over,
            setpoint_under,
            ambient,
            thermal_capacity,
            loss_coefficient,
            heater_power,
            cooler_power,
            time_step,
        )
        self._excursions = self._find_excursions()

    # -- plant integration ----------------------------------------------

    @staticmethod
    def _integrate(
        schedule: EventSchedule,
        horizon: float,
        sp_normal: float,
        sp_over: float,
        sp_under: float,
        ambient: float,
        c_th: float,
        k_loss: float,
        p_heat: float,
        p_cool: float,
        dt: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        steps = int(math.ceil(horizon / dt)) + 1
        times = np.arange(steps) * dt
        temps = np.empty(steps)
        temperature = sp_normal
        heater_on = False
        cooler_on = False
        event_index = 0
        events = schedule.events
        for i in range(steps):
            t = times[i]
            temps[i] = temperature
            # Controller: pick the setpoint for this instant.
            while event_index < len(events) and t >= events[event_index].end:
                event_index += 1
            active = (
                events[event_index]
                if event_index < len(events)
                and events[event_index].start <= t < events[event_index].end
                else None
            )
            if active is None:
                setpoint = sp_normal
            else:
                setpoint = sp_over if active.direction > 0 else sp_under
            # Hysteresis of +/- 0.5 C.
            if temperature < setpoint - 0.5:
                heater_on, cooler_on = True, False
            elif temperature > setpoint + 0.5:
                heater_on, cooler_on = False, True
            else:
                heater_on = heater_on and temperature < setpoint
                cooler_on = cooler_on and temperature > setpoint
            power = (p_heat if heater_on else 0.0) - (p_cool if cooler_on else 0.0)
            d_temp = (power - k_loss * (temperature - ambient)) / c_th
            temperature += d_temp * dt
        return times, temps

    def _find_excursions(self) -> List[Tuple[int, float, float]]:
        """Per event: (event_id, begin, end) of the out-of-range span."""
        out = (self._temps > self.alarm_high) | (self._temps < self.alarm_low)
        excursions: List[Tuple[int, float, float]] = []
        for event in self.schedule.events:
            # Search from event onset until the plant recovers.
            start_index = int(event.start / self._dt)
            begin: Optional[float] = None
            end: Optional[float] = None
            for i in range(start_index, len(self._times)):
                if out[i] and begin is None:
                    begin = self._times[i]
                elif begin is not None and not out[i]:
                    end = self._times[i]
                    break
                # Give up if the next event starts before an excursion.
                if begin is None and self._times[i] > event.end + 30.0:
                    break
            if begin is not None:
                excursions.append(
                    (event.event_id, begin, end if end is not None else begin)
                )
        return excursions

    # -- observables ------------------------------------------------------

    def temperature(self, time: float) -> float:
        """Heatsink temperature at *time*, Celsius."""
        return float(np.interp(time, self._times, self._temps))

    def excursion_for(self, event_id: int) -> Optional[Tuple[float, float]]:
        """Out-of-range interval caused by *event_id*, if the plant
        actually left the alarm range."""
        for eid, begin, end in self._excursions:
            if eid == event_id:
                return begin, end
        return None

    def temp_reading(self, time: float) -> SensorReading:
        """TMP36 reading with ground-truth event attribution."""
        value = self.temperature(time)
        event_id = None
        if value > self.alarm_high or value < self.alarm_low:
            for eid, begin, end in self._excursions:
                if begin <= time <= end:
                    event_id = eid
                    break
        return SensorReading(value=value, event_id=event_id)

    def out_of_range(self, value: float) -> bool:
        """Whether a temperature violates the alarm range."""
        return value > self.alarm_high or value < self.alarm_low

    def interrupt_source(self, line: str, time: float) -> Optional[float]:
        """Threshold-interrupt wiring: the line's edges are the starts
        of out-of-range excursions."""
        candidates = [
            begin for _eid, begin, _end in self._excursions if begin >= time
        ]
        return min(candidates) if candidates else None
