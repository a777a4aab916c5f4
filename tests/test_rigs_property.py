"""Property tests: the bisecting schedule lookups agree with a linear scan.

:class:`~repro.apps.rigs.EventSchedule` answers ``event_at``,
``event_covering`` and ``next_event_start`` by bisecting over its start
and end times.  The oracles below are the plain linear scans those
methods replaced; hypothesis drives both over random sorted,
non-overlapping schedules (touching events and zero-length events
included) and query times drawn both at random and exactly on every
start and end boundary.
"""

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.rigs import EventSchedule, ScheduledEvent
from repro.errors import ConfigurationError

#: Dyadic steps keep sums exact, so generated boundaries can coincide.
_STEP = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 7.75])


@st.composite
def schedules(draw) -> EventSchedule:
    """Sorted, non-overlapping events; gaps and durations may be 0."""
    count = draw(st.integers(min_value=0, max_value=8))
    events: List[ScheduledEvent] = []
    cursor = draw(st.sampled_from([0.0, 3.0, 300.0]))
    for event_id in range(count):
        start = cursor + draw(_STEP)
        duration = draw(_STEP)
        events.append(ScheduledEvent(event_id, start, duration, "probe"))
        cursor = start + duration
    return EventSchedule(events)


@st.composite
def probes(draw, schedule: EventSchedule) -> List[float]:
    """Query times: every boundary, its neighbours, and random times."""
    times = []
    for event in schedule.events:
        times += [event.start, event.end]
    times += [t + delta for t in list(times) for delta in (-1e-9, 1e-9)]
    times += draw(
        st.lists(
            st.floats(min_value=-5.0, max_value=400.0, allow_nan=False),
            max_size=6,
        )
    )
    return times + [-1.0, 1e6]


def _event_at(schedule, time) -> Optional[ScheduledEvent]:
    for event in schedule.events:
        if event.start <= time < event.end:
            return event
        if event.start > time:
            break
    return None


def _event_covering(schedule, begin, end) -> Optional[ScheduledEvent]:
    for event in schedule.events:
        if event.start < end and begin < event.end:
            return event
        if event.start >= end:
            break
    return None


def _next_event_start(schedule, time) -> Optional[float]:
    for event in schedule.events:
        if event.start >= time:
            return event.start
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_point_lookups_match_linear_scan(data):
    schedule = data.draw(schedules())
    for time in data.draw(probes(schedule)):
        assert schedule.event_at(time) is _event_at(schedule, time), time
        assert schedule.next_event_start(time) == _next_event_start(schedule, time)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interval_lookup_matches_linear_scan(data):
    schedule = data.draw(schedules())
    times = data.draw(probes(schedule))
    for begin in times:
        for width in (0.0, 0.25, 2.5, 1e3):
            end = begin + width
            got = schedule.event_covering(begin, end)
            assert got is _event_covering(schedule, begin, end), (begin, end)


@pytest.mark.parametrize("duration", [-0.5, float("nan")])
def test_schedule_rejects_negative_or_nan_duration(duration):
    """End times are bisected too, so they must be ordered like starts."""
    with pytest.raises(ConfigurationError):
        EventSchedule([ScheduledEvent(0, 1.0, duration, "probe")])
