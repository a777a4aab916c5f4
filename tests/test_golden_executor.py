"""Golden digests of the uninstrumented executor path.

``tests/golden/executor/fig08_seed2.json`` pins every simulated record
of the fig08 scenario set (TempAlarm, GestureFast, GestureCompact,
CorrSense at seed 2, scale 0.06) on each of Pwr, Fixed, CB-R and CB-P,
run with telemetry disabled — the path the paper's headline figures
take.  Each run is reduced to a sha256 over its samples, voltages,
packets, states, counters, duration series and per-bank wear, with
every float written by ``float.hex`` so a one-ulp drift anywhere in the
discharge arithmetic changes the digest.

A second group of tests runs the same scenarios with a live
:class:`~repro.observability.telemetry.Telemetry` and checks that the
trace is equal, field for field, to the disabled run: instrumentation
observes the simulation and never steers it.  One of those runs is
faulted (TempAlarm on CB-P under ``tests/golden/faults/blackout.json``).

Regenerate after an intentional change to simulated behaviour with::

    PYTHONPATH=src python tests/test_golden_executor.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "executor" / "fig08_seed2.json"
BLACKOUT = Path(__file__).parent / "golden" / "faults" / "blackout.json"

SEED = 2
SCALE = 0.06
APPS = ("TempAlarm", "GestureFast", "GestureCompact", "CorrSense")
KINDS = ("Pwr", "Fixed", "CB-R", "CB-P")


def _scenarios():
    from repro.experiments.fig08_accuracy import declared_scenarios

    return dict(zip(APPS, declared_scenarios(SEED, SCALE)))


def _horizon(scenario) -> float:
    """fig08's horizon: the schedule plus two minutes of recovery."""
    from repro.spec import build_scenario_app

    return build_scenario_app(scenario, kind="Pwr").schedule.horizon + 120.0


def _run(scenario, kind: str, telemetry=None, faults=None):
    """One device run; *telemetry* (if given) is the ambient plane."""
    from repro.faults import apply_faults, load_fault_schedule
    from repro.observability.telemetry import telemetry_scope
    from repro.spec import build_scenario_app

    horizon = _horizon(scenario)
    if telemetry is None:
        instance = build_scenario_app(scenario, kind=kind)
        if faults is not None:
            apply_faults(instance, load_fault_schedule(faults))
        instance.run(horizon)
        return instance
    with telemetry_scope(telemetry):
        instance = build_scenario_app(scenario, kind=kind)
        if faults is not None:
            apply_faults(instance, load_fault_schedule(faults), telemetry=telemetry)
        instance.run(horizon)
    return instance


def _hex(value) -> str:
    return "none" if value is None else float(value).hex()


def _wear(instance):
    """Per-bank (name, voltage, per-group cycles) of the run's reservoir."""
    reservoir = instance.executor.board.power_system.reservoir
    rows = []
    for name in reservoir.bank_names:
        bank = reservoir.bank(name)
        groups = [
            [spec.name, _hex(bank.group_cycles(spec.name))]
            for spec, _count in bank.spec.groups
        ]
        rows.append([name, _hex(bank.voltage), groups])
    return rows


def _canonical(instance) -> dict:
    """Every simulated record of a run, floats as ``float.hex``."""
    trace = instance.trace
    return {
        "now": _hex(instance.executor.now),
        "samples": [
            [_hex(s.time), s.sensor, _hex(s.value), s.event_id] for s in trace.samples
        ],
        "voltages": [[_hex(v.time), _hex(v.voltage), v.source] for v in trace.voltages],
        "packets": [
            [_hex(p.time), p.payload, p.size_bytes, p.event_id] for p in trace.packets
        ],
        "states": [[_hex(s.time), s.state, s.detail] for s in trace.states],
        "counters": sorted(trace.counters.items()),
        "durations": sorted(
            (name, [_hex(x) for x in series]) for name, series in trace.durations.items()
        ),
        "wear": _wear(instance),
    }


def digest(instance) -> dict:
    """The pinned summary of one run: counts for a readable diff plus
    the sha256 over :func:`_canonical`."""
    canonical = _canonical(instance)
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return {
        "samples": len(canonical["samples"]),
        "voltages": len(canonical["voltages"]),
        "packets": len(canonical["packets"]),
        "states": len(canonical["states"]),
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def _trace_fields(trace) -> dict:
    return {
        "voltages": trace.voltages,
        "states": trace.states,
        "packets": trace.packets,
        "samples": trace.samples,
        "events": trace.events,
        "counters": trace.counters,
        "durations": trace.durations,
    }


def _record() -> dict:
    runs = {}
    for app, scenario in _scenarios().items():
        for kind in KINDS:
            runs[f"{app}/{kind}"] = digest(_run(scenario, kind))
    return {"seed": SEED, "scale": SCALE, "runs": runs}


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN.is_file(), (
        "golden executor digests missing; regenerate with "
        "`python tests/test_golden_executor.py --regen`"
    )
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def scenarios():
    return _scenarios()


class TestUninstrumentedExecutorGolden:
    def test_golden_covers_every_app_and_kind(self, golden):
        assert (golden["seed"], golden["scale"]) == (SEED, SCALE)
        assert sorted(golden["runs"]) == sorted(
            f"{app}/{kind}" for app in APPS for kind in KINDS
        )

    @pytest.mark.parametrize("app", APPS)
    def test_runs_match_golden(self, golden, scenarios, app):
        for kind in KINDS:
            got = digest(_run(scenarios[app], kind))
            assert got == golden["runs"][f"{app}/{kind}"], f"{app}/{kind}"


class TestTelemetryDoesNotSteer:
    """A live Telemetry produces the same trace as the disabled plane."""

    @pytest.mark.parametrize("app", APPS)
    def test_enabled_trace_equals_disabled(self, golden, scenarios, app):
        from repro.observability.telemetry import Telemetry

        for kind in ("Pwr", "CB-P"):
            off = _run(scenarios[app], kind)
            telemetry = Telemetry()
            on = _run(scenarios[app], kind, telemetry=telemetry)
            assert telemetry.enabled
            assert _trace_fields(on.trace) == _trace_fields(off.trace), f"{app}/{kind}"
            assert _wear(on) == _wear(off)
            assert digest(on) == golden["runs"][f"{app}/{kind}"]

    def test_faulted_enabled_trace_equals_disabled(self, scenarios):
        from repro.observability.telemetry import Telemetry

        schedule = BLACKOUT.read_text()
        off = _run(scenarios["TempAlarm"], "CB-P", faults=schedule)
        telemetry = Telemetry()
        on = _run(scenarios["TempAlarm"], "CB-P", telemetry=telemetry, faults=schedule)
        assert telemetry.trace_records(), "telemetry recorded nothing"
        assert _trace_fields(on.trace) == _trace_fields(off.trace)
        assert _wear(on) == _wear(off)
        # The blackout must actually change the run, or this test
        # compares two fault-free runs.
        clean = _run(scenarios["TempAlarm"], "CB-P")
        assert digest(off) != digest(clean)


def _regen() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
