"""vec-fleet: a seeded many-job vec campaign through the planner.

One unit plans the campaign (``plan_campaign``) and executes it
serially (``execute_plan(jobs=1)``) into a fresh on-disk
``ResultCache``.  The jobs are a harvest-scale x system grid on the
TempAlarm platform plus a share of piecewise-trace scenarios at two
other horizons, so the plan has three cohorts.  No job runs the scalar
executor.  Every unit replays the same jobs from a cold cache.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path

from common import RunRecord

#: Grid points (each run on Fixed and CB-P) and piecewise-trace jobs.
GRID_POINTS = 192
TRACE_JOBS = 128
#: Horizons (simulated seconds): the grid cohort, then the trace cohorts.
GRID_HORIZON = 30.0
TRACE_HORIZONS = (20.0, 40.0)
DT = 0.05
#: Jobs re-run solo per unit to check batch payloads.
SAMPLE_PER_UNIT = 4
#: Nominal wall seconds of one unit; sets how many units fit in --seconds.
UNIT_SECONDS = 1.0


class VecFleet:
    name = "vec-fleet"

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        from repro.apps.temp_alarm import MODE_SENSE, scenario
        from repro.experiments import plan
        from repro.experiments.cache import ResultCache
        from repro.spec import canonical_json, load_scenario
        from repro.vec import FIXED_BANK_MODE

        self._plan = plan
        self._cache_cls = ResultCache
        self.workdir = workdir
        self.units = max(1, round(seconds / UNIT_SECONDS))
        rng = random.Random(seed)
        systems = (("Fixed", FIXED_BANK_MODE), ("CB-P", MODE_SENSE))

        base = scenario(seed=seed)
        base_json = canonical_json(base)
        jobs = []
        for point in range(GRID_POINTS):
            power_scale = round(rng.uniform(0.25, 4.0), 6)
            for system, mode in systems:
                jobs.append(
                    plan.CampaignJob(
                        label=f"grid{point}/{system}",
                        scenario_json=base_json,
                        system=system,
                        horizon=GRID_HORIZON,
                        backend="vec",
                        dt=DT,
                        mode=mode,
                        power_scale=power_scale,
                    )
                )
        document = base.to_dict()
        for index in range(TRACE_JOBS):
            horizon = TRACE_HORIZONS[index % len(TRACE_HORIZONS)]
            document["platform"]["harvester"]["irradiance"] = {
                "kind": "piecewise",
                "initial": round(rng.uniform(2.0, 40.0), 3),
                "breakpoints": sorted(
                    [round(rng.uniform(0.5, horizon - 0.5), 3), round(rng.uniform(2.0, 40.0), 3)]
                    for _ in range(3)
                ),
            }
            system, mode = systems[index % 2]
            jobs.append(
                plan.CampaignJob(
                    label=f"trace{index}/{system}",
                    scenario_json=canonical_json(load_scenario(json.dumps(document))),
                    system=system,
                    horizon=horizon,
                    backend="vec",
                    dt=DT,
                    mode=mode,
                )
            )
        rng.shuffle(jobs)
        self.jobs = jobs
        self.sample = [rng.sample(range(len(jobs)), SAMPLE_PER_UNIT) for _ in range(self.units)]

    def instrument(self, tracer) -> None:
        """No workload-specific spans beyond the layer wrappers."""

    def run(self, tracer=None) -> RunRecord:
        record = RunRecord()
        first = None
        steps = 0
        sampled = []
        for unit in range(self.units):
            root = self.workdir / f"vec-cache-{unit}"
            cache = self._cache_cls(root=root)
            record.start_unit()
            started = time.perf_counter()
            campaign = self._plan.plan_campaign(self.jobs)
            executed = self._plan.execute_plan(campaign, cache=cache, jobs=1)
            record.segment(time.perf_counter() - started)
            record.end_unit()

            record.attempted += len(self.jobs)
            record.sim_seconds += sum(job.vec_horizon for job in self.jobs)
            bad = [
                i for i, payload in enumerate(executed.results)
                if not (isinstance(payload, dict) and "fleet" in payload)
            ]
            if bad:
                record.fail(len(bad), f"unit {unit}: {len(bad)} jobs returned no payload")
            stored = len(list(root.glob("*.pkl")))
            if cache.stats.stores != len(self.jobs) or stored != len(self.jobs):
                record.fail(
                    abs(len(self.jobs) - stored) or 1,
                    f"unit {unit}: {stored} cache entries for {len(self.jobs)} jobs",
                )
            for index in self.sample[unit]:
                sampled.append((unit, index, executed.results[index]))
            steps += sum(
                payload["counters"]["steps"]
                for payload in executed.results
                if isinstance(payload, dict)
            )
            if first is None:
                first = executed
            elif executed.results != first.results:
                record.fail(len(self.jobs), f"unit {unit}: payloads differ from unit 0")
            shutil.rmtree(root, ignore_errors=True)

        stats = first.plan.stats()
        record.layer["plan.batched_fraction"] = stats["batched_fraction"]
        record.layer["plan.cohorts"] = stats["cohorts"]
        record.layer["vec.device_steps"] = steps
        record.outputs["sampled"] = sampled
        return record

    def check(self, record: RunRecord) -> None:
        """Sampled batch payloads equal solo ``run_fleet_batch`` runs."""
        for unit, index, payload in record.outputs["sampled"]:
            solo = self._plan.run_fleet_batch((self.jobs[index],))[0]
            if solo != payload:
                record.fail(1, f"unit {unit}: job {index} differs from its solo run")
