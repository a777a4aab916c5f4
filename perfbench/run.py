"""The repository's benchmark: three serial workloads, checked and measured.

Run from the repository root::

    python3 perfbench/run.py --workload app-campaign --seed 2 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced, then again with every layer
wrapped by :mod:`tracer`, and prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict

from common import REFERENCE_KERNEL_S, PoolCounter, kernel_seconds, peak_rss_mb, percentile
from tracer import Tracer, install_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench-work"
#: Set-up samples per run: this process plus fresh interpreters.
SETUP_PROBES = 6
#: Units a run needs before its unit wall time is a median (ten beyond it).
MEDIAN_UNITS = 20

WORKLOADS = {
    "app-campaign": ("app_campaign", "AppCampaign"),
    "vec-fleet": ("vec_fleet", "VecFleet"),
    "service-roundtrip": ("service_roundtrip", "ServiceRoundtrip"),
}

#: Span names each workload must reach; a wrapper nobody calls reads 0.
EXERCISED = {
    "app-campaign": (
        "executor.run", "powersystem.charge", "powersystem.discharge",
        "reservoir", "booster", "builder.build", "spec.parse",
    ),
    "vec-fleet": (
        "spec.parse", "spec.hash", "plan.plan_campaign", "plan.execute",
        "vec.batch", "vec.build_fleet", "vec.kernel", "cache.get", "cache.put",
    ),
    "service-roundtrip": (
        "service.edge", "service.run", "service.result", "cache.get",
        "cache.put", "spec.parse", "spec.hash", "builder.build", "executor.run",
        "powersystem.discharge",
    ),
}

#: Per-layer metrics a workload computes itself; 0 where it has none.
WORKLOAD_LAYER_METRICS = (
    "booster.segment_cache_hit_ratio",
    "executor.tasks_done", "executor.charge_cycles", "executor.power_failures",
    "reservoir.reconfigurations", "claims.pass", "sim_identical",
    "plan.batched_fraction", "plan.cohorts", "vec.device_steps",
    "service.queue_wait_s", "service.result_bytes", "service.hit_ratio",
    "service.refused",
)


def load_workload(name: str, seed: int, seconds: float, workdir: Path):
    """Import the program and build the workload's inputs (the set-up)."""
    module_name, class_name = WORKLOADS[name]
    module = __import__(module_name)
    return getattr(module, class_name)(seed, seconds, workdir)


def setup_probe(args) -> float:
    """Set-up seconds in a fresh interpreter (imports included,
    interpreter start-up excluded)."""
    probe = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.split()[-1])


def span_metrics(tracer, untraced, traced) -> Dict[str, float]:
    """Per-layer metrics from the traced pass (latencies from the untraced one)."""
    values: Dict[str, float] = {}
    for name in ("executor.run", "powersystem.charge", "powersystem.discharge",
                 "spec.parse", "cache.get", "cache.put"):
        values[f"{name}.calls"] = tracer.count(name)
        values[f"{name}.self_s"] = tracer.own(name)
    values["builder.build.calls"] = tracer.count("builder.build")
    for name, span in (
        ("reservoir.self_s", "reservoir"),
        ("booster.self_s", "booster"),
        ("builder.self_s", "builder.build"),
        ("spec.hash.self_s", "spec.hash"),
        ("plan.plan_campaign.self_s", "plan.plan_campaign"),
        ("plan.execute.self_s", "plan.execute"),
        ("vec.batch.self_s", "vec.batch"),
        ("vec.build_fleet.self_s", "vec.build_fleet"),
        ("vec.kernel.self_s", "vec.kernel"),
        ("service.edge.self_s", "service.edge"),
        ("service.run.self_s", "service.run"),
        ("service.result.self_s", "service.result"),
    ):
        values[name] = tracer.own(span)
    values["spec.parses_per_job"] = tracer.count("spec.parse") / traced.attempted
    for name in ("cache.hits", "cache.bytes_read", "cache.bytes_written"):
        values[name] = tracer.totals.get(name, 0)
    hits, misses = untraced.outputs.get("hits", []), untraced.outputs.get("misses", [])
    values["service.hit_p50_s"] = percentile(hits, 0.5) if hits else 0.0
    values["service.hit_p90_s"] = percentile(hits, 0.9) if hits else 0.0
    values["service.miss_p50_s"] = percentile(misses, 0.5) if misses else 0.0
    values["trace.overhead_frac"] = sum(traced.scaled_walls) / sum(untraced.scaled_walls) - 1.0
    values["trace.spans"] = len(tracer.spans)
    values["host.scale"] = sum(untraced.scaled_walls) / sum(untraced.unit_walls)
    values.update(dict.fromkeys(WORKLOAD_LAYER_METRICS, 0))
    values.update(traced.layer)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="app-campaign only: store its simulated statistics as the "
        "reference later runs compare against",
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(WORKDIR / "default-cache")
    sys.path.insert(0, str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        return measure(args, spec_path, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, spec_path: Path, rundir: Path) -> int:
    started = time.perf_counter()
    workload = load_workload(args.workload, args.seed, args.seconds, rundir)
    setup_first = (time.perf_counter() - started) * REFERENCE_KERNEL_S / kernel_seconds()
    if args.setup_probe:
        print(f"{setup_first:.9f}")
        return 0
    if args.record_reference:
        return record_reference(workload)

    spec = json.loads(spec_path.read_text())
    # Probes before and after the measured passes, so one slow spell
    # of the host does not set the mean.
    setup = [setup_first]
    if not args.trace:
        setup += [setup_probe(args) for _ in range(SETUP_PROBES // 2)]
    pools = PoolCounter()
    try:
        untraced = workload.run(None)
        if args.trace:
            tracer = Tracer()
            install_layers(tracer)
            workload.instrument(tracer)
            try:
                record = workload.run(tracer)
            finally:
                tracer.uninstall()
        else:
            record = untraced
        workload.check(record)
    finally:
        pools.close()

    if pools.created:
        record.fail(1, f"{pools.created} process pool(s) created; the run must be serial")
    if args.trace:
        for span in EXERCISED[args.workload]:
            if not tracer.count(span):
                record.fail(1, f"layer span {span!r} recorded no calls")
        values = span_metrics(tracer, untraced, record)
        values["parallel.pools_created"] = pools.created
        tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        section = spec["per_layer"]
        passes = [untraced, record]
    else:
        units = len(record.unit_walls)
        wall = (
            statistics.median(record.scaled_walls)
            if units >= MEDIAN_UNITS
            else statistics.mean(record.scaled_walls)
        )
        values = {
            "setup_s": statistics.mean(
                setup + [setup_probe(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            ),
            "wall_s": wall,
            "throughput_rps": record.attempted / units / wall,
            "sim_s_per_host_s": record.sim_seconds / units / wall,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": (record.attempted - record.failed) / record.attempted,
        }
        section = spec["end_to_end"]
        passes = [record]

    problems = [problem for done in passes for problem in done.problems]
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in section
    }
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(done.attempted for done in passes),
                "failed": sum(done.failed for done in passes),
                "metrics": metrics,
            }
        )
    )
    return 0


def record_reference(workload) -> int:
    """Store the simulated statistics app-campaign compares against."""
    import app_campaign

    if not isinstance(workload, app_campaign.AppCampaign):
        print("perfbench: --record-reference applies to app-campaign", file=sys.stderr)
        return 2
    record = workload.run(None)
    reference = {
        "seed": app_campaign.SEED,
        "scale": app_campaign.SCALE,
        "stats": record.outputs["stats"],
    }
    app_campaign.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
