"""service-roundtrip: one closed-loop client driving ``ServiceApp`` over ASGI.

The client calls the ASGI app directly: no sockets, no client threads,
no sleep-polling.  Each request is submit (``POST /v1/jobs``), then
``GET /stream`` until the job settles, then ``GET /result``; the next
request starts when the previous result has arrived.

The traffic is the repository's own service load
(``benchmarks/test_bench_service.py`` and ``scripts/load_gen.py``):
the request body ``{"scenario": ...}`` over
``loadgen.default_scenarios(2, seed=0)``, two TempAlarm specs with
three events at their own horizons, 24 requests per round.  Each spec
is submitted twelve times: its first submit misses (a scalar run,
telemetry collection and a cache put), the other eleven hit (edge
validation, hashing, a cache get and encoding a ~0.8-1 MB result), so
22 of 24 requests hit.

A unit is one round: a fresh service with a fresh result cache.  The
seed orders the round's requests; every order holds the same work.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import RunRecord, SegmentMemos

#: The repository's load: distinct specs, their seed, requests per round.
DISTINCT = 2
SCENARIO_SEED = 0
REQUESTS = 24
#: Rounds a run needs: 20 misses, so the miss p50 has ten beyond it.
MIN_UNITS = 10
#: High enough that the token bucket never refuses a benchmark request.
QUOTA = 1e6
#: Requests between host-speed samples within a round.
SEGMENT = 8
#: Nominal wall seconds of one unit; sets how many units fit in --seconds.
UNIT_SECONDS = 2.5

CLIENT_HEADERS = [(b"x-client-id", b"perfbench")]


async def call(app, method: str, path: str, body: bytes = b"", request_id: str = "") -> Tuple[int, bytes]:
    """One ASGI request to *app*; returns (status, response body)."""
    delivered = False
    status = 0
    chunks: List[bytes] = []

    async def receive():
        nonlocal delivered
        if not delivered:
            delivered = True
            return {"type": "http.request", "body": body, "more_body": False}
        return {"type": "http.disconnect"}

    async def send(message):
        nonlocal status
        if message["type"] == "http.response.start":
            status = message["status"]
        elif message["type"] == "http.response.body":
            chunks.append(message.get("body", b""))

    headers = list(CLIENT_HEADERS)
    if request_id:
        headers.append((b"x-request-id", request_id.encode()))
    scope = {
        "type": "http",
        "method": method,
        "path": path,
        "query_string": b"",
        "headers": headers,
        "client": ("127.0.0.1", 0),
    }
    await app(scope, receive, send)
    return status, b"".join(chunks)


class ServiceRoundtrip:
    name = "service-roundtrip"

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        from repro.service import app as service_app
        from repro.service.loadgen import default_scenarios
        from repro.service.runner import run_scenario_job

        self._service = service_app
        self._run_direct = run_scenario_job
        self.workdir = workdir
        self.units = max(MIN_UNITS, round(seconds / UNIT_SECONDS))
        self.scenarios = default_scenarios(DISTINCT, seed=SCENARIO_SEED)
        self.bodies = [
            json.dumps({"scenario": json.loads(text)}).encode() for text in self.scenarios
        ]
        # (scenario index, expected to hit) per request: a seeded order
        # of every spec REQUESTS // DISTINCT times; a spec's first
        # request misses.
        order = [i for i in range(DISTINCT) for _ in range(REQUESTS // DISTINCT)]
        random.Random(seed).shuffle(order)
        seen = set()
        self.stream: List[Tuple[int, bool]] = []
        for index in order:
            self.stream.append((index, index in seen))
            seen.add(index)
        #: Services for the first pass, built as part of the set-up.
        self.apps = [self._new_app(unit) for unit in range(self.units)]
        #: Direct-run payloads, filled before the first round, outside any clock.
        self.expected: Optional[List[dict]] = None
        self._pending: Dict[str, Tuple[str, float]] = {}
        self._queue_waits: List[float] = []

    def _new_app(self, unit: int):
        config = self._service.ServiceConfig(
            jobs=1,
            cache_dir=self.workdir / f"service-cache-{unit}",
            quota_rate=QUOTA,
            quota_burst=QUOTA,
        )
        return self._service.ServiceApp(config)

    def instrument(self, tracer) -> None:
        """Time queue wait and stamp request ids on the worker's run spans."""
        traced_run = self._service.run_scenario_job
        pending = self._pending
        waits = self._queue_waits

        def run_scenario_job(scenario_json, *args, **kwargs):
            request_id, submitted = pending.pop(scenario_json, (None, None))
            if submitted is not None:
                waits.append(time.perf_counter() - submitted)
            token = tracer.request.set(request_id)
            try:
                return traced_run(scenario_json, *args, **kwargs)
            finally:
                tracer.request.reset(token)

        tracer.replace(self._service, "run_scenario_job", run_scenario_job)

    def _expect(self) -> None:
        """Direct runs: the payload each spec's result must carry."""
        self.expected = [self._run_direct(text, collect=True) for text in self.scenarios]

    async def _request(self, app, index: int, request_id: str, tracer):
        """Submit, stream until settled, fetch the result; time it all."""
        sent = time.perf_counter()
        status, body = await call(app, "POST", "/v1/jobs", self.bodies[index], request_id)
        statuses, cached, result = [status], None, b""
        if status in (200, 202):
            submitted = json.loads(body)
            cached = submitted["cached"]
            if tracer is not None and not cached:
                self._pending[self.scenarios[index]] = (request_id, time.perf_counter())
            job = f"/v1/jobs/{submitted['job_id']}"
            status, _ = await call(app, "GET", f"{job}/stream", request_id=request_id)
            statuses.append(status)
            status, result = await call(app, "GET", f"{job}/result", request_id=request_id)
            statuses.append(status)
        return time.perf_counter() - sent, statuses, cached, result

    async def _session(self, app, unit: int, tracer, record: RunRecord, tally) -> None:
        """One closed-loop round over the stream.  The unit's time is the
        sum of the request latencies; each response is checked, then
        dropped, between requests, and latencies are kept in seconds of
        the reference host."""
        await app.startup()
        wall = 0.0
        pending: List[Tuple[bool, float]] = []
        try:
            for n, (index, expect_hit) in enumerate(self.stream):
                if n and n % SEGMENT == 0:
                    scale = record.segment(wall)
                    for cached, latency in pending:
                        tally["hits" if cached else "misses"].append(latency * scale)
                    wall, pending = 0.0, []
                request_id = f"u{unit}-r{n}"
                token = tracer.request.set(request_id) if tracer is not None else None
                latency, statuses, cached, result = await self._request(
                    app, index, request_id, tracer
                )
                if token is not None:
                    tracer.request.reset(token)
                wall += latency
                record.attempted += 1
                tally["refused"] += sum(1 for status in statuses if status in (429, 503))
                if statuses != [200 if expect_hit else 202, 200, 200]:
                    record.fail(1, f"unit {unit}: scenario {index} answered {statuses}")
                elif cached != expect_hit:
                    record.fail(1, f"unit {unit}: scenario {index} cached={cached}, expected {expect_hit}")
                elif json.loads(result).get("result") != self.expected[index]:
                    record.fail(1, f"unit {unit}: scenario {index} result differs from a direct run")
                else:
                    if cached:
                        tally["hit_bytes"] += len(result)
                    pending.append((cached, latency))
                    if not cached:
                        record.sim_seconds += self.expected[index]["horizon"]
            scale = record.segment(wall)
            for cached, latency in pending:
                tally["hits" if cached else "misses"].append(latency * scale)
        finally:
            await app.shutdown()

    def run(self, tracer=None) -> RunRecord:
        record = RunRecord()
        tally = {"hits": [], "misses": [], "hit_bytes": 0, "refused": 0}
        if self.expected is None:
            self._expect()
        memos = SegmentMemos()
        for unit in range(self.units):
            memos.cold()
            app = self.apps.pop(0) if self.apps else self._new_app(unit)
            record.start_unit()
            asyncio.run(self._session(app, unit, tracer, record, tally))
            record.end_unit()
            memos.tally()
            shutil.rmtree(self.workdir / f"service-cache-{unit}", ignore_errors=True)
        record.layer["booster.segment_cache_hit_ratio"] = memos.hit_ratio
        if tracer is not None and self._queue_waits:
            record.layer["service.queue_wait_s"] = statistics.median(self._queue_waits)
        record.outputs["hits"] = tally["hits"]
        record.outputs["misses"] = tally["misses"]
        hits = len(tally["hits"])
        record.layer["service.result_bytes"] = tally["hit_bytes"] / hits if hits else 0.0
        record.layer["service.hit_ratio"] = len(tally["hits"]) / record.attempted
        record.layer["service.refused"] = tally["refused"]
        return record

    def check(self, record: RunRecord) -> None:
        """Responses are checked per session inside :meth:`run`."""
