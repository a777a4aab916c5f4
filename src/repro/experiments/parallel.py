"""Parallel experiment execution.

Every evaluation artifact re-runs the *same* deterministic simulation
under different power systems or parameter points, so the experiment
layer is embarrassingly parallel: the four :class:`SystemKind` runs of
a campaign, each point of a sweep grid, and each top-level experiment
of ``run_all`` are independent.  This module fans that work out over a
``ProcessPoolExecutor`` while preserving the methodology the paper
depends on:

* **deterministic ordering** — results always come back in submission
  order, regardless of which worker finished first;
* **seed isolation** — workers never share RNG state: each task
  rebuilds its app from the builder (which embeds the seed), so a
  parallel run is bit-identical to a serial one;
* **graceful fallback** — ``REPRO_JOBS=1``, a single-core machine, or
  a non-picklable task quietly degrades to the serial path with the
  same results;
* **timing capture** — each task reports its wall-clock cost so
  ``run_all`` can show where the time went;
* **resilience** — a :class:`RetryPolicy` re-runs failed tasks with
  exponential backoff and deterministic jitter, and ``on_error="capture"``
  degrades a permanently failing task into a :class:`TaskError` row
  instead of aborting the batch.  Paired with
  :class:`~repro.faults.inject.WorkerChaos`, the same machinery becomes
  a chaos harness: injected crashes are deterministic per
  ``(label, attempt)``, and because every task is a pure function of its
  arguments, a crashed-and-retried batch is byte-identical to an
  undisturbed one.

Workers return only the :class:`~repro.sim.trace.Trace` (plain data);
the parent process rebuilds the cheap ``AppInstance`` shell locally and
grafts the worker's trace onto it, so nothing hard-to-pickle (closures,
generators, heaps of callbacks) ever crosses the process boundary.
"""

from __future__ import annotations

import os
import pickle
import threading as _threading
import time as _time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.apps.base import AppInstance
from repro.core.builder import SystemKind
from repro.errors import ConfigurationError
from repro.experiments.campaign import DEFAULT_KINDS, AppBuilder, Campaign
from repro.faults.inject import WorkerChaos, _unit_draw
from repro.observability.telemetry import Telemetry, resolve_telemetry
from repro.sim.trace import Trace

T = TypeVar("T")

#: Environment variable forcing the worker count (1 disables the pool).
JOBS_ENV = "REPRO_JOBS"

#: The active in-process worker budget (see :func:`worker_budget`).
_budget: Optional[int] = None


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the CPU count, capped
    by the active :func:`worker_budget`."""
    jobs = os.cpu_count() or 1
    override = os.environ.get(JOBS_ENV)
    if override:
        try:
            jobs = max(1, int(override))
        except ValueError:
            pass
    return jobs if _budget is None else min(jobs, _budget)


@contextmanager
def worker_budget(jobs: int) -> Iterator[None]:
    """Cap :func:`default_jobs` at *jobs* inside the block.

    The budget is process-wide and nests (an inner budget can only
    lower the cap).  ``run_all.main(jobs=1)`` runs its experiments under
    ``worker_budget(1)``, so the fan-out inside an experiment
    (:func:`run_campaign_parallel`, :func:`parallel_map` with
    ``jobs=None``) stays in-process too: ``--jobs 1`` means serial.
    """
    global _budget
    if jobs < 1:
        raise ConfigurationError(f"worker budget must be >= 1, got {jobs}")
    previous = _budget
    _budget = jobs if previous is None else min(previous, jobs)
    try:
        yield
    finally:
        _budget = previous


def _picklable(*objects: Any) -> bool:
    """Whether every object survives pickling (pool transport check)."""
    try:
        for obj in objects:
            pickle.dumps(obj)
        return True
    except Exception:
        return False


@dataclass
class TaskTiming:
    """Wall-clock cost of one parallel task, for reporting.

    ``seconds`` is the cost of the attempt that produced the result (or
    the last attempt, for tasks that gave up); ``attempts`` is how many
    tries that took.
    """

    label: str
    seconds: float
    attempts: int = 1


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    The delay before attempt ``n+1`` is ``base_delay * 2**(n-1)`` capped
    at *max_delay*, scaled by a jitter factor in ``[0.5, 1.0)`` drawn —
    reproducibly — from SHA-256 of ``(seed, label, attempt)``.  Nothing
    about a retried batch depends on wall-clock or global RNG state, so
    retries never perturb results.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0.0 or self.max_delay < 0.0:
            raise ConfigurationError("retry delays must be non-negative")

    def delay(self, label: str, attempt: int) -> float:
        """Backoff before re-running *label* after failed *attempt*."""
        backoff = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        jitter = _unit_draw(self.seed, f"retry:{label}", attempt)
        return backoff * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class TaskError:
    """A task that failed every attempt, captured as data.

    With ``on_error="capture"`` the failing task's result slot holds one
    of these instead of aborting the whole batch — ``run_all`` turns it
    into a structured error row.
    """

    label: str
    error: str
    attempts: int

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[error] {self.label} failed after {self.attempts} attempt(s): {self.error}"


@dataclass
class ParallelReport:
    """Per-task timings plus how the batch actually executed."""

    mode: str = "serial"  # "serial" or "process-pool"
    jobs: int = 1
    timings: List[TaskTiming] = field(default_factory=list)

    @property
    def total_task_seconds(self) -> float:
        return sum(timing.seconds for timing in self.timings)


def _timed_call(fn: Callable[..., T], args: Tuple[Any, ...]) -> Tuple[T, float]:
    started = _time.perf_counter()
    result = fn(*args)
    return result, _time.perf_counter() - started


def _attempt_call(
    fn: Callable[..., T],
    args: Tuple[Any, ...],
    chaos: Optional[WorkerChaos],
    label: str,
    attempt: int,
) -> Tuple[T, float]:
    """One timed attempt, with the chaos check inside the worker.

    Module-level so the pool can ship it; the chaos policy travels by
    value (it is a frozen dataclass), and its decision is a pure
    function of ``(seed, label, attempt)``, so parent and worker agree
    on which attempts die without any shared state.
    """
    started = _time.perf_counter()
    if chaos is not None:
        chaos.raise_if_injected(label, attempt)
    result = fn(*args)
    return result, _time.perf_counter() - started


def parallel_map(
    fn: Callable[..., T],
    tasks: Sequence[Tuple[Any, ...]],
    jobs: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    report: Optional[ParallelReport] = None,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[WorkerChaos] = None,
    on_error: str = "raise",
    telemetry: Optional[Telemetry] = None,
) -> List[Any]:
    """Apply *fn* to each argument tuple, fanning out over processes.

    Results are returned in task order.  Falls back to an in-process
    serial loop when *jobs* (default :func:`default_jobs`) is 1, there
    is a single task, or *fn*/*tasks* cannot be pickled.

    Args:
        fn: a module-level (picklable) callable.
        tasks: one argument tuple per invocation.
        jobs: worker processes; ``None`` uses :func:`default_jobs`.
        labels: optional display labels for the timing report (also the
            retry/chaos identity of each task — keep them stable).
        report: optional :class:`ParallelReport` to fill with timings.
        retry: re-run failed tasks under this policy (default: one
            attempt, no retry).
        chaos: deterministic fault injection — each attempt first asks
            the policy whether to crash (:mod:`repro.faults`).
        on_error: ``"raise"`` re-raises once a task exhausts its
            attempts; ``"capture"`` stores a :class:`TaskError` in that
            task's result slot and keeps going.
        telemetry: sink for ``campaign.retries`` / ``campaign.gave_up``
            counters (``None`` resolves the ambient scope).

    Raises:
        ConfigurationError: for an unknown *on_error* mode.
    """
    if on_error not in ("raise", "capture"):
        raise ConfigurationError(
            f'on_error must be "raise" or "capture", got {on_error!r}'
        )
    jobs = default_jobs() if jobs is None else max(1, jobs)
    labels = list(labels) if labels is not None else [str(i) for i in range(len(tasks))]
    telemetry = resolve_telemetry(telemetry)
    max_attempts = retry.max_attempts if retry is not None else 1
    use_pool = (
        jobs > 1
        and len(tasks) > 1
        and _picklable(fn, list(tasks))
        and (chaos is None or _picklable(chaos))
    )

    if report is not None:
        report.mode = "process-pool" if use_pool else "serial"
        report.jobs = jobs if use_pool else 1

    def _backoff(label: str, attempt: int) -> None:
        if retry is None:
            return
        delay = retry.delay(label, attempt)
        if delay > 0.0:
            _time.sleep(delay)

    def _give_up(label: str, attempt: int, error: BaseException) -> TaskError:
        if telemetry.enabled:
            telemetry.inc("campaign.gave_up")
        if on_error == "raise":
            raise error
        return TaskError(label=label, error=repr(error), attempts=attempt)

    outputs: List[Any] = []
    if not use_pool:
        for label, args in zip(labels, tasks):
            for attempt in range(1, max_attempts + 1):
                try:
                    result, seconds = _attempt_call(fn, args, chaos, label, attempt)
                except Exception as error:
                    if attempt >= max_attempts:
                        outputs.append(_give_up(label, attempt, error))
                        if report is not None:
                            report.timings.append(TaskTiming(label, 0.0, attempt))
                        break
                    if telemetry.enabled:
                        telemetry.inc("campaign.retries")
                    _backoff(label, attempt)
                else:
                    outputs.append(result)
                    if report is not None:
                        report.timings.append(TaskTiming(label, seconds, attempt))
                    break
        return outputs

    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_attempt_call, fn, args, chaos, label, 1)
            for label, args in zip(labels, tasks)
        ]
        # Collect in submission order.  A failed future retries by
        # resubmitting the same task (next attempt number) after the
        # backoff; later tasks keep running in other workers meanwhile.
        for index, (label, future) in enumerate(zip(labels, futures)):
            attempt = 1
            while True:
                try:
                    result, seconds = future.result()
                except Exception as error:
                    if attempt >= max_attempts:
                        outputs.append(_give_up(label, attempt, error))
                        if report is not None:
                            report.timings.append(TaskTiming(label, 0.0, attempt))
                        break
                    if telemetry.enabled:
                        telemetry.inc("campaign.retries")
                    _backoff(label, attempt)
                    attempt += 1
                    future = pool.submit(
                        _attempt_call, fn, tasks[index], chaos, label, attempt
                    )
                else:
                    outputs.append(result)
                    if report is not None:
                        report.timings.append(TaskTiming(label, seconds, attempt))
                    break
    return outputs


# ---------------------------------------------------------------------------
# Persistent worker pool (long-lived callers: the job service)
# ---------------------------------------------------------------------------

class WorkerPool:
    """A process pool that survives across jobs instead of per call.

    :func:`parallel_map` tears its ``ProcessPoolExecutor`` down after
    every batch — the right shape for a one-shot CLI run, the wrong one
    for a long-lived service where pool spin-up would dominate small
    jobs.  This class keeps one executor alive across any number of
    :meth:`run_task` calls and makes teardown **idempotent**: a pool
    shared between a request handler and a process-exit hook may see
    ``shutdown`` twice (or concurrently), and the second call must be a
    no-op rather than double-joining workers.

    ``jobs=1`` runs tasks inline in the calling thread — same retry and
    chaos semantics, no subprocess — which is also the graceful-fallback
    path when a task cannot be pickled.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, jobs)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = _threading.Lock()
        #: Tasks handed to :meth:`run_task` over the pool's lifetime
        #: (cache hits served without touching the pool leave this
        #: untouched — the service tests assert exactly that).
        self.tasks_run = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def mode(self) -> str:
        return "serial" if self.jobs == 1 else "process-pool"

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ConfigurationError("WorkerPool is shut down")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            return self._executor

    def shutdown(self) -> None:
        """Release the workers.  Safe to call any number of times.

        The executor reference is swapped out under the lock before the
        (blocking) join, so a second caller — another thread, an atexit
        hook, a ``with`` block unwinding after an explicit shutdown —
        observes ``None`` and returns immediately instead of joining
        half-dead worker processes a second time.
        """
        with self._lock:
            if self._closed and self._executor is None:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    #: Alias so the pool can sit wherever an Executor-shaped object is
    #: expected for cleanup.
    close = shutdown

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- execution ------------------------------------------------------

    def run_task(
        self,
        fn: Callable[..., T],
        args: Tuple[Any, ...],
        label: str = "task",
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[WorkerChaos] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> Tuple[T, TaskTiming]:
        """Run one task to completion under the retry/chaos contract.

        Blocking; callers that must not block (the asyncio service) wrap
        this in a thread.  Semantics match :func:`parallel_map` with
        ``on_error="raise"``: *chaos* may kill attempts deterministically
        per ``(label, attempt)``, *retry* re-runs them with backoff, and
        the task's last error propagates once attempts are exhausted.
        """
        if self._closed:
            raise ConfigurationError("WorkerPool is shut down")
        telemetry = resolve_telemetry(telemetry)
        max_attempts = retry.max_attempts if retry is not None else 1
        use_pool = (
            self.jobs > 1
            and _picklable(fn, list(args))
            and (chaos is None or _picklable(chaos))
        )
        self.tasks_run += 1
        last_error: Optional[BaseException] = None
        for attempt in range(1, max_attempts + 1):
            try:
                if use_pool:
                    future = self._ensure_executor().submit(
                        _attempt_call, fn, args, chaos, label, attempt
                    )
                    result, seconds = future.result()
                else:
                    result, seconds = _attempt_call(fn, args, chaos, label, attempt)
            except Exception as error:
                last_error = error
                if attempt >= max_attempts:
                    if telemetry.enabled:
                        telemetry.inc("campaign.gave_up")
                    raise
                if telemetry.enabled:
                    telemetry.inc("campaign.retries")
                if retry is not None:
                    delay = retry.delay(label, attempt)
                    if delay > 0.0:
                        _time.sleep(delay)
            else:
                return result, TaskTiming(label, seconds, attempt)
        raise last_error  # pragma: no cover - unreachable (loop raises)

    def submit_attempt(
        self,
        fn: Callable[..., T],
        args: Tuple[Any, ...],
        chaos: Optional[WorkerChaos],
        label: str,
        attempt: int,
    ):
        """Submit ONE attempt and return its future (no retry loop).

        The building block the DAG dispatcher (:mod:`repro.experiments.dag`)
        schedules with: it owns the retry/backoff policy itself because a
        failed attempt must not block unrelated ready tasks the way the
        blocking :meth:`run_task` loop would.  Semantics per attempt are
        identical — the same :func:`_attempt_call` body runs worker-side,
        so chaos decisions stay a pure function of ``(label, attempt)``.
        """
        if self._closed:
            raise ConfigurationError("WorkerPool is shut down")
        return self._ensure_executor().submit(
            _attempt_call, fn, args, chaos, label, attempt
        )

    def map_tasks(
        self,
        fn: Callable[..., T],
        tasks: Sequence[Tuple[Any, ...]],
        labels: Optional[Sequence[str]] = None,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[WorkerChaos] = None,
        on_error: str = "raise",
        telemetry: Optional[Telemetry] = None,
        report: Optional[ParallelReport] = None,
    ) -> List[Any]:
        """:func:`parallel_map` semantics on the persistent executor.

        Results come back in task order; retry/chaos/``on_error``
        contracts match :func:`parallel_map` exactly, so a campaign can
        move from the per-call pool to a long-lived one without
        changing results.  Each task counts toward :attr:`tasks_run`
        (the batch is N tasks, however they are scheduled).
        """
        if on_error not in ("raise", "capture"):
            raise ConfigurationError(
                f'on_error must be "raise" or "capture", got {on_error!r}'
            )
        if self._closed:
            raise ConfigurationError("WorkerPool is shut down")
        labels = (
            list(labels)
            if labels is not None
            else [str(i) for i in range(len(tasks))]
        )
        telemetry = resolve_telemetry(telemetry)
        max_attempts = retry.max_attempts if retry is not None else 1
        use_pool = (
            self.jobs > 1
            and len(tasks) > 1
            and _picklable(fn, list(tasks))
            and (chaos is None or _picklable(chaos))
        )
        self.tasks_run += len(tasks)
        if report is not None:
            report.mode = "process-pool" if use_pool else "serial"
            report.jobs = self.jobs if use_pool else 1

        def _give_up(label: str, attempt: int, error: BaseException) -> TaskError:
            if telemetry.enabled:
                telemetry.inc("campaign.gave_up")
            if on_error == "raise":
                raise error
            return TaskError(label=label, error=repr(error), attempts=attempt)

        def _backoff(label: str, attempt: int) -> None:
            if retry is None:
                return
            delay = retry.delay(label, attempt)
            if delay > 0.0:
                _time.sleep(delay)

        outputs: List[Any] = []
        if not use_pool:
            for label, args in zip(labels, tasks):
                for attempt in range(1, max_attempts + 1):
                    try:
                        result, seconds = _attempt_call(
                            fn, args, chaos, label, attempt
                        )
                    except Exception as error:
                        if attempt >= max_attempts:
                            outputs.append(_give_up(label, attempt, error))
                            if report is not None:
                                report.timings.append(
                                    TaskTiming(label, 0.0, attempt)
                                )
                            break
                        if telemetry.enabled:
                            telemetry.inc("campaign.retries")
                        _backoff(label, attempt)
                    else:
                        outputs.append(result)
                        if report is not None:
                            report.timings.append(
                                TaskTiming(label, seconds, attempt)
                            )
                        break
            return outputs

        executor = self._ensure_executor()
        futures = [
            executor.submit(_attempt_call, fn, args, chaos, label, 1)
            for label, args in zip(labels, tasks)
        ]
        for index, (label, future) in enumerate(zip(labels, futures)):
            attempt = 1
            while True:
                try:
                    result, seconds = future.result()
                except Exception as error:
                    if attempt >= max_attempts:
                        outputs.append(_give_up(label, attempt, error))
                        if report is not None:
                            report.timings.append(TaskTiming(label, 0.0, attempt))
                        break
                    if telemetry.enabled:
                        telemetry.inc("campaign.retries")
                    _backoff(label, attempt)
                    attempt += 1
                    future = executor.submit(
                        _attempt_call, fn, tasks[index], chaos, label, attempt
                    )
                else:
                    outputs.append(result)
                    if report is not None:
                        report.timings.append(TaskTiming(label, seconds, attempt))
                    break
        return outputs


# ---------------------------------------------------------------------------
# Campaign fan-out
# ---------------------------------------------------------------------------

def _run_builder_kind(builder: AppBuilder, kind: SystemKind, horizon: float) -> Trace:
    """Worker body: build one system variant, run it, return the trace."""
    instance = builder(kind)
    instance.run(horizon)
    return instance.trace


def _run_spec_kind(scenario_json: str, kind_value: str, horizon: float) -> Trace:
    """Worker body for the spec path: only plain strings cross the
    process boundary; the scenario rebuilds app + system worker-side."""
    from repro.spec import build_scenario_app

    instance = build_scenario_app(scenario_json, kind=kind_value)
    instance.run(horizon)
    return instance.trace


def run_campaign_parallel(
    builder: AppBuilder,
    horizon: float,
    kinds: Optional[List[SystemKind]] = None,
    jobs: Optional[int] = None,
    report: Optional[ParallelReport] = None,
) -> Campaign:
    """:func:`~repro.experiments.campaign.run_campaign`, fanned out.

    Each :class:`SystemKind` runs in its own worker process; the parent
    rebuilds the (cheap, un-run) instances locally and attaches the
    workers' traces, so the returned :class:`Campaign` is drop-in
    compatible with every metric helper.  *builder* must embed the
    seed/schedule, exactly as the serial contract requires — that is
    also what makes worker runs bit-identical to serial ones.

    Builders that cannot be pickled (closures over rigs, lambdas) run
    serially in-process with identical results.  Spec-backed builders
    (anything exposing ``scenario_json``, e.g.
    :class:`repro.spec.ScenarioBuilder`) take a stronger path: workers
    receive only the canonical scenario JSON string — always picklable —
    and rebuild the app themselves.
    """
    kinds = kinds if kinds is not None else list(DEFAULT_KINDS)
    scenario_json = getattr(builder, "scenario_json", None)
    if scenario_json is not None:
        traces = parallel_map(
            _run_spec_kind,
            [(scenario_json, kind.value, horizon) for kind in kinds],
            jobs=jobs,
            labels=[kind.value for kind in kinds],
            report=report,
        )
    else:
        traces = parallel_map(
            _run_builder_kind,
            [(builder, kind, horizon) for kind in kinds],
            jobs=jobs,
            labels=[kind.value for kind in kinds],
            report=report,
        )
    instances: Dict[SystemKind, AppInstance] = {}
    app_name = ""
    for kind, trace in zip(kinds, traces):
        instance = builder(kind)
        _graft_trace(instance, trace)
        instances[kind] = instance
        app_name = instance.name
    return Campaign(app_name=app_name, instances=instances, horizon=horizon)


def _graft_trace(instance: AppInstance, trace: Trace) -> None:
    """Attach a worker-produced trace to a locally-built instance."""
    if trace is instance.trace:
        return  # serial fallback may already share the object
    instance.trace = trace
    executor = instance.executor
    if hasattr(executor, "trace"):
        executor.trace = trace
