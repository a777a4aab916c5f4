"""``--jobs 1`` means serial: no process pool anywhere in the suite.

``run_all.main(jobs=1)`` runs its experiments under
:func:`repro.experiments.parallel.worker_budget`, which caps
:func:`default_jobs`, so an experiment's own fan-out
(``parallel_map`` / ``run_campaign_parallel`` with ``jobs=None``) stays
in-process even when ``REPRO_JOBS`` or the CPU count would allow a pool.

Pools are counted by replacing the module's ``ProcessPoolExecutor``
with a thread-backed stand-in, so the control case that *does* fan out
starts no processes.
"""

import contextlib
import io
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConfigurationError
from repro.experiments import parallel, run_all
from repro.experiments.registry import Experiment, ExperimentRegistry


def _square(value):
    return value * value


def _fanout_runner(seed, scale):
    """An experiment whose body fans out like a campaign does."""
    results = parallel.parallel_map(_square, [(1,), (2,), (3,)])
    return f"fanout: {results}\n"


@pytest.fixture
def pool_constructions(monkeypatch):
    """Every executor the parallel layer builds, by worker count."""
    constructions = []

    class CountingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            constructions.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingExecutor)
    # Without a budget, the inner fan-out would ask for two workers.
    monkeypatch.setenv(parallel.JOBS_ENV, "2")
    return constructions


@pytest.fixture
def fanout_suite(monkeypatch):
    registry = ExperimentRegistry()
    registry._catalogue_loaded = True  # keep the real catalogue out
    registry.register(
        Experiment(
            job_id="fanout",
            title="Fanout",
            runner=_fanout_runner,
            uses_seed=True,
        )
    )
    monkeypatch.setattr(run_all, "_REGISTRY", registry)
    monkeypatch.setattr(run_all, "get_experiment", registry.get)


def test_inner_fanout_pools_without_a_budget(pool_constructions):
    """Control: the stand-in is what parallel_map builds when it may."""
    assert parallel.parallel_map(_square, [(1,), (2,), (3,)]) == [1, 4, 9]
    assert pool_constructions == [2]


def test_run_all_jobs_1_constructs_no_pool(
    pool_constructions, fanout_suite, tmp_path
):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run_all.main(seed=0, scale=0.05, jobs=1, cache_dir=tmp_path / "cache")
    out = buffer.getvalue()
    assert pool_constructions == []
    assert "fanout: [1, 4, 9]" in out
    assert "serial, jobs=1" in out
    # The budget ends with the run.
    assert parallel.default_jobs() == 2


def test_worker_budget_caps_nests_and_restores(monkeypatch):
    monkeypatch.setenv(parallel.JOBS_ENV, "4")
    assert parallel.default_jobs() == 4
    with parallel.worker_budget(2):
        assert parallel.default_jobs() == 2
        with parallel.worker_budget(3):
            # An inner budget can only lower the cap.
            assert parallel.default_jobs() == 2
        with parallel.worker_budget(1):
            assert parallel.default_jobs() == 1
        assert parallel.default_jobs() == 2
    assert parallel.default_jobs() == 4
    with parallel.worker_budget(8):
        # A budget caps; it never raises the count.
        assert parallel.default_jobs() == 4


def test_worker_budget_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        with parallel.worker_budget(0):
            pass
