import os

import numpy as np
import pytest

from carecontracts import estimation, synthetic
from carecontracts.domain import ModelParams


@pytest.fixture
def icp_params() -> ModelParams:
    """Published point estimates of the bundled ICP-monitoring case study."""
    return ModelParams(pi00=0.51, pi01=0.75, pi10=0.66, pi11=0.85, gamma=0.44)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def bundled_cohort():
    """The full planted cohort (n = 100,000) at the documented default seed."""
    spec = synthetic.SyntheticCohortSpec()
    cohort, true_classes = synthetic.generate_cohort(spec, 13)
    return spec, cohort, true_classes


@pytest.fixture(scope="session")
def bundled_pipeline(bundled_cohort):
    spec, cohort, true_classes = bundled_cohort
    result = estimation.run_pipeline(cohort, estimation.PipelineConfig())
    return spec, true_classes, result


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped: the
    cohort CSV children live through the ``with`` body of a save."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left behind (pid {pid}, 0 if still running)")


@pytest.fixture(scope="session")
def force_parts():
    """``force(monkeypatch, cpus)`` lets cohort CSV I/O fork up to ``cpus``
    parts of at least 2 rows, and returns the list that collects the pid of
    every child forked. Session-scoped, so that hypothesis tests can use it."""

    def force(monkeypatch, cpus):
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(estimation, "_WRITE_CHUNK", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    return force
