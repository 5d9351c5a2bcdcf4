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
    cohort, truth = synthetic.generate_cohort(spec, 13)
    return spec, cohort, truth


@pytest.fixture(scope="session")
def bundled_pipeline(bundled_cohort):
    spec, cohort, truth = bundled_cohort
    result = estimation.run_pipeline(cohort, estimation.PipelineConfig())
    return spec, truth, result
