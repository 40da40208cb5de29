import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from corrstat import cli, dataio, synthgen

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _timestamp_unset(monkeypatch):
    # The expected reports assume no pinned timestamp; importing the
    # benchmark's run.py (collected with the suite) pins one process-wide.
    monkeypatch.delenv(cli.TIMESTAMP_ENV, raising=False)


def make_panel(returns, tickers=None):
    returns = np.asarray(returns, dtype=np.float64)
    n, t = returns.shape
    if tickers is None:
        tickers = tuple(f"S{i}" for i in range(n))
    return dataio.ReturnPanel(tuple(tickers), tuple(str(k) for k in range(t)), returns)


def gaussian_panel(n_series, n_steps, seed, truth=None, replica=0):
    if truth is None:
        truth = synthgen.one_factor_correlation(n_series, seed=seed)
    spec = synthgen.GeneratorSpec(
        family=synthgen.FAMILY_GAUSSIAN, n_series=n_series, n_steps=n_steps,
        seed=seed, correlation=truth,
    )
    return synthgen.sample_panel(spec, replica=replica)


@pytest.fixture
def small_panel():
    rng = np.random.default_rng(123)
    return make_panel(rng.normal(size=(4, 60)))
