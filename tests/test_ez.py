import math

import numpy as np
import pytest

from herdvote import engine, ez
from herdvote.ez import EzConfig, ez_run


def test_config_validation():
    config = EzConfig(n_agents=100, a=0.05, total_steps=1000)
    assert config.equilibration_steps == 100
    with pytest.raises(ValueError):
        EzConfig(n_agents=100, a=0.0, total_steps=1000)
    with pytest.raises(ValueError):
        EzConfig(n_agents=100, a=1.0, total_steps=1000)
    with pytest.raises(ValueError):
        EzConfig(n_agents=1, a=0.1, total_steps=1000)
    with pytest.raises(ValueError, match="seed"):
        EzConfig(n_agents=100, a=0.1, total_steps=1000, seed=-1)
    # once failing inside the run, or a bool running as 0 or 1
    for field, value in (("n_agents", 50.0), ("seed", 2.5), ("total_steps", True)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            EzConfig(**{field: value})
    with pytest.raises(TypeError):
        EzConfig(100)  # keyword-only
    assert EzConfig().n_agents == 10_000  # the command line's default
    EzConfig(n_agents=2**24)  # the agent limit itself is accepted: a config allocates nothing


def test_ez_names_are_the_engines():
    """The E-Z run and step are the engine's, so the engine's loop-versus-oracle
    tests cover E-Z configs (`test_engine.py`)."""
    assert ez.ez_step is engine.step
    assert ez.ez_run is engine.run


def test_trade_probability_is_a():
    config = EzConfig(n_agents=500, a=0.05, total_steps=100_000,
                      equilibration_steps=0, seed=12)
    returns, summary = ez_run(config)
    trades = summary.decision_counts["buy"] + summary.decision_counts["sell"]
    n = config.total_steps
    sigma = math.sqrt(n * 0.05 * 0.95)
    assert abs(trades - 0.05 * n) < 3 * sigma


def test_trade_signs_are_symmetric():
    config = EzConfig(n_agents=300, a=0.1, total_steps=150_000,
                      equilibration_steps=0, seed=21)
    returns, _ = ez_run(config)
    trades = returns[returns != 0]
    assert len(trades) > 5000
    # mean / mean|r| -> 0: the sign is a fair coin independent of size
    studentised = trades.mean() / (trades.std() / math.sqrt(len(trades)))
    assert abs(studentised) < 3


def test_near_certain_merging_coagulates():
    # trades are ~once per 10^5 steps here, so merging runs to completion
    config = EzConfig(n_agents=30, a=1e-5, total_steps=20_000, seed=2)
    _, summary = ez_run(config)
    assert summary.final_size_histogram == {30: 1}


def test_high_trade_rate_keeps_groups_small():
    config = EzConfig(n_agents=200, a=0.9, total_steps=50_000,
                      equilibration_steps=0, seed=6)
    returns, summary = ez_run(config)
    assert summary.trade_fraction == pytest.approx(0.9, abs=0.01)
    assert max(summary.final_size_histogram) <= 5
    # nearly every trade is a lone agent: |r| = 1 dominates
    trades = np.abs(returns[returns != 0])
    assert np.mean(trades == 1) > 0.85
