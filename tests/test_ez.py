import math

import numpy as np
import pytest

from herdvote.engine import SimState, advance
from herdvote.ez import EzConfig, ez_run, ez_step
from herdvote.voting import Decision


def assert_same_sizes(fused, oracle):
    """Same live handles, the same size under each, the same singleton count."""
    live = oracle.group_ids()
    assert fused.group_ids() == live
    assert [fused._size[g] for g in live] == [oracle._size[g] for g in live]
    assert fused._n_single == oracle._n_single


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
    with pytest.raises(TypeError):
        EzConfig(100)  # keyword-only
    assert EzConfig().n_agents == 10_000  # the command line's default


def test_run_is_deterministic():
    config = EzConfig(n_agents=150, a=0.05, total_steps=30_000, seed=8)
    r1, s1 = ez_run(config)
    r2, s2 = ez_run(config)
    assert np.array_equal(r1, r2)
    assert s1.decision_counts == s2.decision_counts


def test_step_conserves_agents():
    state = SimState(EzConfig(n_agents=50, a=0.1, total_steps=5000, seed=4))
    part = state.partition
    for i in range(5000):
        event = ez_step(state)
        assert event.index == i
        if event.decision in (Decision.BUY, Decision.SELL):
            assert abs(event.net_return) == event.group_size
        else:
            assert event.net_return == 0
        assert sum(s * c for s, c in part.size_histogram().items()) == 50
    part.check_invariants()
    assert state.history == ()  # an E-Z state keeps no history


@pytest.mark.parametrize("n_agents, a", [(80, 0.05), (2, 0.3), (300, 0.005)])
def test_fused_loop_matches_step_oracle(n_agents, a):
    """`ez_run`'s loop reproduces a loop of `ez_step` byte for byte."""
    config = EzConfig(n_agents=n_agents, a=a, total_steps=30_000, seed=4)
    oracle = SimState(config)
    expected = np.array([ez_step(oracle).net_return
                         for _ in range(config.total_steps)], dtype=np.int64)
    returns, summary = ez_run(config)
    assert np.array_equal(returns, expected[config.equilibration_steps:])
    assert list(summary.decision_counts.values()) == oracle.decision_counts
    assert summary.final_size_histogram == oracle.partition.size_histogram()

    # driven in uneven chunks, the loop leaves the very same state
    fused = SimState(config)
    for chunk in (1, 16, 4999, 10_000, 14_984):
        advance(fused, chunk)
    assert fused.partition._group_of == oracle.partition._group_of
    assert list(fused.partition._members.items()) == list(oracle.partition._members.items())
    assert_same_sizes(fused.partition, oracle.partition)
    assert fused._upos == oracle._upos and fused.step_index == oracle.step_index


class TailRunStream:
    """A dynamics stream whose every second block of uniforms ends in 64
    copies of one value v >= a.

    In such a tail every step picks agent int(v * n), merges (v >= a) and
    draws that same agent as the other one, again and again, so the
    rejection loop runs into the end of the block and refills there.  A
    generator's own stream would need some 15 self-picks in a row at the
    end of a block for that.  A test installs it as a state's `_rng`.
    """

    def __init__(self, seed, value):
        self._rng = np.random.default_rng(seed)
        self._value = value
        self._blocks = 0

    def random(self, size):
        u = self._rng.random(size)
        self._blocks += 1
        if self._blocks % 2 == 0:
            u[-64:] = self._value
        return u


def test_fused_loop_matches_oracle_across_blocks_and_both_refill_sites(step_counting_refills):
    config = EzConfig(n_agents=80, a=0.05, total_steps=120_000, equilibration_steps=0, seed=4)
    n = config.total_steps
    oracle = SimState(config)
    oracle._rng = TailRunStream(config.seed, 0.5)
    expected, at_start, in_rejections = step_counting_refills(ez_step, oracle, n)
    assert at_start >= 3 and in_rejections >= 2

    fused = SimState(config)
    fused._rng = TailRunStream(config.seed, 0.5)
    returns = np.zeros(n, dtype=np.int64)
    advance(fused, n, returns)
    assert np.array_equal(returns, expected)
    assert fused.decision_counts == oracle.decision_counts
    assert list(fused.partition._members.items()) == list(oracle.partition._members.items())
    assert_same_sizes(fused.partition, oracle.partition)
    assert fused._upos == oracle._upos and fused._ubuf == oracle._ubuf
    assert list(fused._upicks) == [int(u * 80) for u in fused._ubuf]


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
