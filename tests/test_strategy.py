from math import factorial

import numpy as np
import pytest
from scipy import stats

from herdvote.strategy import (
    BUY,
    SELL,
    WAIT,
    StrategyTable,
    VoteMode,
    assign_strategies,
    history_index,
    poll_group,
    random_strategy,
    update_history,
    vote,
)

CONSTANT_BUY = StrategyTable(2, (BUY, BUY, BUY, BUY))


def test_random_strategy_shape():
    rng = np.random.default_rng(0)
    table = random_strategy(2, rng)
    assert len(table.entries) == 4
    assert all(a in (BUY, SELL, WAIT) for a in table.entries)
    assert len(random_strategy(1, rng).entries) == 2
    assert len(random_strategy(3, rng).entries) == 8


def test_random_strategy_requires_memory():
    with pytest.raises(ValueError):
        random_strategy(0, np.random.default_rng(0))


def test_random_strategy_entry_uniform():
    rng = np.random.default_rng(99)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[random_strategy(2, rng).action((1, 1))] += 1
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) < 3 * sigma)


def test_assign_strategies_order_is_reproducible():
    tables_a = assign_strategies(5, 2, np.random.default_rng(7))
    tables_b = assign_strategies(5, 2, np.random.default_rng(7))
    assert tables_a == tables_b
    # agent 0's table depends only on the stream prefix
    assert tables_a[0] == random_strategy(2, np.random.default_rng(7))


@pytest.mark.parametrize("memory", [1, 2, 3, 5])
def test_assign_strategies_matches_per_agent_draws(memory):
    """One draw for all tables equals one `random_strategy` call per agent."""
    rng = np.random.default_rng(np.random.SeedSequence(11).spawn(2)[0])
    oracle_rng = np.random.default_rng(np.random.SeedSequence(11).spawn(2)[0])
    tables = assign_strategies(10_000, memory, rng)
    assert tables == [random_strategy(memory, oracle_rng) for _ in range(10_000)]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_history_index():
    assert history_index((0, 0)) == 0
    assert history_index((0, 1)) == 1
    assert history_index((1, 0)) == 2
    assert history_index((1, 1)) == 3


def test_vote_lookup():
    assert vote(CONSTANT_BUY, (0, 1)) == BUY
    table = StrategyTable(2, (BUY, SELL, WAIT, SELL))
    assert vote(table, (1, 1)) == SELL
    assert vote(table, (1, 1)) == SELL  # deterministic
    with pytest.raises(ValueError):
        vote(table, (1, 1, 0))


def test_identical_tables_vote_identically():
    rng = np.random.default_rng(3)
    table = random_strategy(2, rng)
    clone = StrategyTable(table.memory, table.entries)
    for h in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert vote(table, h) == vote(clone, h)


def test_update_history_rules():
    assert update_history((1, 1), -7) == (1, 0)
    assert update_history((1, 0), +3) == (0, 1)
    assert update_history((0, 1), 0) == (0, 1)


def test_update_history_is_pure_and_length_preserving():
    h = (1, 0, 1)
    out = update_history(h, 5)
    assert h == (1, 0, 1)
    assert len(out) == 3
    assert out == (0, 1, 1)


def test_poll_group_singleton_constant():
    tally = poll_group([0], [CONSTANT_BUY], (1, 1), VoteMode.STRATEGY_DRIVEN, None)
    assert tuple(tally) == (1, 0, 0)


def test_poll_group_empty_rejected():
    with pytest.raises(ValueError):
        poll_group([], [], (1, 1), VoteMode.IID_UNIFORM, np.random.default_rng(0))


def test_poll_group_history_length_checked():
    with pytest.raises(ValueError):
        poll_group([0], [CONSTANT_BUY], (1,), VoteMode.STRATEGY_DRIVEN, None)


def test_poll_group_iid_counts():
    rng = np.random.default_rng(17)
    s = 10_000
    tally = poll_group(range(s), None, (1, 1), VoteMode.IID_UNIFORM, rng)
    assert tally.size == s
    sigma = np.sqrt(s * (1 / 3) * (2 / 3))
    for count in tally:
        assert abs(count - s / 3) < 3 * sigma


def test_strategy_poll_is_frozen_in_time():
    """Same group, same history: identical tally and no randomness consumed."""
    rng = np.random.default_rng(5)
    strategies = assign_strategies(40, 2, np.random.default_rng(8))
    members = list(range(40))
    state_before = rng.bit_generator.state
    first = poll_group(members, strategies, (0, 1), VoteMode.STRATEGY_DRIVEN, rng)
    second = poll_group(members, strategies, (0, 1), VoteMode.STRATEGY_DRIVEN, rng)
    assert first == second
    assert rng.bit_generator.state == state_before


def test_fresh_strategies_match_iid_distribution():
    """Chi-square over tallies: one strategy-driven poll ~ multinomial(s; 1/3)."""
    s = 3
    reps = 20_000
    rng = np.random.default_rng(2718)
    tallies = {}
    for _ in range(reps):
        strategies = assign_strategies(s, 2, rng)
        tally = poll_group(range(s), strategies, (1, 1), VoteMode.STRATEGY_DRIVEN, None)
        tallies[tuple(tally)] = tallies.get(tuple(tally), 0) + 1
    observed, expected = [], []
    for b in range(s + 1):
        for sc in range(s + 1 - b):
            w = s - b - sc
            p = factorial(s) / (factorial(b) * factorial(sc) * factorial(w)) / 3**s
            observed.append(tallies.get((b, sc, w), 0))
            expected.append(p * reps)
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.001
