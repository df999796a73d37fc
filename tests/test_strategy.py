from math import factorial

import numpy as np
import pytest
from scipy import stats

from herdvote import engine
from herdvote.config import VoteMode
from herdvote.engine import assign_strategies, history_index, update_history
from oracles import BUY, SELL, WAIT, poll_group

CONSTANT_BUY = np.full((1, 4), BUY, dtype=np.uint8)


def test_assign_strategies_shape():
    rng = np.random.default_rng(0)
    for memory in (1, 2, 3):
        tables = assign_strategies(7, memory, rng)
        assert tables.shape == (7, 2**memory)
        assert tables.dtype == np.uint8 and tables.flags.c_contiguous
        assert set(np.unique(tables).tolist()) <= {BUY, SELL, WAIT}


def test_assign_strategies_requires_memory():
    with pytest.raises(ValueError):
        assign_strategies(3, 0, np.random.default_rng(0))


def test_assign_strategies_order_is_reproducible():
    tables_a = assign_strategies(5, 2, np.random.default_rng(7))
    tables_b = assign_strategies(5, 2, np.random.default_rng(7))
    assert np.array_equal(tables_a, tables_b)
    # agent 0's table depends only on the stream prefix
    assert tables_a[0].tolist() == np.random.default_rng(7).integers(0, 3, size=4).tolist()


@pytest.mark.parametrize("memory", [1, 2, 3, 5])
def test_assign_strategies_matches_per_agent_draws(memory, monkeypatch):
    """The chunked uint8 draw equals one int64 draw of every table and one
    int64 draw per agent, and leaves the generator where both leave it."""
    n = 10_000
    rngs = [np.random.default_rng(np.random.SeedSequence(11).spawn(2)[0]) for _ in range(4)]
    tables = assign_strategies(n, memory, rngs[0])
    one_draw = rngs[1].integers(0, 3, size=(n, 2**memory))
    per_agent = [rngs[2].integers(0, 3, size=2**memory) for _ in range(n)]
    monkeypatch.setattr(engine, "_DRAW_CHUNK", 24)  # many chunks, the last one short
    small_chunks = assign_strategies(n, memory, rngs[3])
    assert one_draw.dtype == np.int64
    assert tables.dtype == np.uint8 and tables.flags.c_contiguous
    assert np.array_equal(tables, one_draw)
    assert np.array_equal(tables, np.array(per_agent))
    assert np.array_equal(tables, small_chunks)
    for rng in rngs[1:]:
        assert rng.bit_generator.state == rngs[0].bit_generator.state


def test_history_index():
    assert history_index((0, 0)) == 0
    assert history_index((0, 1)) == 1
    assert history_index((1, 0)) == 2
    assert history_index((1, 1)) == 3


def test_vote_lookup():
    """A member's vote is its table entry at the current history."""
    assert tuple(poll_group([0], CONSTANT_BUY, (0, 1), VoteMode.STRATEGY_DRIVEN, None)) == (1, 0, 0)
    table = np.array([[BUY, SELL, WAIT, SELL]], dtype=np.uint8)
    assert tuple(poll_group([0], table, (1, 1), VoteMode.STRATEGY_DRIVEN, None)) == (0, 1, 0)
    assert tuple(poll_group([0], table, (1, 0), VoteMode.STRATEGY_DRIVEN, None)) == (0, 0, 1)
    with pytest.raises(ValueError):
        poll_group([0], table, (1, 1, 0), VoteMode.STRATEGY_DRIVEN, None)


def test_identical_tables_vote_identically():
    row = assign_strategies(1, 2, np.random.default_rng(3))
    tables = np.concatenate([row, row])
    for h in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert (poll_group([0], tables, h, VoteMode.STRATEGY_DRIVEN, None)
                == poll_group([1], tables, h, VoteMode.STRATEGY_DRIVEN, None))


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
    tally = poll_group([0], CONSTANT_BUY, (1, 1), VoteMode.STRATEGY_DRIVEN, None)
    assert tuple(tally) == (1, 0, 0)


def test_poll_group_empty_rejected():
    with pytest.raises(ValueError):
        poll_group([], None, (1, 1), VoteMode.IID_UNIFORM, np.random.default_rng(0))


def test_poll_group_history_length_checked():
    with pytest.raises(ValueError):
        poll_group([0], CONSTANT_BUY, (1,), VoteMode.STRATEGY_DRIVEN, None)


def test_poll_group_iid_counts():
    rng = np.random.default_rng(17)
    s = 10_000
    tally = poll_group(range(s), None, (1, 1), VoteMode.IID_UNIFORM, rng)
    assert sum(tally) == s
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
