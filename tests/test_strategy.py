from math import factorial

import numpy as np
import pytest
from scipy import stats

from herdvote import engine
from herdvote.engine import assign_strategies, history_index, update_history
from oracles import named_cases


def test_assign_strategies_requires_memory():
    with pytest.raises(ValueError):
        assign_strategies(3, 0, np.random.default_rng(0))


def assert_tables_are_draws(n, memory, seed):
    """The chunked uint8 draw of `n` agents' tables from a generator seeded
    with `seed` equals one int64 draw of every table and one int64 draw per
    agent, from generators seeded alike, and leaves the generator where both
    leave it; so does the draw with `_DRAW_CHUNK` at 24 entries."""
    rngs = [np.random.default_rng(seed) for _ in range(4)]
    tables = assign_strategies(n, memory, rngs[0])
    one_draw = rngs[1].integers(0, 3, size=(n, 2**memory))
    per_agent = [rngs[2].integers(0, 3, size=2**memory) for _ in range(n)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_DRAW_CHUNK", 24)
        small_chunks = assign_strategies(n, memory, rngs[3])
    assert one_draw.dtype == np.int64
    assert tables.dtype == np.uint8 and tables.flags.c_contiguous
    assert np.array_equal(tables, one_draw)
    assert np.array_equal(tables, np.array(per_agent))
    assert np.array_equal(tables, small_chunks)
    for rng in rngs[1:]:
        assert rng.bit_generator.state == rngs[0].bit_generator.state


# Named cases of the draw, each collected under the name of the test it
# replaces: a population, a memory and a seed.
named_cases(globals(), assert_tables_are_draws, {
    **{f"test_assign_strategies_matches_per_agent_draws[{m}]": (
        10_000, m, np.random.SeedSequence(11).spawn(2)[0]) for m in (1, 2, 3, 5)},
    "test_assign_strategies_shape": [(7, m, 0) for m in (1, 2, 3)],
    "test_assign_strategies_order_is_reproducible": (5, 2, 7),
})


def test_history_index():
    assert history_index((0, 0)) == 0
    assert history_index((0, 1)) == 1
    assert history_index((1, 0)) == 2
    assert history_index((1, 1)) == 3


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


def test_fresh_strategies_match_iid_distribution():
    """Chi-square over tallies: one strategy-driven poll ~ multinomial(s; 1/3)."""
    s = 3
    reps = 20_000
    rng = np.random.default_rng(2718)
    tallies = {}
    for _ in range(reps):
        strategies = assign_strategies(s, 2, rng)
        tally = tuple(np.bincount(strategies[:, history_index((1, 1))], minlength=3).tolist())
        tallies[tally] = tallies.get(tally, 0) + 1
    observed, expected = [], []
    for b in range(s + 1):
        for sc in range(s + 1 - b):
            w = s - b - sc
            p = factorial(s) / (factorial(b) * factorial(sc) * factorial(w)) / 3**s
            observed.append(tallies.get((b, sc, w), 0))
            expected.append(p * reps)
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.001
