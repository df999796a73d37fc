import gc
import itertools
import math
import tracemalloc
from array import array
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdvote import engine, series as series_module, voting
from herdvote.config import EzConfig, VoteMode
from herdvote.engine import (
    _decode_picks,
    SimConfig,
    SimState,
    advance,
    assign_strategies,
    history_index,
    init_state,
    read_returns_text,
    rescale_returns,
    run,
    step,
    update_history,
    write_returns_binary,
    write_returns_text,
)
from herdvote.series import read_returns_binary
from herdvote.voting import (
    Decision,
    decision_cdf,
    decision_probabilities,
    fragmentation_probability,
)
from oracles import check_partition, live_groups, poll_group


def assert_same_sizes(fused, oracle):
    """Same live handles, the same size under each, the same singleton count."""
    live = live_groups(oracle)
    assert live_groups(fused) == live
    assert [fused._size[g] for g in live] == [oracle._size[g] for g in live]
    assert fused._n_single == oracle._n_single


def use_tables(monkeypatch, tables):
    """States built from here on poll `tables` instead of drawing their own."""
    monkeypatch.setattr(engine, "assign_strategies", lambda *_args: tables)


def unpacked(state, g):
    """Per-history [buy, sell, wait] counts of the packed tally `advance`
    keeps for group g (of two or more agents)."""
    tally, w = state._group_votes[g], state._width
    fields = [(tally >> (f * w)) & ((1 << w) - 1) for f in range(3 << len(state.history))]
    return [fields[f:f + 3] for f in range(0, len(fields), 3)]


def small_config(**kwargs):
    defaults = dict(n_agents=40, x=0.41, total_steps=20_000, seed=5)
    defaults.update(kwargs)
    return SimConfig(**defaults)


# -- config -------------------------------------------------------------------

def test_config_defaults_and_validation():
    config = SimConfig(n_agents=100, x=0.37, total_steps=1000)
    assert config.equilibration_steps == 100  # 10% default
    assert config.vote_mode is VoteMode.STRATEGY_DRIVEN
    assert config.initial_history == (1, 1)  # `memory` ones
    assert SimConfig(memory=3).initial_history == (1, 1, 1)
    with pytest.raises(ValueError):
        SimConfig(n_agents=1, x=0.41, total_steps=100)
    with pytest.raises(ValueError):
        SimConfig(n_agents=10, x=1.2, total_steps=100)
    with pytest.raises(ValueError):
        SimConfig(n_agents=10, x=0.41, total_steps=100, equilibration_steps=100)
    with pytest.raises(ValueError):
        SimConfig(n_agents=10, x=0.41, total_steps=100, initial_history=(1, 1, 0))
    with pytest.raises(ValueError):
        SimConfig(n_agents=10, x=0.41, total_steps=100, initial_history=(1, 2))
    with pytest.raises(ValueError, match="seed"):
        SimConfig(n_agents=10, x=0.41, total_steps=100, seed=-1)
    with pytest.raises(ValueError, match="total_steps must be >= 1"):
        SimConfig(total_steps=0)
    with pytest.raises(ValueError, match="memory must be >= 1"):
        SimConfig(memory=0)
    with pytest.raises(ValueError, match="'strategy' or 'iid'"):
        SimConfig(n_agents=10, x=0.41, total_steps=100, vote_mode="majority")
    with pytest.raises(TypeError):
        SimConfig(10, 0.41, 100)  # keyword-only
    default = SimConfig()  # the command line's defaults
    assert (default.n_agents, default.x, default.total_steps) == (10_000, 0.37, 1_000_000)
    # strategy tables are bounded: n_agents * 2**memory <= 2**24
    SimConfig(n_agents=2**14, x=0.41, total_steps=100, memory=10, initial_history=(1,) * 10)
    for n_agents, memory in ((2**14 + 1, 10), (2, 24), (2, 10**9)):
        with pytest.raises(ValueError, match="budget"):
            SimConfig(n_agents=n_agents, x=0.41, total_steps=100, memory=memory,
                      initial_history=(1,) * min(memory, 30))
    with pytest.raises(ValueError, match="budget"):  # refused before a default history is built
        SimConfig(n_agents=2, memory=10**12)


def test_config_accepts_mode_strings():
    config = SimConfig(n_agents=10, x=0.41, total_steps=100, vote_mode="iid")
    assert config.vote_mode is VoteMode.IID_UNIFORM


# -- determinism ----------------------------------------------------------------

@pytest.mark.parametrize("mode", [VoteMode.STRATEGY_DRIVEN, VoteMode.IID_UNIFORM])
def test_run_is_deterministic(mode):
    config = small_config(vote_mode=mode)
    r1, s1 = run(config)
    r2, s2 = run(config)
    assert np.array_equal(r1, r2)
    assert s1.decision_counts == s2.decision_counts
    assert s1.final_size_histogram == s2.final_size_histogram


def test_different_seeds_differ():
    r1, _ = run(small_config(seed=1))
    r2, _ = run(small_config(seed=2))
    assert not np.array_equal(r1, r2)


# -- the fused loop against the per-step oracle ---------------------------------------

def assert_loop_matches_oracle(config):
    """`run`, a chunked `advance`, and `step` and `advance` interleaved
    reproduce a loop of `step` byte for byte; returns the oracle's events."""
    oracle = init_state(config)
    events = [step(oracle) for _ in range(config.total_steps)]
    expected = np.array([e.net_return for e in events], dtype=np.int64)
    expected = expected[config.equilibration_steps:]

    returns, summary = run(config)
    assert np.array_equal(returns, expected)
    assert list(summary.decision_counts.values()) == oracle.decision_counts
    assert summary.final_size_histogram == oracle.partition.size_histogram()

    fused = init_state(config)
    chunked = np.zeros_like(returns)
    for chunk in itertools.cycle((1, 13, 1000, 10_007)):
        chunk = min(chunk, config.total_steps - fused.step_index)
        if chunk == 0:
            break
        advance(fused, chunk, chunked)
    assert np.array_equal(chunked, expected)
    assert fused.decision_counts == oracle.decision_counts
    assert fused.history == oracle.history
    assert fused.partition._group_of == oracle.partition._group_of
    # handles, their order and each group's member order
    assert list(fused.partition._members.items()) == list(oracle.partition._members.items())
    assert_same_sizes(fused.partition, oracle.partition)
    assert fused._upos == oracle._upos
    advance(oracle, 0)  # the oracle's tallies, built from its partition
    assert fused._group_votes == oracle._group_votes
    with pytest.raises(ValueError):
        advance(fused, -1)

    # `step`, then `advance` (which rebuilds the tallies `step` dropped), then `step`
    mixed = init_state(config)
    interleaved = np.zeros_like(returns)
    e, third = config.equilibration_steps, config.total_steps // 3

    def step_to(stop):
        while mixed.step_index < stop:
            i = mixed.step_index
            net = step(mixed).net_return
            if i >= e:
                interleaved[i - e] = net

    step_to(third)
    advance(mixed, third, interleaved)
    step_to(config.total_steps)
    assert np.array_equal(interleaved, expected)
    assert mixed.decision_counts == oracle.decision_counts
    assert list(mixed.partition._members.items()) == list(oracle.partition._members.items())
    return events


@pytest.mark.parametrize("mode", [VoteMode.STRATEGY_DRIVEN, VoteMode.IID_UNIFORM])
def test_fused_loop_matches_step_oracle(mode):
    assert_loop_matches_oracle(small_config(vote_mode=mode))


def test_oracle_sees_a_fault_in_the_packed_tallies(monkeypatch):
    """The oracle polls the members' table rows, never a packed tally: a
    packer whose packed rows swap the buy and sell counts moves the loop
    alone, and the comparison fails."""
    packer = engine._tally_packer

    def swapped(tables):
        width, rows, _ = packer(tables)
        _, _, single = packer(np.array([1, 0, 2], dtype=np.uint8)[tables])
        return width, rows, single

    monkeypatch.setattr(engine, "_tally_packer", swapped)
    with pytest.raises(AssertionError):
        assert_loop_matches_oracle(small_config())


@settings(max_examples=60, deadline=None, database=None)
@given(
    n_agents=st.integers(2, 30),
    x=st.floats(0.05, 0.95),
    memory=st.integers(1, 4),
    bits=st.lists(st.integers(0, 1), min_size=4, max_size=4),
    seed=st.integers(0, 2**32),
    total_steps=st.integers(1, 3000),
    mode=st.sampled_from(list(VoteMode)),
)
def test_fused_loop_matches_step_oracle_on_random_configs(
        n_agents, x, memory, bits, seed, total_steps, mode):
    assert_loop_matches_oracle(SimConfig(
        n_agents=n_agents, x=x, total_steps=total_steps, memory=memory,
        initial_history=tuple(bits[:memory]), vote_mode=mode, seed=seed,
    ))


@pytest.mark.parametrize("mode, seed, n_steps", [
    (VoteMode.STRATEGY_DRIVEN, 2, 150_000),
    (VoteMode.IID_UNIFORM, 1, 200_000),
])
def test_fused_loop_matches_oracle_across_blocks_and_both_refill_sites(
        mode, seed, n_steps, step_counting_refills):
    """Runs long enough to cross several 2**16-draw blocks.  At N = 30 and
    x = 0.34 a group of nearly every agent rejects about 30 merge targets in
    a row, and in these runs one such streak runs into the end of a block:
    `advance` refills there too, not only before an agent pick."""
    config = SimConfig(n_agents=30, x=0.34, total_steps=n_steps, equilibration_steps=0,
                       seed=seed, vote_mode=mode)
    oracle = init_state(config)
    expected, at_start, in_rejections = step_counting_refills(step, oracle, n_steps)
    assert at_start >= 3 and in_rejections >= 1

    fused = init_state(config)
    returns = np.zeros(n_steps, dtype=np.int64)
    advance(fused, n_steps, returns)
    assert np.array_equal(returns, expected)
    assert fused.decision_counts == oracle.decision_counts
    assert list(fused.partition._members.items()) == list(oracle.partition._members.items())
    assert_same_sizes(fused.partition, oracle.partition)
    advance(oracle, 0)
    assert fused._group_votes == oracle._group_votes
    assert fused._upos == oracle._upos and fused._ubuf == oracle._ubuf
    assert list(fused._upicks) == [int(u * 30) for u in fused._ubuf]


def test_fused_loop_breaks_two_and_three_way_ties_as_the_oracle(monkeypatch):
    """At N = 12, x = 0.3 and memory 1 the oracle's groups tie on two
    options thousands of times in 5000 steps and on all three a few times,
    whatever Hypothesis draws; the loop breaks every one of those ties as
    `step` does."""
    consensus, ties = voting.consensus_options, Counter()

    def counting(tally, x):
        tied = consensus(tally, x)
        ties[len(tied)] += 1
        return tied

    monkeypatch.setattr(voting, "consensus_options", counting)
    assert_loop_matches_oracle(SimConfig(n_agents=12, x=0.3, memory=1, total_steps=5000, seed=3))
    assert ties[2] >= 1 and ties[3] >= 1, ties


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(2, 2**24), lattice=st.lists(st.integers(0, 2**53 - 1), max_size=40))
def test_decoded_picks_equal_scalar_truncation(n, lattice):
    """The generator's uniforms are k * 2**-53; the vectorised decode gives
    int(u * n) for each, the smallest and the largest included."""
    u = np.array([0, 2**53 - 1, *lattice], dtype=np.int64) * 2.0**-53
    picks = _decode_picks(u, n).tolist()
    assert picks == [int(v * n) for v in u.tolist()]
    assert picks[0] == 0 and picks[1] == n - 1


def test_advance_turns_gc_off_and_restores_it(monkeypatch):
    state = init_state(small_config(vote_mode=VoteMode.IID_UNIFORM))
    seen = []
    fill = voting.fill_cdfs
    monkeypatch.setattr(voting, "fill_cdfs",
                        lambda *args: (seen.append(gc.isenabled()), fill(*args))[1])
    assert gc.isenabled()
    advance(state, 500)
    assert seen and not any(seen)  # off while the loop runs
    assert gc.isenabled()

    gc.disable()  # a caller that turned it off keeps it off
    try:
        advance(state, 500)
        assert not gc.isenabled()
    finally:
        gc.enable()

    # a raising loop still turns it back on: a stray list breaks the checksum,
    # here a singleton that holds a one-element member list it must not have
    advance(state, 8_999)
    assert state.step_index == 9_999
    part = state.partition
    lone = next(a for a in range(part.n_agents) if part.group_of(a) == (a, 1))
    part._members[lone] = [lone]
    with pytest.raises(AssertionError, match="partition corrupted at step 9999"):
        advance(state, 1)
    assert gc.isenabled()


def state_fields(state):
    part = state.partition
    return (state.step_index, state.history, state.decision_counts, list(part._group_of),
            list(part._size), dict(part._members), part._n_single, state._group_votes,
            state._cdf, state._upos, list(state._ubuf), state._rng.bit_generator.state)


@pytest.mark.parametrize("returns", [
    np.zeros(5, dtype=np.int64),  # too short for the 1000 - 100 recorded steps
    np.zeros(900, dtype=np.int32),
    np.zeros(900, dtype=np.float64),
    np.zeros((900, 1), dtype=np.int64),
    np.zeros(900, dtype=np.uint64),
    np.broadcast_to(np.int64(0), 900),  # read-only
])
def test_advance_checks_returns_before_the_first_step(returns):
    """A `returns` the loop cannot fill is refused before any step, in each
    model: the state stays as built (a strategy state builds no tallies
    either), and a valid call then gives the fresh run's returns."""
    for config in (SimConfig(n_agents=50, x=0.41, total_steps=1000, seed=3),
                   SimConfig(n_agents=50, x=0.41, total_steps=1000, seed=3,
                             vote_mode=VoteMode.IID_UNIFORM),
                   EzConfig(n_agents=50, a=0.05, total_steps=1000, seed=3)):
        state, fresh = init_state(config), init_state(config)
        with pytest.raises(ValueError, match="returns"):
            advance(state, config.total_steps, returns)
        assert state_fields(state) == state_fields(fresh)
        expected, _ = run(config)
        recorded = np.zeros_like(expected)
        advance(state, config.total_steps, recorded)
        assert np.array_equal(recorded, expected)


def test_iid_cdfs_filled_in_table_passes_equal_the_scalar_lookups():
    """Above size 64 the loop fills the decision CDF of a new size, and of
    every unfilled size up to twice it, in one `probability_table` pass.  At
    x = 0.36 the groups grow past size 128: the loop still matches `step`,
    which looks each size up alone, byte for byte, and every CDF it filled
    equals `decision_cdf` and holds Python floats."""
    config = SimConfig(n_agents=500, x=0.36, total_steps=20_000, seed=1,
                       vote_mode=VoteMode.IID_UNIFORM)
    met = {e.group_size for e in assert_loop_matches_oracle(config)}
    assert max(met) > 128
    state = init_state(config)
    advance(state, config.total_steps)
    filled = {s: c for s, c in enumerate(state._cdf) if c is not None}
    assert met <= set(filled) and max(filled) <= config.n_agents
    assert all(c == decision_cdf(s, config.x) for s, c in filled.items())
    assert {type(v) for c in filled.values() for v in c} == {float}


def test_iid_cdf_never_fragments_where_p_frg_is_zero():
    for x in (0.2, 1 / 3, 0.34, 0.41, 0.47, 0.6):
        for s in range(1, 200):
            c_buy, c_sell, c_merge = decision_cdf(s, x)
            assert 0.0 <= c_buy <= c_sell <= c_merge <= 1.0
            if fragmentation_probability(s, x) == 0.0:
                assert c_merge == 1.0


class TopHeavyStream:
    """A dynamics stream in which about every second uniform is the largest
    one a generator yields, 1 - 2**-53.  A test installs it as a state's
    `_rng`."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        u = self._rng.random(size)
        u[self._rng.random(size) < 0.5] = 1.0 - 2.0**-53
        return u


def test_a_singleton_never_fragments():
    """Why `advance` fragments a group without asking its size: a strategy
    singleton decides by its own vote, an entry in {0, 1, 2}, and the iid
    CDF of size 1 (p_frg(1) = 0) and the E-Z one end at 1.0, above every
    uniform.  Runs fed the largest uniform at many singleton decisions
    fragment no singleton, in the oracle and in the loop."""
    for x in (0.34, 0.35, 0.37, 0.41, 0.45, 0.47, 0.499):  # `validate`'s grid
        assert decision_cdf(1, x)[2] == 1.0
    for memory in (2, 4):
        rows = SimState(small_config(n_agents=500, memory=memory,
                                     initial_history=(1,) * memory))._rows
        assert set(b"".join(rows)) == {0, 1, 2}
    n_steps = 20_000
    for config in (small_config(vote_mode=VoteMode.IID_UNIFORM), small_config(),
                   EzConfig(n_agents=40, a=0.05, total_steps=n_steps, seed=5)):
        oracle = SimState(config)
        oracle._rng = TopHeavyStream(1)
        for _ in range(n_steps):
            event = step(oracle)
            assert not (event.decision == Decision.FRAGMENT and event.group_size == 1)
        fused = SimState(config)
        fused._rng = TopHeavyStream(1)
        advance(fused, n_steps)
        assert fused.decision_counts == oracle.decision_counts
        assert fused.partition._group_of == oracle.partition._group_of


# -- step-level contracts ----------------------------------------------------------

def test_step_events_and_invariants():
    config = small_config(total_steps=4000)
    state = init_state(config)
    for i in range(config.total_steps):
        event = step(state)
        assert event.index == i
        if event.decision in (Decision.BUY, Decision.SELL):
            assert abs(event.net_return) == event.group_size
        else:
            assert event.net_return == 0
        if event.decision == Decision.FRAGMENT:
            assert event.group_size >= 2
        if i % 500 == 0:
            check_partition(state.partition)
    assert sum(state.decision_counts) == config.total_steps
    check_partition(state.partition)


def test_history_tracks_return_signs():
    config = small_config(total_steps=3000)
    state = init_state(config)
    history = config.initial_history
    for _ in range(config.total_steps):
        event = step(state)
        history = update_history(history, event.net_return)
    assert state.history == history


def test_group_vote_cache_matches_fresh_poll(monkeypatch):
    """The loop's incremental tallies must equal a from-scratch poll."""
    config = small_config(total_steps=5000, n_agents=60)
    tables = assign_strategies(config.n_agents, config.memory, np.random.default_rng(8))
    use_tables(monkeypatch, tables)
    state = SimState(config)
    advance(state, config.total_steps)
    part = state.partition
    assert set(state._group_votes) == set(part._members)  # a tally per group of two or more
    for g in part._members:
        members = part.members(g)
        for history in ((0, 0), (0, 1), (1, 0), (1, 1)):
            expected = poll_group(members, tables, history, VoteMode.STRATEGY_DRIVEN, None)
            assert tuple(unpacked(state, g)[history_index(history)]) == tuple(expected)


@pytest.mark.parametrize("memory", [1, 4])
def test_packed_tallies_do_not_carry_at_a_full_field(memory, monkeypatch):
    """At N = 256 a count of every agent needs a ninth bit: one group of all
    agents, all buying at history 0 and all waiting at the last history."""
    n = 256
    config = SimConfig(n_agents=n, x=0.41, total_steps=10, equilibration_steps=0,
                       memory=memory, initial_history=(0,) * memory)
    rng = np.random.default_rng(memory)
    tables = np.array([(0, *rng.integers(0, 3, 2**memory - 2).tolist(), 2) for _ in range(n)],
                      dtype=np.uint8)
    use_tables(monkeypatch, tables)
    state = SimState(config)
    part = state.partition
    for a in range(1, n):
        part.merge(part.group_of(0)[0], a)
    advance(state, 0)  # the tally of the one group: the sum of every packed row
    (g,) = live_groups(part)
    matrix = unpacked(state, g)
    assert len(matrix) == 2**memory
    for h, row in enumerate(matrix):
        history = tuple((h >> k) & 1 for k in range(memory - 1, -1, -1))
        expected = poll_group(part.members(g), tables, history, VoteMode.STRATEGY_DRIVEN, None)
        assert tuple(row) == tuple(expected)
    assert matrix[0] == [n, 0, 0] and matrix[-1] == [0, 0, n]
    check_partition(part)

    returns = np.zeros(1, dtype=np.int64)
    advance(state, 1, returns)
    assert state.decision_counts == [1, 0, 0, 0]
    assert returns[0] == n


@pytest.mark.parametrize("memory", [1, 2, 3])
def test_table_rows_and_packed_rows_are_shared(memory, monkeypatch):
    """Up to memory 3 every agent's row and packed row points to one of at
    most 3**(2**memory) shared objects, each equal to the agent's own: at
    N = 20000 a list of one object per agent would fail at every memory."""
    n = 20_000
    config = SimConfig(n_agents=n, x=0.41, total_steps=10, memory=memory,
                       initial_history=(0,) * memory)
    tables = assign_strategies(n, memory, np.random.default_rng(memory))
    use_tables(monkeypatch, tables)
    state = SimState(config)
    distinct = 3 ** (2**memory)
    assert len(set(map(id, state._rows))) <= distinct
    assert len(set(map(id, state._single))) <= distinct
    assert [bytes(r) for r in tables] == state._rows
    part = state.partition
    for a in range(1, n):  # one group of all agents, its tally the sum of the packed rows
        part.merge(part.group_of(0)[0], a)
    advance(state, 0)
    matrix = unpacked(state, part.group_of(0)[0])
    for h in range(2**memory):
        assert matrix[h] == np.bincount(tables[:, h], minlength=3).tolist()


def test_iid_state_draws_no_tables(monkeypatch):
    def no_draw(*_args):
        raise AssertionError("an iid run drew strategy tables")

    monkeypatch.setattr(engine, "assign_strategies", no_draw)
    state = init_state(small_config(vote_mode=VoteMode.IID_UNIFORM))
    assert state._rows is None and state._single is None
    assert len(state._cdf) == state.config.n_agents + 1


def test_state_reads_its_mode_from_the_config():
    """The config alone sets how a state decides and which history it keeps."""
    ez = SimState(EzConfig(n_agents=10, a=0.2, total_steps=100))
    assert ez.history == () and ez._rows is None and ez._cdf is None
    iid = SimState(small_config(vote_mode=VoteMode.IID_UNIFORM, initial_history=(0, 1)))
    assert iid.history == (0, 1) and iid._rows is None and iid._cdf == [None] * 41
    polled = SimState(small_config())
    assert polled.history == (1, 1) and polled._cdf is None and len(polled._rows) == 40


def test_state_seeds_its_streams_from_the_config():
    """A voting-model seed spawns (tables, dynamics) streams, the tables
    drawn only in strategy mode; an E-Z seed seeds `default_rng`."""
    config = small_config()
    tables_seq, dynamics_seq = np.random.SeedSequence(config.seed).spawn(2)
    tables = assign_strategies(config.n_agents, config.memory,
                               np.random.Generator(np.random.PCG64(tables_seq)))
    dynamics = np.random.Generator(np.random.PCG64(dynamics_seq)).bit_generator.state
    polled = SimState(config)
    assert polled._rows == [bytes(row) for row in tables]
    assert polled._rng.bit_generator.state == dynamics
    iid = SimState(small_config(vote_mode=VoteMode.IID_UNIFORM))
    assert iid._rng.bit_generator.state == dynamics
    ez = SimState(EzConfig(n_agents=10, a=0.2, total_steps=100, seed=3))
    assert ez._rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


@pytest.mark.parametrize("config", [
    small_config(vote_mode=VoteMode.STRATEGY_DRIVEN),
    EzConfig(n_agents=40, a=0.05, total_steps=20_000, seed=5),
], ids=["strategy", "ez"])
def test_strategy_state_holds_no_size_cdfs(config):
    """Strategy votes read no decision CDF and E-Z reads one constant one,
    so neither state keeps a per-size list (N + 1 pointers, 8 MB at
    N = 2^20)."""
    state = init_state(config)
    assert state._cdf is None
    advance(state, 5_000)
    assert state._cdf is None


def test_conditional_decision_frequencies_iid():
    config = SimConfig(
        n_agents=100, x=0.41, total_steps=250_000, equilibration_steps=0,
        vote_mode=VoteMode.IID_UNIFORM, seed=424242,
    )
    state = init_state(config)
    by_size = defaultdict(Counter)
    for _ in range(config.total_steps):
        event = step(state)
        by_size[event.group_size][event.decision] += 1
    checked = 0
    for size, counter in by_size.items():
        n = sum(counter.values())
        if n < 1000:
            continue
        probs = decision_probabilities(size, config.x)
        expected = {
            Decision.BUY: probs.buy, Decision.SELL: probs.sell,
            Decision.MERGE: probs.merge, Decision.FRAGMENT: probs.fragment,
        }
        for decision, p in expected.items():
            observed = counter.get(decision, 0)
            if p == 0.0:
                assert observed == 0
            else:
                sigma = np.sqrt(n * p * (1 - p))
                assert abs(observed - n * p) < 3.5 * sigma, (size, decision, observed, n * p)
        checked += 1
    assert checked >= 5


def test_whole_population_group_merge_is_noop():
    """At N=2 with x < 1/2 the pair can never fragment: it absorbs, then
    every later merge decision is a no-op on a whole-population group."""
    config = SimConfig(n_agents=2, x=0.40, total_steps=5000,
                       vote_mode=VoteMode.IID_UNIFORM, seed=3)
    returns, summary = run(config)
    assert summary.decision_counts["fragment"] == 0
    assert summary.final_size_histogram == {2: 1}
    assert summary.decision_counts["merge"] > 0


def test_equilibration_boundary():
    config = small_config(total_steps=1000, equilibration_steps=999)
    returns, summary = run(config)
    assert len(returns) == 1
    assert summary.recorded_steps == 1


# -- rescaling -----------------------------------------------------------------

def test_rescale_examples():
    assert rescale_returns(np.array([3, 0, -5, 2]), 2).tolist() == [3, -3]
    series = np.array([1, -2, 3, 0, 7])
    assert rescale_returns(series, 1).tolist() == series.tolist()
    assert len(rescale_returns(series, 2)) == 2
    assert rescale_returns(range(10), 200_000) == array("q")  # no full window
    with pytest.raises(ValueError):
        rescale_returns(series, 0)


def test_rescale_is_fresh_array():
    series = np.array([1, 2, 3])
    out = rescale_returns(series, 1)
    out[0] = 99
    assert series[0] == 1


def _window_reference(values, k):
    """The sum of each full window of k consecutive values."""
    return [sum(values[i:i + k]) for i in range(0, len(values) - k + 1, k)]


def _map_depth(sums):
    """The depth of the tree of `map` objects behind an iterator of sums."""
    if type(sums) is not map:
        return 0
    _, (_, *parts) = sums.__reduce__()
    return 1 + max(map(_map_depth, parts))


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 100_000])
def test_window_sums_match_the_sum_of_each_full_window(k):
    rng = np.random.default_rng(k)
    for n in {k - 1, 2 * k + 1, 3 * k + (k + 1) // 2}:  # k divides none of them but 1
        values = rng.integers(-(2**40), 2**40, n, dtype=np.int64)
        expected = _window_reference(values.tolist(), k)
        for kind in (array("q", values.tolist()), values, values.tolist(),
                     series_module.parse_returns_binary(len(values).to_bytes(8, "little")
                                                        + values.astype("<i8").tobytes())):
            assert list(series_module.window_sums(kind, k)) == expected
            out = rescale_returns(kind, k)
            assert type(out) is array and out.typecode == "q" and out.tolist() == expected
    assert _map_depth(series_module.window_sums(values, k)) == math.ceil(math.log2(k))


# -- series files -----------------------------------------------------------------

def test_text_round_trip(tmp_path):
    series = np.array([5, 0, -17, 2, 0, -1], dtype=np.int64)
    path = tmp_path / "returns.txt"
    write_returns_text(path, series)
    assert path.read_bytes() == b"5\n0\n-17\n2\n0\n-1\n"
    assert np.array_equal(read_returns_text(path), series)

    extremes = np.array([0, -1, -(2**63), 2**63 - 1, 10**12, 0, -4096], dtype=np.int64)
    write_returns_text(path, extremes)
    assert path.read_bytes() == "".join(f"{int(v)}\n" for v in extremes).encode()
    assert np.array_equal(read_returns_text(path), extremes)

    write_returns_text(path, np.array([], dtype=np.int64))
    assert path.read_bytes() == b""


def _unique_text_writer(path, series):
    """The text writer before lookups by offset: each chunk's distinct values
    formatted once through `np.unique`."""
    series = np.asarray(series)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(series), 1 << 13):
            values, index = np.unique(series[start:start + (1 << 13)], return_inverse=True)
            text = list(map(str, values.tolist()))
            fh.write("\n".join(map(text.__getitem__, index.tolist())) + "\n")


@pytest.mark.parametrize("name", ["empty", "single", "zeros", "mixed", "run"])
def test_text_writer_matches_the_unique_writer(tmp_path, name):
    n = 10_000
    rng = np.random.default_rng(11)
    series = {
        "empty": np.array([], dtype=np.int64),
        "single": np.array([-n], dtype=np.int64),
        "zeros": np.zeros(20_000, dtype=np.int64),
        # chunks whose spans are narrow, one wider than a chunk, and +-N
        "mixed": np.concatenate([rng.integers(-3, 4, 9000), [n, -n, 0, 1, -1],
                                 rng.integers(-n, n + 1, 9000), np.full(5000, n)]),
        "run": run(small_config(n_agents=300, total_steps=40_000))[0],
    }[name].astype(np.int64)
    write_returns_text(tmp_path / "new.txt", series)
    _unique_text_writer(tmp_path / "old.txt", series)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_binary_round_trip_and_layout(tmp_path):
    series = np.array([1, -2, 300], dtype=np.int64)
    path = tmp_path / "returns.bin"
    write_returns_binary(path, series)
    raw = path.read_bytes()
    assert raw[:8] == (3).to_bytes(8, "little")
    assert int.from_bytes(raw[8:16], "little", signed=True) == 1
    assert int.from_bytes(raw[16:24], "little", signed=True) == -2
    assert np.array_equal(read_returns_binary(path), series)


def test_binary_reader_views_the_bytes_read():
    data = (3).to_bytes(8, "little") + np.array([1, -2, 300], dtype="<i8").tobytes()
    view = series_module.parse_returns_binary(data)
    assert view.format == "q" and view.readonly and view.tolist() == [1, -2, 300]
    if not series_module._SWAP:
        assert view.obj is data  # the bytes themselves, not a copy


def test_byte_swap_reverses_each_value_on_write_and_back_on_read(tmp_path, monkeypatch):
    """The path of a host whose byte order is not the file's."""
    series = np.array([1, -2, 300], dtype=np.int64)
    write_returns_binary(tmp_path / "native.bin", series)
    monkeypatch.setattr(series_module, "_SWAP", not series_module._SWAP)
    write_returns_binary(tmp_path / "swapped.bin", series)
    native = (tmp_path / "native.bin").read_bytes()
    swapped = (tmp_path / "swapped.bin").read_bytes()
    assert swapped[:8] == native[:8]
    assert all(swapped[i:i + 8] == native[i:i + 8][::-1] for i in range(8, len(native), 8))
    assert read_returns_binary(tmp_path / "swapped.bin").tolist() == series.tolist()


def test_binary_writer_does_not_copy_the_series(tmp_path):
    series = np.arange(10**6, dtype=np.int64)
    tracemalloc.start()
    try:
        write_returns_binary(tmp_path / "returns.bin", series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak} bytes traced writing an 8 MB series"
    assert np.array_equal(read_returns_binary(tmp_path / "returns.bin"), series)


@pytest.mark.parametrize("kind", ["int32", "list"])
def test_binary_writer_widens_other_integer_series(tmp_path, kind):
    """A series of another integer width, or a plain list, writes the bytes
    of its int64 array."""
    values = [1, -2, 300, 0, -70_000]
    write_returns_binary(tmp_path / "int64.bin", np.array(values, dtype=np.int64))
    series = np.array(values, dtype=np.int32) if kind == "int32" else values
    write_returns_binary(tmp_path / "other.bin", series)
    assert (tmp_path / "other.bin").read_bytes() == (tmp_path / "int64.bin").read_bytes()


def test_binary_truncation_detected(tmp_path):
    path = tmp_path / "short.bin"
    write_returns_binary(path, np.array([1, 2, 3], dtype=np.int64))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        read_returns_binary(path)
