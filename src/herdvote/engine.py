"""Stochastic simulation loop: pick agent, decide, act, record.

Each agent of the voting model holds one immutable random strategy table
mapping each of the 2^m possible m-bit price-movement histories (bit 1 =
price went up, most recent movement last) to a fixed action: buy, sell or
wait.  All agents see the same shared history, so agents holding
identical table entries act identically: the "crowd" effect of common
information.  The tables of a population are one C-contiguous uint8 array
of shape (n_agents, 2^m), drawn by `assign_strategies`: row a is agent a's
table, column `history_index(h)` its action at history h.  A state keeps
them as rows and packed rows (`_tally_packer`) and no other copy.

Each time step:

  1. a uniformly random agent is picked; its group has size s,
  2. the group decides.  In strategy mode the members' table entries for
     the current history are tallied and classified against the threshold
     T = x * s (`voting` states the rule).  In iid mode the decision is
     drawn from its exact distribution for size s,
     `voting.decision_probabilities(s, x)`, which is the distribution of
     a classified tally of s independent uniform votes,
  3. Buy  -> net return +s, group stays intact
     Sell -> net return -s, group stays intact
     Merge -> the group joins the group of a uniformly random agent outside
              itself (no-op when it already spans the whole population)
     Fragment -> the group breaks into singletons, net return 0
  4. the shared history shifts in the sign of the net return
     (`update_history`; no trade, no movement).

At any fixed history, freshly drawn tables give i.i.d. uniform entries
across agents, so a single strategy poll is distributed as an iid one; the
two vote modes differ only in correlations across time.

`advance` runs the steps in one fused loop that keeps its state, the
decision counts included, in locals, fills the iid decision CDFs from
`voting` as sizes first occur, keeps each strategy group's votes in one
packed tally, in a list indexed by group handle, and applies merges and
fragments to the partition's flat size list and member lists inline; the
cyclic garbage collector is off while it runs.  It classifies each
distinct tally a strategy group meets once per call: the (buy, sell,
wait) counts at the current history, which fix the group's size too, key
a dict of int codes, each a decided option or an index into `_TIED`'s
tuples of tied options, and the dict is cleared at a partition checksum
once it holds more than `_OPTIONS_LIMIT` tallies.  Only an iid
state loads `voting`: a strategy or E-Z run never imports it.  `run`
drives the loop over a whole config of either model.  The E-Z baseline
(`ez`) runs on the same loop: a state built from an `EzConfig` draws its
decisions from the constant (a/2, a/2, 1-a), a trading group disperses,
and a merge joins the group of any agent but the picked one (nothing
happens when that agent is in the same group).  `step` is the same
update, for all three models, one call at a time: it polls each member's
table entry, reads no packed tally, and merges and fragments through
`Partition.merge` and `Partition.fragment` alone.  It is the one
reference that tests compare the loop against byte for byte
(`ez.ez_step` is another name for it), not production code.

A run is fully determined by its config: `SimState(config)` seeds the
state's streams (its docstring states how) and reads every other setting
of the run from the config: the model and vote mode, the initial history
and the equilibration window, after which returns are recorded.  Every
dynamics draw is a scalar uniform u from an internal pre-drawn block of
the state's dynamics stream, consumed in a fixed order per step: [agent
pick][tie-break, strategy mode][decision, iid and E-Z][merge-target
rejections].  An agent pick is int(u * n); the picks of a whole block are
decoded in one NumPy pass when the block is drawn (the same IEEE product
and truncation) and kept with it, so `advance`'s loop reads them ready
made and never converts a float, however many calls read the block.

The run parameters (`SimConfig`) live in `config` and the return-series
files and rescaling in `series`; this module re-exports `SimConfig` and
the text files' functions under their old import paths, and the command
line's run path calls the binary writer through this module.

Trading groups staying intact is a deliberate reading of the rules: only
the no-consensus outcome disperses a group, so the balance equations in
`meanfield` carry no trade-loss term.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import EzConfig, SimConfig, VoteMode, _integer
from .population import Partition
from .series import (  # noqa: F401  (old import paths; the run path calls the writer here)
    read_returns_text,
    rescale_returns,
    write_returns_binary,
    write_returns_text,
)

if TYPE_CHECKING:
    from .voting import Decision

_DRAW_CHUNK = 1 << 20  # table entries per int64 draw in `assign_strategies`
_BUF_SIZE = 1 << 16
_CHECK_EVERY = 10_000  # steps between partition checksums in `advance`
# `advance` clears its dict of classified tallies at a checksum once the dict
# holds more than this many.  An x = 0.335 desk run meets some 2x10^5
# distinct tallies; at 2^16 its peak RSS grew by 8 MB, at 2^13 by 1.3 MB, and
# a desk run at x = 0.41 meets fewer than 2^13 in 10^6 steps
_OPTIONS_LIMIT = 1 << 13
# The tied options of each code that dict maps a tally to, as
# `voting.consensus_options` gives them: codes 0-3 are decided (buy, sell,
# wait, and fragment below the threshold), and a tie among the options of
# code 4-7 reads one uniform
_TIED = ((0,), (1,), (2,), (), (0, 1, 2), (0, 1), (0, 2), (1, 2))
# A step starts on a new block when this many uniforms of the current one,
# or fewer, are left.  It reads at most two before its merge-target
# rejections (the agent pick, then a tie-break or decision uniform), and the
# rejection loop refills by itself at the block's very end, so any margin of
# two or more is safe.  The margin fixes where each block is cut, so changing
# it changes every run's outputs.
_REFILL_MARGIN = 16


def history_index(history: tuple) -> int:
    """Encode a bit history (most recent bit last) as a table column index
    (most recent bit = LSB)."""
    idx = 0
    for bit in history:
        idx = (idx << 1) | bit
    return idx


def update_history(history: tuple, net_return: int) -> tuple:
    """Shift in the sign of a net return; unchanged when nothing traded."""
    if net_return > 0:
        return history[1:] + (1,)
    if net_return < 0:
        return history[1:] + (0,)
    return history


def assign_strategies(n_agents: int, memory: int, rng) -> np.ndarray:
    """Tables for all agents: a C-contiguous uint8 array (n_agents, 2^memory),
    entries 0 (buy), 1 (sell) and 2 (wait).

    The draw order is part of the reproducibility contract: the entries,
    and the state `rng` is left in, are those of one int64
    `rng.integers(0, 3, size=(n_agents, 2**memory))` call, or of one
    `rng.integers(0, 3, size=2**memory)` call per agent in agent order.
    Rows are drawn in int64 a chunk at a time and cast to uint8, so no
    int64 copy of all tables exists (a uint8 draw consumes the stream
    differently).
    """
    if memory < 1:
        raise ValueError(f"memory length must be >= 1, got {memory}")
    width = 1 << memory
    tables = np.empty((n_agents, width), dtype=np.uint8)
    step = max(1, _DRAW_CHUNK // width)
    for chunk in np.split(tables, range(step, n_agents, step)):  # views, in row order
        chunk[:] = rng.integers(0, 3, size=chunk.shape)
    return tables


class StepEvent(NamedTuple):
    index: int
    decision: Decision
    group_size: int
    net_return: int


@dataclass
class RunSummary:
    n_agents: int
    total_steps: int
    recorded_steps: int
    decision_counts: dict
    trade_fraction: float  # over the recorded (post-equilibration) window
    final_size_histogram: dict


class SimState:
    """Mutable simulation state of one run; `SimState(config)` builds it,
    `advance` (or `step`) moves it on.

    The state seeds and owns its streams, so a run is a function of its
    config alone.  A `SimConfig` seed feeds `SeedSequence(seed).spawn(2)`:
    in strategy mode the agents' tables are drawn from the first child
    stream (`assign_strategies`), an iid state draws none, and the dynamics
    run on `PCG64` over the second child.  An `EzConfig`'s dynamics are
    `numpy.random.default_rng(seed)`.  The dynamics generator is `_rng`.

    In strategy mode `_rows[agent]` is the agent's table row as bytes and
    `_single[agent]` the same row packed into one int: for each history h
    and option o (buy 0, sell 1, wait 2) the count of votes for o at h
    sits in the `_width`-bit field number 3h + o (see `_tally_packer`).
    No count exceeds the population, so fields never carry into each
    other, and a group's packed tally is the sum of its members' packed
    rows.  `_group_votes` is a list of N slots indexed by group handle: the
    slot of each group of two or more holds its packed tally, and every
    other slot None, so a handle that no longer names such a group keeps no
    tally alive.  A singleton's tally is its packed row.  Only `advance`
    reads or keeps these tallies: it builds the list from the partition
    when it finds None, which a fresh state holds and `step` sets, and
    keeps it between its calls.  An iid or E-Z state always holds None.

    `_ubuf` is the current block of uniforms drawn from `_rng`,
    `_upicks` the agent picks decoded from that same block (`_draw_block`
    makes both) and `_upos` the next unread position.  They change
    together: the picks never belong to another block than the floats.  A
    fresh state holds no block and its cursor at `_BUF_SIZE`, so the empty
    block reads as used up and the first step draws one.

    The state holds no copy of a setting: the population size, x, the
    model and the history's table index are read from `config` and
    `history` where they are needed.
    """

    __slots__ = (
        "config", "partition", "history", "step_index", "decision_counts",
        "_cdf", "_rows", "_width", "_single", "_group_votes",
        "_rng", "_ubuf", "_upicks", "_upos",
    )

    def __init__(self, config):
        """The state at step 0 of a run of `config`: every agent alone.

        The config alone says how groups decide.  An `EzConfig` draws each
        decision from the constant CDF (a/2, a, 1.0) and takes the E-Z
        baseline's actions: a trading group disperses, and a merge joins the
        group of any agent but the picked one, nothing happening when that
        is the same group.  An iid `SimConfig` draws from
        `voting.decision_cdf` at `config.x`, and loads `voting` here; a
        strategy one polls the tables it draws here (`config.x` is the
        threshold).  The history starts at `config.initial_history`, and is
        empty for E-Z.
        """
        ez = isinstance(config, EzConfig)
        polled = not ez and config.vote_mode == VoteMode.STRATEGY_DRIVEN
        n = config.n_agents
        self.config = config
        self.partition = Partition.singletons(n)
        self.history = () if ez else config.initial_history
        self.step_index = 0
        self.decision_counts = [0, 0, 0, 0]  # indexed by Decision
        # the iid decision CDF of each size, filled by `advance` (`voting.fill_cdfs`)
        self._cdf = None
        if not polled and not ez:
            from . import voting  # noqa: F401  (an iid state's set-up loads its CDFs' layer)
            self._cdf = [None] * (n + 1)
        # per-agent table rows (strategy mode); the packed tallies are `advance`'s
        self._width, self._rows, self._single = 0, None, None
        self._group_votes = None
        if ez:
            self._rng = np.random.default_rng(config.seed)
        else:
            tables_seq, dynamics_seq = np.random.SeedSequence(config.seed).spawn(2)
            if polled:
                tables_rng = np.random.Generator(np.random.PCG64(tables_seq))
                tables = assign_strategies(n, config.memory, tables_rng)
                self._width, self._rows, self._single = _tally_packer(tables)
            self._rng = np.random.Generator(np.random.PCG64(dynamics_seq))
        self._ubuf = self._upicks = ()  # no block drawn yet: the cursor reads it as used up
        self._upos = _BUF_SIZE


def _tally_packer(tables: np.ndarray):
    """Field width of the packed tallies, and every agent's table row as
    bytes and packed, looked up as `rows[agent]` and `single[agent]`.

    Fields are whole bytes, so a row packs by joining one 3-field byte
    pattern per history.  With memory <= 3 a row is at most 8 bytes, read
    as one unsigned integer to find the at most 3**8 distinct rows: `rows`
    and `single` are lists of pointers to one bytes object and one packed
    int per distinct row.  Above that, `rows` holds one slice of the
    table bytes per agent, packed on demand, so a run at the table budget
    holds no packed copy of its tables.
    """
    tables = np.ascontiguousarray(tables, dtype=np.uint8)  # no copy of a drawn array
    n_agents, width = tables.shape
    k = (n_agents.bit_length() + 7) // 8  # bytes per field
    ones = [bytes(o * k) + b"\x01" + bytes((3 - o) * k - 1) for o in range(3)]

    def pack(row: bytes) -> int:
        return int.from_bytes(b"".join(map(ones.__getitem__, row)), "little")

    if width > 8:
        data = tables.tobytes()
        rows = [data[i:i + width] for i in range(0, len(data), width)]
        return 8 * k, rows, _PackOnDemand(rows, pack)
    code = tables.view(f"u{width}")[:, 0]  # the row's bytes as one integer
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    distinct = [tables[a].tobytes() for a in first.tolist()]
    packed = np.array([pack(row) for row in distinct], dtype=object)
    return 8 * k, np.array(distinct, dtype=object)[inverse].tolist(), packed[inverse].tolist()


class _PackOnDemand:
    """`single[agent]` for memory > 3: packs the agent's row when asked."""

    __slots__ = ("_rows", "_pack")

    def __init__(self, rows, pack):
        self._rows = rows
        self._pack = pack

    def __getitem__(self, agent: int) -> int:
        return self._pack(self._rows[agent])


def _decode_picks(u: np.ndarray, n: int) -> np.ndarray:
    """Agent picks int(u * n) of uniforms u, as int64.

    The same IEEE double product and truncation toward zero as the scalar
    expression, so a pick equals the one `step` computes from the float.
    """
    return (u * n).astype(np.int64)


def _draw_block(rng: np.random.Generator, n: int):
    """Next block of dynamics uniforms and its agent picks among n agents.

    Both are memoryviews: indexing gives a Python float and a Python int.
    """
    u = rng.random(_BUF_SIZE)
    return memoryview(u), memoryview(_decode_picks(u, n))


def init_state(config: SimConfig | EzConfig) -> SimState:
    """The initial state of a run of `config`: `SimState(config)`."""
    return SimState(config)


def step(state: SimState) -> StepEvent:
    """Advance any of the three models by one time step.

    Reference oracle for tests, not production code: `run` (`ez.ez_run`)
    never calls it.  It states the update of `advance` one step at a time,
    merging and fragmenting through `Partition.merge` and
    `Partition.fragment` alone, and consumes the state's dynamics stream in
    the same order, so a loop of `step` calls reproduces `advance` byte for
    byte.  It computes each agent pick as int(u * n) of the uniform it
    reads, and keeps the picks of a block it draws for the next `advance`.
    It reads none of the loop's CDFs or packed tallies: an E-Z decision is
    drawn from (a/2, a, 1.0) built from `config.a`, an iid one from
    `voting.decision_cdf`, and a strategy group counts each member's table
    entry at the index of `state.history` and classifies the tally by
    `voting.consensus_options`.  It leaves `_group_votes` None, so the
    next `advance` rebuilds the tallies from the partition.
    """
    from .voting import Decision, consensus_options, decision_cdf

    config = state.config
    ez = isinstance(config, EzConfig)
    n = config.n_agents
    rng = state._rng
    buf = state._ubuf
    pos = state._upos
    if pos >= _BUF_SIZE - _REFILL_MARGIN:
        buf, state._upicks = _draw_block(rng, n)
        state._ubuf = buf
        pos = 0
    part = state.partition
    group_of = part._group_of

    agent = int(buf[pos] * n)
    pos += 1
    g, s = part.group_of(agent)

    if state._rows is None:
        # draw the decision from its exact distribution for this size
        c_buy, c_sell, c_merge = (config.a / 2, config.a, 1.0) if ez else decision_cdf(s, config.x)
        u = buf[pos]
        pos += 1
        decision = 0 if u < c_buy else 1 if u < c_sell else 2 if u < c_merge else 3
    else:
        # poll every member at the current history
        h = history_index(state.history)
        tally = [0, 0, 0]
        for a in part.members(g):
            tally[state._rows[a][h]] += 1
        tied = consensus_options(tally, config.x)
        if not tied:
            decision = 3
        elif len(tied) == 1:
            decision = tied[0]
        else:
            decision = tied[int(buf[pos] * len(tied))]
            pos += 1

    # act
    net = 0
    if decision <= 1:
        net = s if decision == 0 else -s
        if ez:
            part.fragment(g)  # an E-Z trading group disperses
    elif decision == 2:
        if ez or s < n:
            # E-Z: any agent but the picked one; voting model: an agent outside the group
            while True:
                target = int(buf[pos] * n)
                pos += 1
                if target != agent if ez else group_of[target] != g:
                    break
                if pos >= _BUF_SIZE:
                    buf, state._upicks = _draw_block(rng, n)
                    state._ubuf = buf
                    pos = 0
            g2 = group_of[target]
            if g2 != g:  # E-Z: the other agent is in the same group, nothing happens
                part.merge(g, g2)
    else:
        part.fragment(g)

    state._upos = pos
    state._group_votes = None  # the partition moved under any tallies `advance` kept
    state.decision_counts[decision] += 1
    index = state.step_index
    state.step_index = index + 1
    if net != 0 and not ez:  # an E-Z state keeps no history
        state.history = update_history(state.history, net)
    return StepEvent(index, Decision(decision), s, net)


def advance(state: SimState, n_steps: int, returns: np.ndarray | None = None) -> None:
    """Run `n_steps` steps of the simulation in one fused loop.

    Step i (counted from the start of the run) writes a nonzero return to
    `returns[i - e]` when i >= e, the config's `equilibration_steps`;
    entries of no-trade steps are left as they are.  `returns` is a
    writable 1-D int64 array, written through a memoryview; without it
    nothing is recorded.  A `returns` of another kind, or one too short for
    the steps this call records, raises ValueError before the first step,
    as does an `n_steps` that is negative or not an integer (a bool too).
    The loop can be driven in chunks: consecutive calls continue the same
    run, with the same results as one call.  Every 10^4 steps it checks, in
    O(groups), that the singletons and the member lists still cover every
    agent once.

    Each block of uniforms is drawn and decoded once (`_draw_block`), by
    whichever of `step` and `advance` needs it, and kept with the state, so
    a call that resumes a block decodes nothing.  A step draws a new block
    when its cursor is at `_BUF_SIZE - _REFILL_MARGIN` or past it, a
    merge-target rejection at `_BUF_SIZE`.  Agent and merge-target picks
    come from the block's int picks and decision and tie-break uniforms
    from its floats, in the order `step` consumes them.  An iid group
    decides from its size's CDF in the state's `_cdf`, an E-Z group from
    the one constant CDF bound here.

    In strategy mode the loop owns the packed tallies (see `SimState`): a
    singleton's is the state's `_single[agent]`, and a merged group's is
    the sum of its two sides', stored at the handle that survives, while
    the slot of a retired group handle, and of a fragmented group, is set
    to None.  When the state holds none (`_group_votes` is None), this call
    first builds them from the partition, after its argument checks, in
    O(N + agents in groups): O(N) at step 0, where there are no groups.
    Chunked calls keep them.  A group of two or more decides from its
    tally's (buy, sell, wait) fields at the current history, one
    `3 * _width`-bit key that fixes its size as well.  The call classifies
    each key it meets once, as `voting.consensus_options` does, and keeps
    an int code per key in a dict: 0-3 a decided outcome (buy, sell, wait,
    fragment) and 4-7 the index of its tied options in `_TIED`.  It breaks
    ties as `step` does, `tied[int(u * len(tied))]`, so a decision reads
    the same uniforms whether its key was met before or not.  The dict
    lives for one call and is cleared at a checksum once it holds more
    than `_OPTIONS_LIMIT` keys: a run whose groups keep changing meets new
    keys for good.  The decision counts are kept in locals and written
    back to `decision_counts` when the call returns or raises.

    A group's size is one read of the partition's `_size`.  Merges and
    fragments update the partition in place, as `Partition.merge` and
    `Partition.fragment` would: a singleton joins a group without a list
    of its own, and a fragment sends every member back to its own handle
    and size 1 without allocating.  The cyclic garbage collector is off,
    for the whole process, until the call returns or raises, and is turned
    back on only if it was on before: drive the loop from one thread at a
    time.
    """
    n_steps = _integer("n_steps", n_steps)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    config = state.config
    ez = isinstance(config, EzConfig)
    n = config.n_agents
    x = None if ez else config.x
    part = state.partition
    group_of = part._group_of
    size = part._size
    members = part._members
    n_single = part._n_single
    rng = state._rng
    cdf = state._cdf
    if cdf is not None:
        from .voting import fill_cdfs  # an iid state has loaded it
    constant = (config.a / 2, config.a, 1.0) if ez else None  # E-Z's one decision CDF
    rows = state._rows
    single = state._single
    votes = state._group_votes
    n_buy, n_sell, n_merge, n_fragment = state.decision_counts
    memory = len(state.history)
    mask = (1 << memory) - 1
    w = state._width
    w2, w3 = 2 * w, 3 * w
    fmask = (1 << w) - 1
    tmask = (1 << w3) - 1
    options = {}  # the code of each tally met, keyed by the tally at h (see `_TIED`)
    classified = options.get
    tied_options = _TIED
    h = history_index(state.history)
    buf = state._ubuf
    picks = state._upicks
    pos = state._upos
    refill_at = _BUF_SIZE - _REFILL_MARGIN
    i = state.step_index
    stop = i + n_steps
    if returns is None:
        first_recorded = stop  # no step of this call reaches it
    else:
        first_recorded = config.equilibration_steps
        returns = memoryview(returns)
        # checked before any step: the loop cannot stop partway and leave the
        # partition moved on but `step_index` and the stream cursor behind
        if (returns.readonly or returns.ndim != 1 or returns.format not in ("l", "q")
                or returns.itemsize != 8):
            raise ValueError("returns must be a writable 1-D array of 8-byte integers, "
                             f"got format {returns.format!r} with shape {returns.shape}")
        if len(returns) < stop - first_recorded:
            raise ValueError(f"returns holds {len(returns)} entries, and steps "
                             f"{first_recorded}..{stop - 1} need {stop - first_recorded}")
    if rows is not None and votes is None:
        votes = state._group_votes = [None] * n
        for g, m in members.items():
            votes[g] = sum(map(single.__getitem__, m))

    # the loop builds only lists that cannot form a cycle, and reference
    # counting frees them; the cyclic collector would only rescan the partition
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        while i < stop:
            block_end = min(stop, (i // _CHECK_EVERY + 1) * _CHECK_EVERY)
            # j is step i's slot in `returns`, i - first_recorded: recorded when j >= 0
            for j in range(i - first_recorded, block_end - first_recorded):
                if pos >= refill_at:
                    buf = picks = None  # let the old block go before the next one is drawn
                    buf, picks = _draw_block(rng, n)
                    pos = 0
                agent = picks[pos]
                pos += 1
                g = group_of[agent]
                s = size[g]

                # decide
                if rows is None:
                    c = constant if ez else cdf[s]
                    if c is None:
                        c = fill_cdfs(cdf, s, x)
                    u = buf[pos]
                    pos += 1
                    if u < c[0]:
                        d = 0
                    elif u < c[1]:
                        d = 1
                    elif u < c[2]:
                        d = 2
                    else:
                        d = 3
                elif s == 1:
                    d = rows[agent][h]  # one vote always clears T = x < 1
                else:
                    # the group's (buy, sell, wait) counts at h, which fix s too
                    t = (votes[g] >> (h * w3)) & tmask
                    d = classified(t)
                    if d is None:
                        # `voting.consensus_options`, stated inline, as a `_TIED` code
                        b = t & fmask
                        sc = (t >> w) & fmask
                        wt = t >> w2
                        mx = b if b >= sc else sc
                        if wt > mx:
                            mx = wt
                        if mx < x * s:
                            d = 3
                        elif b == mx:
                            if sc == mx:
                                d = 4 if wt == mx else 5
                            else:
                                d = 6 if wt == mx else 0
                        elif sc == mx:
                            d = 7 if wt == mx else 1
                        else:
                            d = 2
                        options[t] = d
                    if d > 3:
                        # the tie-break of `step`
                        tied = tied_options[d]
                        d = tied[int(buf[pos] * len(tied))]
                        pos += 1

                # act
                if d <= 1:
                    if d == 0:
                        n_buy += 1
                        h = ((h << 1) | 1) & mask
                        if j >= 0:
                            returns[j] = s
                    else:
                        n_sell += 1
                        h = (h << 1) & mask
                        if j >= 0:
                            returns[j] = -s
                    if not ez or s == 1:
                        continue
                elif d == 2:
                    n_merge += 1
                    if ez or s < n:
                        # E-Z: any agent but the picked one, same group is a no-op;
                        # voting model: an agent outside the group
                        while True:
                            target = picks[pos]
                            pos += 1
                            if target != agent if ez else group_of[target] != g:
                                break
                            if pos >= _BUF_SIZE:
                                buf = picks = None
                                buf, picks = _draw_block(rng, n)
                                pos = 0
                        g2 = group_of[target]
                        if g2 != g:
                            # `Partition.merge`, inlined, and the tallies summed: the
                            # smaller side moves, the larger group (on a tie, g) keeps its handle
                            s2 = size[g2]
                            if s < s2:
                                g, g2, s, s2 = g2, g, s2, s
                            if rows is not None:
                                votes[g] = ((votes[g] if s > 1 else single[g])
                                            + (votes[g2] if s2 > 1 else single[g2]))
                            if s2 == 1:
                                group_of[g2] = g
                                if s == 1:
                                    members[g] = [g, g2]
                                    n_single -= 2
                                else:
                                    members[g].append(g2)
                                    n_single -= 1
                            else:
                                m2 = members.pop(g2)
                                for a in m2:
                                    group_of[a] = g
                                members[g].extend(m2)
                                if rows is not None:
                                    votes[g2] = None  # g2 no longer names a group
                            size[g] = s + s2
                    continue
                else:
                    n_fragment += 1
                # fragment (or a trade that disperses), `Partition.fragment` inlined:
                # every member becomes a singleton named by itself.  No singleton gets
                # here: its own vote decides it, or a CDF that ends at 1.0
                for a in members.pop(g):
                    group_of[a] = a
                    size[a] = 1
                n_single += s
                if rows is not None:
                    votes[g] = None

            i = block_end
            if i % _CHECK_EVERY == 0:
                # cheap running checksum; full scans live in the test suite
                covered = n_single + sum(map(len, members.values()))
                if covered != n:
                    raise AssertionError(
                        f"partition corrupted at step {i - 1}: {covered} of {n} agents")
                if len(options) > _OPTIONS_LIMIT:
                    options.clear()
    finally:
        part._n_single = n_single
        state.decision_counts[:] = n_buy, n_sell, n_merge, n_fragment
        if gc_was_on:
            gc.enable()

    state._ubuf = buf
    state._upicks = picks
    state._upos = pos
    state.history = tuple((h >> k) & 1 for k in range(memory - 1, -1, -1))
    state.step_index = stop


def run(config: SimConfig | EzConfig) -> tuple[np.ndarray, RunSummary]:
    """Full simulation of a `SimConfig` or an `EzConfig`: returns the
    post-equilibration return series and the run's summary."""
    state = SimState(config)
    recorded = config.total_steps - config.equilibration_steps
    returns = np.zeros(recorded, dtype=np.int64)
    advance(state, config.total_steps, returns)
    summary = RunSummary(
        n_agents=config.n_agents,
        total_steps=config.total_steps,
        recorded_steps=recorded,
        decision_counts=dict(zip(("buy", "sell", "merge", "fragment"), state.decision_counts)),
        trade_fraction=int(np.count_nonzero(returns)) / recorded,
        final_size_histogram=state.partition.size_histogram(),
    )
    return returns, summary
