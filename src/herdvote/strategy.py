"""Global information channel: price history and fixed strategy tables.

Every agent holds one immutable random strategy table mapping each of the
2^m possible m-bit price-movement histories (bit 1 = price went up, most
recent movement last) to a fixed action: buy, sell or wait.  All agents see
the same shared history, so agents holding identical table entries act
identically — the "crowd" effect of common information.

The tables of a population are one C-contiguous uint8 array of shape
(n_agents, 2^m): row a is agent a's table, column `history_index(h)` its
action at history h.  Nothing else holds them.

Two polling modes are supported (`VoteMode`, defined in `config` with the
run parameters that select it):

  STRATEGY_DRIVEN  each member votes its table entry for the current
                   history; re-polling the same group at the same history
                   gives the identical tally (perfect temporal correlation).
  IID_UNIFORM      every vote is an independent uniform draw over the three
                   actions; this is the memoryless regime whose outcome
                   probabilities `voting` computes in closed form.  It
                   reads no tables.

At any fixed history, freshly drawn tables give i.i.d. uniform entries
across agents, so a single poll is distributed identically in both modes;
the modes differ only in correlations across time.

The history updates on the sign of each step's net return and freezes on
no-trade steps (no trade, no price movement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .config import VoteMode

if TYPE_CHECKING:
    from .voting import VoteTally

BUY, SELL, WAIT = 0, 1, 2

History = tuple  # m bits, most recent last

_DRAW_CHUNK = 1 << 20  # table entries per int64 draw in `assign_strategies`


def history_index(history: History) -> int:
    """Encode a bit history as a table row index (most recent bit = LSB)."""
    idx = 0
    for bit in history:
        idx = (idx << 1) | bit
    return idx


def assign_strategies(n_agents: int, memory: int, rng) -> np.ndarray:
    """Tables for all agents: a C-contiguous uint8 array (n_agents, 2^memory).

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


def update_history(history: History, net_return: int) -> History:
    """Shift in the sign of a net return; unchanged when nothing traded."""
    if net_return > 0:
        return history[1:] + (1,)
    if net_return < 0:
        return history[1:] + (0,)
    return history


def poll_group(
    members: Sequence[int],
    tables: np.ndarray | None,
    history: History,
    mode: VoteMode,
    rng,
) -> VoteTally:
    """Tally one group's votes under the given mode.

    Reference oracle for tests, not production code: the engine keeps
    incremental per-group tallies (strategy mode) or draws the decision
    from its exact distribution (iid mode) instead.

    STRATEGY_DRIVEN reads each member's row of `tables` and consumes no
    randomness.  IID_UNIFORM draws one uniform action per member and
    ignores `tables`.
    """
    from .voting import VoteTally  # the oracle's result type; a run loads no `voting`

    if not members:
        raise ValueError("cannot poll an empty group")
    counts = [0, 0, 0]
    if mode == VoteMode.STRATEGY_DRIVEN:
        if 1 << len(history) != tables.shape[1]:
            raise ValueError(f"history length {len(history)} does not match "
                             f"{tables.shape[1]} table entries per agent")
        idx = history_index(history)
        for agent in members:
            counts[tables[agent, idx]] += 1
    else:
        for v in rng.integers(0, 3, size=len(members)):
            counts[v] += 1
    return VoteTally(counts[BUY], counts[SELL], counts[WAIT])
