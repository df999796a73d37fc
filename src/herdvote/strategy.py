"""Global information channel: price history and fixed strategy tables.

Every agent holds one immutable random strategy table mapping each of the
2^m possible m-bit price-movement histories (bit 1 = price went up, most
recent movement last) to a fixed action: buy, sell or wait.  All agents see
the same shared history, so agents holding identical table entries act
identically — the "crowd" effect of common information.

Two polling modes are supported:

  STRATEGY_DRIVEN  each member votes its table entry for the current
                   history; re-polling the same group at the same history
                   gives the identical tally (perfect temporal correlation).
  IID_UNIFORM      every vote is an independent uniform draw over the three
                   actions; this is the memoryless regime whose outcome
                   probabilities `voting` computes in closed form.

At any fixed history, freshly drawn tables give i.i.d. uniform entries
across agents, so a single poll is distributed identically in both modes;
the modes differ only in correlations across time.

The history updates on the sign of each step's net return and freezes on
no-trade steps (no trade, no price movement).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .voting import VoteTally

BUY, SELL, WAIT = 0, 1, 2

History = tuple  # m bits, most recent last


class VoteMode(str, Enum):
    STRATEGY_DRIVEN = "strategy"
    IID_UNIFORM = "iid"


class StrategyTable(NamedTuple):
    """Immutable map from every m-bit history to an action in {0, 1, 2}."""

    memory: int
    entries: tuple

    def action(self, history: History) -> int:
        return self.entries[history_index(history)]


def history_index(history: History) -> int:
    """Encode a bit history as a table row index (most recent bit = LSB)."""
    idx = 0
    for bit in history:
        idx = (idx << 1) | bit
    return idx


def random_strategy(memory: int, rng) -> StrategyTable:
    """Draw a table with each of the 2^memory entries uniform over 3 actions."""
    if memory < 1:
        raise ValueError(f"memory length must be >= 1, got {memory}")
    entries = tuple(int(v) for v in rng.integers(0, 3, size=2**memory))
    return StrategyTable(memory, entries)


def assign_strategies(n_agents: int, memory: int, rng) -> list[StrategyTable]:
    """Tables for all agents, drawn in agent order 0, 1, ..., n-1.

    The draw order is part of the reproducibility contract: a run seed
    determines agent k's table independent of anything that happens later.
    One (n_agents, 2^memory) draw gives the same tables, and leaves `rng`
    in the same state, as one `random_strategy` call per agent.
    """
    if memory < 1:
        raise ValueError(f"memory length must be >= 1, got {memory}")
    draws = rng.integers(0, 3, size=(n_agents, 2**memory)).tolist()
    return [StrategyTable(memory, tuple(row)) for row in draws]


def vote(table: StrategyTable, history: History) -> int:
    """The agent's action for a history: a pure table lookup."""
    if len(history) != table.memory:
        raise ValueError(
            f"history length {len(history)} does not match table memory {table.memory}"
        )
    return table.entries[history_index(history)]


def update_history(history: History, net_return: int) -> History:
    """Shift in the sign of a net return; unchanged when nothing traded."""
    if net_return > 0:
        return history[1:] + (1,)
    if net_return < 0:
        return history[1:] + (0,)
    return history


def poll_group(
    members: Sequence[int],
    strategies: Sequence[StrategyTable],
    history: History,
    mode: VoteMode,
    rng,
) -> VoteTally:
    """Tally one group's votes under the given mode.

    Reference oracle for tests, not production code: the engine keeps
    incremental per-group tallies (strategy mode) or draws the decision
    from its exact distribution (iid mode) instead.

    STRATEGY_DRIVEN consumes no randomness.  IID_UNIFORM draws one uniform
    action per member.
    """
    if not members:
        raise ValueError("cannot poll an empty group")
    counts = [0, 0, 0]
    if mode == VoteMode.STRATEGY_DRIVEN:
        idx = history_index(history)
        for agent in members:
            table = strategies[agent]
            if len(history) != table.memory:
                raise ValueError(
                    f"history length {len(history)} does not match table memory {table.memory}"
                )
            counts[table.entries[idx]] += 1
    else:
        for v in rng.integers(0, 3, size=len(members)):
            counts[v] += 1
    return VoteTally(counts[BUY], counts[SELL], counts[WAIT])
