"""Run parameters of both models, with their defaults and checks.

`RunConfig` holds what every run shares; `SimConfig` adds the voting
model's parameters and `EzConfig` the E-Z baseline's trade probability.
The dataclasses own every default and every check; `cli` owns only the
file format.  This module uses the standard library only, so a command
that reads or writes configs loads no simulator code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# Strategy tables hold n_agents * 2**memory entries; a config above this
# budget is refused before anything is allocated.
TABLE_BUDGET = 2**24
# Largest population of a run or a mean-field solve.  A simulation state
# holds some 56 B per agent and fills its lists piece by piece, so a
# population too large for the machine would end in the OOM killer, not in
# a MemoryError; it is refused before anything is allocated instead.
AGENT_LIMIT = 2**24
# Largest group size a mean-field solve holds a count for.  Its sweep costs
# O(S^2) in the support S, so a population whose stationary groups reach past
# this is refused instead of solved for hours; every N up to the limit solves
# on at most N sizes.
SUPPORT_LIMIT = 2**14


class VoteMode(str, Enum):
    """How a polled group votes.

    STRATEGY_DRIVEN: each member votes its table entry for the current
    history, so re-polling the same group at the same history gives the
    same tally.  IID_UNIFORM: every vote is an independent uniform draw
    over the three actions, the memoryless regime whose outcome
    probabilities `voting` computes in closed form; it reads no tables.
    """

    STRATEGY_DRIVEN = "strategy"
    IID_UNIFORM = "iid"


@dataclass(kw_only=True)
class RunConfig:
    """Parameters every model's run shares, with their defaults and checks.

    Keyword-only, like its subclasses `SimConfig` and `EzConfig`; the
    defaults are the command line's.
    """
    n_agents: int = 10_000
    total_steps: int = 1_000_000
    equilibration_steps: int | None = None  # default: 10% of total_steps
    seed: int = 1

    def __post_init__(self):
        if self.equilibration_steps is None:
            self.equilibration_steps = self.total_steps // 10
        self.validate()

    def validate(self) -> None:
        if not 2 <= self.n_agents <= AGENT_LIMIT:
            raise ValueError(f"n_agents must be in [2, {AGENT_LIMIT}], got {self.n_agents}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0 <= self.equilibration_steps < self.total_steps:
            raise ValueError(
                f"equilibration_steps must be in [0, total_steps), got "
                f"{self.equilibration_steps} of {self.total_steps}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(kw_only=True)
class SimConfig(RunConfig):
    """The voting model's run: consensus parameter x, the memory m of the
    strategy tables, the m-step price history they start from, and how
    groups vote.  A `None` history resolves to `memory` ones, as a `None`
    `equilibration_steps` resolves to 10% of `total_steps`; the config file
    writes both as "auto"."""
    x: float = 0.37
    memory: int = 2
    initial_history: tuple | None = None  # default: `memory` ones
    vote_mode: VoteMode = VoteMode.STRATEGY_DRIVEN

    def __post_init__(self):
        try:
            self.vote_mode = VoteMode(self.vote_mode)
        except ValueError:
            allowed = " or ".join(repr(m.value) for m in VoteMode)
            raise ValueError(f"vote_mode must be {allowed}, got {self.vote_mode!r}") from None
        if self.initial_history is None:
            # capped: a memory past the table budget is refused before the history
            self.initial_history = (1,) * min(self.memory, TABLE_BUDGET.bit_length())
        self.initial_history = tuple(int(b) for b in self.initial_history)
        super().__post_init__()

    def validate(self) -> None:
        super().validate()
        if not 0.0 < self.x < 1.0:
            raise ValueError(f"x must be in (0, 1), got {self.x}")
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        # the first test keeps a huge memory from building a huge integer
        if (self.memory >= TABLE_BUDGET.bit_length()
                or self.n_agents << self.memory > TABLE_BUDGET):
            raise ValueError(
                f"strategy tables of n_agents * 2**memory = {self.n_agents} * 2**{self.memory} "
                f"entries exceed the budget of {TABLE_BUDGET} entries; lower memory or n_agents"
            )
        if len(self.initial_history) != self.memory:
            raise ValueError(
                f"initial_history length {len(self.initial_history)} != memory {self.memory}"
            )
        if any(b not in (0, 1) for b in self.initial_history):
            raise ValueError(
                f"initial_history bits must be 0 or 1, got {self.initial_history}")


@dataclass(kw_only=True)
class EzConfig(RunConfig):
    a: float = 0.01  # per-step trade probability

    def validate(self) -> None:
        super().validate()
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"trade probability must be in (0, 1), got {self.a}")
