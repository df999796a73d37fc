"""Eguiluz-Zimmermann herding baseline.

The classic dispersal-on-trade herding model, used here as the comparison
target that the voting model approaches as its consensus parameter drops
toward one third.  Each step picks a random agent; with probability `a` the
agent's whole group trades (net return +s or -s with equal probability) and
immediately disperses into singletons, otherwise the group merges with the
group of another randomly chosen agent (nothing happens when that agent is
already in the same group).  For small `a` the stationary group sizes
follow a power law and the distribution of trade sizes has density tail
exponent 3/2.

In the voting model the conditional trade probability decays with group
size, so large groups essentially never trade; here it is constant, so
any particular large group trades more often than a small one.  The two
models are compared on their return-tail statistics only.

Its parameters, `EzConfig` (trade probability `a`), live in `config`
with the voting model's.  The baseline runs on the engine's fused loop
(`engine.advance`): an `engine.SimState` built from an `EzConfig` draws
its decisions from the constant (a/2, a/2, 1-a) for (buy, sell, merge),
disperses trading groups, and merges by the rule above.  The dynamics
stream is `numpy.random.default_rng(seed)`; every draw is a scalar uniform
from a pre-drawn block, consumed per step in the order [agent pick]
[decision][other-agent rejections].  The loop reads the agent picks int(u * n)
decoded for the whole block; `ez_step` computes them from the floats.
"""

from __future__ import annotations

import numpy as np

from .config import EzConfig
from .engine import _draw_block, RunSummary, SimState, StepEvent, simulate
from .voting import Decision


def init_ez_state(config: EzConfig) -> tuple[SimState, np.random.Generator]:
    """All-singleton E-Z state and its dynamics generator, seeded by `config.seed`."""
    return SimState(config), np.random.default_rng(config.seed)


def ez_step(state: SimState, rng) -> StepEvent:
    """One update: trade-and-disperse with probability a, else merge.

    Reference oracle for tests, not production code: `ez_run` never calls
    it.  It takes a state from `init_ez_state` and consumes the stream in
    the fused loop's order, so a loop of `ez_step` calls reproduces
    `engine.advance` byte for byte.
    """
    buf, pos = state._ubuf, state._upos
    part = state.partition
    n = part.n_agents
    if pos >= len(buf) - 16:
        buf, state._upicks = _draw_block(rng, n)
        pos = 0
    a = state.config.a
    agent = int(buf[pos] * n)
    g, s = part.group_of(agent)
    u = buf[pos + 1]
    pos += 2
    if u < a:
        decision = Decision.BUY if u < a / 2 else Decision.SELL
        net = s if decision == Decision.BUY else -s
        part.fragment(g)
    else:
        decision, net = Decision.MERGE, 0
        # merge with the group of another agent; same group means nothing happens
        while True:
            other = int(buf[pos] * n)
            pos += 1
            if other != agent:
                break
            if pos >= len(buf):
                buf, state._upicks = _draw_block(rng, n)
                pos = 0
        g2, _ = part.group_of(other)
        if g2 != g:
            part.merge(g, g2)
    state._ubuf, state._upos = buf, pos
    state.decision_counts[decision] += 1
    index = state.step_index
    state.step_index = index + 1
    return StepEvent(index, decision, s, net)


def ez_run(config: EzConfig) -> tuple[np.ndarray, RunSummary]:
    """Run the baseline; mirrors `engine.run` (seeded, post-equilibration series)."""
    return simulate(*init_ez_state(config))
