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
decoded for the whole block; the per-step oracle computes them from the
floats.  That oracle is the engine's own: `ez_step` is `engine.step`, which
takes the E-Z rules from the state's config.
"""

from __future__ import annotations

import numpy as np

from .config import EzConfig
from .engine import RunSummary, SimState, simulate
from .engine import step as ez_step  # noqa: F401  (the per-step oracle, under its E-Z name)


def init_ez_state(config: EzConfig) -> tuple[SimState, np.random.Generator]:
    """All-singleton E-Z state and its dynamics generator, seeded by `config.seed`."""
    return SimState(config), np.random.default_rng(config.seed)


def ez_run(config: EzConfig) -> tuple[np.ndarray, RunSummary]:
    """Run the baseline; mirrors `engine.run` (seeded, post-equilibration series)."""
    return simulate(*init_ez_state(config))
