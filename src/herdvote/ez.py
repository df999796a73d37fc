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
with the voting model's.  The baseline is a configuration of the engine:
`engine.SimState(config)` of an `EzConfig` seeds its dynamics stream with
`numpy.random.default_rng(seed)`, draws its decisions from the constant
(a/2, a/2, 1-a) for (buy, sell, merge), disperses trading groups, and
merges by the rule above.  Every draw is a scalar uniform from a pre-drawn
block, consumed per step in the order [agent pick][decision][other-agent
rejections].  `ez_run` is `engine.run` and `ez_step` is `engine.step`,
under their E-Z names: both take the E-Z rules from the state's config.
"""

from .config import EzConfig  # noqa: F401  (old import path)
from .engine import run as ez_run  # noqa: F401  (the engine's run, under its E-Z name)
from .engine import step as ez_step  # noqa: F401  (the per-step oracle, under its E-Z name)
