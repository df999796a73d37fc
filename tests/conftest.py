import numpy as np
import pytest

from herdvote.engine import _BUF_SIZE, _REFILL_MARGIN


def _step_counting_refills(step_fn, state, n_steps):
    """Step the oracle `n_steps` times: `engine.step`, under that name or as
    `ez.ez_step`.

    Returns the net returns and how often the oracle drew a new block of
    uniforms at the start of a step and inside the merge-target rejection
    loop.  A new block shows as a new `_ubuf` after the step: the step began
    within `_REFILL_MARGIN` draws of the end of a block (or on a fresh
    state, whose cursor sits at `_BUF_SIZE`) when the refill came before the
    agent pick, and anywhere below that when it came while rejecting.  Each
    new block is checked to come with its own decoded picks.
    """
    returns = np.zeros(n_steps, dtype=np.int64)
    at_start = in_rejections = 0
    for i in range(n_steps):
        buf, pos = state._ubuf, state._upos
        returns[i] = step_fn(state).net_return
        if state._ubuf is not buf:
            n = state.partition.n_agents
            assert list(state._upicks) == [int(u * n) for u in state._ubuf]
            if pos >= _BUF_SIZE - _REFILL_MARGIN:
                at_start += 1
            else:
                in_rejections += 1
    return returns, at_start, in_rejections


@pytest.fixture
def step_counting_refills():
    return _step_counting_refills

