"""Slow reference implementations that the fast code paths are checked against.

Nothing in the package imports this module; only tests do.
"""

import math

import numpy as np

from herdvote.meanfield import GroupSizeDistribution, SolverReport, _flows, _rates


def damped_stationary(n_agents: int, x: float, tolerance: float = 1e-10,
                      max_iterations: int = 10_000):
    """The plain damped sweep over every size 1..N, as `solve_stationary` once was.

    From N singletons, each sweep moves every n_s halfway to the count that
    balances its inflow against its outflow rate, n <- n/2 + inflow/(2 rate),
    then rescales the counts to mass N, until the residual max-norm is at
    most `tolerance`.  Callers handle p_frg(N) = 0, where the sweep has no
    fixed point to reach.
    """
    N = int(n_agents)
    p_frg, p_merge = _rates(N, float(x))
    n = np.zeros(N + 1)
    n[1] = float(N)
    sizes = np.arange(N + 1, dtype=float)
    inflow, rate = _flows(n, p_frg, p_merge, N)
    residual = math.inf
    for sweep in range(1, max_iterations + 1):
        # A size nothing flows out of keeps its count.
        balanced = np.divide(inflow, rate, out=n.copy(), where=rate > 0.0)
        n = 0.5 * n + 0.5 * balanced
        n *= N / float(sizes @ n)
        inflow, rate = _flows(n, p_frg, p_merge, N)
        residual = float(np.max(np.abs(inflow - rate * n)))
        if residual <= tolerance:
            return GroupSizeDistribution(N, n), SolverReport(sweep, residual, True, N)
    return GroupSizeDistribution(N, n), SolverReport(max_iterations, residual, False, N)
