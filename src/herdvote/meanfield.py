"""Stationary rate equations for the average number of groups of each size.

Writing n_s for the average number of groups of size s in a population of
N agents, one step of the dynamics picks the group of a uniformly random
agent (a group of size s is acted on with probability s * n_s / N) and then
fragments it, merges it, or leaves it intact, with the exact outcome
probabilities computed by `voting`.  Balancing the resulting flows gives,
for every size s:

      0 = - (s/N) p_frg(s) n_s                                 [fragments]
          - sum_t  rate(s, t)                                  [merges away]
          - sum_s' rate(s', s)                                 [is a target]
          + sum_{s'+t=s} rate(s', t)                           [merge gains]
          + delta_{s,1} * sum_{s'>=2} (s'^2/N) p_frg(s') n_s'  [new singletons]

where the pairwise merge rate of an acting group of size s' with a target
group of size t is derived from "wait, then join the group of a random
agent outside your own":

      rate(s', t) = (s' n_s' / N) p_merge(s') * t (n_t - d_{t,s'})+ / (N - s')

for s' < N and t <= N - s' (a whole-population group has nobody to join and
its merge is a no-op).  In the large-N limit the exclusion corrections drop
and the balance takes the familiar coagulation-fragmentation form

      0 = - (s/N) p_frg(s) n_s (1 - delta_{s,1})
          - [p_merge(s)/N + (1/N^2) sum_s' s' p_merge(s') n_s'] s n_s
          + (1/N^2) sum_{s'=1}^{s-1} s' n_s' (s-s') n_{s-s'} p_merge(s')
          + delta_{s,1} (1/N) sum_{s'>=2} p_frg(s') s'^2 n_s'

The finite-N form (the first display) is written once, in `_flows`, as an
inflow to each size and an outflow rate per group, so that the balance at
size s reads inflow_s - rate_s n_s; `balance_residual` and
`solve_stationary` both evaluate it there.  These are deterministic rate
equations for the *average* occupation numbers: products of averages stand
in for averages of products, so correlations and fluctuations are not
captured.  Fragmentation makes those fluctuations violent (one event
converts a group of size s into s singletons at once), and at small N the
fixed point can differ from the
exact chain's stationary marginals by tens of percent.  `stationary_oracle`
computes those exact marginals for tiny N by enumerating all integer
partitions of N as Markov states; use it to quantify the gap.

One special case is handled exactly: when p_frg(N) = 0 the single
whole-population group can never break apart, every trajectory eventually
coagulates into it, and the stationary state is one group of size N.

The solver starts from N singletons and moves every n_s at once halfway to
the count that balances its inflow against its outflow,
n_s <- n_s/2 + inflow_s/(2 rate_s), then rescales the counts to mass N.
Sums over the size that merges away or is targeted are cumulative sums and
the merge gains are one convolution, so a sweep is a few NumPy calls on
arrays of length N (O(N^2) work inside the convolution).  The sweep count
depends on x far more than on N: about 95 at x = 0.41, several hundred
close to x = 1/3.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import AGENT_LIMIT
from .voting import ONE_THIRD, decision_probabilities, probability_table

_DAMPING = 0.5  # share of the balancing step taken per sweep


@dataclass
class GroupSizeDistribution:
    """Group counts by size: counts[s] is n_s, counts[0] is unused (zero)."""

    n_agents: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (self.n_agents + 1,):
            raise ValueError(
                f"counts must have length n_agents+1={self.n_agents + 1}, got {self.counts.shape}"
            )
        if np.any(self.counts < 0):
            raise ValueError("group counts must be nonnegative")

    def mass(self) -> float:
        """Total agents accounted for: sum over s of s * n_s."""
        return float(np.arange(self.n_agents + 1) @ self.counts)

    def n_s(self, size: int) -> float:
        return float(self.counts[size])


@dataclass
class SolverReport:
    iterations: int
    residual: float
    converged: bool


def _rates(n_agents: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """p_frg and p_merge indexed by size 0..N (entry 0 zero), from one table."""
    sizes = np.arange(1, n_agents + 1)
    p_frg, consensus = probability_table(sizes, x)
    return np.r_[0.0, p_frg], np.r_[0.0, consensus / 3.0]


def _flows(n: np.ndarray, p_frg: np.ndarray, p_merge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inflow to each size and outflow rate per group at counts `n`.

    The net flow into size s is inflow[s] - rate[s] * n[s].  All arrays are
    indexed by size 0..N; entry 0 carries no flow.
    """
    N = len(n) - 1
    sizes = np.arange(N + 1, dtype=float)
    mass = sizes * n
    # own[s] = n_s - (n_s - 1)+ : the acting group itself, which cannot be
    # its own target; only counted where a same-size pair fits (2s <= N).
    own = np.where(2 * sizes <= N, np.minimum(n, 1.0), 0.0)
    act = np.zeros(N + 1)  # rate(s', t) = act[s'] n_s' * t (n_t - d_{t,s'})+
    act[1:N] = sizes[1:N] * p_merge[1:N] / (N * (N - sizes[1:N]))
    acting = act * n
    reachable_mass = np.cumsum(mass)[::-1]  # [s] = sum_{t <= N-s} t n_t
    targeting = np.cumsum(acting)[::-1]  # [t] = sum_{s' <= N-t} act[s'] n_s'

    rate = (sizes * p_frg / N  # fragments
            + act * reachable_mass  # merges away
            + sizes * targeting  # is a target
            - 2.0 * sizes * act * own)  # both above, without the self-pair

    inflow = np.convolve(acting, mass)[: N + 1]  # merge gains
    inflow[::2] -= (acting * sizes * own)[: N // 2 + 1]  # self-pair s' = t = s/2
    inflow[1] += float(sizes * p_frg / N @ mass)  # new singletons
    return inflow, rate


def balance_residual(dist: GroupSizeDistribution, x) -> np.ndarray:
    """Net stationary flow into each size; zero everywhere at a fixed point.

    Flows move agents between sizes but never create or destroy them, so
    sum_s s * residual[s] == 0 holds for any input counts, normalised or not.
    Returned array is indexed like `dist.counts` (entry 0 unused).
    """
    n = np.asarray(dist.counts, dtype=float)
    inflow, rate = _flows(n, *_rates(dist.n_agents, float(x)))
    return inflow - rate * n


def solve_stationary(
    n_agents: int,
    x,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
) -> tuple[GroupSizeDistribution, SolverReport]:
    """Fixed point of the stationary balance with mass sum_s s*n_s = N.

    Starting from N singletons, each sweep moves every n_s halfway to the
    count that balances its inflow against its own outflow rate,
    n <- n/2 + inflow/(2 rate), all sizes at once, then rescales the counts
    to mass N.  Stops when the residual max-norm drops to `tolerance`.  On
    non-convergence the last iterate is returned with converged=False.
    Deterministic given its inputs.
    """
    N = int(n_agents)
    x = float(x)
    if not 2 <= N <= AGENT_LIMIT:
        raise ValueError(f"n_agents must be in [2, {AGENT_LIMIT}], got {N}")
    if not ONE_THIRD < x < 1.0:
        raise ValueError(f"solver requires 1/3 < x < 1, got x={x}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")

    p_frg, p_merge = _rates(N, x)

    if p_frg[N] == 0.0:
        # The whole-population group cannot fragment: it absorbs everything.
        counts = np.zeros(N + 1)
        counts[N] = 1.0
        dist = GroupSizeDistribution(N, counts)
        residual = float(np.max(np.abs(balance_residual(dist, x))))
        return dist, SolverReport(iterations=0, residual=residual, converged=True)

    n = np.zeros(N + 1)
    n[1] = float(N)
    sizes = np.arange(N + 1, dtype=float)
    inflow, rate = _flows(n, p_frg, p_merge)
    residual_norm = math.inf

    for sweep in range(1, max_iterations + 1):
        # A size nothing flows out of keeps its count.
        balanced = np.divide(inflow, rate, out=n.copy(), where=rate > 0.0)
        n = (1.0 - _DAMPING) * n + _DAMPING * balanced
        n *= N / float(sizes @ n)
        inflow, rate = _flows(n, p_frg, p_merge)
        residual_norm = float(np.max(np.abs(inflow - rate * n)))
        if residual_norm <= tolerance:
            return GroupSizeDistribution(N, n), SolverReport(sweep, residual_norm, True)

    return GroupSizeDistribution(N, n), SolverReport(max_iterations, residual_norm, False)


_ORACLE_LIMIT = 8


def _integer_partitions(total: int, max_part: int | None = None):
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _integer_partitions(total - first, first):
            yield (first,) + rest


def stationary_oracle(n_agents: int, x) -> GroupSizeDistribution:
    """Exact stationary expected group counts for tiny populations.

    Enumerates every integer partition of N as a Markov state, builds the
    exact one-step transition matrix of the dynamics (uniform agent pick,
    exact decision probabilities, merge target uniform over the agents
    outside the acting group), solves for the stationary distribution and
    returns the expected n_s.  Exponential state count: N <= 8 only.
    """
    N = int(n_agents)
    x = float(x)
    if N < 2:
        raise ValueError(f"need at least 2 agents, got {N}")
    if N > _ORACLE_LIMIT:
        raise ValueError(f"state space of partitions of {N} is too large (limit {_ORACLE_LIMIT})")

    states = [tuple(sorted(p, reverse=True)) for p in _integer_partitions(N)]
    index = {st: i for i, st in enumerate(states)}
    m = len(states)
    trans = np.zeros((m, m))

    for i, state in enumerate(states):
        counts = Counter(state)
        stay = 0.0
        for s, k in counts.items():
            pick = k * s / N
            probs = decision_probabilities(s, x)
            stay += pick * (probs.buy + probs.sell)
            if probs.fragment > 0.0:
                nxt = list(state)
                nxt.remove(s)
                nxt.extend([1] * s)
                trans[i, index[tuple(sorted(nxt, reverse=True))]] += pick * probs.fragment
            else:
                stay += pick * probs.fragment
            if s == N:
                stay += pick * probs.merge  # nobody outside to join
                continue
            for t, kt in counts.items():
                weight = t * (kt - (1 if t == s else 0))
                if weight <= 0:
                    continue
                nxt = list(state)
                nxt.remove(s)
                nxt.remove(t)
                nxt.append(s + t)
                j = index[tuple(sorted(nxt, reverse=True))]
                trans[i, j] += pick * probs.merge * weight / (N - s)
        trans[i, i] += stay

    # stationary pi: pi @ trans = pi, sum(pi) = 1
    a = trans.T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)

    expected = np.zeros(N + 1)
    for st, p in zip(states, pi):
        for s in st:
            expected[s] += p
    return GroupSizeDistribution(N, expected)


def write_distribution(path, dist: GroupSizeDistribution) -> None:
    """Two-column text export: one "size n_s" line per size 1..N."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in range(1, dist.n_agents + 1):
            fh.write(f"{s} {dist.counts[s]:.12g}\n")

