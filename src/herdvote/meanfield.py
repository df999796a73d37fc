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
`solve_stationary` both evaluate it there, on the occupied sizes 1..S
only, with the rates of those sizes from `_size_rates`.  These are
deterministic rate equations for the *average* occupation numbers:
products of averages stand in for averages of products, so correlations
and fluctuations are not captured.  Fragmentation makes those fluctuations
violent (one event converts a group of size s into s singletons at once),
and at small N the fixed point can differ from the exact chain's
stationary marginals by tens of percent.  `stationary_oracle` computes
those exact marginals for tiny N by enumerating all integer partitions of
N as Markov states; use it to quantify the gap.

One special case is handled exactly: when p_frg(N) = 0 the single
whole-population group can never break apart, every trajectory eventually
coagulates into it, and the stationary state is one group of size N.  That
group has nobody to join either, so every flow is exactly 0: the solver
returns the state with residual 0.0 and evaluates no flow or rate.

The solver starts from N singletons and moves every n_s at once halfway to
the count that balances its inflow against its outflow,
n_s <- n_s/2 + inflow_s/(2 rate_s), then rescales the counts to mass N and
mixes that step with the last few (Anderson mixing).  It holds counts for
the sizes 1..S only, a support that doubles from 128 while cutting the
counts off at S costs more than a small share of the tolerance; every
larger n_s is exactly 0, and the residual it reports covers every size
1..N.  Sums over the size that merges away or is targeted are cumulative
sums and the merge gains are one convolution, so a sweep is a few NumPy
calls on arrays of length S (O(S^2) work inside the convolution).  At
N = 10^4 a solve takes 37 sweeps on 256 sizes at x = 0.41 and 58 on 1024
sizes at x = 0.36; a support past `config.SUPPORT_LIMIT` is refused.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import AGENT_LIMIT, SUPPORT_LIMIT, _integer
from .voting import ONE_THIRD, can_fragment, decision_probabilities, probability_table

_DAMPING = 0.5  # share of the balancing step taken per sweep
_MIXED = 8  # past damped steps that Anderson mixing combines with the new one
_RIDGE = 1e-14  # ridge of the mixing's normal equations, relative to their trace
_TARGET = 0.1  # share of the tolerance that the sweeps drive the residual to
_FIRST_SUPPORT = 128  # sizes solved before the support first doubles
_SUPPORT_MARGIN = 0.5  # share of that target the truncation error may take


@dataclass
class GroupSizeDistribution:
    """Group counts by size: counts[s] is n_s, counts[0] is unused (zero)."""

    n_agents: int
    counts: np.ndarray

    def __post_init__(self):
        self.n_agents = _integer("n_agents", self.n_agents)
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (self.n_agents + 1,):
            raise ValueError(
                f"counts must have length n_agents+1={self.n_agents + 1}, got {self.counts.shape}"
            )
        if np.any(self.counts < 0):
            raise ValueError("group counts must be nonnegative")


@dataclass
class SolverReport:
    iterations: int
    residual: float  # max-norm of the net flow over every size 1..N
    converged: bool
    # S: the solver held counts for the sizes 1..S, and every n_s above S is
    # exactly 0; n_S > 0 where the solve converged (a solve stopped early
    # may not have reached S)
    support: int


def _size_rates(sizes, x) -> tuple[np.ndarray, np.ndarray]:
    """p_frg and p_merge of each size in the array `sizes`, from one table."""
    p_frg, consensus = probability_table(sizes, x)
    return p_frg, consensus / 3.0


def _flows(n: np.ndarray, p_frg: np.ndarray, p_merge: np.ndarray,
           n_agents: int) -> tuple[np.ndarray, np.ndarray]:
    """Inflow to each size and outflow rate per group at counts `n`.

    `n`, `p_frg` and `p_merge` are indexed by size 0..S, for a support
    S <= N = n_agents; no larger group exists.  For s <= S the net flow into
    size s is inflow[s] - rate[s] * n[s].  `inflow` runs on to size
    min(2S, N), the largest that two supported groups merge into, where it is
    the whole net flow into an empty size; above that every flow is zero.
    Entry 0 carries no flow.
    """
    N, S = n_agents, len(n) - 1
    sizes = np.arange(S + 1, dtype=float)
    mass = sizes * n
    # own[s] = n_s - (n_s - 1)+ : the acting group itself, which cannot be
    # its own target; only counted where a same-size pair fits (2s <= N).
    own = np.where(2 * sizes <= N, np.minimum(n, 1.0), 0.0)
    act = np.zeros(S + 1)  # rate(s', t) = act[s'] n_s' * t (n_t - d_{t,s'})+
    top = min(S, N - 1)  # a whole-population group has nobody to join
    act[1:top + 1] = sizes[1:top + 1] * p_merge[1:top + 1] / (N * (N - sizes[1:top + 1]))
    acting = act * n
    reach = np.minimum(N - np.arange(S + 1), S)  # [s] = the largest t <= N - s held
    reachable_mass = np.cumsum(mass)[reach]  # [s] = sum_{t <= N-s} t n_t
    targeting = np.cumsum(acting)[reach]  # [t] = sum_{s' <= N-t} act[s'] n_s'

    rate = (sizes * p_frg / N  # fragments
            + act * reachable_mass  # merges away
            + sizes * targeting  # is a target
            - 2.0 * sizes * act * own)  # both above, without the self-pair

    inflow = np.convolve(acting, mass)[: min(2 * S, N) + 1]  # merge gains
    inflow[::2] -= (acting * sizes * own)[: (len(inflow) + 1) // 2]  # self-pair s' = t = s/2
    inflow[1] += float(sizes * p_frg / N @ mass)  # new singletons
    return inflow, rate


def balance_residual(dist: GroupSizeDistribution, x) -> np.ndarray:
    """Net stationary flow into each size; zero everywhere at a fixed point.

    Flows move agents between sizes but never create or destroy them, so
    sum_s s * residual[s] == 0 holds for any input counts, normalised or not.
    Returned array is indexed like `dist.counts` (entry 0 unused).

    The flows are evaluated on the occupied sizes 1..S only, S being the
    largest size with a nonzero count (at least 1), in O(S^2) whatever N
    is; no merge reaches past min(2S, N), and every entry above is 0.
    """
    N = dist.n_agents
    counts = np.asarray(dist.counts, dtype=float)
    S = max(int(np.flatnonzero(counts).max(initial=0)), 1)
    n = counts[: S + 1]
    p_frg, p_merge = (np.r_[0.0, r] for r in _size_rates(np.arange(1, S + 1), float(x)))
    inflow, rate = _flows(n, p_frg, p_merge, N)
    residual = np.zeros(N + 1)
    residual[: len(inflow)] = inflow
    residual[: S + 1] -= rate * n
    return residual


def solve_stationary(
    n_agents: int,
    x,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
) -> tuple[GroupSizeDistribution, SolverReport]:
    """Fixed point of the stationary balance with mass sum_s s*n_s = N.

    `_solve` iterates from N singletons on the rate table of the decision
    probabilities; see there for the sweep, the support and the report.
    The result is converged when the residual max-norm over every size 1..N
    is at most `tolerance`.  On non-convergence the last iterate is returned
    with converged=False.  A support that would pass `config.SUPPORT_LIMIT`
    sizes raises ValueError, as does an `n_agents` or `max_iterations` that
    is not an integer (a float, even a whole one, or a bool).  Deterministic
    given its inputs.
    """
    N = _integer("n_agents", n_agents)
    max_iterations = _integer("max_iterations", max_iterations)
    x = float(x)
    if not 2 <= N <= AGENT_LIMIT:
        raise ValueError(f"n_agents must be in [2, {AGENT_LIMIT}], got {N}")
    if not ONE_THIRD < x < 1.0:
        raise ValueError(f"solver requires 1/3 < x < 1, got x={x}")
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")

    if not can_fragment(N, x):
        # No split of N votes keeps every option below x N, so p_frg(N) = 0:
        # the whole-population group cannot fragment and absorbs everything.
        # Alone, it has nobody to join either, so every flow is exactly 0.
        counts = np.zeros(N + 1)
        counts[N] = 1.0
        return GroupSizeDistribution(N, counts), SolverReport(0, 0.0, True, N)

    return _solve(N, lambda sizes: _size_rates(sizes, x), tolerance, max_iterations)


def _solve(n_agents: int, rates, tolerance: float,
           max_iterations: int) -> tuple[GroupSizeDistribution, SolverReport]:
    """Stationary counts of the balance under the rate table `rates`, from N singletons.

    `rates(sizes)` gives p_frg and p_merge of each size in an integer array.
    The counts live on the sizes 1..S, the support; every larger n_s is
    exactly 0.  Each sweep evaluates `_flows` once, and then either

    - doubles S (up to N) when cutting the counts off at S costs more than
      `_SUPPORT_MARGIN` of the target residual (see `_truncation_error`).
      The counts are kept, the new sizes start empty, and `rates` is
      evaluated for the new sizes only; or
    - moves every n_s halfway to the count that balances its inflow against
      its outflow rate, rescales the counts to mass N, and mixes that step
      with the last `_MIXED` ones (see `_Mixing`).

    The sweeps stop when the residual max-norm over every size 1..N, which
    the report states, is `_TARGET` of the tolerance: the residual does not
    see errors along the equations' slow directions, and the tenth keeps the
    counts at least as close to the fixed point as plain damped sweeps that
    stop at the tolerance.  `report.iterations` counts the sweeps after the
    first `_flows` call and is at most `max_iterations`.
    """
    N = n_agents
    target = _TARGET * tolerance
    S = min(N, _FIRST_SUPPORT)
    p_frg, p_merge = (np.r_[0.0, r] for r in rates(np.arange(1, S + 1)))
    n = np.zeros(S + 1)
    n[1] = float(N)
    mixing = _Mixing(S + 1)
    sweep = 0
    while True:
        inflow, rate = _flows(n, p_frg, p_merge, N)
        leak = inflow[S + 1:]  # the net flow into the empty sizes
        residual = max(float(np.max(np.abs(inflow[: S + 1] - rate * n))),
                       float(np.max(np.abs(leak), initial=0.0)))
        if residual <= target or sweep == max_iterations:
            counts = np.zeros(N + 1)
            counts[: S + 1] = n
            return GroupSizeDistribution(N, counts), SolverReport(
                sweep, residual, residual <= tolerance, S)
        sweep += 1
        sizes = np.arange(S + 1, dtype=float)
        if S < N and _truncation_error(leak, rate * n, sizes) > _SUPPORT_MARGIN * target:
            grown = min(2 * S, N)
            if grown > SUPPORT_LIMIT:
                raise ValueError(
                    f"the stationary groups of n_agents={N} reach past the solver's "
                    f"support limit of {SUPPORT_LIMIT} sizes")
            more_frg, more_merge = rates(np.arange(S + 1, grown + 1))
            p_frg, p_merge = np.r_[p_frg, more_frg], np.r_[p_merge, more_merge]
            n = np.r_[n, np.zeros(grown - S)]
            mixing.grow(grown + 1)
            S = grown
            continue
        balanced = np.divide(inflow[: S + 1], rate, out=n.copy(), where=rate > 0.0)
        step = (1.0 - _DAMPING) * n + _DAMPING * balanced
        step *= N / float(sizes @ step)
        n = mixing.mix(step, step - n)
        n *= N / float(sizes @ n)


def _truncation_error(leak: np.ndarray, outflow: np.ndarray, sizes: np.ndarray) -> float:
    """Residual that cutting the counts off at the support S leaves at its fixed point.

    `sizes` runs 0..S, `outflow` is rate * n there and `leak` is the inflow
    to the empty sizes S+1..min(2S, N).  The leak is residual itself.  The
    agents it carries off, at a rate L = sum_s s * leak_s, are put back by
    the rescaling to mass N, so at the sweep's fixed point every net flow
    on the support is the same share of its outflow, -L / sum_s s *
    outflow_s.  Returns the larger of the two residuals.
    """
    S = len(sizes) - 1
    lost = float(np.arange(S + 1, S + 1 + len(leak)) @ leak)
    if not lost > 0.0:
        return 0.0
    forced = lost * float(np.max(outflow)) / float(sizes @ outflow)
    return max(forced, float(np.max(leak)))


class _Mixing:
    """Anderson mixing of each damped step with the last `_MIXED` ones.

    Type II of Walker & Ni (SIAM J. Numer. Anal. 49, 2011).  For a step g
    that changed the counts by f, the weights gamma minimise
    |f - dF gamma|, where the rows of dF are the differences of successive
    changes, and the mixed counts are g - gamma dG, with dG the differences
    of successive steps.  The normal equations get a ridge of `_RIDGE` times
    their trace.  Where the mixed counts have a negative entry, or the
    equations have no solution, the plain step g is kept.
    """

    def __init__(self, length: int):
        self.d_step = np.zeros((_MIXED, length))
        self.d_change = np.zeros((_MIXED, length))
        self.held = 0  # rows of d_step and d_change in use, the newest last
        self.last = None  # the previous (step, change)

    def grow(self, length: int) -> None:
        """Extend every held vector with empty sizes up to `length`."""
        more = length - self.d_step.shape[1]
        self.d_step = np.pad(self.d_step, ((0, 0), (0, more)))
        self.d_change = np.pad(self.d_change, ((0, 0), (0, more)))
        if self.last is not None:
            self.last = tuple(np.pad(v, (0, more)) for v in self.last)

    def mix(self, step: np.ndarray, change: np.ndarray) -> np.ndarray:
        last, self.last = self.last, (step, change)
        if last is None:
            return step
        if self.held == _MIXED:
            self.d_step[:-1] = self.d_step[1:]
            self.d_change[:-1] = self.d_change[1:]
        else:
            self.held += 1
        d_step, d_change = self.d_step[_MIXED - self.held:], self.d_change[_MIXED - self.held:]
        np.subtract(step, last[0], out=d_step[-1])
        np.subtract(change, last[1], out=d_change[-1])
        gram = d_change @ d_change.T
        gram.flat[:: self.held + 1] += _RIDGE * np.trace(gram)
        try:
            gamma = np.linalg.solve(gram, d_change @ change)
        except np.linalg.LinAlgError:
            return step
        mixed = step - gamma @ d_step
        return mixed if mixed.min() >= 0.0 else step


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
    returns the expected n_s.  Exponential state count: N <= 8 only.  An
    `n_agents` that is not an integer raises ValueError.
    """
    N = _integer("n_agents", n_agents)
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
        for start in range(1, dist.n_agents + 1, 1 << 16):  # as floats, a block at a time
            block = dist.counts[start:start + (1 << 16)].tolist()
            fh.writelines(f"{s} {c:.12g}\n" for s, c in enumerate(block, start))

