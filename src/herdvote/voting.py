"""Group decision rule and its exact probabilities.

A group of s agents votes buy / sell / wait.  With vote counts (B, S, W)
and the consensus threshold T = x * s (x is the consensus parameter, a
real fraction; T is never rounded):

    fragment   if  B < T  and  S < T  and  W < T
    buy        if  B >= T and B is the strict maximum
    sell       if  S >= T and S is the strict maximum
    merge      if  W >= T and W is the strict maximum  (the group waits,
               then joins the group of a random outside agent)

A tied maximum >= T is broken uniformly at random among the tied options.
An integer count equal to an exactly attainable T satisfies ">= T".

For i.i.d. uniform votes (probability 1/3 each) the outcome probabilities
depend only on (s, x).  The fragmentation probability is a sum of
multinomial terms over the region where all three counts stay below T;
the three remaining outcomes split the rest evenly by symmetry:

    p_buy = p_sell = p_merge = (1 - p_frg) / 3

`fragmentation_probability` evaluates p_frg for any s (exact integer
arithmetic for small s, log-gamma / incomplete-beta tail sums above, so
group sizes of 1e5 and beyond neither overflow nor underflow).
`enumerate_fragmentation_probability` is an independent brute-force check
that walks all 3^s vote assignments.

Everything here is pure except `decide`, which consumes randomness only
when it has to break a tie.  Cached probability lookups are thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

ONE_THIRD = 1.0 / 3.0


class Decision(IntEnum):
    BUY = 0
    SELL = 1
    MERGE = 2
    FRAGMENT = 3


@dataclass(frozen=True)
class ConsensusParameter:
    """Consensus fraction x in (0, 1) with regime classification.

    The model operates for 1/3 < x < 1.  Below (or at) one third no group
    can ever fragment: three counts summing to s cannot all stay below s/3.
    Above one half the winning option needs an absolute majority.
    """

    x: float

    def __post_init__(self):
        if not 0.0 < self.x < 1.0:
            raise ValueError(f"consensus parameter must be in (0, 1), got {self.x}")

    def __float__(self) -> float:
        return self.x

    @property
    def fragmentation_possible(self) -> bool:
        return self.x > ONE_THIRD

    @property
    def absolute_majority(self) -> bool:
        return self.x > 0.5

    @property
    def regime(self) -> str:
        if not self.fragmentation_possible:
            return "no-fragmentation"
        if self.absolute_majority:
            return "absolute-majority"
        return "relative-majority"


class VoteTally(NamedTuple):
    buy: int
    sell: int
    wait: int

    @property
    def size(self) -> int:
        return self.buy + self.sell + self.wait


class DecisionProbabilities(NamedTuple):
    fragment: float
    buy: float
    sell: float
    merge: float


def consensus_threshold(size: int, x) -> float:
    """Vote threshold T = x * size, as an exact real (no rounding)."""
    if size < 1:
        raise ValueError(f"group size must be >= 1, got {size}")
    return float(x) * size


def decide(tally: VoteTally, x, rng) -> Decision:
    """Classify a vote tally; `rng` is consumed only on a tied maximum.

    Reference oracle for tests, not production code: the engine states the
    same rule inline, breaking ties with its own pre-drawn uniforms.
    """
    b, s, w = tally
    t = float(x) * (b + s + w)
    mx = b if b >= s else s
    if w > mx:
        mx = w
    if mx < t:
        return Decision.FRAGMENT
    tied = []
    if b == mx:
        tied.append(Decision.BUY)
    if s == mx:
        tied.append(Decision.SELL)
    if w == mx:
        tied.append(Decision.MERGE)
    if len(tied) == 1:
        return tied[0]
    return tied[int(rng.integers(0, len(tied)))]


def _strict_upper(threshold: float) -> int:
    """Largest integer strictly below `threshold`."""
    return math.ceil(threshold) - 1


# Below this size p_frg is summed in exact integer arithmetic (the float
# division at the end is its only rounding).  Above it, log-gamma terms
# with binomial-tail windows keep the cost O(s) at any size.
_EXACT_SIZE_LIMIT = 64


@cache
def _special():
    """`scipy.special`, imported on first use: only sizes above
    `_EXACT_SIZE_LIMIT` need it, and the import costs a third of a second."""
    from scipy import special
    return special


@lru_cache(maxsize=None)
def _fragmentation_probability_cached(size: int, x: float) -> float:
    t = x * size
    ub = _strict_upper(t)  # every count must be <= ub
    if 3 * ub < size or size == 1:
        return 0.0
    if size <= _EXACT_SIZE_LIMIT:
        fact = math.factorial
        total = 0
        for w in range(max(0, size - 2 * ub), min(ub, size) + 1):
            rest = size - w
            for b in range(max(0, rest - ub), min(ub, rest) + 1):
                total += fact(size) // (fact(w) * fact(b) * fact(rest - b))
        return total / 3**size

    # P(all counts <= ub) = sum over W of P(W=w) * P(lo <= B <= hi | W=w),
    # with W ~ Binom(size, 1/3) and B | W=w ~ Binom(size-w, 1/2).
    special = _special()
    w = np.arange(max(0, size - 2 * ub), min(ub, size) + 1)
    rest = size - w
    log_pw = (
        special.gammaln(size + 1)
        - special.gammaln(w + 1)
        - special.gammaln(rest + 1)
        + w * math.log(ONE_THIRD)
        + rest * math.log(2.0 * ONE_THIRD)
    )
    lo = np.maximum(0, rest - ub)
    hi = np.minimum(ub, rest)
    window = _binomial_half_cdf(hi, rest) - _binomial_half_cdf(lo - 1, rest)
    terms = np.exp(log_pw) * np.maximum(window, 0.0)
    return min(max(math.fsum(terms.tolist()), 0.0), 1.0)


def _binomial_half_cdf(k, n):
    """P(X <= k) for X ~ Binom(n, 1/2), vectorised over integer arrays."""
    k = np.asarray(k, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    out = np.zeros(np.broadcast(k, n).shape)
    out[k >= n] = 1.0
    inner = (k >= 0) & (k < n)
    if np.any(inner):
        ki = k[inner].astype(float)
        ni = n[inner].astype(float)
        out[inner] = _special().betainc(ni - ki, ki + 1.0, 0.5)
    return out


def fragmentation_probability(size: int, x) -> float:
    """P(group of `size` fragments) under i.i.d. uniform votes.

    Results are memoised per (size, x); safe to call from the solver's
    inner loops for sizes up to at least 1e5.
    """
    if size < 1:
        raise ValueError(f"group size must be >= 1, got {size}")
    return _fragmentation_probability_cached(size, float(x))


def decision_probabilities(size: int, x) -> DecisionProbabilities:
    """Exact outcome probabilities (fragment, buy, sell, merge) for (size, x)."""
    p_frg = fragmentation_probability(size, x)
    share = (1.0 - p_frg) / 3.0
    return DecisionProbabilities(p_frg, share, share, share)


@lru_cache(maxsize=None)
def _consensus_probability_cached(size: int, x: float) -> float:
    t = x * size
    c = math.ceil(t)  # smallest integer count meeting "count >= T"
    if 3 * (c - 1) < size:
        return 1.0  # fragmentation impossible: some option always clears T
    if size <= _EXACT_SIZE_LIMIT:
        ub = c - 1
        fact = math.factorial
        frag = 0
        for w in range(max(0, size - 2 * ub), min(ub, size) + 1):
            rest = size - w
            for b in range(max(0, rest - ub), min(ub, rest) + 1):
                frag += fact(size) // (fact(w) * fact(b) * fact(rest - b))
        return (3**size - frag) / 3**size

    # inclusion-exclusion on "some count >= c": by symmetry
    #   P = 3 P(B >= c) - 3 P(B >= c and S >= c)
    # (all three counts >= c would need 3c <= size, impossible here), with
    # every term a small binomial tail that keeps its relative precision.
    special = _special()
    p_single = float(special.betainc(c, size - c + 1, ONE_THIRD)) if c <= size else 0.0
    p_pair = 0.0
    b_hi = size - c
    if b_hi >= c:
        b = np.arange(c, b_hi + 1)
        rest = size - b
        log_pb = (
            special.gammaln(size + 1)
            - special.gammaln(b + 1)
            - special.gammaln(rest + 1)
            + b * math.log(ONE_THIRD)
            + rest * math.log(2.0 * ONE_THIRD)
        )
        tail = special.betainc(c, rest - c + 1.0, 0.5)  # P(S >= c | B=b), S~Binom(rest,1/2)
        p_pair = math.fsum((np.exp(log_pb) * tail).tolist())
    return min(max(3.0 * p_single - 3.0 * p_pair, 0.0), 1.0)


def consensus_probability(size: int, x) -> float:
    """P(some option clears the threshold) = 1 - fragmentation probability.

    Computed directly rather than as a float complement, so deep-cutoff
    values (1e-12, 1e-18, ...) keep full relative precision; use this for
    tail asymptotics where 1 - p_frg underflows.
    """
    if size < 1:
        raise ValueError(f"group size must be >= 1, got {size}")
    return _consensus_probability_cached(size, float(x))


_ENUM_SIZE_LIMIT = 14


def enumerate_fragmentation_probability(size: int, x) -> Fraction:
    """Brute-force p_frg: walk every one of the 3^size vote assignments.

    Independent of `fragmentation_probability` (no multinomial counting):
    each assignment's counts are tested directly against the fragment
    condition.  Exact rational result; limited to size <= 14.
    """
    if size < 1:
        raise ValueError(f"group size must be >= 1, got {size}")
    if size > _ENUM_SIZE_LIMIT:
        raise ValueError(f"3^{size} assignments is too many to enumerate (limit {_ENUM_SIZE_LIMIT})")
    t = float(x) * size
    n = 3**size
    codes = np.arange(n, dtype=np.int64)
    buy = np.zeros(n, dtype=np.int32)
    sell = np.zeros(n, dtype=np.int32)
    wait = np.zeros(n, dtype=np.int32)
    for _ in range(size):
        digit = codes % 3
        buy += digit == 0
        sell += digit == 1
        wait += digit == 2
        codes //= 3
    fragments = (buy < t) & (sell < t) & (wait < t)
    return Fraction(int(fragments.sum()), n)
