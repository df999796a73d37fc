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
`consensus_options` states the rule once for the per-step oracles: the
options tied at a maximum that clears T, or none when the group
fragments.  `decide` and `engine.step` break its ties, and the engine's
fused loop restates it inline.  `can_fragment` says whether any split of
a group's votes fragments it: the one scalar form of that test, which
the solver, `validate` and the exact counts share.

For i.i.d. uniform votes (probability 1/3 each) the outcome probabilities
depend only on (s, x).  The fragmentation probability p_frg is a sum of
multinomial terms over the region where all three counts stay below T; its
complement, the consensus probability, is split evenly by symmetry:

    p_buy = p_sell = p_merge = consensus / 3,   consensus = 1 - p_frg

How each is computed (NumPy and the standard library only):

- s <= 64: both are ratios of one exact integer count
  (`fragmentation_count`) to 3^s, so consensus is exactly 1.0 where
  p_frg is 0.
- s > 64: whichever of the two is smaller is summed directly, and the other
  is its complement, so both keep full relative precision.  Consensus is
  3 P(B >= c) - 3 P(B >= c, S >= c) with c = ceil(x * s).  Its terms decay
  geometrically from b = c, so it takes O(sqrt(s)) of them.  Where
  consensus exceeds one half (x near 1/3), p_frg is summed instead, over
  its narrow window of W.  Every binomial term comes from a ratio chain
  started at one value in Loader's saddle-point form.

At every size the three shares split the consensus probability.

`probability_table` evaluates a whole array of sizes in one vectorised
pass (the rate equations need every size 1..N; `fill_cdfs` fills the
simulation's iid decision CDFs above size 64 from it).  The scalar lookups
`fragmentation_probability`, `consensus_probability`,
`decision_probabilities` and `decision_cdf` are cached per (s, x) and give
the same floats.  All of them refuse a size that is not an integer >= 1
and an x outside (0, 1].  Sizes of 1e5 and beyond neither overflow nor
underflow.
`enumerate_fragmentation_probability` is an independent brute-force check
that walks all 3^s vote assignments.

Everything here is pure except `decide`, which consumes randomness only
when it has to break a tie.  Cached probability lookups are thread-safe.
"""

from __future__ import annotations

import math
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import _index

ONE_THIRD = 1.0 / 3.0


class Decision(IntEnum):
    BUY = 0
    SELL = 1
    MERGE = 2
    FRAGMENT = 3


class VoteTally(NamedTuple):
    buy: int
    sell: int
    wait: int


class DecisionProbabilities(NamedTuple):
    fragment: float
    buy: float
    sell: float
    merge: float


def consensus_options(tally, x) -> tuple:
    """The options (0 buy, 1 sell, 2 wait) tied at the largest count of a
    (buy, sell, wait) tally when that count clears T = x * size, in that
    order; () when the group fragments.

    The one statement of the rule for the oracles: `decide` and
    `engine.step` classify through it (the fused loop states it inline).
    """
    b, s, w = tally
    mx = b if b >= s else s
    if w > mx:
        mx = w
    if mx < float(x) * (b + s + w):
        return ()
    return tuple(option for option, count in enumerate(tally) if count == mx)


def decide(tally: VoteTally, x, rng) -> Decision:
    """Classify a vote tally; `rng` is consumed only on a tied maximum.

    Reference oracle for tests, not production code: the engine states the
    same rule inline, breaking ties with its own pre-drawn uniforms.
    """
    tied = consensus_options(tally, x)
    if not tied:
        return Decision.FRAGMENT
    if len(tied) == 1:
        return Decision(tied[0])
    return Decision(tied[int(rng.integers(0, len(tied)))])


def _strict_upper(threshold: float) -> int:
    """Largest integer strictly below `threshold`."""
    return math.ceil(threshold) - 1


def can_fragment(size: int, x) -> bool:
    """Whether a group of `size` can fragment at x: some split of its votes
    keeps all three counts below T = x * size.  That takes 3 ub >= size,
    ub the largest count below T, and two or more agents (one vote always
    clears T = x < 1)."""
    return size >= 2 and 3 * _strict_upper(float(x) * size) >= size


# Up to this size p_frg and consensus are ratios of exact integer counts
# (the float division at the end is their only rounding).  Above it they
# are sums of binomial terms, O(sqrt(s)) terms for a size s.
_EXACT_SIZE_LIMIT = 64


def fragmentation_count(size: int, x) -> int:
    """How many of the 3^size vote assignments fragment: an exact integer."""
    if not can_fragment(size, x):
        return 0
    ub = _strict_upper(float(x) * size)  # every count must be <= ub
    total = 0
    for w in range(max(0, size - 2 * ub), min(ub, size) + 1):
        rest = size - w  # B + S = rest, each of them <= ub
        lo, hi = max(0, rest - ub), min(ub, rest)
        term, window = math.comb(rest, lo), 0
        for b in range(lo, hi + 1):
            window += term
            term = term * (rest - b) // (b + 1)
        total += math.comb(size, w) * window
    return total


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15 (entry 0
# unused), each the exact value rounded once; above 15 the asymptotic series
# is accurate to the last bit.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """stirlerr(n) for integer-valued n >= 1."""
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(np.intp)], series)


_BD0_TERMS = 28  # v^2 < 1/4, and (1/4)^28 = 2^-56


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Deviance x log(x/m) + m - x for positive x, m, without cancellation.

    Near x = m it is the series (x - m) v + 2x (v^3/3 + v^5/5 + ...) in
    v = (x - m)/(x + m), whose terms all keep their relative precision.
    """
    v = (x - m) / (x + m)
    near = np.abs(v) < 0.5
    v = np.where(near, v, 0.0)
    v2 = v * v
    # sum_{j>=1} v2^(j-1) / (2j+1) by Horner, a fixed number of terms so that
    # a value never depends on the others in its array
    poly = np.full(v.shape, 1.0 / (2 * _BD0_TERMS + 1))
    for j in range(_BD0_TERMS - 1, 0, -1):
        poly = poly * v2 + 1.0 / (2 * j + 1)
    series = (x - m) * v + 2.0 * x * v * v2 * poly
    far = np.where(near, 1.0, x / m)
    return np.where(near, series, x * np.log(far) + m - x)


def _binom_pmf(k: np.ndarray, n: np.ndarray, d: int) -> np.ndarray:
    """P(X = k) for X ~ Binom(n, 1/d), integer arrays with 1 <= k <= n, n >= 2.

    Loader's saddle-point form (C. Loader, "Fast and accurate computation of
    binomial probabilities", 2000): Stirling errors plus two deviances, with
    the deviances scaled by d so that both of their arguments are integers.
    Its relative error is a few ulps times the size of the exponent, where a
    difference of log-factorials loses about log(n!) ulps.
    """
    k = k.astype(float)
    n = n.astype(float)
    top = k == n  # p^n; the interior form needs n - k >= 1
    k = np.where(top, n - 1.0, k)
    st_n, st_k, st_rest = _stirlerr(np.stack([n, k, n - k]))
    dev_k, dev_rest = _bd0(np.stack([d * k, d * (n - k)]), np.stack([n, (d - 1) * n]))
    log_pmf = (st_n - st_k - st_rest - (dev_k + dev_rest) / d
               - 0.5 * np.log(2.0 * math.pi * k * (n - k) / n))
    return np.where(top, np.power(float(d), -n), np.exp(log_pmf))


def _chain(start, num, den, length) -> np.ndarray:
    """Rows of consecutive binomial terms from their ratios.

    Entry j of row r is start[r] * prod_{i<j} num[r, i] / den[r, i] for
    j < length[r], and 0 beyond.  Each ratio is one rounded division, so
    entry j is within about j ulps of its exact value.
    """
    rows, width = num.shape
    out = np.zeros((rows, width + 1))
    out[:, 0] = np.where(length > 0, start, 0.0)
    np.divide(num, den, out=out[:, 1:], where=np.arange(1, width + 1) < length[:, None])
    return np.cumprod(out, axis=1, out=out)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row summed in index order, so zero padding never moves a bit:
    a size gets the same value alone and in a table."""
    return np.cumsum(terms, axis=1)[:, -1]


_TAIL_LOG = 50.0  # a truncated tail sum stops below e^-50 of its first term


def _terms_needed(num0, den0, scale, cap) -> np.ndarray:
    """Terms a decreasing binomial tail needs, at most `cap` per row.

    The tail's first ratio is num0/den0 < 1 and every later log-ratio is
    lower by at least 2/scale per step, so after J terms the next one is at
    most exp(-J a - J (J-1)/scale) of the first, a = log(den0/num0).
    """
    g = 1.0 / scale
    b = np.log(den0 / np.maximum(num0, 1)) - g
    needed = 2.0 * _TAIL_LOG / (b + np.sqrt(b * b + 4.0 * g * _TAIL_LOG))
    return np.minimum(np.ceil(needed).astype(np.int64) + 1, cap)


def _consensus_sum(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """P(some count >= c) = 3 P(B >= c) - 3 P(B >= c, S >= c), for 3c > s.

    B ~ Binom(s, 1/3), and S given B = b is Binom(s - b, 1/2).  Both sums
    run from b = c up, where the terms decay at least geometrically; the
    pair term is at most half the single one, so the difference loses at
    most a bit.
    """
    n_terms = _terms_needed(s - c, 2 * (c + 1), s + 1, s - c + 1)
    j = np.arange(n_terms.max() - 1)
    single = _chain(_binom_pmf(c, s, 3), (s - c)[:, None] - j, 2 * (c[:, None] + j + 1), n_terms)
    pair = np.zeros(len(s))
    n_pair = np.minimum(s - 2 * c + 1, n_terms)  # b = c .. c + n_pair - 1 <= s - c
    rows = np.flatnonzero(n_pair > 0)
    if rows.size:
        s, c, n_pair = s[rows], c[rows], n_pair[rows]
        n0 = s - c - n_pair + 1  # the fewest voters left for S, at the last b
        n_tail = _terms_needed(n0 - c, c + 1, n0 + 1, n0 - c + 1)
        i = np.arange(n_tail.max() - 1)
        tail0 = _row_sums(_chain(_binom_pmf(c, n0, 2), (n0 - c)[:, None] - i,
                                 c[:, None] + i + 1, n_tail))
        # P(S >= c) gains P(S = c-1)/2 from n voters to n + 1, so it is
        # built up from n0, all terms positive.
        width = n_pair.max()
        k = np.arange(width - 1)
        gain = _chain(_binom_pmf(c - 1, n0, 2), n0[:, None] + k + 1,
                      2 * (n0[:, None] + k + 2 - c[:, None]), n_pair - 1)
        tail = np.empty((len(rows), width))
        tail[:, 0] = 0.0
        np.cumsum(gain[:, :-1], axis=1, out=tail[:, 1:])
        tail = tail0[:, None] + 0.5 * tail  # [r, k] = P(S >= c) with n0 + k voters
        jj = np.arange(width)
        at_b = np.take_along_axis(tail, np.maximum(n_pair[:, None] - 1 - jj, 0), axis=1)
        pair[rows] = _row_sums(np.where(jj < n_pair[:, None], single[rows, :width] * at_b, 0.0))
    return 3.0 * (_row_sums(single) - pair)


def _fragmentation_sum(s: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """P(all counts <= ub), for s/3 <= ub < s/2.

    Summed over W = w in [s - 2ub, ub]: P(W = w) P(s - w - ub <= S <= ub)
    with S ~ Binom(s - w, 1/2).  That window probability is the running sum
    of P(S = ub) from n = 2 ub voters down to s - w, so every sum here has
    3 ub - s + 1 positive terms.
    """
    n_terms = 3 * ub - s + 1
    m = np.arange(n_terms.max() - 1)
    w0 = s - 2 * ub
    p_w = _chain(_binom_pmf(w0, s, 3), (s - w0)[:, None] - m, 2 * (w0[:, None] + m + 1), n_terms)
    p_top = _chain(_binom_pmf(ub, 2 * ub, 2), 2 * (ub[:, None] - m), 2 * ub[:, None] - m, n_terms)
    return _row_sums(p_w * np.cumsum(p_top, axis=1))


_ROWS_PER_PASS = 256  # bounds the term arrays at a few MB for any size


def _large_size_probabilities(sizes: np.ndarray, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(p_frg, consensus) for sizes above `_EXACT_SIZE_LIMIT`.

    Whichever of the two is smaller is summed directly and the other is its
    complement: consensus first, and where it exceeds one half, p_frg.
    """
    c = np.ceil(x * sizes.astype(float)).astype(np.int64)  # smallest count meeting T = x * s
    ub = c - 1
    p_frg = np.zeros(len(sizes))
    consensus = np.ones(len(sizes))
    possible = np.flatnonzero(3 * ub >= sizes)  # `can_fragment` of each size (all above 64)
    for lo in range(0, possible.size, _ROWS_PER_PASS):
        rows = possible[lo:lo + _ROWS_PER_PASS]
        s, u = sizes[rows], ub[rows]
        direct = np.clip(_consensus_sum(s, u + 1), 0.0, 1.0)
        consensus[rows] = direct
        p_frg[rows] = 1.0 - direct
        near = np.flatnonzero((direct > 0.5) & (2 * u < s))
        if near.size:
            frag = np.clip(_fragmentation_sum(s[near], u[near]), 0.0, 1.0)
            p_frg[rows[near]] = frag
            consensus[rows[near]] = 1.0 - frag
    return p_frg, consensus


def summed_both_ways(size: int, x) -> tuple[float, float]:
    """(p_frg, consensus) for one size above 64, each summed directly.

    Neither is taken as the other's complement, so their sum is 1 only if
    the two summations agree: a self-check.  Needs s/3 <= ub < s/2, ub the
    largest count below x * s.  The p_frg sum starts at P(W = s - 2 ub),
    which underflows to 0 far above x = 1/3 at large sizes (at s = 10^4
    from x = 0.45 on); the table sums p_frg only where consensus > 1/2.
    """
    ub = _strict_upper(float(x) * size)
    if size <= _EXACT_SIZE_LIMIT or not can_fragment(size, x) or 2 * ub >= size:
        raise ValueError(f"both sums need size > {_EXACT_SIZE_LIMIT} and s/3 <= ub < s/2")
    s, u = np.array([size]), np.array([ub])
    return float(_fragmentation_sum(s, u)[0]), float(_consensus_sum(s, u + 1)[0])


@lru_cache(maxsize=None)
def _fragmentation_probability_cached(size: int, x: float) -> tuple[float, float]:
    """(p_frg, consensus) for one size: the cache behind every scalar lookup.

    Up to 64 an exact count rather than the summed path: the sums agree with
    it there to within 47 ulps, but each miss would pay a NumPy pass of
    about 0.4 ms where the count takes microseconds.
    """
    if size <= _EXACT_SIZE_LIMIT:
        frag, total = fragmentation_count(size, x), 3**size
        return frag / total, (total - frag) / total
    p_frg, consensus = _large_size_probabilities(np.array([size]), x)
    return float(p_frg[0]), float(consensus[0])


def _checked_x(x) -> float:
    """x as a float in (0, 1], the model's range of consensus fractions (x = 1
    asks for unanimity); outside it the sums index past their terms or warn."""
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must be in (0, 1], got {x}")
    return x


def probability_table(sizes, x) -> tuple[np.ndarray, np.ndarray]:
    """p_frg and consensus for every size in `sizes` (integers >= 1), in one pass.

    Returns two float arrays, one entry per size, equal element for element
    to `fragmentation_probability` and `consensus_probability`.  Sizes that
    are not integers >= 1, and x outside (0, 1], are a `ValueError`.
    """
    values = np.asarray(sizes)
    integral = values.dtype.kind in "iu" or values.size == 0  # [] reads as floats
    bad = values[values < 1] if integral else values
    if bad.size:
        raise ValueError(f"group sizes must be integers >= 1, got {bad[:8].tolist()}")
    sizes = values.astype(np.int64)
    x = _checked_x(x)
    large = sizes > _EXACT_SIZE_LIMIT
    p_frg = np.empty(len(sizes))
    consensus = np.empty(len(sizes))
    p_frg[large], consensus[large] = _large_size_probabilities(sizes[large], x)
    for i in np.flatnonzero(~large):
        p_frg[i], consensus[i] = _fragmentation_probability_cached(int(sizes[i]), x)
    return p_frg, consensus


def _probabilities(size: int, x) -> tuple[float, float]:
    size = _index("group size", size)
    if size < 1:
        raise ValueError(f"group size must be >= 1, got {size}")
    return _fragmentation_probability_cached(size, _checked_x(x))


def fragmentation_probability(size: int, x) -> float:
    """P(group of `size` fragments) under i.i.d. uniform votes.

    Results are memoised per (size, x); safe to call from the solver's
    inner loops for sizes up to at least 1e5.
    """
    return _probabilities(size, x)[0]


def consensus_probability(size: int, x) -> float:
    """P(some option clears the threshold) = 1 - fragmentation probability.

    Computed directly where it is the smaller of the two, so deep-cutoff
    values (1e-12, 1e-18, ...) keep full relative precision; use this for
    tail asymptotics where 1 - p_frg underflows.
    """
    return _probabilities(size, x)[1]


def decision_probabilities(size: int, x) -> DecisionProbabilities:
    """Outcome probabilities (fragment, buy, sell, merge) for (size, x)."""
    p_frg, consensus = _probabilities(size, x)
    share = consensus / 3.0
    return DecisionProbabilities(p_frg, share, share, share)


def _cdf(q: float) -> tuple[float, float, float]:
    """The decision CDF of a group whose consensus probability is q."""
    return q / 3.0, 2.0 * q / 3.0, q


def decision_cdf(size: int, x) -> tuple[float, float, float]:
    """Cumulative (buy, buy + sell, buy + sell + merge) for (size, x).

    The last entry is the consensus probability, exactly 1.0 where
    p_frg = 0, so a uniform draw below it never fragments such a group.
    """
    return _cdf(_probabilities(size, x)[1])


def fill_cdfs(cdf: list, size: int, x) -> tuple[float, float, float]:
    """Fill `cdf[size]` with `decision_cdf(size, x)` and return it.

    `cdf` is indexed by group size up to N, None where not filled yet.  Up
    to 64 a CDF is an exact count, cheap alone.  Above it one lookup is a
    NumPy pass of about 0.4 ms, nearly all fixed cost, so one
    `probability_table` pass fills every unfilled size from `size` up to
    twice it (at most N), where merges take the group next: the same
    floats, as Python floats.  The window stays above 64, because below it
    a pass costs more than the exact counts of the sizes a run reaches.
    """
    if size <= _EXACT_SIZE_LIMIT:
        cdf[size] = decision_cdf(size, x)
    else:
        sizes = [k for k in range(size, min(2 * size, len(cdf) - 1) + 1) if cdf[k] is None]
        for k, q in zip(sizes, probability_table(sizes, x)[1].tolist()):
            cdf[k] = _cdf(q)
    return cdf[size]


_ENUM_SIZE_LIMIT = 14


def enumerate_fragmentation_probability(size: int, x) -> Fraction:
    """Brute-force p_frg: walk every one of the 3^size vote assignments.

    Independent of `fragmentation_probability` (no multinomial counting):
    each assignment's counts are tested directly against the fragment
    condition.  Exact rational result; limited to size <= 14.
    """
    size = _index("group size", size)
    if size < 1:
        raise ValueError(f"group size must be >= 1, got {size}")
    if size > _ENUM_SIZE_LIMIT:
        raise ValueError(f"3^{size} assignments is too many to enumerate (limit {_ENUM_SIZE_LIMIT})")
    from fractions import Fraction  # imported here: it loads `decimal`, which nothing else uses
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
