"""Return-series statistics: tail distributions and power-law exponents.

The model's output is a series of signed trade sizes (zero on steps with no
trade).  Zeros are excluded from all distributional statistics here: they
mark the absence of a price movement and carry no tail information.

Exponent conventions.  A power-law *density* p(r) ~ r^-alpha has a
complementary cumulative P(|r| >= v) ~ v^-(alpha-1); the two exponents
differ by exactly one, and `TailFit` reports both.  The maximum-likelihood
estimate over the tail above a cutoff r_min is

    alpha_hat = 1 + n / sum_i ln(r_i / r_min)

with standard error (alpha_hat - 1) / sqrt(n).  When no cutoff is supplied,
r_min is chosen by minimising the Kolmogorov-Smirnov distance between the
empirical tail and the fitted power law over a candidate grid; pass an
explicit r_min for reproducible comparisons across series.

Every statistic is computed from one `Histogram`: the distinct nonzero |r|
of a series, ascending, with their counts.  Each function here takes a
histogram or a series (of which it builds one), and `herdvote analyze`
builds one per run directory and passes it to all of them.  The work then
grows with the number of distinct values D, never more than k N for a run
of N agents summed over windows of k steps, not with the series length:
the CCDF is the suffix counts, the density evaluates the edges of occupied
bins only, and each candidate cutoff of the fit is one pass over the
distinct values above it.  Standard library only.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

MIN_TAIL = 100  # fewest tail points a power-law fit accepts
CANDIDATES = 64  # most cutoffs the KS scan tries
# Most bins per decade `log_bins` takes: rounding leaves its guessed bin at
# most one off up to here.  At b bins per decade a guess is off by up to
# about 5e-16 * b * (|log10 v| + 1) bins, 0.15 at 10^12 for any normal float;
# on edges and their float neighbours it first missed by two at b = 10^14.
MAX_BINS_PER_DECADE = 10**12


@dataclass(frozen=True)
class Histogram:
    """Distinct nonzero |r| of a series, ascending, with their counts.

    `above[i]` counts the points at `values[i]` or above, and `above[D]` is
    0.  `len()` is the length of the series, zeros included.
    """

    values: list[float]
    counts: list[int]
    above: list[int]
    length: int

    def __len__(self) -> int:
        return self.length


def histogram(returns) -> Histogram:
    """The histogram of |r| over the nonzero entries of `returns`.

    A histogram is returned as it is.  NaN entries count toward the length
    only, as zeros do; an infinite entry is refused.
    """
    if isinstance(returns, Histogram):
        return returns
    if not isinstance(returns, (array, memoryview)) and hasattr(returns, "tolist"):
        returns = returns.tolist()  # a NumPy array: count Python numbers, not NumPy scalars
    tally = Counter(returns)
    sizes = {}
    for value, count in tally.items():
        size = abs(value)
        if size > 0:
            size = float(size)
            sizes[size] = sizes.get(size, 0) + count
    values = sorted(sizes)
    if values and values[-1] == math.inf:
        raise ValueError("returns must be finite, got |r| = inf")
    counts = [sizes[v] for v in values]
    above = [*accumulate(reversed(counts))][::-1] + [0]
    return Histogram(values, counts, above, sum(tally.values()))


def _require_positive(name: str, value: float) -> None:
    """Refuse a cutoff or threshold that is not finite and > 0."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _with_trades(returns) -> Histogram:
    hist = histogram(returns)
    if not hist.values:
        raise ValueError("series contains no trades (all returns are zero)")
    return hist


@dataclass
class CcdfCurve:
    """Empirical P(|r| >= value) at every distinct absolute return value."""

    values: list[float]         # ascending distinct |r|
    probabilities: list[float]  # non-increasing, starts at 1

    def tail_mass(self, threshold: float) -> float:
        """P(|r| >= threshold > 0), zero beyond the largest observed value."""
        _require_positive("threshold", threshold)
        idx = bisect_left(self.values, threshold)
        if idx >= len(self.values):
            return 0.0
        return self.probabilities[idx]


@dataclass
class TailFit:
    """Power-law tail estimate; cumulative exponent = density exponent - 1."""

    alpha_density: float
    r_min: float
    r_max: float
    stderr: float
    n_tail: int
    ks_distance: float

    @property
    def alpha_cumulative(self) -> float:
        return self.alpha_density - 1.0


def ccdf(returns) -> CcdfCurve:
    """Exact empirical CCDF of absolute nonzero returns."""
    hist = _with_trades(returns)
    n = hist.above[0]
    # P(|r| >= v_i) = fraction of points at v_i or above
    return CcdfCurve(hist.values, [a / n for a in hist.above[:-1]])


def tail_mass(returns, threshold: float) -> float:
    """Fraction of nonzero returns with |r| >= threshold."""
    return ccdf(returns).tail_mass(threshold)


def log_bins(returns, bins_per_decade: int = 10) -> list[tuple[float, float, int]]:
    """The occupied geometric bins of |r|: (left edge, right edge, count).

    The grid's edges are 10^(k / bins_per_decade) for the integers k whose
    edges enclose the values, the outer two moved out to the smallest and
    largest value where rounding leaves them inside; a top edge past the
    float range is the largest value.  A bin holds the values from its left
    edge up to, not including, its right one; the last bin holds its right
    edge too.  Only the edges of occupied bins are evaluated, so the cost
    grows with the occupied bins, not the grid.  A value's bin is the guess
    floor(bins_per_decade * log10 v), which rounding leaves at most one bin
    off, corrected by one edge comparison.
    That holds for bins_per_decade up to `MAX_BINS_PER_DECADE` and values
    no smaller than the smallest normal float, so others are refused:
    below it, neighbouring edges round to the same float.
    """
    if not 1 <= bins_per_decade <= MAX_BINS_PER_DECADE:
        raise ValueError(f"bins_per_decade must be in [1, {MAX_BINS_PER_DECADE}], "
                         f"got {bins_per_decade}")
    hist = _with_trades(returns)
    values, above = hist.values, hist.above
    lo, hi = values[0], values[-1]
    if lo < sys.float_info.min:
        raise ValueError(f"log_bins takes |r| >= {sys.float_info.min}, got {lo}")
    k_lo = math.floor(bins_per_decade * math.log10(lo))
    k_hi = math.ceil(bins_per_decade * math.log10(hi))
    if k_hi == k_lo:
        k_hi += 1

    def edge(k: int) -> float:
        try:
            e = 10.0 ** (k / bins_per_decade)
        except OverflowError:  # the top edge, past the float range
            return hi
        if k == k_lo:
            return min(e, lo)  # guard rounding at the extremes
        return max(e, hi) if k == k_hi else e

    def bin_of(v: float) -> int:
        """The last k in [k_lo, k_hi) with edge(k) <= v."""
        k = min(max(math.floor(bins_per_decade * math.log10(v)), k_lo), k_hi - 1)
        if edge(k) > v:
            return k - 1
        return k + 1 if k < k_hi - 1 and edge(k + 1) <= v else k

    bins = []
    i = 0
    while i < len(values):
        k = bin_of(values[i])
        left, right = edge(k), edge(k + 1)
        j = len(values) if k == k_hi - 1 else bisect_left(values, right, i)
        bins.append((left, right, above[i] - above[j]))
        i = j
    return bins


def log_binned_pdf(returns, bins_per_decade: int = 10) -> tuple[list[float], list[float]]:
    """Density of |r| on geometric bins: (bin centers, density per unit |r|).

    Density is count / (sample size * linear bin width), so the densities
    integrate to one over the covered range whatever the bin count.  Empty
    bins are omitted; `log_bins` gives the edges and counts.
    """
    hist = histogram(returns)
    bins = log_bins(hist, bins_per_decade)
    n = hist.above[0]
    # sqrt(left * right), but by halves where that product is not a normal float
    centers = [math.sqrt(p) if sys.float_info.min <= (p := left * right) < math.inf
               else math.sqrt(left) * math.sqrt(right) for left, right, _ in bins]
    # count / (n * width), but in two steps where n * width overflows
    density = [count / d if (d := n * (right - left)) < math.inf
               else count / n / (right - left) for left, right, count in bins]
    return centers, density


def candidate_indices(n_values: int) -> list[int]:
    """Indices of the cutoffs the KS scan tries among `n_values` distinct values.

    Every value when there are at most `CANDIDATES`, else that many spread
    evenly from the first to the last, as int(linspace(0, D - 1, 64)) picks
    them: i (D - 1) / 63 truncated, and D - 1 itself.
    """
    if n_values <= CANDIDATES:
        return list(range(n_values))
    step = (n_values - 1) / (CANDIDATES - 1)
    return [int(i * step) for i in range(CANDIDATES - 1)] + [n_values - 1]


def fit_power_law(sample, r_min: float | None = None) -> TailFit:
    """Tail-exponent MLE over |sample| >= r_min, from at least `MIN_TAIL` points.

    With r_min=None the cutoff is scanned over a grid of observed values
    (capped at `CANDIDATES`) and the KS-optimal one is kept; of equal
    distances, the smallest cutoff.  A given r_min must be finite and > 0.
    """
    hist = histogram(sample)
    if r_min is not None:
        _require_positive("r_min", r_min)
        return _fit_at(hist, float(r_min))
    best = None
    for start in candidate_indices(len(hist.values)):
        if hist.above[start] < MIN_TAIL:
            break  # and at every larger cutoff
        try:
            fit = _fit_at(hist, hist.values[start])
        except ValueError:
            continue
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise ValueError(f"no cutoff leaves at least {MIN_TAIL} non-degenerate tail points")
    return best


def _fit_at(hist: Histogram, r_min: float) -> TailFit:
    start = bisect_left(hist.values, r_min)
    n = hist.above[start]
    if n < MIN_TAIL:
        raise ValueError(f"only {n} tail points above r_min={r_min}, need {MIN_TAIL}")
    counts = hist.counts[start:]
    ratios = [v / r_min for v in hist.values[start:]]
    log_sum = math.fsum(map(mul, counts, map(math.log, ratios)))
    if log_sum <= 0.0:
        raise ValueError(f"degenerate tail: all points equal r_min={r_min}")
    alpha = 1.0 + n / log_sum
    stderr = (alpha - 1.0) / math.sqrt(n)
    # KS distance: the empirical CDF steps from (j - 1)/n to j/n at the j-th
    # point; across a run of equal values the model CDF is one number, so
    # the largest gap lies at the run's first or last point
    exponent = 1.0 - alpha
    model = [1.0 - q ** exponent for q in ratios]
    lasts = list(accumulate(counts))  # the 1-based index of each run's last point
    point = 1.0 / n
    ks = max(max([abs(last / n - cdf) for last, cdf in zip(lasts, model)]),
             max([abs((last - c + 1) / n - point - cdf)
                  for last, c, cdf in zip(lasts, counts, model)]))
    return TailFit(
        alpha_density=alpha,
        r_min=r_min,
        r_max=hist.values[-1],
        stderr=stderr,
        n_tail=n,
        ks_distance=ks,
    )


def sample_pareto(alpha_density: float, size: int, rng, r_min: float = 1.0):
    """Synthetic Pareto sample with density exponent alpha (> 1), for calibration.

    `rng.random(size)` draws the uniforms, so a NumPy generator gives an array.
    """
    if alpha_density <= 1.0:
        raise ValueError("density exponent must exceed 1")
    u = rng.random(size)
    return r_min * (1.0 - u) ** (-1.0 / (alpha_density - 1.0))


def cutoff_scan(
    returns_by_x: dict,
    r_min: float | None = None,
    tail_threshold: float = 50.0,
) -> list[dict]:
    """Tail fits for several consensus parameters over one common fit range.

    With r_min=None each series is first fitted with its own KS-optimal
    cutoff and the largest of those cutoffs becomes the common one, so every
    series is fitted inside its tail regime.  Rows report NaN exponents when
    a series has too few points above the common cutoff; the tail mass
    P(|r| >= tail_threshold) is always reported.  Each value may be a
    series or its `Histogram`.  A given r_min, and the threshold, must be
    finite and > 0.  A series with no trade has no tail mass and is refused
    by its key before any fit.
    """
    if r_min is not None:
        _require_positive("r_min", r_min)  # before the per-series fits can swallow it
    _require_positive("threshold", tail_threshold)  # before any fit runs
    hists = {x: histogram(r) for x, r in returns_by_x.items()}
    if not hists:
        raise ValueError("no series given")
    for x, hist in hists.items():
        if not hist.values:
            raise ValueError(f"series {x!r} contains no trades (all returns are zero)")
    if r_min is None:
        picked = []
        for hist in hists.values():
            try:
                picked.append(fit_power_law(hist).r_min)
            except ValueError:
                pass
        if not picked:
            raise ValueError("no series supports a tail fit; supply r_min explicitly")
        r_min = max(picked)
    rows = []
    for x, hist in hists.items():
        row = {
            "x": x,
            "r_min": r_min,
            "tail_mass": ccdf(hist).tail_mass(tail_threshold),
            "tail_threshold": tail_threshold,
        }
        try:
            fit = _fit_at(hist, r_min)
            row.update(
                alpha_density=fit.alpha_density,
                alpha_cumulative=fit.alpha_cumulative,
                stderr=fit.stderr,
                n_tail=fit.n_tail,
            )
        except ValueError:
            row.update(alpha_density=math.nan, alpha_cumulative=math.nan, stderr=math.nan,
                       n_tail=hist.above[bisect_left(hist.values, r_min)])
        rows.append(row)
    return rows


def _line_ssr(x: list[float], y: list[float]) -> float:
    """Residual sum of squares of the least-squares line y = a + b x."""
    x_mean = math.fsum(x) / len(x)
    y_mean = math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    return math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))


def compare_tail_models(returns, threshold: float = 50.0) -> dict:
    """Least-squares comparison of the log-CCDF beyond `threshold`.

    Fits log P(|r| >= v) as linear in v (exponential tail) and as linear in
    log v (power-law tail) over the distinct observed values >= threshold and
    reports both residual sums of squares.  The threshold must be finite
    and > 0.
    """
    _require_positive("threshold", threshold)
    curve = ccdf(returns)
    start = bisect_left(curve.values, threshold)
    v = curve.values[start:]
    if len(v) < 3:
        raise ValueError(f"need at least 3 distinct values >= {threshold}, have {len(v)}")
    log_p = [math.log(p) for p in curve.probabilities[start:]]
    exponential_ssr = _line_ssr(v, log_p)
    power_ssr = _line_ssr([math.log(a) for a in v], log_p)
    return {
        "n_points": len(v),
        "threshold": threshold,
        "exponential_ssr": exponential_ssr,
        "power_ssr": power_ssr,
        "preferred": "exponential" if exponential_ssr < power_ssr else "power",
    }
