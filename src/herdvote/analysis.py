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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_TAIL = 100  # fewest tail points a power-law fit accepts


@dataclass
class CcdfCurve:
    """Empirical P(|r| >= value) at every distinct absolute return value."""

    values: np.ndarray         # ascending distinct |r|
    probabilities: np.ndarray  # non-increasing, starts at 1

    def tail_mass(self, threshold: float) -> float:
        """P(|r| >= threshold), zero beyond the largest observed value."""
        idx = np.searchsorted(self.values, threshold, side="left")
        if idx >= len(self.values):
            return 0.0
        return float(self.probabilities[idx])


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


def _abs_nonzero(returns) -> np.ndarray:
    arr = np.abs(np.asarray(returns, dtype=float))
    return arr[arr > 0]


def ccdf(returns) -> CcdfCurve:
    """Exact empirical CCDF of absolute nonzero returns."""
    vals = _abs_nonzero(returns)
    if len(vals) == 0:
        raise ValueError("series contains no trades (all returns are zero)")
    distinct, counts = np.unique(vals, return_counts=True)
    # P(|r| >= v_i) = fraction of points at v_i or above
    above = np.cumsum(counts[::-1])[::-1]
    return CcdfCurve(distinct, above / len(vals))


def tail_mass(returns, threshold: float) -> float:
    """Fraction of nonzero returns with |r| >= threshold."""
    return ccdf(returns).tail_mass(threshold)


def log_binned_pdf(returns, bins_per_decade: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Density of |r| on geometric bins: (bin centers, density per unit |r|).

    Density is count / (sample size * linear bin width), so the densities
    integrate to one over the covered range whatever the bin count.  Empty
    bins are omitted.
    """
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be >= 1")
    vals = _abs_nonzero(returns)
    if len(vals) == 0:
        raise ValueError("series contains no trades (all returns are zero)")
    lo, hi = vals.min(), vals.max()
    k_lo = math.floor(bins_per_decade * math.log10(lo))
    k_hi = math.ceil(bins_per_decade * math.log10(hi))
    if k_hi == k_lo:
        k_hi += 1
    edges = 10.0 ** (np.arange(k_lo, k_hi + 1) / bins_per_decade)
    edges[0] = min(edges[0], lo)  # guard rounding at the extremes
    edges[-1] = max(edges[-1], hi)
    counts, _ = np.histogram(vals, edges)
    density = counts / (len(vals) * np.diff(edges))
    centers = np.sqrt(edges[:-1] * edges[1:])
    keep = counts > 0
    return centers[keep], density[keep]


def fit_power_law(sample, r_min: float | None = None) -> TailFit:
    """Tail-exponent MLE over |sample| >= r_min, from at least `MIN_TAIL` points.

    With r_min=None the cutoff is scanned over a grid of observed values
    (capped at 64 candidates) and the KS-optimal one is kept.
    """
    vals = _abs_nonzero(sample)
    if r_min is not None:
        return _fit_at(vals, float(r_min))
    # with return_counts NumPy's unique does not import numpy.ma (10-13 ms)
    candidates = np.unique(vals, return_counts=True)[0]
    if len(candidates) > 64:
        idx = np.linspace(0, len(candidates) - 1, 64).astype(int)
        candidates = candidates[idx]
    best = None
    for cand in candidates:
        try:
            fit = _fit_at(vals, float(cand))
        except ValueError:
            continue
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise ValueError(f"no cutoff leaves at least {MIN_TAIL} non-degenerate tail points")
    return best


def _fit_at(vals: np.ndarray, r_min: float) -> TailFit:
    tail = vals[vals >= r_min]
    n = len(tail)
    if n < MIN_TAIL:
        raise ValueError(f"only {n} tail points above r_min={r_min}, need {MIN_TAIL}")
    log_sum = float(np.sum(np.log(tail / r_min)))
    if log_sum <= 0.0:
        raise ValueError(f"degenerate tail: all points equal r_min={r_min}")
    alpha = 1.0 + n / log_sum
    stderr = (alpha - 1.0) / math.sqrt(n)
    tail_sorted = np.sort(tail)
    model_cdf = 1.0 - (tail_sorted / r_min) ** (1.0 - alpha)
    grid = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(np.abs(grid - model_cdf), np.abs(grid - 1.0 / n - model_cdf))))
    return TailFit(
        alpha_density=alpha,
        r_min=r_min,
        r_max=float(tail_sorted[-1]),
        stderr=stderr,
        n_tail=n,
        ks_distance=ks,
    )


def sample_pareto(alpha_density: float, size: int, rng, r_min: float = 1.0) -> np.ndarray:
    """Synthetic Pareto sample with density exponent alpha (> 1), for calibration."""
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
    P(|r| >= tail_threshold) is always reported.
    """
    series = {x: _abs_nonzero(r) for x, r in returns_by_x.items()}
    if not series:
        raise ValueError("no series given")
    if r_min is None:
        picked = []
        for vals in series.values():
            try:
                picked.append(fit_power_law(vals).r_min)
            except ValueError:
                pass
        if not picked:
            raise ValueError("no series supports a tail fit; supply r_min explicitly")
        r_min = max(picked)
    rows = []
    for x, vals in series.items():
        row = {
            "x": x,
            "r_min": r_min,
            "tail_mass": ccdf(vals).tail_mass(tail_threshold),
            "tail_threshold": tail_threshold,
        }
        try:
            fit = _fit_at(vals, r_min)
            row.update(
                alpha_density=fit.alpha_density,
                alpha_cumulative=fit.alpha_cumulative,
                stderr=fit.stderr,
                n_tail=fit.n_tail,
            )
        except ValueError:
            row.update(alpha_density=math.nan, alpha_cumulative=math.nan,
                       stderr=math.nan, n_tail=int(np.sum(vals >= r_min)))
        rows.append(row)
    return rows


def compare_tail_models(returns, threshold: float = 50.0) -> dict:
    """Least-squares comparison of the log-CCDF beyond `threshold`.

    Fits log P(|r| >= v) as linear in v (exponential tail) and as linear in
    log v (power-law tail) over the distinct observed values >= threshold and
    reports both residual sums of squares.
    """
    curve = ccdf(returns)
    keep = curve.values >= threshold
    v = curve.values[keep]
    if len(v) < 3:
        raise ValueError(f"need at least 3 distinct values >= {threshold}, have {len(v)}")
    log_p = np.log(curve.probabilities[keep])

    def ssr(design: np.ndarray) -> float:
        coef, *_ = np.linalg.lstsq(design, log_p, rcond=None)
        return float(np.sum((log_p - design @ coef) ** 2))

    ones = np.ones_like(v)
    exponential_ssr = ssr(np.column_stack([ones, v]))
    power_ssr = ssr(np.column_stack([ones, np.log(v)]))
    return {
        "n_points": int(len(v)),
        "threshold": threshold,
        "exponential_ssr": exponential_ssr,
        "power_ssr": power_ssr,
        "preferred": "exponential" if exponential_ssr < power_ssr else "power",
    }
