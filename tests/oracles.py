"""Reference implementations that the package's code paths are checked against.

Nothing in the package imports this module; only tests do.
"""

import math

import numpy as np

from herdvote.analysis import MIN_TAIL, TailFit
from herdvote.config import VoteMode
from herdvote.engine import history_index
from herdvote.meanfield import GroupSizeDistribution, SolverReport, _flows, _size_rates
from herdvote.voting import VoteTally


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
    p_frg, p_merge = (np.r_[0.0, r] for r in _size_rates(np.arange(1, N + 1), float(x)))
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


# -- tail statistics ------------------------------------------------------------
#
# The NumPy implementations that `herdvote.analysis` replaced with one
# histogram of |r| per series, kept as the reference it is tested against.
# Each takes an array-like series.

def _abs_nonzero(returns) -> np.ndarray:
    arr = np.abs(np.asarray(returns, dtype=float))
    return arr[arr > 0]


def ccdf(returns) -> tuple[np.ndarray, np.ndarray]:
    """Exact empirical CCDF of absolute nonzero returns: (values, probabilities)."""
    vals = _abs_nonzero(returns)
    if len(vals) == 0:
        raise ValueError("series contains no trades (all returns are zero)")
    distinct, counts = np.unique(vals, return_counts=True)
    # P(|r| >= v_i) = fraction of points at v_i or above
    above = np.cumsum(counts[::-1])[::-1]
    return distinct, above / len(vals)


def tail_mass(returns, threshold: float) -> float:
    values, probabilities = ccdf(returns)
    idx = np.searchsorted(values, threshold, side="left")
    return 0.0 if idx >= len(values) else float(probabilities[idx])


def log_binned_pdf(returns, bins_per_decade: int = 10, power=np.power):
    """Density of |r| on geometric bins: (bin centers, density, count) of
    the occupied bins.

    `power(10.0, q)` evaluates the edges.  NumPy's own power rounds some
    edges differently on hosts with AVX-512 than the C library's pow, which
    `analysis` uses; a caller that compares densities passes a libm power.
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
    edges = power(10.0, np.arange(k_lo, k_hi + 1) / bins_per_decade)
    edges[0] = min(edges[0], lo)  # guard rounding at the extremes
    edges[-1] = max(edges[-1], hi)
    counts, _ = np.histogram(vals, edges)
    density = counts / (len(vals) * np.diff(edges))
    centers = np.sqrt(edges[:-1] * edges[1:])
    keep = counts > 0
    return centers[keep], density[keep], counts[keep]


def libm_power(base: float, exponents: np.ndarray) -> np.ndarray:
    """base ** q by the C library's pow, one float at a time."""
    return np.array([base ** float(q) for q in exponents])


def fit_at(vals: np.ndarray, r_min: float) -> TailFit:
    """The tail-exponent MLE and KS distance over |vals| >= r_min."""
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


def candidate_fits(sample) -> list[TailFit]:
    """The fit at every candidate cutoff of the KS scan that admits one, in order."""
    vals = _abs_nonzero(sample)
    candidates = np.unique(vals, return_counts=True)[0]
    if len(candidates) > 64:
        idx = np.linspace(0, len(candidates) - 1, 64).astype(int)
        candidates = candidates[idx]
    fits = []
    for cand in candidates:
        try:
            fits.append(fit_at(vals, float(cand)))
        except ValueError:
            continue
    return fits


def fit_power_law(sample, r_min: float | None = None) -> TailFit:
    """At `r_min`, else at the first candidate cutoff of least KS distance."""
    if r_min is not None:
        return fit_at(_abs_nonzero(sample), float(r_min))
    best = None
    for fit in candidate_fits(sample):
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise ValueError(f"no cutoff leaves at least {MIN_TAIL} non-degenerate tail points")
    return best


def cutoff_scan(returns_by_x: dict, r_min: float | None = None,
                tail_threshold: float = 50.0) -> list[dict]:
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
            "tail_mass": tail_mass(vals, tail_threshold),
            "tail_threshold": tail_threshold,
        }
        try:
            fit = fit_at(vals, r_min)
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
    """Least-squares fits of the log-CCDF beyond `threshold` by `np.linalg.lstsq`."""
    values, probabilities = ccdf(returns)
    keep = values >= threshold
    v = values[keep]
    if len(v) < 3:
        raise ValueError(f"need at least 3 distinct values >= {threshold}, have {len(v)}")
    log_p = np.log(probabilities[keep])

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


BUY, SELL, WAIT = 0, 1, 2  # the vote codes of the strategy tables


def poll_group(members, tables, history, mode, rng) -> VoteTally:
    """Tally one group's votes under the given mode.

    The engine keeps incremental per-group tallies (strategy mode) or draws
    the decision from its exact distribution (iid mode) instead; this
    states a poll from scratch.

    STRATEGY_DRIVEN reads each member's row of `tables` (see
    `engine.assign_strategies`) and consumes no randomness.  IID_UNIFORM
    draws one uniform action per member and ignores `tables`.
    """
    if not members:
        raise ValueError("cannot poll an empty group")
    counts = [0, 0, 0]
    if mode == VoteMode.STRATEGY_DRIVEN:
        if 1 << len(history) != tables.shape[1]:
            raise ValueError(f"history length {len(history)} does not match "
                             f"{tables.shape[1]} table entries per agent")
        idx = history_index(history)
        for agent in members:
            counts[tables[agent, idx]] += 1
    else:
        for v in rng.integers(0, 3, size=len(members)):
            counts[v] += 1
    return VoteTally(counts[BUY], counts[SELL], counts[WAIT])


def live_groups(part) -> list[int]:
    """A partition's live group handles in increasing order (an O(N) scan)."""
    return [a for a, g in enumerate(part._group_of) if a == g]


def check_partition(part) -> None:
    """Full-scan consistency check of a `population.Partition` (O(N)).

    Every agent is listed in exactly one member list or is a singleton
    named by itself; listed agents point to their group, every live
    handle is one of its own members, every live handle's size is its
    group's, and the singleton count is the number of singletons.
    """
    group_of = part._group_of
    size = part._size
    listed = bytearray(part.n_agents)
    for g, mem in part._members.items():
        if len(mem) < 2:
            raise AssertionError(f"group {g} of size {len(mem)} holds a member list")
        if g not in mem:
            raise AssertionError(f"handle {g} is not one of its own members {mem[:8]}")
        if size[g] != len(mem):
            raise AssertionError(f"group {g} has {len(mem)} members, its size says {size[g]}")
        for a in mem:
            if listed[a]:
                raise AssertionError(f"agent {a} is listed twice")
            listed[a] = 1
            if group_of[a] != g:
                raise AssertionError(f"agent {a} points to {group_of[a]}, listed in {g}")
    singles = 0
    for a in range(part.n_agents):
        if listed[a]:
            continue
        if group_of[a] != a:
            raise AssertionError(f"unlisted agent {a} points to {group_of[a]}")
        if size[a] != 1:
            raise AssertionError(f"singleton {a} has size {size[a]}")
        singles += 1
    if singles != part._n_single:
        raise AssertionError(f"{singles} singletons, the count says {part._n_single}")
