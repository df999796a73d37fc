"""Reference implementations that the package's code paths are checked against.

Nothing in the package imports this module; only tests do.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from herdvote.analysis import MIN_TAIL, TailFit
from herdvote.engine import _BUF_SIZE, _REFILL_MARGIN, SimState, advance, run, step
from herdvote.meanfield import GroupSizeDistribution, SolverReport, _flows, _size_rates
from herdvote.voting import (
    can_fragment,
    consensus_probability,
    decision_cdf,
    decision_probabilities,
    fragmentation_probability,
    probability_table,
)


def named_cases(namespace, check, cases):
    """Collect each named case as a test in `namespace`, the test module's
    `globals()`.  `cases` maps the name of a test to the arguments of
    `check`, a tuple, or to a list of rows, each a tuple or a dict of
    keyword arguments, that `check` takes in turn.  A name ending in `[id]`
    is that id of one test parametrized over its cases."""
    def run(case):
        for row in case if isinstance(case, list) else [case]:
            check(**row) if isinstance(row, dict) else check(*row)

    tests = {}
    for name, case in cases.items():
        test, _, param = name.partition("[")
        tests.setdefault(test, {})[param.removesuffix("]")] = case
    for test, params in tests.items():
        if list(params) == [""]:
            def case_test(case=params[""]):
                run(case)
        else:
            @pytest.mark.parametrize("case", list(params.values()), ids=list(params))
            def case_test(case):
                run(case)
        namespace[test] = case_test


def check_probabilities(x, sizes=(), exact=None, holds=None, **tolerance):
    """The decision probabilities of `sizes` at x, each lookup against the others.

    For every size, `probability_table` equals `fragmentation_probability`
    and `consensus_probability` element for element; `decision_probabilities`
    is (p, q/3, q/3, q/3) and `decision_cdf` is (q/3, 2q/3, q), bit for bit;
    p and q lie in [0, 1] with |p + q - 1| <= 1e-12; `can_fragment` holds
    exactly where p > 0, and where it does not, q is exactly 1.0.  `exact`
    gives the exact p_frg of each size, as a dict (whose keys are then the
    sizes) or a function of (size, x): p is 0 exactly where it is, and p and
    q keep to it and its complement within the `pytest.approx` `tolerance`
    (`rel=0, abs=0`: bit for bit).  `holds` is a predicate of the table's
    (p_frg, q) arrays."""
    if isinstance(exact, dict):
        sizes = list(exact)
    p_frg, consensus = probability_table(sizes, x)
    for s, p, q in zip(map(int, sizes), p_frg.tolist(), consensus.tolist()):
        assert (p, q) == (fragmentation_probability(s, x), consensus_probability(s, x)), (s, x)
        assert decision_probabilities(s, x) == (p, q / 3.0, q / 3.0, q / 3.0), (s, x)
        assert decision_cdf(s, x) == (q / 3.0, 2.0 * q / 3.0, q), (s, x)
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0 and abs(p + q - 1.0) <= 1e-12, (s, x)
        assert can_fragment(s, x) == (p > 0.0) and (p > 0.0 or q == 1.0), (s, x)
        if exact is not None:
            value = Fraction(exact[s] if isinstance(exact, dict) else exact(s, x))
            assert (p > 0.0) == (value > 0), (s, x)
            assert p == pytest.approx(float(value), **tolerance), (s, x)
            assert q == pytest.approx(float(1 - value), **tolerance), (s, x)
    assert holds is None or holds(p_frg, consensus), x


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


# -- the fused loop against the per-step oracle ------------------------------------
#
# `engine.step` is the oracle of every model (`ez.ez_step` is the same
# function); `engine.advance` and `engine.run` are held to it byte for byte.

CHUNKS = (1, 13, 1000, 10_007)  # `assert_loop_matches_oracle`'s `advance` calls, in turn

def step_counting_refills(state, n_steps):
    """Step the oracle `n_steps` times: its events, and how often it drew a
    new block of uniforms at the start of a step and inside the merge-target
    rejection loop.

    A new block shows as a new `_ubuf`.  It came before the agent pick when
    the step began within `_REFILL_MARGIN` draws of the block's end (or on a
    fresh state, whose cursor sits at `_BUF_SIZE`), else while rejecting.
    Each block drawn in place of another must come with its own picks.
    """
    n = state.partition.n_agents
    events = []
    at_start = in_rejections = 0
    for _ in range(n_steps):
        buf, pos = state._ubuf, state._upos
        events.append(step(state))
        if state._ubuf is not buf:
            if len(buf):
                assert list(state._upicks) == [int(u * n) for u in state._ubuf]
            if pos >= _BUF_SIZE - _REFILL_MARGIN:
                at_start += 1
            else:
                in_rejections += 1
    return events, at_start, in_rejections


def assert_same_state(state, oracle):
    """Two simulation states agree in every field but `_cdf`, the loop's iid
    CDFs, which the oracle never fills: every `_size` entry (stale ones
    too), the member lists in order, and the stream down to its generator.
    """
    assert state.step_index == oracle.step_index
    assert state.history == oracle.history
    assert state.decision_counts == oracle.decision_counts
    part, ref = state.partition, oracle.partition
    assert part._group_of == ref._group_of
    assert part._size == ref._size
    assert list(part._members.items()) == list(ref._members.items())
    assert part._n_single == ref._n_single
    assert state._group_votes == oracle._group_votes
    assert state._upos == oracle._upos
    assert state._ubuf == oracle._ubuf and state._upicks == oracle._upicks
    assert state._rng.bit_generator.state == oracle._rng.bit_generator.state


def assert_loop_matches_oracle(config, stream=None):
    """`run`, a chunked `advance`, and `advance` and `step` interleaved
    reproduce a loop of `step` byte for byte and leave its whole state.

    `stream`, when given, makes each state's dynamics stream in place of
    its own generator; `run` builds its own state, so that leg is left out.
    Returns `step_counting_refills` of the oracle's loop.
    """
    def fresh():
        state = SimState(config)
        if stream is not None:
            state._rng = stream()
        return state

    e = config.equilibration_steps
    oracle = fresh()
    counted = step_counting_refills(oracle, config.total_steps)
    expected = np.array([event.net_return for event in counted[0]], dtype=np.int64)[e:]
    advance(oracle, 0)  # the oracle's tallies, built from its partition

    if stream is None:
        returns, summary = run(config)
        assert np.array_equal(returns, expected)
        assert list(summary.decision_counts.values()) == oracle.decision_counts
        assert summary.final_size_histogram == oracle.partition.size_histogram()

    fused = fresh()
    chunked = np.zeros_like(expected)
    chunks = itertools.cycle(CHUNKS)
    while fused.step_index < config.total_steps:
        advance(fused, min(next(chunks), config.total_steps - fused.step_index), chunked)
    assert np.array_equal(chunked, expected)
    for n_steps in (-1, 2.5, True):  # refused before any step
        with pytest.raises(ValueError, match="n_steps"):
            advance(fused, n_steps)
    assert_same_state(fused, oracle)

    # `advance`, then `step` (which drops the tallies and resumes the loop's
    # block), then `advance` (which rebuilds the tallies from the partition)
    mixed = fresh()
    interleaved = np.zeros_like(expected)
    third = config.total_steps // 3
    advance(mixed, third, interleaved)
    for i in range(third, 2 * third):
        net = step(mixed).net_return
        if i >= e:
            interleaved[i - e] = net
    advance(mixed, config.total_steps - 2 * third, interleaved)
    assert np.array_equal(interleaved, expected)
    assert_same_state(mixed, oracle)
    return counted
