import math
import sys
from collections import Counter

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdvote.analysis import (
    candidate_indices,
    ccdf,
    compare_tail_models,
    cutoff_scan,
    fit_power_law,
    histogram,
    log_bins,
    log_binned_pdf,
    sample_pareto,
    tail_mass,
)
from herdvote.series import rescale_returns


# -- ccdf -----------------------------------------------------------------------

def test_ccdf_single_value():
    curve = ccdf([2, -2, 2, -2])
    assert curve.values == [2.0]
    assert curve.probabilities == [1.0]


def test_ccdf_counts():
    curve = ccdf([1, -2, 4])
    assert curve.values == [1.0, 2.0, 4.0]
    assert curve.probabilities == pytest.approx([1.0, 2 / 3, 1 / 3])


def test_ccdf_excludes_zeros():
    curve = ccdf([0, 0, 3, 0])
    assert curve.values == [3.0]
    assert curve.probabilities == [1.0]


def test_ccdf_rejects_all_zero():
    with pytest.raises(ValueError):
        ccdf([0, 0, 0])


def test_ccdf_non_increasing_and_starts_at_one():
    rng = np.random.default_rng(0)
    curve = ccdf(rng.integers(-50, 50, size=5000))
    assert curve.probabilities[0] == 1.0
    assert np.all(np.diff(curve.probabilities) <= 0)


def test_tail_mass_edges():
    returns = [1, -2, 4, 0]
    assert tail_mass(returns, 2) == pytest.approx(2 / 3)
    assert tail_mass(returns, 4) == pytest.approx(1 / 3)
    assert tail_mass(returns, 5) == 0.0
    assert tail_mass(returns, 0.5) == 1.0


# -- binned density ----------------------------------------------------------------

def test_log_binned_pdf_slope_on_pareto():
    # CCDF exponent 1.5 means density exponent 2.5: slope of the log-log
    # density should sit near -2.5
    rng = np.random.default_rng(42)
    sample = sample_pareto(2.5, 1_000_000, rng)
    centers, density = map(np.asarray, log_binned_pdf(sample, bins_per_decade=8))
    keep = density > 0
    window = (centers > 2) & (centers < 100) & keep
    slope, _ = np.polyfit(np.log(centers[window]), np.log(density[window]), 1)
    assert slope == pytest.approx(-2.5, abs=0.1)


def test_log_binned_pdf_single_value():
    centers, density = log_binned_pdf([7.0, -7.0, 7.0])
    assert len(centers) == 1
    # total mass of one over the single bin
    edges_width = 1.0 / density[0]
    assert edges_width > 0


def test_log_binned_pdf_mass_invariant_under_refinement():
    rng = np.random.default_rng(1)
    sample = rng.lognormal(2.0, 1.0, size=20_000)
    for bpd in (5, 10):
        centers, density = map(np.asarray, log_binned_pdf(sample, bins_per_decade=bpd))
        # widths from the geometric grid: center_i = sqrt(e_i e_{i+1})
        ratio = 10 ** (1 / (2 * bpd))
        widths = centers * (ratio - 1 / ratio)
        assert float(np.sum(density * widths)) == pytest.approx(1.0, abs=1e-9)


def test_log_binned_pdf_rejects_empty():
    with pytest.raises(ValueError):
        log_binned_pdf([0, 0])


def test_log_bins_corrects_the_guess_at_rounded_edges():
    """At the rounded edges 10^(k/b) and their float neighbours the guess
    floor(b log10 v) misses by one bin either way; `log_bins` still puts
    every value in the last bin whose edge is <= v, found here by scanning."""
    moved_down = moved_up = 0
    for b in (1, 2, 3, 5, 7, 10, 13, 20, 100):
        values = []
        for k in range(-2 * b, 2 * b):
            e = 10.0 ** (k / b)
            values += [math.nextafter(e, 0.0), e, math.nextafter(e, math.inf)]
        lo, hi = min(values), max(values)
        k_lo, k_hi = math.floor(b * math.log10(lo)), math.ceil(b * math.log10(hi))

        def edge(k):
            e = 10.0 ** (k / b)
            return min(e, lo) if k == k_lo else max(e, hi) if k == k_hi else e

        brute = {v: max(k for k in range(k_lo, k_hi) if edge(k) <= v) for v in values}
        for v, k in brute.items():
            guess = min(max(math.floor(b * math.log10(v)), k_lo), k_hi - 1)
            moved_down += guess > k
            moved_up += guess < k
        expected = [(edge(k), edge(k + 1), count)
                    for k, count in sorted(Counter(brute.values()).items())]
        assert log_bins(values, b) == expected, f"bins_per_decade={b}"
    assert moved_down and moved_up


@pytest.mark.parametrize("b", [0, 10**12 + 1])
def test_log_bins_refuses_more_bins_per_decade_than_its_guess_resolves(b):
    with pytest.raises(ValueError, match=r"bins_per_decade must be in \[1, 1000000000000\]"):
        log_bins([1.0, 2.0], b)


def test_log_bins_takes_the_most_bins_per_decade_it_allows():
    """At 10^12 bins per decade each value, edge and float neighbour of an
    edge lands in the last bin whose left edge is <= it."""
    b = 10**12
    values = [1.0, 2.0, 3.0, 1e-300, 1e300]
    for k in (1, 10**12 // 3, 7 * 10**12, -299 * 10**12 - 17, 299 * 10**12 + 5):
        e = 10.0 ** (k / b)
        values += [math.nextafter(e, 0.0), e, math.nextafter(e, math.inf)]
    bins = log_bins(values, b)
    assert sum(count for *_, count in bins) == len(values)
    for left, right, count in bins[:-1]:
        assert count == sum(left <= v < right for v in values)


def test_log_bins_refuses_subnormal_values():
    """Below the smallest normal float neighbouring edges round together,
    so no bin is guessed for such a value."""
    with pytest.raises(ValueError, match="log_bins takes"):
        log_bins([5e-324, 1e-323, 1.0], 10)
    assert log_bins([2.2250738585072014e-308, 1.0], 1)[0][2] == 1


@pytest.mark.parametrize("hi", [1.7e308, sys.float_info.max])
def test_log_bins_keeps_a_largest_value_whose_top_edge_overflows(hi):
    """10^(k_hi / b) is beyond the float range: the top edge is the largest
    value, which the last bin holds."""
    bins = log_bins([1.0, hi], 10)
    left, right, count = bins[-1]
    assert left < right == hi and count == 1
    assert sum(count for *_, count in bins) == 2


@pytest.mark.parametrize("values", [[1.0, 1e200], [1e-170, 1e-160, 1.0]],
                         ids=["product_overflows", "product_underflows"])
def test_log_binned_pdf_centers_bins_whose_edge_product_leaves_the_float_range(values):
    """sqrt(left * right) would read inf or 0.0 here: each center is still
    the geometric mean of its bin's edges."""
    centers, _ = log_binned_pdf(values)
    bins = log_bins(values)
    assert len(centers) == len(bins)
    for center, (left, right, _) in zip(centers, bins):
        assert left < center < right
        assert math.log(center) == pytest.approx((math.log(left) + math.log(right)) / 2,
                                                 rel=1e-13)


# -- power-law fit -----------------------------------------------------------------

def test_fit_recovers_synthetic_exponent():
    rng = np.random.default_rng(7)
    sample = sample_pareto(1.5, 100_000, rng)
    fit = fit_power_law(sample, r_min=1.0)
    assert abs(fit.alpha_density - 1.5) < 3 * fit.stderr
    assert fit.alpha_cumulative == fit.alpha_density - 1.0
    assert fit.n_tail == 100_000


def test_fit_degenerate_tail_rejected():
    with pytest.raises(ValueError):
        fit_power_law(np.full(500, 3.0), r_min=3.0)


def test_fit_needs_tail_points():
    with pytest.raises(ValueError):
        fit_power_law(np.arange(1, 50), r_min=1.0)


def test_fit_scale_invariance():
    rng = np.random.default_rng(9)
    sample = sample_pareto(2.0, 20_000, rng)
    f1 = fit_power_law(sample, r_min=1.0)
    f2 = fit_power_law(sample * 10.0, r_min=10.0)
    assert f1.alpha_density == pytest.approx(f2.alpha_density, rel=1e-12)


def test_fit_auto_cutoff_on_contaminated_sample():
    """Body below 5, clean power law above: the KS scan should find the tail."""
    rng = np.random.default_rng(23)
    tail = sample_pareto(1.8, 30_000, rng, r_min=5.0)
    body = rng.uniform(0.5, 5.0, size=70_000)
    sample = np.concatenate([tail, body])
    fit = fit_power_law(sample)
    assert fit.r_min >= 4.0
    assert abs(fit.alpha_density - 1.8) < 5 * fit.stderr


def test_sample_pareto_guard():
    with pytest.raises(ValueError):
        sample_pareto(1.0, 10, np.random.default_rng(0))


# -- cutoff scan --------------------------------------------------------------------

def test_cutoff_scan_single_series():
    rng = np.random.default_rng(3)
    rows = cutoff_scan({0.41: sample_pareto(2.0, 5000, rng)}, r_min=1.0, tail_threshold=5.0)
    assert len(rows) == 1
    assert rows[0]["x"] == 0.41
    assert rows[0]["r_min"] == 1.0
    assert 0 < rows[0]["tail_mass"] < 1


def test_cutoff_scan_identical_series_identical_rows():
    rng = np.random.default_rng(5)
    sample = sample_pareto(2.0, 5000, rng)
    rows = cutoff_scan({0.37: sample, 0.41: sample, 0.47: sample}, r_min=1.0)
    assert len(rows) == 3
    first = {k: v for k, v in rows[0].items() if k != "x"}
    for row in rows[1:]:
        assert {k: v for k, v in row.items() if k != "x"} == first


def test_cutoff_scan_common_r_min_auto():
    rng = np.random.default_rng(6)
    rows = cutoff_scan({
        0.37: sample_pareto(1.5, 20_000, rng),
        0.47: sample_pareto(2.5, 20_000, rng),
    })
    assert rows[0]["r_min"] == rows[1]["r_min"]
    assert rows[0]["alpha_density"] < rows[1]["alpha_density"]


def test_cutoff_scan_empty_rejected():
    with pytest.raises(ValueError):
        cutoff_scan({})


@pytest.mark.parametrize("bad", [0, -1.0, math.nan, math.inf])
def test_fit_and_scan_refuse_a_cutoff_they_cannot_use(bad):
    """Refused with one message, also by `cutoff_scan`, whose per-series
    fits would otherwise swallow the error into a row of NaNs."""
    sample = sample_pareto(2.5, 1000, np.random.default_rng(3))
    with pytest.raises(ValueError, match="r_min must be finite and > 0"):
        fit_power_law(sample, r_min=bad)
    with pytest.raises(ValueError, match="r_min must be finite and > 0"):
        cutoff_scan({0.41: sample}, r_min=bad)


@pytest.mark.parametrize("bad", [0, -1.0, math.nan, math.inf])
def test_tail_mass_and_shape_test_refuse_a_threshold_they_cannot_use(bad):
    sample = sample_pareto(2.5, 1000, np.random.default_rng(3))
    with pytest.raises(ValueError, match="threshold must be finite and > 0"):
        ccdf(sample).tail_mass(bad)
    with pytest.raises(ValueError, match="threshold must be finite and > 0"):
        tail_mass(sample, bad)
    with pytest.raises(ValueError, match="threshold must be finite and > 0"):
        cutoff_scan({0.41: sample}, r_min=1.0, tail_threshold=bad)
    with pytest.raises(ValueError, match="threshold must be finite and > 0"):
        compare_tail_models(sample, bad)


# -- exponential vs power comparison ---------------------------------------------------

def test_compare_tail_models_prefers_exponential_on_exponential_data():
    rng = np.random.default_rng(11)
    sample = np.round(rng.exponential(20.0, size=200_000)) + 1
    result = compare_tail_models(sample, threshold=30.0)
    assert result["preferred"] == "exponential"
    assert result["exponential_ssr"] < result["power_ssr"]


def test_compare_tail_models_prefers_power_on_pareto_data():
    rng = np.random.default_rng(13)
    sample = np.round(sample_pareto(1.5, 200_000, rng))
    sample = sample[sample >= 1]
    result = compare_tail_models(sample, threshold=10.0)
    assert result["preferred"] == "power"


def test_compare_tail_models_needs_points():
    with pytest.raises(ValueError):
        compare_tail_models([5, 5, 5, 6], threshold=5)


# -- the histogram against the NumPy reference (tests/oracles.py) -----------------------

def test_histogram_counts_nonzero_magnitudes():
    hist = histogram([0, 3, -1, 3, -3, 0, 1.0, float("nan")])
    assert (hist.values, hist.counts, hist.above) == ([1.0, 3.0], [2, 3], [5, 3, 0])
    assert len(hist) == 8  # the series length, zeros and NaN included
    assert histogram(hist) is hist


def test_candidate_indices_are_numpys_linspace():
    """int(linspace(0, D - 1, 64)) is i (D - 1) / 63 truncated, then D - 1."""
    assert candidate_indices(64) == list(range(64))
    for n_values in range(65, 5001):
        expected = np.linspace(0, n_values - 1, 64).astype(int).tolist()
        assert candidate_indices(n_values) == expected, n_values


def _within_ulps(a: float, b: float, ulps: int) -> bool:
    return abs(a - b) <= ulps * math.ulp(b)


def _relclose(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * abs(b) or (math.isnan(a) and math.isnan(b))


@st.composite
def tail_samples(draw):
    """A rescaled integer series (k = 1, 2, 3) of signed heavy-tailed trade
    sizes with no-trade zeros, or a continuous Pareto sample."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 4000))
    alpha = draw(st.floats(1.2, 3.5))
    if draw(st.booleans()):
        return sample_pareto(alpha, size, rng, r_min=draw(st.floats(0.01, 100.0)))
    cap = draw(st.sampled_from([3, 300, 10_000]))  # the population size
    sizes = np.floor(np.minimum(sample_pareto(alpha, size, rng), cap)).astype(np.int64)
    signs = rng.choice([-1, 1], size=size)
    trades = rng.random(size) >= draw(st.floats(0.0, 0.9))
    return np.asarray(rescale_returns(sizes * signs * trades, draw(st.sampled_from([1, 2, 3]))))


@settings(max_examples=150, deadline=None, database=None)
@given(sample=tail_samples(), bins_per_decade=st.sampled_from([1, 3, 10, 100, 10_000]))
def test_statistics_match_the_numpy_reference(sample, bins_per_decade):
    """Tolerances, fixed before the comparison was first run:
    - CCDF values and probabilities and PDF counts: exactly equal;
    - PDF centers and densities: within 4 ulp, both from libm's pow edges
      (NumPy's SIMD power rounds some edges differently on AVX-512 hosts);
    - the KS-chosen r_min and n_tail: equal whenever the reference's two
      best KS distances differ by more than 1e-12;
    - alpha, stderr and the KS distance: within 1e-12 relative."""
    if not np.any(sample):
        with pytest.raises(ValueError):
            ccdf(sample)
        return
    curve = ccdf(sample)
    values, probabilities = oracles.ccdf(sample)
    assert curve.values == values.tolist()
    assert curve.probabilities == probabilities.tolist()

    bins = log_bins(sample, bins_per_decade)
    assert [count for _, _, count in bins] == oracles.log_binned_pdf(sample, bins_per_decade)[2].tolist()
    centers, density = log_binned_pdf(sample, bins_per_decade)
    ref_centers, ref_density, _ = oracles.log_binned_pdf(
        sample, bins_per_decade, power=oracles.libm_power)
    assert all(map(_within_ulps, centers, ref_centers.tolist(), [4] * len(centers)))
    assert all(map(_within_ulps, density, ref_density.tolist(), [4] * len(density)))

    for r_min in (values[0], values[len(values) // 2], 1.5):
        try:
            ref = oracles.fit_power_law(sample, r_min=r_min)
        except ValueError:
            with pytest.raises(ValueError):
                fit_power_law(sample, r_min=r_min)
            continue
        fit = fit_power_law(sample, r_min=r_min)
        assert (fit.r_min, fit.r_max, fit.n_tail) == (ref.r_min, ref.r_max, ref.n_tail)
        for name in ("alpha_density", "stderr", "ks_distance"):
            assert _relclose(getattr(fit, name), getattr(ref, name)), name

    fits = oracles.candidate_fits(sample)
    if not fits:
        with pytest.raises(ValueError):
            fit_power_law(sample)
        return
    fit = fit_power_law(sample)
    distances = sorted(f.ks_distance for f in fits)
    if len(distances) == 1 or distances[1] - distances[0] > 1e-12:
        ref = oracles.fit_power_law(sample)
        assert (fit.r_min, fit.n_tail) == (ref.r_min, ref.n_tail)
    else:  # a near tie: the cutoff chosen is one of the tied ones
        ref = next(f for f in fits if f.r_min == fit.r_min)
        assert ref.ks_distance - distances[0] <= 1e-12
    for name in ("alpha_density", "stderr", "ks_distance"):
        assert _relclose(getattr(fit, name), getattr(ref, name)), name


@pytest.mark.parametrize("seed", range(3))
def test_cutoff_scan_and_shape_test_match_the_numpy_reference(seed):
    """cutoff_scan at its own cutoff and at a fixed one (same tolerances as
    above), and the two-line comparison within 1e-9 relative of
    `np.linalg.lstsq` (1e-12 absolute, for a near-perfect line)."""
    rng = np.random.default_rng(seed)
    series = {x: rescale_returns(np.floor(sample_pareto(alpha, 20_000, rng)).astype(np.int64), 2)
              for x, alpha in ((0.37, 1.6), (0.41, 2.0), (0.47, 2.6))}
    for r_min in (None, 4.0):
        rows = cutoff_scan(series, r_min=r_min, tail_threshold=20.0)
        ref_rows = oracles.cutoff_scan({x: np.asarray(s) for x, s in series.items()},
                                       r_min=r_min, tail_threshold=20.0)
        for row, ref in zip(rows, ref_rows):
            assert {k: row[k] for k in ("x", "r_min", "n_tail", "tail_mass", "tail_threshold")} == \
                {k: ref[k] for k in ("x", "r_min", "n_tail", "tail_mass", "tail_threshold")}
            for name in ("alpha_density", "alpha_cumulative", "stderr"):
                assert _relclose(row[name], ref[name]), name
    for s in series.values():
        shape, ref = compare_tail_models(s, 5.0), oracles.compare_tail_models(np.asarray(s), 5.0)
        assert shape["n_points"] == ref["n_points"]
        for name in ("exponential_ssr", "power_ssr"):
            assert shape[name] == pytest.approx(ref[name], rel=1e-9, abs=1e-12)
        assert shape["preferred"] == ref["preferred"]


def test_a_billion_bins_per_decade_cost_the_occupied_bins_only():
    """The grid of 4x10^9 edges is never built: each of the few distinct
    values gets its own bin, and every point is counted once."""
    rng = np.random.default_rng(4)
    sample = rescale_returns(np.floor(sample_pareto(1.8, 50_000, rng)).astype(np.int64), 2)
    hist = histogram(sample)
    bins = log_bins(hist, 1_000_000_000)
    assert [count for _, _, count in bins] == hist.counts
    assert all(left <= v <= right for (left, right, _), v in zip(bins, hist.values))
    centers, density = log_binned_pdf(hist, 1_000_000_000)
    assert math.fsum(d * (right - left) for d, (left, right, _) in zip(density, bins)) == \
        pytest.approx(1.0, rel=1e-9)
