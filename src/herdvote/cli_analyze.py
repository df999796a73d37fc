"""The `analyze` command: tail statistics of existing run directories.

Imported by `cli` when `analyze` is dispatched.  Each run's config and
return series are read back digest-checked (`_read_run_returns`).  The
series, a view of the file's bytes that is never copied, is summed in
windows of `--rescale-k` steps, reduced to one histogram of |r|, and
written as `analysis/ccdf.csv`, `pdf.csv` and `fit.csv` in the run
directory; the cross-run summary fits every series at one cutoff.  A
column is read by name from the run's `TailFit` or a `cutoff_scan` row.
Every file goes through `cli._write_csv`.  Neither this module nor its
layers (`series`, `analysis`) load NumPy.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator

from . import analysis, cli
from .artifacts import ConfigError, publication, read_verified
from .series import parse_returns_binary, window_sums

# The columns after `x`: `TailFit` attributes, and `cutoff_scan` row keys.
_FIT_COLUMNS = ("alpha_density", "alpha_cumulative", "r_min", "stderr", "n_tail")
_SUMMARY_COLUMNS = ("x", *_FIT_COLUMNS, "tail_threshold", "tail_mass")
_NO_FIT = analysis.TailFit(alpha_density=math.nan, r_min=math.nan, r_max=math.nan,
                           stderr=math.nan, n_tail=0, ks_distance=math.nan)


def _read_run_returns(run_dir: str, k: int) -> tuple[dict, Iterator[int]]:
    """A run's config and its return series summed over windows of k steps.

    Both come from digest-checked files: `config.txt` and `returns_raw.bin`;
    a config that does not parse, such as another schema's, names its path,
    and so does a window longer than the recorded series.  The sums come one
    at a time off a view of the bytes read, for one pass such as a
    histogram's: the series is never copied.
    """
    config_bytes, series_bytes = read_verified(run_dir, ("config.txt", "returns_raw.bin"))
    try:
        config = cli.resolve_config({**cli.default_config(),
                                     **cli._parse_config_bytes(config_bytes)})
    except ConfigError as exc:
        raise ConfigError(f"{os.path.join(run_dir, 'config.txt')}: {exc}") from None
    try:
        returns = parse_returns_binary(series_bytes)
        n = config["n_agents"]  # no group that trades is larger than the population
        distinct = set(returns)  # built faster than min() and max() scan the series
        if distinct and (min(distinct) < -n or max(distinct) > n):
            raise ValueError(f"a return exceeds the run's {n} agents")
    except ValueError as exc:
        raise ConfigError(f"damaged artifact {os.path.join(run_dir, 'returns_raw.bin')}: {exc}")
    if k > len(returns):
        raise ConfigError(f"--rescale-k {k} is longer than the {len(returns)} returns "
                          f"recorded in {run_dir}")
    return config, window_sums(returns, k)


def main(args) -> int:
    """Run `analyze` on parsed arguments; returns its exit code."""
    max_bins = analysis.MAX_BINS_PER_DECADE
    for option, value, ok, rule in (
        ("--r-min", args.r_min, args.r_min is None or 0 < args.r_min < math.inf,
         "finite and > 0"),
        ("--tail-threshold", args.tail_threshold, 0 < args.tail_threshold < math.inf,
         "finite and > 0"),
        ("--bins-per-decade", args.bins_per_decade, 1 <= args.bins_per_decade <= max_bins,
         f"in [1, {max_bins}]"),
        ("--rescale-k", args.rescale_k, args.rescale_k >= 1, ">= 1"),
    ):
        if not ok:
            raise ConfigError(f"{option} must be {rule}, got {value}")
    # a directory named twice, however spelled, is analysed and summarised once
    run_dirs = {}
    for run_dir in args.run_dirs:
        run_dirs.setdefault(os.path.realpath(run_dir), run_dir)
    histograms = {}  # one row of the summary per run directory
    with publication([*(os.path.join(run_dir, "analysis", name) for run_dir in run_dirs.values()
                        for name in ("ccdf.csv", "pdf.csv", "fit.csv")), args.out]) as stage:
        for run_dir in run_dirs.values():
            config, returns = _read_run_returns(run_dir, args.rescale_k)
            hist = analysis.histogram(returns)  # every statistic below reads it
            if not hist.values:
                raise ConfigError(f"no trades in {run_dir}: every recorded return is zero")
            param = config["x"] if config["model"] == "main" else f"ez a={config['ez_a']}"
            try:
                fit = analysis.fit_power_law(hist, args.r_min)
            except ValueError:  # too few tail points for a fit
                fit = _NO_FIT
            curve = analysis.ccdf(hist)
            centers, density = analysis.log_binned_pdf(hist, args.bins_per_decade)
            out_dir = os.path.join(run_dir, "analysis")
            stage(os.path.join(out_dir, "ccdf.csv"), lambda p: cli._write_csv(
                p, ("value", "probability"), zip(curve.values, curve.probabilities)))
            stage(os.path.join(out_dir, "pdf.csv"), lambda p: cli._write_csv(
                p, ("bin_center", "density"), zip(centers, density)))
            stage(os.path.join(out_dir, "fit.csv"), lambda p: cli._write_csv(
                p, ("x", *_FIT_COLUMNS), [(param, *(getattr(fit, c) for c in _FIT_COLUMNS))]))
            key = param
            if key in histograms:  # replicate runs at the same parameters
                key = f"{param} seed={config['seed']}"
            if key in histograms:  # and the same seed: other keys differ
                key = f"{param} {run_dir}"
            histograms[key] = hist

        # the summary fits every series at one cutoff: the given one, else
        # `cutoff_scan`'s choice, the largest of their KS-optimal cutoffs
        try:
            rows = analysis.cutoff_scan(histograms, r_min=args.r_min,
                                        tail_threshold=args.tail_threshold)
        except ValueError:
            raise ConfigError(
                f"no run has enough trades for a tail fit (every cutoff leaves fewer than "
                f"{analysis.MIN_TAIL} tail points); pass --r-min to fit every run at a fixed "
                f"cutoff") from None
        stage(args.out, lambda p: cli._write_csv(
            p, _SUMMARY_COLUMNS, ([row[c] for c in _SUMMARY_COLUMNS] for row in rows)))
    print(args.out)
    return cli.EXIT_OK
