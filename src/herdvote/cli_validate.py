"""The `validate` command: fast self-checks of the exact math against oracles.

Imported by `cli` when `validate` is dispatched.  Each check compares a
computation with an independent reference (a brute-force enumeration, an
exact integer count, the exact tiny-N chain, synthetic samples of a known
exponent); the command prints one PASS or FAIL line per check and exits
nonzero when any fails.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, cli, meanfield, voting


def validation_checks() -> list:
    """Fast oracle suite; each entry is (name, passed, detail).

    The fragmentation probability under test is looked up as
    `voting.fragmentation_probability` when the checks run, so a test that
    replaces it sees the checks fail.
    """
    pfrg = voting.fragmentation_probability
    results = []

    xs = (0.34, 0.35, 0.37, 0.41, 0.45, 0.47, 0.499)
    worst = 0.0
    for s in range(1, 13):
        for x in xs:
            exact = float(voting.enumerate_fragmentation_probability(s, x))
            worst = max(worst, abs(pfrg(s, x) - exact))
    results.append((
        "fragmentation probability equals 3^s enumeration (s<=12)",
        worst <= 1e-12,
        f"max |diff| = {worst:.3e} (tolerance 1e-12)",
    ))

    # Above size 64 the smaller of p_frg and consensus is summed and the
    # other is its complement; here both are summed, on either side of the
    # switch.  Up to x = 0.41: beyond, at s = 10^4, the p_frg sum's first
    # term underflows (that sum is used only near x = 1/3).
    worst = 0.0
    for s in (100, 1000, 10000):
        for x in (0.34, 0.35, 0.37, 0.41):
            if voting.can_fragment(s, x):
                worst = max(worst, abs(sum(voting.summed_both_ways(s, x)) - 1.0))
    results.append((
        "fragmentation and consensus, each summed directly, sum to one (s>64)",
        worst <= 1e-12,
        f"max |sum-1| = {worst:.3e} (tolerance 1e-12)",
    ))

    s, x = 400, 0.41
    exact = voting.fragmentation_count(s, x) / 3**s
    error = abs(pfrg(s, x) - exact) / exact
    results.append((
        f"fragmentation probability equals exact count (s={s}, x={x})",
        error <= 1e-13,
        f"relative error = {error:.3e} (tolerance 1e-13)",
    ))

    # Exact agreement is expected only where the whole population coagulates
    # into one unbreakable group; elsewhere the rate equations ignore
    # fluctuations and the measured gap is reported for context.
    exact_worst = 0.0
    for n_agents, x in ((2, 0.37), (2, 0.47), (4, 0.41), (5, 0.37)):
        dist, report = meanfield.solve_stationary(n_agents, x)
        orc = meanfield.stationary_oracle(n_agents, x)
        exact_worst = max(exact_worst, float(np.max(np.abs(dist.counts - orc.counts))))
        exact_worst = max(exact_worst, 0.0 if report.converged else math.inf)
    dist3, report3 = meanfield.solve_stationary(3, 0.41)
    orc3 = meanfield.stationary_oracle(3, 0.41)
    gap3 = float(np.max(np.abs(dist3.counts - orc3.counts)))
    results.append((
        "mean-field solver vs exact tiny-N chain",
        exact_worst <= 1e-9 and report3.converged and report3.residual <= 1e-10,
        f"coagulating cases max |diff| = {exact_worst:.3e} (tolerance 1e-9); "
        f"fluctuation-dominated N=3 gap = {gap3:.3f} (informational)",
    ))

    rng = np.random.default_rng(20240917)
    trials, points, needed = 200, 600, 0.90
    coverage_ok = True
    detail = []
    for alpha in (1.2, 2.0):
        hits = 0
        for _ in range(trials):
            sample = analysis.sample_pareto(alpha, points, rng)
            fit = analysis.fit_power_law(sample, r_min=1.0)
            if abs(fit.alpha_density - alpha) <= 3 * fit.stderr:
                hits += 1
        rate = hits / trials
        coverage_ok = coverage_ok and rate >= needed
        detail.append(f"alpha={alpha}: {rate:.1%}")
    results.append((
        "tail estimator recovers synthetic exponents within 3 SE",
        coverage_ok,
        f"{'; '.join(detail)} (need >= {needed:.0%} of {trials} trials)",
    ))
    return results


def main(args) -> int:
    """Run `validate`; returns its exit code."""
    results = validation_checks()
    width = max(len(name) for name, _, _ in results)
    ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        ok = ok and passed
        print(f"{status}  {name:<{width}}  {detail}")
    return cli.EXIT_OK if ok else cli.EXIT_VALIDATION
