"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with the measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`.  Every criterion is
asserted at its stated tolerance.  Two contain clauses that the honest
implementation cannot meet, and they are left failing on purpose rather
than loosened:

  * Criterion 3: the stationary rate equations factorise products of group
    counts, so their fixed point cannot reproduce the exact tiny-N chain
    marginals to 1e-6, nor N=100 simulation time-averages to 5%;
    fragmentation converts a whole group into singletons in one step and
    the resulting count fluctuations are O(1) relative at these sizes.
    The coagulating cases (where one unbreakable group absorbs everything)
    do agree exactly.
  * Criterion 6, second clause: at x=0.47 the exponential cutoff it is
    meant to exhibit is already so strong that no rescaled return reaches
    the stated threshold of 50 in a 10^6-step desk run, so the shape
    comparison beyond 50 has no data; at thresholds the data does reach,
    the exponential wins as intended.
"""

import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from herdvote import cli
from herdvote.analysis import (
    compare_tail_models,
    fit_power_law,
    sample_pareto,
    tail_mass,
)
from herdvote.config import VoteMode
from herdvote.engine import SimConfig, advance, init_state, rescale_returns, run, step
from herdvote.ez import EzConfig, ez_run
from herdvote.meanfield import solve_stationary, stationary_oracle
from herdvote.voting import (
    Decision,
    consensus_probability,
    decision_probabilities,
    enumerate_fragmentation_probability,
    fragmentation_probability,
)

DESK_N = 10_000
DESK_STEPS = 1_000_000
TAIL_THRESHOLD = 50.0
# Fixed deep-tail fit cutoff for the simulation criteria: the return
# distributions carry genuine finite-size / cutoff structure, against which
# the KS-automatic cutoff is unstable, so the exponent checks fit above the
# suite's own tail threshold.
FIT_R_MIN = 50.0


def report(number: int, passed: bool, detail: str) -> bool:
    print(f"CRITERION {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


@pytest.fixture(scope="module")
def desk_runs():
    """Shared desk-scale sweep (criteria 6 and 8): x in {0.37, 0.41, 0.47}."""
    out = {}
    for x in (0.37, 0.41, 0.47):
        config = SimConfig(n_agents=DESK_N, x=x, total_steps=DESK_STEPS, seed=1)
        returns, summary = run(config)
        out[x] = (rescale_returns(returns, 2), summary)
    return out


def test_criterion_1_fragmentation_probability_exact():
    """p_frg equals the 3^s enumeration oracle to 1e-12, s <= 12, 7 x values."""
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(1, 13):
        for x in (0.34, 0.35, 0.37, 0.41, 0.45, 0.47, 0.499):
            exact = float(enumerate_fragmentation_probability(s, x))
            worst = max(worst, abs(fragmentation_probability(s, x) - exact))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report(1, ok, f"max |p_frg - enumeration| = {worst:.2e} "
                         f"(tolerance 1e-12), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_engine_decision_frequencies():
    """Conditional per-size decision frequencies match the exact probabilities."""
    t0 = time.perf_counter()
    config = SimConfig(n_agents=100, x=0.41, total_steps=1_000_000,
                       equilibration_steps=0, vote_mode=VoteMode.IID_UNIFORM, seed=1)
    state = init_state(config)
    by_size = defaultdict(Counter)
    for _ in range(config.total_steps):
        event = step(state)
        by_size[event.group_size][event.decision] += 1
    worst_z = 0.0
    n_sizes = 0
    exact_zero_ok = True
    for size, counter in by_size.items():
        n = sum(counter.values())
        if n < 1000:
            continue
        n_sizes += 1
        probs = decision_probabilities(size, config.x)
        for decision, p in zip(
            (Decision.BUY, Decision.SELL, Decision.MERGE, Decision.FRAGMENT),
            (probs.buy, probs.sell, probs.merge, probs.fragment),
        ):
            observed = counter.get(decision, 0)
            if p == 0.0:
                exact_zero_ok = exact_zero_ok and observed == 0
            else:
                worst_z = max(worst_z, abs(observed - n * p) / np.sqrt(n * p * (1 - p)))
    elapsed = time.perf_counter() - t0
    ok = worst_z < 3.0 and exact_zero_ok and n_sizes >= 5 and elapsed < 30.0
    assert report(2, ok, f"{n_sizes} sizes with >= 1000 observations, worst |z| = "
                         f"{worst_z:.2f} (< 3), impossible decisions seen: "
                         f"{not exact_zero_ok}, runtime {elapsed:.1f}s (< 30s)")


def test_criterion_3_stationary_equations_vs_oracle_and_simulation():
    """Rate-equation fixed point vs exact tiny-N chains and an N=100 run.

    Expected to FAIL: the factorised equations drop count correlations.
    """
    t0 = time.perf_counter()
    tiny_worst = 0.0
    tiny_detail = {}
    for n_agents in (2, 3, 4, 5, 6):
        gap_n = 0.0
        for x in (0.37, 0.41, 0.47):
            dist, rep = solve_stationary(n_agents, x)
            oracle = stationary_oracle(n_agents, x)
            assert rep.converged
            gap_n = max(gap_n, float(np.max(np.abs(dist.counts - oracle.counts))))
        tiny_detail[n_agents] = gap_n
        tiny_worst = max(tiny_worst, gap_n)
    tiny_ok = tiny_worst <= 1e-6

    config = SimConfig(n_agents=100, x=0.41, total_steps=11_000_000,
                       equilibration_steps=1_000_000,
                       vote_mode=VoteMode.IID_UNIFORM, seed=77)
    state = init_state(config)
    acc = np.zeros(101)
    samples = 0
    # sample after every step i >= equilibration_steps with i % 100 == 0
    for end in range(config.equilibration_steps + 1, config.total_steps + 1, 100):
        advance(state, end - state.step_index)
        for size, count in state.partition.size_histogram().items():
            acc[size] += count
        samples += 1
    averaged = acc / samples
    solved, _ = solve_stationary(100, 0.41)
    rel_worst = 0.0
    for s in range(1, 101):
        if max(averaged[s], solved.counts[s]) >= 0.1 and averaged[s] > 0:
            rel_worst = max(rel_worst, abs(solved.counts[s] - averaged[s]) / averaged[s])
    sim_ok = rel_worst <= 0.05
    elapsed = time.perf_counter() - t0

    detail = (
        f"tiny-N max gap {tiny_worst:.3f} vs 1e-6 (per N: "
        + ", ".join(f"N={n}: {g:.2e}" for n, g in tiny_detail.items())
        + f"); N=100 sim max relative gap {rel_worst:.1%} vs 5%; runtime {elapsed:.0f}s (< 300s). "
        "The factorised equations cannot carry the O(1) count fluctuations "
        "that fragmentation bursts create (coagulating cases N=2,4 and "
        "(5, x=0.37) agree exactly)."
    )
    assert report(3, tiny_ok and sim_ok and elapsed < 300, detail)


def test_criterion_4_ez_tail_anchor():
    """E-Z baseline: trade-size density exponent near 3/2."""
    t0 = time.perf_counter()
    returns, _ = ez_run(EzConfig(n_agents=DESK_N, a=0.01, total_steps=DESK_STEPS, seed=1))
    fit = fit_power_law(returns, r_min=FIT_R_MIN)
    elapsed = time.perf_counter() - t0
    ok = 1.3 <= fit.alpha_density <= 1.7 and elapsed < 60.0
    assert report(4, ok, f"alpha = {fit.alpha_density:.3f} +- {fit.stderr:.3f} "
                         f"(band [1.3, 1.7], r_min={FIT_R_MIN:g}, n_tail={fit.n_tail}), "
                         f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_5_limit_toward_ez():
    """Just above the no-fragmentation regime the tail approaches the E-Z law."""
    config = SimConfig(n_agents=DESK_N, x=0.335, total_steps=DESK_STEPS, seed=1)
    returns, _ = run(config)
    fit = fit_power_law(returns, r_min=FIT_R_MIN)
    ok = 1.2 <= fit.alpha_density <= 1.8
    assert report(5, ok, f"alpha = {fit.alpha_density:.3f} +- {fit.stderr:.3f} "
                         f"(band [1.2, 1.8], r_min={FIT_R_MIN:g}, n_tail={fit.n_tail}); "
                         "soft check: trading groups disperse in E-Z but stay "
                         "intact here, so only the tail statistic is compared")


def test_criterion_6_tail_steepening_and_cutoff_shape(desk_runs):
    """Tail mass falls with x; the x=0.47 tail should look exponential.

    Second clause expected to FAIL at the stated threshold: nothing reaches
    |r| = 50 at x=0.47 on a desk-scale run.
    """
    t0 = time.perf_counter()
    masses = {x: tail_mass(series, TAIL_THRESHOLD) for x, (series, _) in desk_runs.items()}
    ordered = masses[0.37] > masses[0.41] > masses[0.47]

    series_47 = desk_runs[0.47][0]
    biggest = float(np.max(np.abs(series_47)))
    try:
        shape = compare_tail_models(series_47, TAIL_THRESHOLD)
        shape_ok = shape["preferred"] == "exponential"
        shape_note = (f"beyond {TAIL_THRESHOLD:g}: exponential SSR "
                      f"{shape['exponential_ssr']:.2f} vs power {shape['power_ssr']:.2f}")
    except ValueError as exc:
        shape_ok = False
        fallback = compare_tail_models(series_47, 25.0)
        shape_note = (f"no data beyond {TAIL_THRESHOLD:g} (max |r| = {biggest:g}): {exc}; "
                      f"at threshold 25 the exponential is preferred "
                      f"({fallback['exponential_ssr']:.2f} vs {fallback['power_ssr']:.2f}), "
                      "which is the cutoff behaviour this clause targets")
    elapsed = time.perf_counter() - t0
    detail = (f"P(|r| >= {TAIL_THRESHOLD:g}) = " +
              ", ".join(f"{x}: {masses[x]:.2e}" for x in sorted(masses)) +
              f"; strictly decreasing: {ordered}; {shape_note}; "
              f"fixture+check runtime {elapsed:.0f}s")
    assert report(6, ordered and shape_ok, detail)


def test_criterion_7_trades_come_from_small_groups():
    """Trade provenance at x=0.41: small groups do (nearly) all the trading."""
    config = SimConfig(n_agents=DESK_N, x=0.41, total_steps=DESK_STEPS, seed=1)
    state = init_state(config)
    equil = config.equilibration_steps
    returns = np.zeros(config.total_steps - equil, dtype=np.int64)
    group_counts = Counter()
    # sample after every step i >= equil with i % 1000 == 0
    for end in range(equil + 1, config.total_steps + 1, 1000):
        advance(state, end - state.step_index, returns)
        for size, count in state.partition.size_histogram().items():
            group_counts[size] += count
    advance(state, config.total_steps - state.step_index, returns)
    # a trading group stays intact, so each nonzero return is +-(its size)
    trade_sizes = Counter(np.abs(returns[returns != 0]).tolist())
    total_groups = sum(group_counts.values())
    running = 0
    p99 = max(group_counts)
    for size in sorted(group_counts):
        running += group_counts[size]
        if running / total_groups >= 0.99:
            p99 = size
            break
    n_trades = sum(trade_sizes.values())
    below = sum(c for s, c in trade_sizes.items() if s < p99)
    small_frac = below / n_trades
    min_consensus = min(consensus_probability(s, config.x) for s in trade_sizes)
    ok = small_frac >= 0.90 and min_consensus >= 1e-6
    assert report(7, ok, f"{small_frac:.1%} of {n_trades} trades from groups below "
                         f"the 99th size percentile ({p99}); smallest consensus "
                         f"probability among trading sizes {min_consensus:.2e} (>= 1e-6)")


def test_criterion_8_trade_frequency(desk_runs):
    """Roughly every other step trades at x=0.37."""
    fraction = desk_runs[0.37][1].trade_fraction
    ok = 0.3 <= fraction <= 0.7
    assert report(8, ok, f"trade fraction {fraction:.3f} in [0.3, 0.7] at x=0.37")


def test_criterion_9_determinism_and_performance(tmp_path):
    """Byte-identical reruns, worker-count independence, desk run under 60s."""
    t0 = time.perf_counter()
    run(SimConfig(n_agents=DESK_N, x=0.41, total_steps=DESK_STEPS, seed=9))
    desk_seconds = time.perf_counter() - t0

    config = cli.apply_overrides(
        cli.default_config(),
        ["n_agents=400", "total_steps=8000", "x=0.41", "seed=5"],
    )
    import json
    dir_a = cli.execute_run(config, str(tmp_path / "a")).run_dir
    dir_b = cli.execute_run(config, str(tmp_path / "b")).run_dir
    digests_a = json.loads(Path(dir_a, "manifest.json").read_text())["artifacts"]
    digests_b = json.loads(Path(dir_b, "manifest.json").read_text())["artifacts"]
    identical = digests_a == digests_b

    sweep_args = ["sweep", "--x", "0.41,0.47", "--replicates", "1", "--set", "seed=3",
                  "--set", "n_agents=300", "--set", "total_steps=4000"]
    assert cli.main(sweep_args + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert cli.main(sweep_args + ["--workers", "2", "--out", str(tmp_path / "w2")]) == 0
    sweeps = []
    for d in ("w1", "w2"):
        records = json.loads((tmp_path / d / "sweep.json").read_text())["runs"]
        sweeps.append(sorted((r["x"], r["config_digest"]) for r in records))
    workers_same = sweeps[0] == sweeps[1]

    ok = identical and workers_same and desk_seconds < 60.0
    assert report(9, ok, f"desk run {desk_seconds:.1f}s (< 60s); rerun artifact digests "
                         f"identical: {identical}; sweep outputs worker-independent: "
                         f"{workers_same}")


def test_criterion_10_estimator_calibration():
    """3-SE coverage of the tail-exponent MLE across known exponents."""
    rng = np.random.default_rng(1234)
    trials, points = 1000, 1000
    rates = {}
    ok = True
    for alpha in (1.2, 1.5, 2.0, 2.5):
        hits = 0
        for _ in range(trials):
            sample = sample_pareto(alpha, points, rng)
            fit = fit_power_law(sample, r_min=1.0)
            if abs(fit.alpha_density - alpha) <= 3 * fit.stderr:
                hits += 1
        rates[alpha] = hits / trials
        ok = ok and rates[alpha] >= 0.95
    assert report(10, ok, "3-SE coverage over 1000 trials: " +
                  ", ".join(f"alpha={a}: {r:.1%}" for a, r in rates.items()) +
                  " (each >= 95%)")
