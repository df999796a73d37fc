import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from herdvote import config, meanfield
from herdvote.config import VoteMode
from herdvote.engine import SimConfig, advance, init_state
from herdvote.meanfield import (
    GroupSizeDistribution,
    SolverReport,
    _flows,
    _size_rates,
    _solve,
    balance_residual,
    solve_stationary,
    stationary_oracle,
    write_distribution,
)
from herdvote.voting import decision_probabilities
from oracles import damped_stationary, named_cases


def weighted_mass(dist):
    return float(np.arange(dist.n_agents + 1) @ dist.counts)


# -- distribution container ---------------------------------------------------

def test_distribution_validation():
    GroupSizeDistribution(3, [0.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        GroupSizeDistribution(3, [0.0, -1.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        GroupSizeDistribution(3, [0.0, 1.0, 1.0])
    # once built, to fail in the export (TypeError) or the residual (IndexError)
    with pytest.raises(ValueError, match="n_agents must be an integer, got 2.0"):
        GroupSizeDistribution(2.0, [0.0, 1.0, 0.0])


# -- balance residual ----------------------------------------------------------

def test_residual_conserves_mass_for_any_counts():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_agents = int(rng.integers(3, 40))
        counts = np.concatenate([[0.0], rng.random(n_agents) * 3])
        dist = GroupSizeDistribution(n_agents, counts)
        residual = balance_residual(dist, 0.41)
        total_flow = float(np.arange(n_agents + 1) @ residual)
        assert abs(total_flow) < 1e-10


def reference_residual(n_agents, counts, x):
    """The module docstring's balance, one term at a time; the merges of a
    size that holds no group add nothing and are skipped."""
    N, n = n_agents, np.asarray(counts, dtype=float).tolist()
    probs = [None] + [decision_probabilities(s, x) for s in range(1, N + 1)]
    residual = np.zeros(N + 1)
    for s in range(1, N + 1):
        fragments = s / N * probs[s].fragment * n[s]
        residual[s] -= fragments
        residual[1] += s * fragments
    for sp in range(1, N):
        if n[sp] == 0.0:
            continue
        for t in range(1, N - sp + 1):
            rate = (sp * n[sp] / N * probs[sp].merge
                    * t * max(n[t] - (1.0 if t == sp else 0.0), 0.0) / (N - sp))
            residual[sp] -= rate
            residual[t] -= rate
            residual[sp + t] += rate
    return residual


def test_residual_matches_term_by_term_balance():
    rng = np.random.default_rng(7)
    for n_agents in (2, 3, 4, 7, 12, 31, 60):
        for x in (0.34, 0.41, 0.47, 0.6, 0.9):
            # counts below 1 make the own-size exclusion clamp at zero
            counts = np.concatenate([[0.0], rng.random(n_agents) * rng.choice([0.5, 3.0])])
            counts[rng.random(n_agents + 1) < 0.2] = 0.0
            residual = balance_residual(GroupSizeDistribution(n_agents, counts), x)
            expected = reference_residual(n_agents, counts, x)
            np.testing.assert_allclose(residual, expected, rtol=1e-9, atol=1e-12)


def test_rate_table_equals_the_decision_probabilities():
    for x in (0.34, 0.41, 0.47):
        p_frg, p_merge = _size_rates(np.arange(1, 301), x)
        probs = [decision_probabilities(s, x) for s in range(1, 301)]
        assert p_frg.tolist() == [p.fragment for p in probs]
        assert p_merge.tolist() == [p.merge for p in probs]


def test_residual_evaluates_only_the_occupied_sizes(monkeypatch):
    """Work bound: at N = 10^5 the rates are taken for the support S = 256
    only, and every flow above min(2S, N) is exactly 0."""
    n_agents, support = 100_000, 256
    counts = np.zeros(n_agents + 1)
    counts[1:support + 1] = np.geomspace(1e3, 1e-6, support)
    seen = []

    def spy(sizes, x):
        seen.append(len(sizes))
        return _size_rates(sizes, x)

    monkeypatch.setattr(meanfield, "_size_rates", spy)
    residual = balance_residual(GroupSizeDistribution(n_agents, counts), 0.41)
    assert seen and max(seen) <= support
    assert residual.shape == (n_agents + 1,)
    assert np.all(residual[2 * support + 1:] == 0.0)
    assert np.any(residual[support + 1:2 * support + 1] != 0.0)
    assert abs(float(np.arange(n_agents + 1) @ residual)) < 1e-6


def test_residual_of_all_singletons():
    """Singletons only merge: they drain from size 1 into size 2."""
    n_agents = 12
    counts = np.zeros(n_agents + 1)
    counts[1] = n_agents
    residual = balance_residual(GroupSizeDistribution(n_agents, counts), 0.41)
    assert residual[1] < 0
    assert residual[2] > 0
    assert np.all(residual[3:] == 0)  # pair merges only reach size 2


# -- solver ---------------------------------------------------------------------

def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_stationary(1, 0.41)
    with pytest.raises(ValueError):
        solve_stationary(10, 0.2)
    with pytest.raises(ValueError):
        solve_stationary(10, 1.2)
    with pytest.raises(ValueError):
        solve_stationary(10, 0.41, tolerance=0.0)


def test_solver_refuses_counts_that_are_not_integers():
    """Once truncated: 6.7 agents solved N = 6, 2.5 sweeps ran, and a bool
    ran one sweep."""
    for kwargs, name in ((dict(n_agents=6.7), "n_agents"), (dict(n_agents=20.0), "n_agents"),
                         (dict(n_agents=20, max_iterations=2.5), "max_iterations"),
                         (dict(n_agents=20, max_iterations=True), "max_iterations")):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {kwargs[name]}"):
            solve_stationary(x=0.41, **kwargs)
    dist, report = solve_stationary(np.int64(20), 0.41, max_iterations=np.int32(50))
    assert type(dist.n_agents) is int and report == solve_stationary(20, 0.41, 1e-10, 50)[1]


def test_mixing_keeps_the_step_when_its_equations_are_singular():
    """A second `mix` of the same step and change makes the Gram matrix all
    zero, its ridge too (a multiple of its trace): the plain step is kept."""
    mixing = meanfield._Mixing(3)
    step, change = np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.25, 0.125])
    assert mixing.mix(step, change) is step
    assert mixing.mix(step, change) is step


def test_solver_is_deterministic():
    d1, r1 = solve_stationary(25, 0.45)
    d2, r2 = solve_stationary(25, 0.45)
    assert np.array_equal(d1.counts, d2.counts)
    assert r1 == r2


# PR 3's grid: every (N, x) pair with p_frg(N) > 0 is solved by both solvers.
GRID_N = (3, 4, 5, 6, 7, 8, 10, 17, 50, 100, 200)
GRID_X = (0.336, 0.34, 0.345, 0.35, 0.36, 0.41, 0.47, 0.6, 0.95)


def check_stationary(n_agents, x=None, rates=None, tolerance=1e-10, max_iterations=10_000,
                     converged=True, holds=None):
    """A solve, at x by `solve_stationary` or on the rate table `rates` by
    `_solve`, held to the balance it solves; `converged` is the flag
    expected and `holds` a predicate of the solve's (dist, report).

    The counts are finite and >= 0, with mass N within 1e-8.  Every count
    above `report.support` is exactly 0, and the one at it is positive where
    the solve converged.  The max-norm of the net flow under the rate table
    is `report.residual` exactly, and `converged` holds exactly when it is
    at most the tolerance.  For N <= 200, the term-by-term
    `reference_residual` agrees with that flow at every size."""
    if rates is None:
        dist, report = solve_stationary(n_agents, x, tolerance, max_iterations)
        rates = lambda sizes: _size_rates(sizes, x)
    else:
        dist, report = _solve(n_agents, rates, tolerance, max_iterations)
    counts, S = dist.counts, report.support
    assert np.all(np.isfinite(counts)) and np.all(counts >= 0.0)
    assert weighted_mass(dist) == pytest.approx(n_agents, abs=1e-8)
    assert np.all(counts[S + 1:] == 0.0) and (counts[S] > 0.0 or not report.converged)
    p_frg, p_merge = (np.r_[0.0, r] for r in rates(np.arange(1, S + 1)))
    inflow, rate = _flows(counts[:S + 1], p_frg, p_merge, n_agents)
    net = np.zeros(n_agents + 1)
    net[:len(inflow)] = inflow
    net[:S + 1] -= rate * counts[:S + 1]
    assert float(np.max(np.abs(net))) == report.residual
    assert report.converged == (report.residual <= tolerance) == converged
    if x is not None and n_agents <= 200:
        np.testing.assert_allclose(net, reference_residual(n_agents, counts, x),
                                   rtol=1e-9, atol=1e-12)
    assert holds is None or holds(dist, report), (n_agents, x)


def one_group(dist, report):
    """The whole population in one group, returned without a sweep."""
    N = dist.n_agents
    return (report == SolverReport(0, 0.0, True, N)
            and dist.counts[N] == 1.0 and not np.any(dist.counts[:N]))


def exports_every_size(dist, report):
    """The counts stop below N, and the export has a line per size 1..N all the same."""
    with tempfile.TemporaryDirectory() as tmp:
        write_distribution(path := Path(tmp, "dist.txt"), dist)
        return report.support < dist.n_agents and path.read_text().count("\n") == dist.n_agents


# Named cases of the solver, each collected under the name of the test it
# replaces: rows of the arguments of `check_stationary`.
STATIONARY_CASES = {
    "test_solver_fixed_point_has_zero_residual": [dict(n_agents=30, x=0.41)],
    "test_solver_converges_near_one_third": [dict(n_agents=200, x=0.34)],
    # decreasing beyond the first few sizes (exponential-cutoff regime)
    "test_solver_conservation_and_shape_at_n100": [dict(
        n_agents=100, x=0.40, holds=lambda dist, _: np.all(np.diff(dist.counts[3:40]) < 1e-12))],
    **{f"test_solution_lives_on_the_reported_support[{n}]": [
        dict(n_agents=n, x=0.41, holds=exports_every_size)] for n in (400, 10_000)},
    # when the full group can never fragment, everything ends in it, as in the exact chain
    "test_solver_coagulation_shortcut": [
        dict(n_agents=n, x=x, holds=lambda dist, report, x=x: one_group(dist, report) and
             np.allclose(stationary_oracle(dist.n_agents, x).counts, dist.counts, atol=1e-9))
        for n, x in ((2, 0.37), (2, 0.47), (4, 0.41), (5, 0.37))],
    # wherever p_frg(N) = 0, that is 3 (ceil(x N) - 1) < N, every flow of the
    # one-group state is exactly 0
    "test_one_group_state_has_zero_residual": [
        dict(n_agents=n, x=x, holds=one_group)
        for n in range(2, 301) for x in GRID_X if 3 * (math.ceil(x * n) - 1) < n],
    "test_solver_non_convergence_reported": [dict(
        n_agents=20, x=0.41, tolerance=1e-30, max_iterations=3, converged=False,
        holds=lambda _, report: report.iterations == 3)],
    # `_solve` takes any rate table: the E-Z baseline's (p_frg = a, p_merge =
    # (1 - a)(N - s)/(N - 1), here at a = 0.05) converges to a zero of the same flows
    "test_iteration_solves_another_rate_table": [dict(n_agents=300, rates=lambda sizes: (
        np.full(len(sizes), 0.05), 0.95 * (300 - sizes) / 299))],
}

named_cases(globals(), check_stationary, STATIONARY_CASES)


def test_one_group_solve_builds_no_rate_table(monkeypatch):
    """At N = 150001 near x = 1/3 the one-group state is returned without
    evaluating a flow or a rate."""
    monkeypatch.setattr(meanfield, "_flows", lambda *_: pytest.fail("evaluated the flows"))
    monkeypatch.setattr(meanfield, "_size_rates", lambda *_: pytest.fail("built a rate table"))
    n_agents = 150_001
    dist, report = solve_stationary(n_agents, 50_000.9 / n_agents)
    assert report == SolverReport(0, 0.0, True, n_agents)
    assert dist.counts[n_agents] == 1.0 and weighted_mass(dist) == n_agents


def test_solver_matches_the_damped_sweep_on_the_grid():
    """The bounded, mixed iteration reaches the fixed point of the plain
    damped sweep over all N sizes (`oracles.damped_stationary`).

    Run to a residual of 1e-13, the two agree within 1e-9.  At the default
    1e-10 the converged flags agree and the gap is at most 5e-8 plus the
    damped sweep's own distance from its 1e-13 result: near x = 1/3 the
    residual hardly sees the slow directions of the equations, and there
    the damped sweep at 1e-10 is itself up to 1.5e-7 from its tight result
    (N = 200, x = 0.36), so no bound below that can hold against it.
    """
    for n_agents in GRID_N:
        for x in GRID_X:
            if 3 * (math.ceil(x * n_agents) - 1) < n_agents:
                continue  # p_frg(N) = 0: the coagulation shortcut, tested below
            fast, fast_report = solve_stationary(n_agents, x, tolerance=1e-13)
            slow, slow_report = damped_stationary(n_agents, x, tolerance=1e-13)
            assert fast_report.converged and slow_report.converged
            assert np.max(np.abs(fast.counts - slow.counts)) <= 1e-9, (n_agents, x)

            fast_default, fast_report = solve_stationary(n_agents, x)
            slow_default, slow_report = damped_stationary(n_agents, x)
            assert fast_report.converged == slow_report.converged
            own_error = np.max(np.abs(slow_default.counts - slow.counts))
            gap = np.max(np.abs(fast_default.counts - slow_default.counts))
            assert gap <= 5e-8 + own_error, (n_agents, x)


@pytest.mark.parametrize("x, sweeps, support", [(0.41, 37, 256), (0.36, 58, 1024)])
def test_work_at_desk_n(x, sweeps, support):
    """Work guard: the sweeps and the support at N = 10^4, exactly.  The plain
    damped sweep over every size took 93 and 166 sweeps of 10^4 sizes; a
    lost acceleration or support bound shows here before any timing."""
    _, report = solve_stationary(10_000, x)
    assert report.converged
    assert (report.iterations, report.support) == (sweeps, support)


def test_support_limit_is_refused(monkeypatch):
    """A solve whose support would pass `config.SUPPORT_LIMIT` raises
    before it allocates the larger support.  Every N up to the limit solves,
    since the support never passes N."""
    assert config.SUPPORT_LIMIT >= 10_000
    monkeypatch.setattr(meanfield, "SUPPORT_LIMIT", 128)
    with pytest.raises(ValueError, match="support limit of 128"):
        solve_stationary(10_000, 0.41)
    _, report = solve_stationary(128, 0.36)
    assert report.converged and report.support == 128


# -- exact tiny-N oracle ----------------------------------------------------------

def test_oracle_two_agents():
    # p_frg(2) = 0 below x = 1/2, so the pair state absorbs everything
    for x in (0.37, 0.41, 0.47):
        oracle = stationary_oracle(2, x)
        assert np.allclose(oracle.counts, [0.0, 0.0, 1.0], atol=1e-12)


def test_oracle_three_agents_closed_form():
    """Three-state chain solved by hand.

    States A={1,1,1}, B={2,1}, C={3} with p_frg(2)=0, p_frg(3)=2/9:
    A->B at 1/3 (a singleton merges), B->C at 1/3 (either group joins the
    other), C->A at 2/9 (the triple fragments).  Balance gives stationary
    weights (2/7, 2/7, 3/7), hence expected counts
        n_1 = 3*2/7 + 1*2/7 = 8/7,  n_2 = 2/7,  n_3 = 3/7.
    The same numbers hold for any x in (1/3, 1/2): only p_frg(3) = 2/9 and
    p_frg(2) = 0 enter.
    """
    for x in (0.37, 0.41, 0.47):
        oracle = stationary_oracle(3, x)
        assert oracle.counts[1] == pytest.approx(8 / 7, abs=1e-12)
        assert oracle.counts[2] == pytest.approx(2 / 7, abs=1e-12)
        assert oracle.counts[3] == pytest.approx(3 / 7, abs=1e-12)


def test_oracle_mass_is_exact():
    for n_agents in (2, 3, 4, 5, 6, 7, 8):
        for x in (0.37, 0.47):
            oracle = stationary_oracle(n_agents, x)
            assert weighted_mass(oracle) == pytest.approx(n_agents, abs=1e-9)
            assert np.all(oracle.counts >= -1e-15)


def test_oracle_size_limit():
    with pytest.raises(ValueError):
        stationary_oracle(9, 0.41)
    with pytest.raises(ValueError):
        stationary_oracle(1, 0.41)
    with pytest.raises(ValueError, match="n_agents must be an integer, got 6.7"):
        stationary_oracle(6.7, 0.41)  # once truncated to N = 6


def test_oracle_matches_direct_simulation():
    """Dual route: exact chain solve vs time averages of the live engine."""
    n_agents, x = 5, 0.45
    oracle = stationary_oracle(n_agents, x)
    config = SimConfig(
        n_agents=n_agents, x=x, total_steps=400_000, equilibration_steps=20_000,
        vote_mode=VoteMode.IID_UNIFORM, seed=90210,
    )
    state = init_state(config)
    acc = np.zeros(n_agents + 1)
    samples = 0
    # sample after every step i >= equilibration_steps with i % 20 == 0
    for end in range(config.equilibration_steps + 1, config.total_steps + 1, 20):
        advance(state, end - state.step_index)
        for size, count in state.partition.size_histogram().items():
            acc[size] += count
        samples += 1
    averaged = acc / samples
    assert np.allclose(averaged, oracle.counts, atol=0.05)


def test_mean_field_gap_against_exact_chain_is_bounded():
    """Where fluctuations matter the rate equations sit near, not on, the chain.

    The equations factorise products of group counts, so the violent
    singleton bursts of fragmentation push the exact tiny-N marginals away
    from the fixed point; the observed gap is a few tenths of a group.
    """
    worst = 0.0
    for n_agents, x in ((3, 0.41), (5, 0.45), (6, 0.41)):
        dist, report = solve_stationary(n_agents, x)
        assert report.converged
        oracle = stationary_oracle(n_agents, x)
        worst = max(worst, float(np.max(np.abs(dist.counts - oracle.counts))))
    assert 0.05 < worst < 0.8


# -- export ----------------------------------------------------------------

def test_write_distribution(tmp_path):
    dist, _ = solve_stationary(6, 0.41)
    path = tmp_path / "dist.txt"
    write_distribution(path, dist)
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    sizes = [int(line.split()[0]) for line in lines]
    values = [float(line.split()[1]) for line in lines]
    assert sizes == [1, 2, 3, 4, 5, 6]
    assert values == pytest.approx(list(dist.counts[1:]), rel=1e-9)

