import numpy as np
import pytest

from herdvote.engine import SimConfig, init_state, step
from herdvote.meanfield import (
    GroupSizeDistribution,
    balance_residual,
    solve_stationary,
    stationary_oracle,
    write_distribution,
)
from herdvote.strategy import VoteMode
from herdvote.voting import decision_probabilities


def weighted_mass(dist):
    return float(np.arange(dist.n_agents + 1) @ dist.counts)


# -- distribution container ---------------------------------------------------

def test_distribution_validation():
    GroupSizeDistribution(3, [0.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        GroupSizeDistribution(3, [0.0, -1.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        GroupSizeDistribution(3, [0.0, 1.0, 1.0])


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
    """The module docstring's balance, one term at a time."""
    N, n = n_agents, counts
    probs = [None] + [decision_probabilities(s, x) for s in range(1, N + 1)]
    residual = np.zeros(N + 1)
    for s in range(1, N + 1):
        fragments = s / N * probs[s].fragment * n[s]
        residual[s] -= fragments
        residual[1] += s * fragments
    for sp in range(1, N):
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


def test_residual_of_all_singletons():
    """Singletons only merge: they drain from size 1 into size 2."""
    n_agents = 12
    counts = np.zeros(n_agents + 1)
    counts[1] = n_agents
    residual = balance_residual(GroupSizeDistribution(n_agents, counts), 0.41)
    assert residual[1] < 0
    assert residual[2] > 0
    assert np.all(residual[3:] == 0)  # pair merges only reach size 2


def test_solver_fixed_point_has_zero_residual():
    dist, report = solve_stationary(30, 0.41, tolerance=1e-10)
    assert report.converged
    residual = balance_residual(dist, 0.41)
    assert float(np.max(np.abs(residual))) <= 1e-10


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


def test_solver_non_convergence_reported():
    dist, report = solve_stationary(20, 0.41, tolerance=1e-30, max_iterations=3)
    assert not report.converged
    assert report.iterations == 3
    assert weighted_mass(dist) == pytest.approx(20.0, abs=1e-8)


def test_solver_is_deterministic():
    d1, r1 = solve_stationary(25, 0.45)
    d2, r2 = solve_stationary(25, 0.45)
    assert np.array_equal(d1.counts, d2.counts)
    assert r1 == r2


def test_solver_converges_near_one_third():
    """Close to x = 1/3 at N=200 the fixed point is reached, finite, at mass N."""
    dist, report = solve_stationary(200, 0.34)
    assert report.converged
    assert np.all(np.isfinite(dist.counts))
    assert weighted_mass(dist) == pytest.approx(200.0, abs=1e-8)
    assert np.max(np.abs(reference_residual(200, dist.counts, 0.34))) <= 1e-9


def test_solver_conservation_and_shape_at_n100():
    dist, report = solve_stationary(100, 0.40)
    assert report.converged
    assert weighted_mass(dist) == pytest.approx(100.0, abs=1e-8)
    counts = dist.counts
    # decreasing beyond the first few sizes (exponential-cutoff regime)
    tail = counts[3:40]
    assert np.all(np.diff(tail) < 1e-12)


def test_solver_coagulation_shortcut():
    """When the full group can never fragment everything ends in one group."""
    for n_agents, x in ((2, 0.37), (2, 0.47), (4, 0.41), (5, 0.37)):
        dist, report = solve_stationary(n_agents, x)
        assert report.converged
        expected = np.zeros(n_agents + 1)
        expected[n_agents] = 1.0
        assert np.allclose(dist.counts, expected, atol=1e-12)
        oracle = stationary_oracle(n_agents, x)
        assert np.allclose(oracle.counts, expected, atol=1e-9)


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


def test_oracle_matches_direct_simulation():
    """Dual route: exact chain solve vs time averages of the live engine."""
    n_agents, x = 5, 0.45
    oracle = stationary_oracle(n_agents, x)
    config = SimConfig(
        n_agents=n_agents, x=x, total_steps=400_000, equilibration_steps=20_000,
        vote_mode=VoteMode.IID_UNIFORM, seed=90210,
    )
    state, rng = init_state(config)
    acc = np.zeros(n_agents + 1)
    samples = 0
    for i in range(config.total_steps):
        step(state, rng)
        if i >= config.equilibration_steps and i % 20 == 0:
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

