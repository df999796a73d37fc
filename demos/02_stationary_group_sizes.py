"""Stationary group-size distribution: rate equations vs exact chain vs run.

Solves the mean-field balance for the average number of groups of each
size, checks it against the exact Markov chain on tiny populations, and
against a live simulation at N=100.  The comparison makes the method's
blind spot visible: the equations factorise products of group counts, so
where fragmentation bursts drive large count fluctuations (tiny N, or the
sparse sizes at moderate N) the fixed point sits a few percent to a few
tenths away from the exact averages.

Writes stationary_n100.txt (two columns: size, n_s).
"""

import numpy as np

from herdvote import (
    SimConfig,
    VoteMode,
    advance,
    init_state,
    solve_stationary,
    stationary_oracle,
    write_distribution,
)

print("=== tiny populations: solver vs exact chain ===")
print("  (N=2 and N=4 coagulate into one unbreakable group: exact agreement;")
print("   N=3 keeps cycling through fragmentations: the factorised equations miss")
print("   the count correlations and sit visibly off the exact averages)")
for n_agents in (2, 3, 4, 6):
    dist, report = solve_stationary(n_agents, 0.41)
    oracle = stationary_oracle(n_agents, 0.41)
    gap = float(np.max(np.abs(dist.counts - oracle.counts)))
    print(f"  N={n_agents}: solver {np.round(dist.counts[1:], 4)}")
    print(f"        chain  {np.round(oracle.counts[1:], 4)}   max gap {gap:.2e}")

print("\n=== N=100, x=0.41: solver vs a 2e6-step simulation time-average ===")
dist, report = solve_stationary(100, 0.41)
print(f"  solver converged in {report.iterations} sweeps, residual {report.residual:.1e}")

config = SimConfig(n_agents=100, x=0.41, total_steps=2_000_000,
                   equilibration_steps=200_000, vote_mode=VoteMode.IID_UNIFORM, seed=5)
state = init_state(config)
acc = np.zeros(101)
samples = 0
# advance in chunks of 100 steps after the equilibration window, sampling between chunks
for end in range(config.equilibration_steps + 1, config.total_steps + 1, 100):
    advance(state, end - state.step_index)
    for size, count in state.partition.size_histogram().items():
        acc[size] += count
    samples += 1
averaged = acc / samples

print("  size   solver     simulation   rel.diff")
for s in range(1, 11):
    rel = abs(dist.counts[s] - averaged[s]) / averaged[s]
    print(f"  {s:4d}  {dist.counts[s]:9.4f}  {averaged[s]:11.4f}   {rel:7.2%}")
print("  (percent-level agreement on the well-populated sizes; the sparse sizes")
print("   carry the residual correlation corrections)")

write_distribution("stationary_n100.txt", dist)
print("\nwrote stationary_n100.txt")
