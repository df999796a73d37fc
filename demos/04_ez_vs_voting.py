"""The Eguiluz-Zimmermann baseline against the voting model's limit.

E-Z herding (merge, or trade-and-disperse with probability a) produces the
classic trade-size power law with density exponent 3/2.  Dropping the
voting model's consensus parameter toward one third removes fragmentation
for all but enormous groups, and its return tail flattens toward the same
law - even though the two dynamics differ in kind (E-Z trading groups
disperse, voting-model trading groups stay intact).

Takes a few seconds.
"""

import numpy as np

from herdvote import EzConfig, SimConfig, ez_run, fit_power_law, run

print("=== E-Z baseline: N=10^4, a=0.01, 10^6 steps ===")
ez_returns, ez_summary = ez_run(EzConfig(n_agents=10_000, a=0.01, total_steps=1_000_000, seed=1))
print(f"  trade fraction {ez_summary.trade_fraction:.4f} (the trade probability a)")
for r_min in (10.0, 50.0):
    fit = fit_power_law(ez_returns, r_min=r_min)
    print(f"  tail above {r_min:4.0f}: density exponent {fit.alpha_density:.3f} "
          f"+- {fit.stderr:.3f}  (n_tail={fit.n_tail})")
print("  -> the 3/2 herding law")

print("\n=== voting model at x=0.335 (just above the no-fragmentation regime) ===")
returns, summary = run(SimConfig(n_agents=10_000, x=0.335, total_steps=1_000_000, seed=1))
print(f"  trade fraction {summary.trade_fraction:.3f}")
biggest = int(np.max(np.abs(returns)))
print(f"  largest single trade: {biggest} agents moving at once")
fit = fit_power_law(returns, r_min=50.0)
print(f"  tail above 50: density exponent {fit.alpha_density:.3f} +- {fit.stderr:.3f} "
      f"(n_tail={fit.n_tail})")
print("  -> approaches the E-Z exponent; the comparison is tail-only, the")
print("     microscopic dynamics remain different")
