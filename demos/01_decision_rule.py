"""Walk through the group decision rule and its exact probabilities.

Shows how the consensus threshold T = x * s classifies vote tallies, how
the fragmentation probability p_frg(s) is validated against brute-force
enumeration, and how the probability that any option reaches consensus
dies off exponentially with group size - the mechanism that stops large
groups from trading.

Writes decision_probabilities.csv; saves a figure when matplotlib is
importable.
"""

import csv
import math

import numpy as np

from herdvote import (
    VoteTally,
    decide,
    enumerate_fragmentation_probability,
    fragmentation_probability,
)
from herdvote.voting import consensus_probability

rng = np.random.default_rng(0)

print("=== the decision rule ===")
for tally, x in [((3, 1, 1), 0.40), ((1, 1, 1), 0.40), ((1, 1, 3), 0.40), ((2, 2, 0), 0.40)]:
    t = x * sum(tally)  # T is never rounded
    outcome = decide(VoteTally(*tally), x, rng)
    print(f"  votes (buy, sell, wait) = {tally}, threshold {t:.2f}  ->  {outcome.name}")
print("  (the last tally is a tie: rerunning it flips between BUY and SELL)")

print("\n=== exact fragmentation probability vs brute force ===")
for s in (3, 6, 9, 12):
    exact = fragmentation_probability(s, 0.41)
    brute = enumerate_fragmentation_probability(s, 0.41)
    print(f"  s={s:3d}: closed form {exact:.12f}   enumeration {float(brute):.12f}  ({brute})")

print("\n=== outcome probabilities by group size (written to CSV) ===")
x_values = (0.35, 0.37, 0.41, 0.47)
sizes = sorted(set(list(range(1, 31)) + [40, 60, 100, 200, 400, 1000]))
with open("decision_probabilities.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["size"] + [f"p_frg_x{x}" for x in x_values])
    for s in sizes:
        writer.writerow([s] + [f"{fragmentation_probability(s, x):.10g}" for x in x_values])
print("  decision_probabilities.csv")

print("\n=== exponential cutoff of the consensus (trade) probability, x=0.47 ===")
print("  size   P(consensus)      log10")
for s in (50, 100, 200, 400, 800):
    p = consensus_probability(s, 0.47)
    print(f"  {s:5d}  {p:14.6e}  {math.log10(p):8.2f}")
print("  -> beyond a few hundred agents a group effectively never trades")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    grid = np.arange(1, 400)
    for x in x_values:
        ax1.plot(grid, [fragmentation_probability(int(s), x) for s in grid], label=f"x={x}")
        ax2.semilogy(grid, [max(consensus_probability(int(s), x), 1e-30) for s in grid], label=f"x={x}")
    ax1.set_xlabel("group size"), ax1.set_ylabel("P(fragment)"), ax1.legend()
    ax2.set_xlabel("group size"), ax2.set_ylabel("P(consensus)"), ax2.legend()
    fig.tight_layout()
    fig.savefig("decision_rule.png", dpi=120)
    print("\nsaved decision_rule.png")
except ImportError:
    print("\n(matplotlib not available; skipped the figure)")
