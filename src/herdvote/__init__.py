"""Consensus-threshold herding market model.

Agents form groups that merge and fragment; a polled group votes buy, sell
or wait, acts when the most popular option clears the threshold x * size,
and fragments otherwise.  Trades of a group of size s move the price by
+/- s, producing heavy-tailed return series whose tails steepen into an
exponential cutoff as the consensus parameter x rises above one third.

Subpackages: `population` (partition data structure), `voting` (decision
rule and exact probabilities), `strategy` (history and strategy tables),
`engine` (simulation loop), `ez` (Eguiluz-Zimmermann baseline), `meanfield`
(stationary group-size equations), `analysis` (tail statistics), `cli`
(command-line interface).
"""

from .analysis import (
    CcdfCurve,
    TailFit,
    ccdf,
    compare_tail_models,
    cutoff_scan,
    fit_power_law,
    log_binned_pdf,
    sample_pareto,
    tail_mass,
)
from .engine import (
    RunSummary,
    SimConfig,
    StepEvent,
    advance,
    init_state,
    read_returns_binary,
    read_returns_text,
    rescale_returns,
    run,
    step,
    write_returns_binary,
    write_returns_text,
)
from .ez import EzConfig, ez_run, ez_step, init_ez_state
from .meanfield import (
    GroupSizeDistribution,
    SolverReport,
    balance_residual,
    solve_stationary,
    stationary_oracle,
    write_distribution,
)
from .population import Partition
from .strategy import (
    VoteMode,
    assign_strategies,
    history_index,
    poll_group,
    update_history,
)
from .voting import (
    ConsensusParameter,
    Decision,
    DecisionProbabilities,
    VoteTally,
    consensus_probability,
    consensus_threshold,
    decide,
    decision_probabilities,
    enumerate_fragmentation_probability,
    fragmentation_probability,
)

__version__ = "0.1.0"
