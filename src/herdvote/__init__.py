"""Consensus-threshold herding market model.

Agents form groups that merge and fragment; a polled group votes buy, sell
or wait, acts when the most popular option clears the threshold x * size,
and fragments otherwise.  Trades of a group of size s move the price by
+/- s, producing heavy-tailed return series whose tails steepen into an
exponential cutoff as the consensus parameter x rises above one third.

Subpackages: `config` (run parameters), `population` (partition data
structure), `voting` (decision rule and exact probabilities), `engine`
(a run's state, its streams and strategy tables, and the simulation
loop), `ez` (the Eguiluz-Zimmermann baseline's names for the engine's
`run` and `step`), `meanfield` (stationary group-size equations),
`series` (return-series files), `analysis` (tail statistics), `cli`
(command-line interface; the bodies of `sweep`, `meanfield`,
`analyze` and `validate` are `cli_sweep`, `cli_meanfield`, `cli_analyze`
and `cli_validate`, each imported when its command runs).

The names below resolve on first access (PEP 562), so `import herdvote`
loads no subpackage and a command loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it defines
    "analysis": (
        "CcdfCurve", "TailFit", "ccdf", "compare_tail_models", "cutoff_scan",
        "fit_power_law", "log_binned_pdf", "sample_pareto", "tail_mass",
    ),
    "config": ("EzConfig", "SimConfig", "VoteMode"),
    "engine": (
        "RunSummary", "StepEvent", "advance", "assign_strategies", "history_index",
        "init_state", "run", "step", "update_history",
    ),
    "ez": ("ez_run", "ez_step"),
    "meanfield": (
        "GroupSizeDistribution", "SolverReport", "balance_residual", "solve_stationary",
        "stationary_oracle", "write_distribution",
    ),
    "population": ("Partition",),
    "series": (
        "read_returns_binary", "read_returns_text", "rescale_returns",
        "write_returns_binary", "write_returns_text",
    ),
    "voting": (
        "Decision", "DecisionProbabilities", "VoteTally",
        "consensus_probability", "decide", "decision_probabilities",
        "enumerate_fragmentation_probability", "fragmentation_probability",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's home module on first access, then keep the name."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS or name == "cli":
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS, "cli"})
