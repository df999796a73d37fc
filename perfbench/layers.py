"""Per-layer metrics derived from the tracer's reports.

Each metric is computed from one traced iteration (one or two tracer
reports); the run reports the median over its traced iterations.  A layer
that a workload does not reach reads 0.  The voting rule of the simulation
is inlined in `engine.step` and is part of `engine.step_us`; the `voting.*`
metrics cover `decision_probabilities`, which only the solver calls.
The metric names and units are those of BENCHMARK.json's `per_layer` list.
"""

from __future__ import annotations


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(reports: list) -> dict:
    """Per-layer values of one traced iteration from its tracer reports."""
    hot: dict = {}
    counters: dict = {}
    spans = []
    for rep in reports:
        for name, agg in rep["hot"].items():
            acc = hot.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
        for name, value in rep["counters"].items():
            counters[name] = counters.get(name, 0) + value
        by_id = {s["id"]: s for s in rep["spans"]}
        for s in rep["spans"]:
            parent = by_id.get(s["parent"])
            spans.append({**s, "dur": s["end"] - s["start"],
                          "parent_name": parent["name"] if parent else None})

    def calls(name):
        return hot.get(name, {}).get("calls", 0)

    def total(name):
        return hot.get(name, {}).get("total_s", 0.0)

    def span_sum(name, outside=None):
        return sum(s["dur"] for s in spans
                   if s["name"] == name and (outside is None or s["parent_name"] != outside))

    def hot_in(span_name, hot_name):
        return sum(s["hot"].get(hot_name, (0, 0.0))[1] for s in spans if s["name"] == span_name)

    # The manifest is written after the artifacts are digested; with the
    # digests it makes up cli.other_s, so it is no artifact write.
    writes = [s for s in spans if s["name"].startswith("write.") and s["file"] != "manifest.json"]
    reads = [s for s in spans if s["name"].startswith("read.")]
    run_writes = sum(s["dur"] for s in writes if s["parent_name"] == "cli.execute_run")
    simulate = span_sum("engine.run") + span_sum("ez.run")

    steps = calls("engine.step")
    ez_steps = calls("ez.ez_step")
    solve = [s for s in spans if s["name"] == "meanfield.solve"]
    sweeps = sum(s["sweeps"] for s in solve)
    solve_self = sum(s["self_s"] for s in solve)
    hits = counters.get("voting.pfrg_cache_hits", 0)
    misses = counters.get("voting.pfrg_cache_misses", 0)

    return {
        "engine.steps": steps,
        "engine.step_us": 1e6 * _ratio(total("engine.step"), steps),
        "engine.run_self_s": span_sum("engine.run") - hot_in("engine.run", "engine.step"),
        "engine.trade_ratio": _ratio(counters.get("engine.trades", 0), steps),
        "engine.decisions.buy": counters.get("engine.decisions.buy", 0),
        "engine.decisions.sell": counters.get("engine.decisions.sell", 0),
        "engine.decisions.merge": counters.get("engine.decisions.merge", 0),
        "engine.decisions.fragment": counters.get("engine.decisions.fragment", 0),
        "engine.mean_polled_size": _ratio(counters.get("engine.polled_agents", 0), steps),
        "engine.rescale_s": span_sum("engine.rescale"),
        "population.merge_calls": calls("population.merge"),
        "population.merge_us": 1e6 * _ratio(total("population.merge"), calls("population.merge")),
        "population.agents_moved": counters.get("population.agents_moved", 0),
        "population.fragment_calls": calls("population.fragment"),
        "population.fragment_us": 1e6 * _ratio(total("population.fragment"),
                                               calls("population.fragment")),
        "population.agents_fragmented": counters.get("population.agents_fragmented", 0),
        "population.step_share": _ratio(total("population.merge") + total("population.fragment"),
                                        total("engine.step") + total("ez.ez_step")),
        "strategy.assign_s": span_sum("strategy.assign"),
        "strategy.update_history_calls": calls("strategy.update_history"),
        "strategy.update_history_us": 1e6 * _ratio(total("strategy.update_history"),
                                                   calls("strategy.update_history")),
        "voting.decision_probabilities_calls": calls("voting.decision_probabilities"),
        "voting.decision_probabilities_s": total("voting.decision_probabilities"),
        "voting.pfrg_cache_hit_ratio": _ratio(hits, hits + misses),
        "meanfield.sweeps": sweeps,
        "meanfield.sweep_ms": 1e3 * _ratio(solve_self, sweeps),
        "meanfield.residual_calls": calls("meanfield.balance_residual"),
        "meanfield.residual_ms": 1e3 * _ratio(total("meanfield.balance_residual"),
                                              calls("meanfield.balance_residual")),
        "meanfield.term_updates": sum(s["sweeps"] * s["n_agents"] * (s["n_agents"] + 1) // 2
                                      for s in solve),
        "meanfield.final_residual": solve[-1]["residual"] if solve else 0.0,
        "ez.steps": ez_steps,
        "ez.step_us": 1e6 * _ratio(total("ez.ez_step"), ez_steps),
        "ez.run_self_s": span_sum("ez.run") - hot_in("ez.run", "ez.ez_step"),
        "ez.trade_ratio": _ratio(counters.get("ez.trades", 0), ez_steps),
        "analysis.points": sum(s["points"] for s in spans
                               if s["name"] == "analysis.ccdf"
                               and s["parent_name"] != "analysis.cutoff_scan"),
        "analysis.ccdf_ms": 1e3 * span_sum("analysis.ccdf", outside="analysis.cutoff_scan"),
        "analysis.pdf_ms": 1e3 * span_sum("analysis.pdf"),
        "analysis.fit_ms": 1e3 * span_sum("analysis.fit", outside="analysis.cutoff_scan"),
        "analysis.cutoff_scan_ms": 1e3 * span_sum("analysis.cutoff_scan"),
        "cli.simulate_s": simulate,
        "cli.write_s": sum(s["dur"] for s in writes),
        "cli.bytes_written": sum(s["bytes"] for s in writes),
        "cli.read_s": sum(s["dur"] for s in reads),
        "cli.bytes_read": sum(s["bytes"] for s in reads),
        "cli.other_s": span_sum("cli.execute_run") - simulate
        - span_sum("engine.rescale") - run_writes,
    }
