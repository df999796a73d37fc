"""Run one herdvote CLI command in-process with layer tracing switched on.

Usage: python3 perfbench/tracer.py TRACE_OUT.json CLI_ARG...

The wrappers are installed at run time around the public callables each
layer calls into; no file of the package changes.  Hot per-step calls
(engine step, partition merge/fragment, history update, decision
probabilities, balance residual, E-Z step) keep a call count, a summed time
and a summed self time (their time minus that of traced calls they made).
Coarse calls (run, rescale, write, read, solve, the fits) also get a full
span: name, start, end, parent, self time and the hot-call time spent
inside it.  Everything stays in memory and is written to TRACE_OUT.json
when the command returns; the process exits with the command's exit code.

The decision rule itself is inlined in `engine.step`, so from outside it is
timed only as part of the step.
"""

from __future__ import annotations

import json
import os
import sys
import time

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.t0 = clock()
        self.spans: list[dict] = []
        self.hot: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._child = [0.0]  # traced time of callees, one slot per open call
        self._open: list[dict] = []

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def hot_call(self, name, fn, before=None, after=None):
        """Wrap a per-step call: count and time it, keep no span."""
        agg = self.hot.setdefault(name, [0, 0.0, 0.0])
        child = self._child

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            child.append(0.0)
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            inner = child.pop()
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt - inner
            child[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def span_call(self, name, fn, attrs=None):
        """Wrap a coarse call: record a full span around each call."""
        child = self._child

        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = {"id": len(self.spans), "name": name,
                    "parent": parent["id"] if parent else None}
            self.spans.append(span)
            self._open.append(span)
            hot_before = {k: (v[0], v[1]) for k, v in self.hot.items()}
            child.append(0.0)
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            inner = child.pop()
            child[-1] += end - start
            self._open.pop()
            span["start"] = start - self.t0
            span["end"] = end - self.t0
            span["self_s"] = (end - start) - inner
            span["hot"] = {}  # hot calls made inside the span: [calls, seconds]
            for k, (calls, total, _) in self.hot.items():
                calls0, total0 = hot_before.get(k, (0, 0.0))
                if calls != calls0:
                    span["hot"][k] = [calls - calls0, total - total0]
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return wrapper

    def report(self, exit_code: int) -> dict:
        return {
            "exit_code": exit_code,
            "wall_s": clock() - self.t0,
            "spans": self.spans,
            "hot": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.hot.items()},
            "counters": self.counters,
        }


def _path_bytes(args, _result) -> dict:
    return {"file": os.path.basename(args[0]), "bytes": os.path.getsize(args[0])}


def install(tracer: Tracer):
    """Patch the layer entry points that the CLI reaches.

    Returns a function giving the fragmentation-probability cache's hits and
    misses since installation.
    """
    from herdvote import analysis, cli, engine, ez, meanfield, voting
    from herdvote.population import Partition

    T = tracer

    def on_step(_args, event):
        T.count(f"engine.decisions.{event.decision.name.lower()}")
        T.count("engine.polled_agents", event.group_size)
        if event.net_return:
            T.count("engine.trades")

    def on_merge(args):
        part, g1, g2 = args
        T.count("population.agents_moved", min(part.size_of(g1), part.size_of(g2)))

    def on_fragment(_args, former_size):
        if former_size > 1:
            T.count("population.agents_fragmented", former_size)

    def on_ez_step(_args, event):
        if event.net_return:
            T.count("ez.trades")

    engine.step = T.hot_call("engine.step", engine.step, after=on_step)
    Partition.merge = T.hot_call("population.merge", Partition.merge, before=on_merge)
    Partition.fragment = T.hot_call("population.fragment", Partition.fragment, after=on_fragment)
    engine.update_history = T.hot_call("strategy.update_history", engine.update_history)
    meanfield.decision_probabilities = T.hot_call(
        "voting.decision_probabilities", meanfield.decision_probabilities)
    meanfield.balance_residual = T.hot_call("meanfield.balance_residual", meanfield.balance_residual)
    ez.ez_step = T.hot_call("ez.ez_step", ez.ez_step, after=on_ez_step)

    engine.assign_strategies = T.span_call("strategy.assign", engine.assign_strategies)
    cli.execute_run = T.span_call("cli.execute_run", cli.execute_run)
    engine.run = T.span_call("engine.run", engine.run)
    cli.ez_run = T.span_call("ez.run", cli.ez_run)
    engine.rescale_returns = T.span_call("engine.rescale", engine.rescale_returns)
    for module, fn_name in ((engine, "write_returns_text"), (engine, "write_returns_binary"),
                            (cli, "_write_text"), (cli, "_write_json"),
                            (cli, "_write_histogram"), (cli, "_write_csv"),
                            (meanfield, "write_distribution")):
        setattr(module, fn_name,
                T.span_call(f"write.{fn_name.lstrip('_')}", getattr(module, fn_name), _path_bytes))
    engine.read_returns_text = T.span_call("read.returns_text", engine.read_returns_text, _path_bytes)
    meanfield.solve_stationary = T.span_call(
        "meanfield.solve", meanfield.solve_stationary,
        lambda args, result: {"n_agents": int(args[0]), "sweeps": result[1].iterations,
                              "residual": result[1].residual})
    analysis.ccdf = T.span_call(
        "analysis.ccdf", analysis.ccdf, lambda args, _r: {"points": len(args[0])})
    analysis.log_binned_pdf = T.span_call("analysis.pdf", analysis.log_binned_pdf)
    analysis.fit_power_law = T.span_call("analysis.fit", analysis.fit_power_law)
    analysis.cutoff_scan = T.span_call("analysis.cutoff_scan", analysis.cutoff_scan)

    cache = voting._fragmentation_probability_cached
    start = cache.cache_info()

    def cache_counts():
        info = cache.cache_info()
        return {"voting.pfrg_cache_hits": info.hits - start.hits,
                "voting.pfrg_cache_misses": info.misses - start.misses}

    return cache_counts


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_OUT.json CLI_ARG...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    from herdvote import cli

    cache_counts = install(tracer)
    code = tracer.span_call("cli.main", cli.main)(cli_args)
    tracer.counters.update(cache_counts())
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
