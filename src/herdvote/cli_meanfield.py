"""The `meanfield` command: the stationary group-size distribution for (N, x).

Imported by `cli` when `meanfield` is dispatched.  It writes the
distribution through `meanfield.write_distribution`, then prints and
writes (`cli._write_json`) its report: the call's `n_agents`, `x` and
`tolerance`, then every `meanfield.SolverReport` field.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from . import cli, meanfield
from .artifacts import ConfigError, publication


def main(args) -> int:
    """Run `meanfield` on parsed arguments; returns its exit code."""
    out = args.out or f"meanfield_N{args.n_agents}_x{args.x}.txt"
    report_path = out + ".report.json"
    with publication([out, report_path]) as stage:
        try:
            dist, report = meanfield.solve_stationary(
                args.n_agents, args.x, tolerance=args.tolerance,
                max_iterations=args.max_iterations,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        stage(out, lambda p: meanfield.write_distribution(p, dist))
        report_dict = {"n_agents": args.n_agents, "x": args.x, "tolerance": args.tolerance,
                       **dataclasses.asdict(report)}
        stage(report_path, lambda p: cli._write_json(p, report_dict))
    print(json.dumps(report_dict))
    if not report.converged:
        print(f"error: no convergence within {args.max_iterations} sweeps "
              f"(residual {report.residual:.3e})", file=sys.stderr)
        return cli.EXIT_NONCONVERGENCE
    return cli.EXIT_OK
