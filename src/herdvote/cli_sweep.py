"""The `sweep` command: a grid of runs over x / population size / replicates.

Imported by `cli` when `sweep` is dispatched.  Every grid point is one
`cli.execute_run` with a seed derived from the base config's seed, its
grid coordinates and its replicate (`derive_seed`), so neither the grid
order nor the worker count changes any output.  The grid's manifest,
`sweep.json`, is written through `cli._write_json`.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys

from . import __version__, cli
from .artifacts import ConfigError, publication


def derive_seed(master_seed: int, x: float | None, n_agents: int, replicate: int) -> int:
    """Stable per-grid-point seed; independent of grid order and worker count.

    `x` is None for the E-Z model, which reads no x.
    """
    coordinates = f"{n_agents}" if x is None else f"{x!r}:{n_agents}"
    tag = f"herdvote-sweep:{master_seed}:{coordinates}:{replicate}"
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")


def _sweep_point(payload) -> dict:
    config, record, out_root = payload
    try:
        result = cli.execute_run(config, out_root)
        record.update(status="ok", run_dir=result.run_dir, config_digest=result.config_digest)
    except Exception as exc:  # isolate failures per grid point
        record.update(status="error", error=str(exc))
    return record


def _refusal(config) -> ConfigError | None:
    """What `cli._resolve` refuses in a grid point's config, if anything."""
    try:
        cli._resolve(config)
    except ConfigError as exc:
        return exc
    return None


def _grid_values(text, parse, default) -> list:
    """Comma-separated grid values in first-seen order, repeats dropped.

    A repeated value would give two grid points one config, hence one run
    directory written by two workers at once.  A value that does not parse,
    or a float that is not finite, is refused before any run starts.
    """
    if not text:
        return [default]
    try:
        values = list(dict.fromkeys(parse(v) for v in text.split(",")))
    except ValueError:
        raise ConfigError(f"bad grid values {text!r}")
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ConfigError(f"bad grid values {text!r}: every value must be finite")
    return values


def main(args) -> int:
    """Run `sweep` on parsed arguments; returns its exit code."""
    base = cli._load_config_arg(args)
    ez = base["model"] == "ez"
    if args.x and ez:
        raise ConfigError("--x sets the voting model's consensus parameter; model 'ez' has no x")
    xs = [None] if ez else _grid_values(args.x, float, base["x"])
    ns = _grid_values(args.n_agents, int, base["n_agents"])
    if not xs or not ns or args.replicates < 1:
        raise ConfigError("sweep grid is empty")
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    master_seed = base["seed"]
    points = []
    for x in xs:
        for n in ns:
            for rep in range(args.replicates):
                # each record holds the grid keys its model reads, and its seed
                record = {"n_agents": n, "seed": derive_seed(master_seed, x, n, rep)}
                if x is not None:
                    record["x"] = x
                points.append(({**base, **record}, record, args.out))
    # a grid no point of which resolves is refused whole, before any point
    # runs; a point that fails with others runnable is its own error record
    refusals = [_refusal(config) for config, _, _ in points]
    if all(refusals):
        raise refusals[0]

    # a pool may start all its workers on the first task (it does with the
    # fork start method), so it gets no more than the grid or the CPUs can use
    workers = min(args.workers, len(points), os.cpu_count() or 1)
    sweep_path = os.path.join(args.out, "sweep.json")
    with publication([sweep_path]) as stage:
        if workers == 1:
            records = [_sweep_point(p) for p in points]
        else:
            # imported here: it pulls in multiprocessing, which only a parallel sweep uses
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(_sweep_point, points))
        manifest = {
            "schema_version": cli.SCHEMA_VERSION,
            "package_version": __version__,
            "master_seed": master_seed,
            **({} if ez else {"x_values": xs}),
            "n_agents_values": ns,
            "replicates": args.replicates,
            "runs": records,
        }
        stage(sweep_path, lambda p: cli._write_json(p, manifest))
    failures = [r for r in records if r["status"] != "ok"]
    for r in failures:
        point = " ".join(f"{k}={r[k]}" for k in ("x", "n_agents") if k in r)
        print(f"error: grid point {point}: {r['error']}", file=sys.stderr)
    print(sweep_path)
    return cli.EXIT_CONFIG if failures else cli.EXIT_OK
