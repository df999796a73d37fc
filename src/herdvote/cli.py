"""Command-line interface: reproducible runs, sweeps, solving and analysis.

Subcommands
    run        one simulation (voting model or the E-Z baseline), artifacts
               written to a directory content-addressed by the config digest
    sweep      a grid of runs over x / population size / replicates, with
               per-point seeds derived from the base config's seed; grid
               points execute in parallel without affecting any output
    meanfield  stationary group-size distribution for (N, x)
    analyze    tail statistics (CCDF, binned density, power-law fits) for
               existing run directories plus a cross-x comparison table
               with one row per directory, of returns summed over
               windows of --rescale-k steps; each run's config.txt and
               returns_raw.bin are checked against its manifest digests
    validate   fast self-checks of the exact math against brute-force
               oracles; nonzero exit when anything disagrees

Config files are plain "key = value" text (LF, UTF-8, '#' comments), each
key set at most once.  The keys, in echo order, with their defaults (set
by `config.SimConfig` and `config.EzConfig`; a test keeps this table equal
to `default_config()`):

    schema_version      = 3           # 3: a run echoes only its model's keys
    model               = main        # main | ez
    n_agents            = 10000
    x                   = 0.37
    total_steps         = 1000000
    equilibration_steps = auto        # auto = 10% of total_steps
    memory_m            = 2           # n_agents * 2**memory_m <= 2**24
    initial_history     = 1,1
    vote_mode           = strategy    # strategy | iid
    seed                = 1           # >= 0
    ez_a                = 0.01        # E-Z trade probability (model = ez)

`--set key=value` overrides any file value.  A run echoes `schema_version`,
`model` and its model's keys (E-Z drops x, memory_m, initial_history and
vote_mode, the voting model ez_a); the SHA-256 of the echo names its run
directory, so a run can always be reproduced byte for byte.

Exit codes: 0 success, 2 usage error, 3 config/input error (one "error:"
line; an allocation the machine refuses is one too), 4 validation failure,
5 solver non-convergence.  The options and config keys are all the
settings there are: no environment variable changes what a command does,
and `sweep` takes its master seed from the base config's `seed`.

Every file a command writes goes through `artifacts.publication`: its
output paths are checked before any work, and its files are staged and
moved into place together, so an error leaves every output as it was.
This module holds the file formats (the `_write_*` writers and the config
text) and each command's policy: which files it writes, and `run`'s
append-only digest check on a rerun.

Each subcommand imports only the layers it runs, inside the function that
runs them: the simulator (`engine`, `ez`) on the run path, `analysis` in
`analyze` and `validate`, `meanfield` in `meanfield` and `validate`.  At
module level this file needs only `config` and `artifacts`, and no NumPy,
so `--help`, `--version`, usage errors and a refusal made before a layer
loads cost no NumPy import, and neither does `analyze`, whose layers
(`series`, `analysis`) are standard library only.  The run path
calls the simulator and the series writer as `engine.<name>`, so a caller
that replaces such an attribute replaces the call.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Iterator
from typing import NamedTuple

from . import __version__
from .artifacts import ConfigError, publication, read_verified, recorded_digests, sha256_file
from .config import EzConfig, RunConfig, SimConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_VALIDATION = 4
EXIT_NONCONVERGENCE = 5

SCHEMA_VERSION = 3


# -- config file handling --------------------------------------------------

def _schema(version: int) -> int:
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version {version} is not supported (supported: {SCHEMA_VERSION})")
    return version


def _parse_history(text: str) -> tuple:
    try:
        return tuple(int(b) for b in text.split(","))
    except ValueError:
        raise ConfigError(f"initial_history must be comma-separated bits, got {text!r}")


def _parse_equilibration(text: str):
    if text == "auto":
        return None
    return int(text)


# The file format: key -> (from-string, to-string), in the order of the
# canonical echo.  Defaults and checks belong to the model dataclasses; the
# schema is checked as read, so another schema's file fails before its keys.
_CONFIG_SPEC = {
    "schema_version": (lambda text: _schema(int(text)), str),
    "model": (str, str),
    "n_agents": (int, str),
    "x": (float, repr),
    "total_steps": (int, str),
    "equilibration_steps": (_parse_equilibration, lambda v: "auto" if v is None else str(v)),
    "memory_m": (int, str),
    "initial_history": (_parse_history, lambda v: ",".join(str(b) for b in v)),
    "vote_mode": (str, lambda v: getattr(v, "value", v)),  # str() of a VoteMode is its name
    "seed": (int, str),
    "ez_a": (float, repr),
}
_FIELD_OF = {"memory_m": "memory", "ez_a": "a"}  # config keys named unlike their field
_MODELS = {"main": SimConfig, "ez": EzConfig}


def default_config() -> dict:
    defaults = {f.name: f.default for cls in _MODELS.values() for f in dataclasses.fields(cls)}
    config = {key: defaults.get(_FIELD_OF.get(key, key)) for key in _CONFIG_SPEC}
    return {**config, "schema_version": SCHEMA_VERSION, "model": "main"}


def _parse_value(key: str, text: str, where: str = ""):
    if key not in _CONFIG_SPEC:
        raise ConfigError(f"{where}unknown config key {key!r}")
    try:
        return _CONFIG_SPEC[key][0](text)
    except (ValueError, TypeError):
        raise ConfigError(f"{where}bad value for {key!r}: {text!r}")


def parse_config_text(text: str) -> dict:
    values, line_of = {}, {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in line_of:
            raise ConfigError(f"line {line_no}: {key!r} is set twice, on lines "
                              f"{line_of[key]} and {line_no}")
        line_of[key] = line_no
        values[key] = _parse_value(key, value, f"line {line_no}: ")
    return values


def _parse_config_bytes(data: bytes) -> dict:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_config_text(text)


def apply_overrides(config: dict, overrides) -> dict:
    config = dict(config)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        config[key.strip()] = _parse_value(key.strip(), value.strip())
    return config


def resolve_config(config: dict) -> dict:
    """Validate and fill derived fields; returns the canonical dict."""
    return _resolve(config)[0]


def _resolve(config: dict) -> tuple[dict, RunConfig]:
    """The canonical dict, of the keys its model reads, and that model's dataclass."""
    _schema(config["schema_version"])
    cls = _MODELS.get(config["model"])
    if cls is None:
        raise ConfigError(f"model must be 'main' or 'ez', got {config['model']!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    own = {key: value for key, value in config.items() if _FIELD_OF.get(key, key) in names}
    try:
        sim_config = cls(**{_FIELD_OF.get(key, key): value for key, value in own.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return {"schema_version": config["schema_version"], "model": config["model"], **own,
            "equilibration_steps": sim_config.equilibration_steps}, sim_config


def _formatted(config: dict) -> dict:
    return {key: fmt(config[key]) for key, (_, fmt) in _CONFIG_SPEC.items() if key in config}


def config_text(config: dict) -> str:
    """Canonical echo: fixed key order, one 'key = value' per line."""
    return "".join(f"{key} = {value}\n" for key, value in _formatted(config).items())


def config_digest(config: dict) -> str:
    return hashlib.sha256(config_text(config).encode()).hexdigest()


def regime_warnings(config: dict) -> list:
    """Where a voting-model x lies outside the relative-majority regime.

    At x <= 1/3 no group can fragment: three counts summing to s cannot all
    stay below s/3.  Above 1/2 the winning option needs an absolute majority.
    """
    if config["model"] != "main":
        return []
    x = config["x"]
    if x <= 1 / 3:
        return [f"x={x} is in the no-fragmentation regime (x <= 1/3): groups only grow"]
    if x > 0.5:
        return [f"x={x} is in the absolute-majority regime (x > 1/2)"]
    return []


# -- run artifacts ----------------------------------------------------------

class RunResult(NamedTuple):
    run_dir: str
    config_digest: str
    warnings: list


def ez_run(config: EzConfig):
    """`ez.ez_run`, imported when called: only an E-Z run loads `ez`."""
    from . import ez

    return ez.ez_run(config)


def execute_run(config: dict, out_root: str) -> RunResult:
    """Simulate per `config` and publish its artifacts in its run directory.

    The directory name is the config digest.  Directories are append-only:
    every file is staged and digested first, and a file that exists with
    another digest, or a manifest that records other digests, is refused
    with nothing published.  Otherwise a missing file is restored, a
    verified one is replaced by its byte-identical staged copy, and a
    verified manifest is left as it was.  Returns the directory, the
    resolved config's digest and its regime warnings.
    """
    from . import engine  # the simulator loads on the run path only

    config, sim_config = _resolve(config)
    digest = config_digest(config)
    run_dir = os.path.join(out_root, digest[:12])
    result = RunResult(run_dir, digest, regime_warnings(config))
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    path = {name: os.path.join(run_dir, name) for name in (
        "config.txt", "returns_raw.bin", "size_histogram.csv", "summary.json", "manifest.json")}

    with publication(path.values()) as stage:
        returns, summary = (ez_run if config["model"] == "ez" else engine.run)(sim_config)
        artifacts = {}
        for name, write in (
            ("config.txt", lambda p: _write_text(p, config_text(config))),
            ("returns_raw.bin", lambda p: engine.write_returns_binary(p, returns)),
            ("size_histogram.csv", lambda p: _write_histogram(p, summary.final_size_histogram)),
            ("summary.json", lambda p: _write_json(p, _summary_dict(summary))),
        ):
            artifacts[name] = fresh = sha256_file(stage(path[name], write))
            if os.path.exists(path[name]) and (existing := sha256_file(path[name])) != fresh:
                raise ConfigError(f"refusing to overwrite {path[name]}: existing digest "
                                  f"{existing[:12]} differs from recomputed {fresh[:12]}")
        if not os.path.exists(path["manifest.json"]):
            manifest = {
                "schema_version": SCHEMA_VERSION,
                "package_version": __version__,
                "config": _formatted(config),
                "config_digest": digest,
                "seed": config["seed"],
                "warnings": result.warnings,
                "started_utc": started,
                "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "wall_time_s": time.perf_counter() - t0,
                "artifacts": artifacts,
            }
            stage(path["manifest.json"], lambda p: _write_json(p, manifest))
        elif recorded_digests(path["manifest.json"]) != artifacts:
            raise ConfigError(f"refusing to overwrite {path['manifest.json']}: its artifact "
                              f"digests differ from the verified artifacts")
    return result


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_histogram(path, histogram: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("size,count\n")
        for size in sorted(histogram):
            fh.write(f"{size},{histogram[size]}\n")


def _summary_dict(summary) -> dict:
    # wall time is reported in the manifest; the digested artifacts must be
    # byte-identical across reruns
    return {
        "n_agents": summary.n_agents,
        "total_steps": summary.total_steps,
        "recorded_steps": summary.recorded_steps,
        "decision_counts": summary.decision_counts,
        "trade_fraction": summary.trade_fraction,
        "final_size_histogram": {str(k): v for k, v in summary.final_size_histogram.items()},
    }


# -- subcommands -------------------------------------------------------------

def _load_config_arg(args) -> dict:
    config = default_config()
    if args.config:
        try:
            with open(args.config, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc.strerror}") from None
        try:
            config.update(_parse_config_bytes(data))
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    return apply_overrides(config, args.set)


def cmd_run(args) -> int:
    result = execute_run(_load_config_arg(args), args.out)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(result.run_dir)
    return EXIT_OK


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
        result = execute_run(config, out_root)
        record.update(status="ok", run_dir=result.run_dir, config_digest=result.config_digest)
    except Exception as exc:  # isolate failures per grid point
        record.update(status="error", error=str(exc))
    return record


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


def cmd_sweep(args) -> int:
    base = _load_config_arg(args)
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
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
            "master_seed": master_seed,
            **({} if ez else {"x_values": xs}),
            "n_agents_values": ns,
            "replicates": args.replicates,
            "runs": records,
        }
        stage(sweep_path, lambda p: _write_json(p, manifest))
    failures = [r for r in records if r["status"] != "ok"]
    for r in failures:
        point = " ".join(f"{k}={r[k]}" for k in ("x", "n_agents") if k in r)
        print(f"error: grid point {point}: {r['error']}", file=sys.stderr)
    print(sweep_path)
    return EXIT_CONFIG if failures else EXIT_OK


def cmd_meanfield(args) -> int:
    from . import meanfield

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
        report_dict = {
            "n_agents": args.n_agents,
            "x": args.x,
            "tolerance": args.tolerance,
            "iterations": report.iterations,
            "residual": report.residual,
            "converged": report.converged,
            "support": report.support,
        }
        stage(report_path, lambda p: _write_json(p, report_dict))
    print(json.dumps(report_dict))
    if not report.converged:
        print(f"error: no convergence within {args.max_iterations} sweeps "
              f"(residual {report.residual:.3e})", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _read_run_returns(run_dir: str, k: int) -> tuple[dict, Iterator[int]]:
    """A run's config and its return series summed over windows of k steps.

    Both come from digest-checked files: `config.txt` and `returns_raw.bin`;
    a config that does not parse, such as another schema's, names its path.
    The sums come one at a time, for one pass such as a histogram's.
    """
    from .series import parse_returns_binary, window_sums

    config_bytes, series_bytes = read_verified(run_dir, ("config.txt", "returns_raw.bin"))
    try:
        config = resolve_config({**default_config(), **_parse_config_bytes(config_bytes)})
    except ConfigError as exc:
        raise ConfigError(f"{os.path.join(run_dir, 'config.txt')}: {exc}") from None
    try:
        returns = parse_returns_binary(series_bytes)
        n = config["n_agents"]  # no group that trades is larger than the population
        distinct = set(returns)  # built faster than min() and max() scan the series
        if distinct and (min(distinct) < -n or max(distinct) > n):
            raise ValueError(f"a return exceeds the run's {n} agents")
    except ValueError as exc:
        raise ConfigError(f"damaged artifact {os.path.join(run_dir, 'returns_raw.bin')}: {exc}")
    return config, window_sums(returns, k)


def cmd_analyze(args) -> int:
    from . import analysis

    for option, value, ok in (
        ("--r-min", args.r_min, args.r_min is None or 0 < args.r_min < math.inf),
        ("--tail-threshold", args.tail_threshold, 0 < args.tail_threshold < math.inf),
        ("--bins-per-decade", args.bins_per_decade, args.bins_per_decade >= 1),
        ("--rescale-k", args.rescale_k, args.rescale_k >= 1),
    ):
        if not ok:
            rule = ">= 1" if isinstance(value, int) else "finite and > 0"
            raise ConfigError(f"{option} must be {rule}, got {value}")
    # a directory named twice, however spelled, is analysed and summarised once
    run_dirs = {}
    for run_dir in args.run_dirs:
        run_dirs.setdefault(os.path.realpath(run_dir), run_dir)
    histograms = {}  # one row of the summary per run directory
    cutoffs = []  # the cutoff of each directory's own fit
    with publication([*(os.path.join(run_dir, "analysis", name) for run_dir in run_dirs.values()
                        for name in ("ccdf.csv", "pdf.csv", "fit.csv")), args.out]) as stage:
        for run_dir in run_dirs.values():
            config, returns = _read_run_returns(run_dir, args.rescale_k)
            hist = analysis.histogram(returns)  # every statistic below reads it
            if not hist.values:
                raise ConfigError(f"no trades in {run_dir}: every recorded return is zero")
            param = config["x"] if config["model"] == "main" else f"ez a={config['ez_a']}"
            try:
                fit = analysis.fit_power_law(hist, args.r_min)
                cutoffs.append(fit.r_min)
                fit_row = (param, fit.alpha_density, fit.alpha_cumulative,
                           fit.r_min, fit.stderr, fit.n_tail)
            except ValueError:
                fit_row = (param, math.nan, math.nan, math.nan, math.nan, 0)
            curve = analysis.ccdf(hist)
            centers, density = analysis.log_binned_pdf(hist, args.bins_per_decade)
            out_dir = os.path.join(run_dir, "analysis")
            stage(os.path.join(out_dir, "ccdf.csv"), lambda p: _write_csv(
                p, ("value", "probability"), zip(curve.values, curve.probabilities)))
            stage(os.path.join(out_dir, "pdf.csv"), lambda p: _write_csv(
                p, ("bin_center", "density"), zip(centers, density)))
            stage(os.path.join(out_dir, "fit.csv"), lambda p: _write_csv(
                p, ("x", "alpha_density", "alpha_cumulative", "r_min", "stderr", "n_tail"),
                [fit_row]))
            key = param
            if key in histograms:  # replicate runs at the same parameters
                key = f"{param} seed={config['seed']}"
            if key in histograms:  # and the same seed: other keys differ
                key = f"{param} {run_dir}"
            histograms[key] = hist

        # the summary fits every series at one cutoff: the given one, else the
        # largest KS-optimal cutoff found above (`cutoff_scan`'s own choice)
        r_min = args.r_min if args.r_min is not None else max(cutoffs, default=None)
        if r_min is None:
            raise ConfigError(
                f"no run has enough trades for a tail fit (every cutoff leaves fewer than "
                f"{analysis.MIN_TAIL} tail points); pass --r-min to fit every run at a fixed "
                f"cutoff")
        rows = analysis.cutoff_scan(histograms, r_min=r_min, tail_threshold=args.tail_threshold)
        stage(args.out, lambda p: _write_csv(
            p,
            ("x", "alpha_density", "alpha_cumulative", "r_min", "stderr", "n_tail",
             "tail_threshold", "tail_mass"),
            ((r["x"], r["alpha_density"], r["alpha_cumulative"], r["r_min"],
              r["stderr"], r["n_tail"], r["tail_threshold"], r["tail_mass"]) for r in rows),
        ))
    print(args.out)
    return EXIT_OK


def _write_csv(path, header, rows) -> None:
    """Cells as `str` writes them: a float as its shortest round-trip repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# -- validate ----------------------------------------------------------------

def validation_checks() -> list:
    """Fast oracle suite; each entry is (name, passed, detail).

    The fragmentation probability under test is looked up as
    `voting.fragmentation_probability` when the checks run, so a test that
    replaces it sees the checks fail.
    """
    import numpy as np

    from . import analysis, meanfield, voting

    pfrg = voting.fragmentation_probability
    results = []

    xs = (0.34, 0.35, 0.37, 0.41, 0.45, 0.47, 0.499)
    worst = 0.0
    for s in range(1, 13):
        for x in xs:
            exact = float(voting.enumerate_fragmentation_probability(s, x))
            worst = max(worst, abs(pfrg(s, x) - exact))
    results.append((
        "fragmentation probability equals 3^s enumeration (s<=12)",
        worst <= 1e-12,
        f"max |diff| = {worst:.3e} (tolerance 1e-12)",
    ))

    # Above size 64 the smaller of p_frg and consensus is summed and the
    # other is its complement; here both are summed, on either side of the
    # switch.  Up to x = 0.41: beyond, at s = 10^4, the p_frg sum's first
    # term underflows (that sum is used only near x = 1/3).
    worst = 0.0
    for s in (100, 1000, 10000):
        for x in (0.34, 0.35, 0.37, 0.41):
            if 3 * (math.ceil(x * s) - 1) >= s:
                worst = max(worst, abs(sum(voting.summed_both_ways(s, x)) - 1.0))
    results.append((
        "fragmentation and consensus, each summed directly, sum to one (s>64)",
        worst <= 1e-12,
        f"max |sum-1| = {worst:.3e} (tolerance 1e-12)",
    ))

    s, x = 400, 0.41
    exact = voting.fragmentation_count(s, x) / 3**s
    error = abs(pfrg(s, x) - exact) / exact
    results.append((
        f"fragmentation probability equals exact count (s={s}, x={x})",
        error <= 1e-13,
        f"relative error = {error:.3e} (tolerance 1e-13)",
    ))

    # Exact agreement is expected only where the whole population coagulates
    # into one unbreakable group; elsewhere the rate equations ignore
    # fluctuations and the measured gap is reported for context.
    exact_worst = 0.0
    for n_agents, x in ((2, 0.37), (2, 0.47), (4, 0.41), (5, 0.37)):
        dist, report = meanfield.solve_stationary(n_agents, x)
        orc = meanfield.stationary_oracle(n_agents, x)
        exact_worst = max(exact_worst, float(np.max(np.abs(dist.counts - orc.counts))))
        exact_worst = max(exact_worst, 0.0 if report.converged else math.inf)
    dist3, report3 = meanfield.solve_stationary(3, 0.41)
    orc3 = meanfield.stationary_oracle(3, 0.41)
    gap3 = float(np.max(np.abs(dist3.counts - orc3.counts)))
    results.append((
        "mean-field solver vs exact tiny-N chain",
        exact_worst <= 1e-9 and report3.converged and report3.residual <= 1e-10,
        f"coagulating cases max |diff| = {exact_worst:.3e} (tolerance 1e-9); "
        f"fluctuation-dominated N=3 gap = {gap3:.3f} (informational)",
    ))

    rng = np.random.default_rng(20240917)
    trials, points, needed = 200, 600, 0.90
    coverage_ok = True
    detail = []
    for alpha in (1.2, 2.0):
        hits = 0
        for _ in range(trials):
            sample = analysis.sample_pareto(alpha, points, rng)
            fit = analysis.fit_power_law(sample, r_min=1.0)
            if abs(fit.alpha_density - alpha) <= 3 * fit.stderr:
                hits += 1
        rate = hits / trials
        coverage_ok = coverage_ok and rate >= needed
        detail.append(f"alpha={alpha}: {rate:.1%}")
    results.append((
        "tail estimator recovers synthetic exponents within 3 SE",
        coverage_ok,
        f"{'; '.join(detail)} (need >= {needed:.0%} of {trials} trials)",
    ))
    return results


def cmd_validate(args) -> int:
    results = validation_checks()
    width = max(len(name) for name, _, _ in results)
    ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        ok = ok and passed
        print(f"{status}  {name:<{width}}  {detail}")
    return EXIT_OK if ok else EXIT_VALIDATION


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herdvote",
        description="Consensus-threshold herding market model",
    )
    parser.add_argument("--version", action="version", version=f"herdvote {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    p_run.add_argument("--config", help="config file (key = value lines)")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value (repeatable)")
    p_run.add_argument("--out", default="runs", help="output root directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs over x / N / replicates")
    p_sweep.add_argument("--config", help="base config file")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.add_argument("--x", help="comma-separated consensus parameters")
    p_sweep.add_argument("--n-agents", help="comma-separated population sizes")
    p_sweep.add_argument("--replicates", type=int, default=1, help="seeds per grid point")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes, at most one per grid point and CPU")
    p_sweep.add_argument("--out", default="runs", help="output root directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mf = sub.add_parser("meanfield", help="solve the stationary group-size equations")
    p_mf.add_argument("--n-agents", type=int, required=True)
    p_mf.add_argument("--x", type=float, required=True)
    p_mf.add_argument("--tolerance", type=float, default=1e-10)
    p_mf.add_argument("--max-iterations", type=int, default=10_000)
    p_mf.add_argument("--out", help="distribution file (two columns: size n_s)")
    p_mf.set_defaults(func=cmd_meanfield)

    p_an = sub.add_parser("analyze", help="tail statistics for run directories")
    p_an.add_argument("run_dirs", nargs="+")
    p_an.add_argument("--r-min", type=float, default=None, help="fixed fit cutoff")
    p_an.add_argument("--tail-threshold", type=float, default=50.0)
    p_an.add_argument("--bins-per-decade", type=int, default=10)
    p_an.add_argument("--rescale-k", type=int, default=2, metavar="K",
                      help="sum non-overlapping windows of K steps per return (1: the raw series)")
    p_an.add_argument("--out", default="analysis_summary.csv")
    p_an.set_defaults(func=cmd_analyze)

    p_val = sub.add_parser("validate", help="run the fast oracle self-checks")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one command line; returns its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # sizes too large for this machine are bad input too
        print(f"error: out of memory: {str(exc) or 'an allocation was refused'}", file=sys.stderr)
        return EXIT_CONFIG


def console_entry() -> None:
    """The `herdvote` command: `main`, then an exit without interpreter teardown.

    Once `main` has returned its code, both output streams are flushed and
    the process ends with `os._exit`, which skips freeing every object and
    module.  Every file has been closed and every worker process joined by
    then.  A `SystemExit` or an exception raised in `main` (a usage error, a
    traceback), or a stream that cannot be flushed, takes the normal exit.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # such as a closed pipe: the normal exit reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_entry()
