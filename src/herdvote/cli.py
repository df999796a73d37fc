"""Command-line interface: reproducible runs, sweeps, solving and analysis.

Subcommands
    run        one simulation (voting model or the E-Z baseline), artifacts
               written to a directory content-addressed by the config digest
    sweep      a grid of runs over x / population size / replicates, with
               per-point seeds derived from one master seed; grid points
               execute in parallel without affecting any output
    meanfield  stationary group-size distribution for (N, x)
    analyze    tail statistics (CCDF, binned density, power-law fits) for
               existing run directories plus a cross-x comparison table
    validate   fast self-checks of the exact math against brute-force
               oracles; nonzero exit when anything disagrees

Config files are plain "key = value" text (LF, UTF-8, '#' comments).  Keys
and defaults:

    schema_version      = 1
    model               = main        # main | ez
    n_agents            = 10000
    x                   = 0.37
    total_steps         = 1000000
    equilibration_steps = auto        # auto = 10% of total_steps
    memory_m            = 2
    initial_history     = 1,1
    vote_mode           = strategy    # strategy | iid
    seed                = 1
    rescale_k           = 2
    ez_a                = 0.01        # E-Z trade probability (model = ez)

`--set key=value` overrides any file value.  The fully resolved config is
echoed into every run directory and its SHA-256 names the directory, so a
run can always be reproduced byte for byte from its manifest.

Exit codes: 0 success, 2 usage error, 3 config/input error, 4 validation
failure, 5 solver non-convergence.  HERDVOTE_WORKERS sets the default
worker count for sweeps.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, analysis, engine, meanfield, voting
from .ez import EzConfig, ez_run
from .strategy import VoteMode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_VALIDATION = 4
EXIT_NONCONVERGENCE = 5

SCHEMA_VERSION = 1

WORKERS_ENV = "HERDVOTE_WORKERS"


class ConfigError(Exception):
    pass


# -- config file handling --------------------------------------------------

def _parse_history(text: str) -> tuple:
    try:
        bits = tuple(int(b) for b in text.split(","))
    except ValueError:
        raise ConfigError(f"initial_history must be comma-separated bits, got {text!r}")
    if any(b not in (0, 1) for b in bits):
        raise ConfigError(f"initial_history bits must be 0 or 1, got {text!r}")
    return bits


def _parse_equilibration(text: str):
    if text == "auto":
        return None
    return int(text)


# key -> (from-string, to-string, default)
_CONFIG_SPEC = {
    "schema_version": (int, str, SCHEMA_VERSION),
    "model": (str, str, "main"),
    "n_agents": (int, str, 10_000),
    "x": (float, repr, 0.37),
    "total_steps": (int, str, 1_000_000),
    "equilibration_steps": (_parse_equilibration, lambda v: "auto" if v is None else str(v), None),
    "memory_m": (int, str, 2),
    "initial_history": (_parse_history, lambda v: ",".join(str(b) for b in v), (1, 1)),
    "vote_mode": (str, str, "strategy"),
    "seed": (int, str, 1),
    "rescale_k": (int, str, 2),
    "ez_a": (float, repr, 0.01),
}


def default_config() -> dict:
    return {key: spec[2] for key, spec in _CONFIG_SPEC.items()}


def parse_config_text(text: str) -> dict:
    values = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_SPEC:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        parser = _CONFIG_SPEC[key][0]
        try:
            values[key] = parser(value)
        except (ValueError, TypeError):
            raise ConfigError(f"line {line_no}: bad value for {key!r}: {value!r}")
    return values


def apply_overrides(config: dict, overrides) -> dict:
    config = dict(config)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _CONFIG_SPEC:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            config[key] = _CONFIG_SPEC[key][0](value.strip())
        except (ValueError, TypeError):
            raise ConfigError(f"bad value for {key!r}: {value!r}")
    return config


def resolve_config(config: dict) -> dict:
    """Fill derived fields and validate; returns the canonical dict."""
    config = dict(config)
    if config["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {config['schema_version']}")
    if config["model"] not in ("main", "ez"):
        raise ConfigError(f"model must be 'main' or 'ez', got {config['model']!r}")
    if config["vote_mode"] not in ("strategy", "iid"):
        raise ConfigError(f"vote_mode must be 'strategy' or 'iid', got {config['vote_mode']!r}")
    if config["equilibration_steps"] is None:
        config["equilibration_steps"] = config["total_steps"] // 10
    try:
        _build_sim_config(config)  # reuse the model-level validation
    except ValueError as exc:
        raise ConfigError(str(exc))
    return config


def _build_sim_config(config: dict):
    if config["model"] == "ez":
        return EzConfig(
            n_agents=config["n_agents"],
            a=config["ez_a"],
            total_steps=config["total_steps"],
            equilibration_steps=config["equilibration_steps"],
            seed=config["seed"],
        )
    return engine.SimConfig(
        n_agents=config["n_agents"],
        x=config["x"],
        total_steps=config["total_steps"],
        equilibration_steps=config["equilibration_steps"],
        memory=config["memory_m"],
        initial_history=config["initial_history"],
        vote_mode=VoteMode(config["vote_mode"]),
        seed=config["seed"],
        rescale_k=config["rescale_k"],
    )


def config_text(config: dict) -> str:
    """Canonical echo: fixed key order, one 'key = value' per line."""
    lines = [f"{key} = {_CONFIG_SPEC[key][1](config[key])}" for key in _CONFIG_SPEC]
    return "\n".join(lines) + "\n"


def config_digest(config: dict) -> str:
    return hashlib.sha256(config_text(config).encode()).hexdigest()


def regime_warnings(config: dict) -> list:
    warnings = []
    if config["model"] == "main":
        cp = voting.ConsensusParameter(config["x"])
        if not cp.fragmentation_possible:
            warnings.append(
                f"x={config['x']} is in the no-fragmentation regime (x <= 1/3): groups only grow"
            )
        elif cp.absolute_majority:
            warnings.append(
                f"x={config['x']} is in the absolute-majority regime (x > 1/2)"
            )
    return warnings


# -- run artifacts ----------------------------------------------------------

def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def execute_run(config: dict, out_root: str) -> str:
    """Simulate per `config` and write artifacts; returns the run directory.

    The directory name is the config digest.  Directories are append-only:
    an existing run with matching artifact digests is left untouched, a
    mismatch is an error.
    """
    config = resolve_config(config)
    digest = config_digest(config)
    run_dir = os.path.join(out_root, digest[:12])
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()

    sim_config = _build_sim_config(config)
    if config["model"] == "ez":
        returns, summary = ez_run(sim_config)
    else:
        returns, summary = engine.run(sim_config)
    rescaled = engine.rescale_returns(returns, config["rescale_k"])

    os.makedirs(run_dir, exist_ok=True)
    artifacts = {}

    def emit(name: str, writer) -> None:
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            tmp = path + ".verify"
            writer(tmp)
            fresh = _sha256_file(tmp)
            os.remove(tmp)
            existing = _sha256_file(path)
            if fresh != existing:
                raise ConfigError(
                    f"refusing to overwrite {path}: existing digest {existing[:12]} "
                    f"differs from recomputed {fresh[:12]}"
                )
        else:
            writer(path)
        artifacts[name] = _sha256_file(path)

    emit("config.txt", lambda p: _write_text(p, config_text(config)))
    emit("returns_raw.txt", lambda p: engine.write_returns_text(p, returns))
    emit("returns_raw.bin", lambda p: engine.write_returns_binary(p, returns))
    emit(
        f"returns_rescaled_k{config['rescale_k']}.txt",
        lambda p: engine.write_returns_text(p, rescaled),
    )
    emit("size_histogram.csv", lambda p: _write_histogram(p, summary.final_size_histogram))
    emit("summary.json", lambda p: _write_json(p, _summary_dict(summary)))

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": {k: _CONFIG_SPEC[k][1](config[k]) for k in _CONFIG_SPEC},
        "config_digest": digest,
        "seed": config["seed"],
        "warnings": regime_warnings(config),
        "started_utc": started,
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - t0,
        "artifacts": artifacts,
    }
    _write_json(os.path.join(run_dir, "manifest.json"), manifest)
    return run_dir


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
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            config.update(parse_config_text(fh.read()))
    return apply_overrides(config, args.set)


def cmd_run(args) -> int:
    config = _load_config_arg(args)
    run_dir = execute_run(config, args.out)
    warnings = regime_warnings(resolve_config(config))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(run_dir)
    return EXIT_OK


def derive_seed(master_seed: int, x: float, n_agents: int, replicate: int) -> int:
    """Stable per-grid-point seed; independent of grid order and worker count."""
    tag = f"herdvote-sweep:{master_seed}:{x!r}:{n_agents}:{replicate}"
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")


def _sweep_point(payload) -> dict:
    config, out_root = payload
    record = {k: config[k] for k in ("x", "n_agents", "seed")}
    try:
        run_dir = execute_run(config, out_root)
        record.update(status="ok", run_dir=run_dir, config_digest=config_digest(resolve_config(config)))
    except Exception as exc:  # isolate failures per grid point
        record.update(status="error", error=str(exc))
    return record


def _grid_values(text, parse, default) -> list:
    """Comma-separated grid values in first-seen order, repeats dropped.

    A repeated value would give two grid points one config, hence one run
    directory written by two workers at once.
    """
    if not text:
        return [default]
    try:
        return list(dict.fromkeys(parse(v) for v in text.split(",")))
    except ValueError:
        raise ConfigError(f"bad grid values {text!r}")


def cmd_sweep(args) -> int:
    base = _load_config_arg(args)
    xs = _grid_values(args.x, float, base["x"])
    ns = _grid_values(args.n_agents, int, base["n_agents"])
    if not xs or not ns or args.replicates < 1:
        raise ConfigError("sweep grid is empty")
    points = []
    for x in xs:
        for n in ns:
            for rep in range(args.replicates):
                config = dict(base)
                config["x"] = x
                config["n_agents"] = n
                config["seed"] = derive_seed(args.master_seed, x, n, rep)
                points.append((config, args.out))

    workers = args.workers or int(os.environ.get(WORKERS_ENV, "1"))
    if workers <= 1:
        records = [_sweep_point(p) for p in points]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_point, points))

    os.makedirs(args.out, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "master_seed": args.master_seed,
        "x_values": xs,
        "n_agents_values": ns,
        "replicates": args.replicates,
        "runs": records,
    }
    _write_json(os.path.join(args.out, "sweep.json"), manifest)
    failures = [r for r in records if r["status"] != "ok"]
    for r in failures:
        print(f"error: grid point x={r['x']} n={r['n_agents']}: {r['error']}", file=sys.stderr)
    print(os.path.join(args.out, "sweep.json"))
    return EXIT_CONFIG if failures else EXIT_OK


def cmd_meanfield(args) -> int:
    dist, report = meanfield.solve_stationary(
        args.n_agents, args.x, tolerance=args.tolerance, max_iterations=args.max_iterations,
    )
    out = args.out or f"meanfield_N{args.n_agents}_x{args.x}.txt"
    meanfield.write_distribution(out, dist)
    report_dict = {
        "n_agents": args.n_agents,
        "x": args.x,
        "tolerance": args.tolerance,
        "iterations": report.iterations,
        "residual": report.residual,
        "converged": report.converged,
    }
    _write_json(out + ".report.json", report_dict)
    print(json.dumps(report_dict))
    if not report.converged:
        print(f"error: no convergence within {args.max_iterations} sweeps "
              f"(residual {report.residual:.3e})", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _read_run_returns(run_dir: str, use_raw: bool) -> tuple[dict, np.ndarray]:
    config_path = os.path.join(run_dir, "config.txt")
    if not os.path.exists(config_path):
        raise ConfigError(f"missing artifact: {config_path}")
    with open(config_path, "r", encoding="utf-8") as fh:
        config = resolve_config({**default_config(), **parse_config_text(fh.read())})
    name = "returns_raw.txt" if use_raw else f"returns_rescaled_k{config['rescale_k']}.txt"
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        raise ConfigError(f"missing artifact: {path}")
    try:
        returns = engine.read_returns_text(path)
    except ValueError as exc:
        raise ConfigError(f"damaged artifact {path}: {exc}")
    return config, returns


def cmd_analyze(args) -> int:
    returns_by_x = {}
    for run_dir in args.run_dirs:
        config, returns = _read_run_returns(run_dir, args.use_raw)
        if not np.any(returns):
            raise ConfigError(f"no trades in {run_dir}: every recorded return is zero")
        out_dir = os.path.join(run_dir, "analysis")
        os.makedirs(out_dir, exist_ok=True)
        curve = analysis.ccdf(returns)
        _write_csv(
            os.path.join(out_dir, "ccdf.csv"),
            ("value", "probability"),
            zip(curve.values, curve.probabilities),
        )
        centers, density = analysis.log_binned_pdf(returns, args.bins_per_decade)
        _write_csv(os.path.join(out_dir, "pdf.csv"), ("bin_center", "density"), zip(centers, density))
        try:
            fit = analysis.fit_power_law(returns, args.r_min)
            fit_row = [(config["x"], fit.alpha_density, fit.alpha_cumulative,
                        fit.r_min, fit.stderr, fit.n_tail)]
        except ValueError:
            fit_row = [(config["x"], math.nan, math.nan, math.nan, math.nan, 0)]
        _write_csv(
            os.path.join(out_dir, "fit.csv"),
            ("x", "alpha_density", "alpha_cumulative", "r_min", "stderr", "n_tail"),
            fit_row,
        )
        key = config["x"] if config["model"] == "main" else f"ez a={config['ez_a']}"
        if key in returns_by_x:  # replicate runs at the same parameters
            key = f"{key} seed={config['seed']}"
        returns_by_x[key] = returns

    rows = analysis.cutoff_scan(
        returns_by_x, r_min=args.r_min, tail_threshold=args.tail_threshold
    )
    _write_csv(
        args.out,
        ("x", "alpha_density", "alpha_cumulative", "r_min", "stderr", "n_tail",
         "tail_threshold", "tail_mass"),
        (
            (r["x"], r["alpha_density"], r["alpha_cumulative"], r["r_min"],
             r["stderr"], r["n_tail"], r["tail_threshold"], r["tail_mass"])
            for r in rows
        ),
    )
    print(args.out)
    return EXIT_OK


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(c) for c in row])


def _fmt_cell(value):
    # repr of a NumPy float is "np.float64(...)" under NumPy 2: convert first
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


# -- validate ----------------------------------------------------------------

def validation_checks(pfrg=voting.fragmentation_probability) -> list:
    """Fast oracle suite; each entry is (name, passed, detail)."""
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

    worst = 0.0
    for s in (1, 2, 3, 5, 8, 13, 100, 1000, 10000):
        for x in xs:
            p_frg = pfrg(s, x)
            total = p_frg + 3 * ((1.0 - p_frg) / 3.0)
            worst = max(worst, abs(total - 1.0))
    results.append((
        "decision probabilities sum to one",
        worst <= 1e-12,
        f"max |sum-1| = {worst:.3e} (tolerance 1e-12)",
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
    pfrg = voting.fragmentation_probability
    if args.perturb_pfrg:
        eps = args.perturb_pfrg
        pfrg = lambda s, x: min(1.0, voting.fragmentation_probability(s, x) + eps)
        print(f"note: self-test perturbation +{eps} applied to the fragmentation "
              f"probability; failures below are expected", file=sys.stderr)
    results = validation_checks(pfrg)
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
    p_sweep.add_argument("--master-seed", type=int, default=1)
    p_sweep.add_argument("--workers", type=int, default=0,
                         help=f"parallel workers (default ${WORKERS_ENV} or 1)")
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
    p_an.add_argument("--use-raw", action="store_true",
                      help="analyze the raw series instead of the rescaled one")
    p_an.add_argument("--out", default="analysis_summary.csv")
    p_an.set_defaults(func=cmd_analyze)

    p_val = sub.add_parser("validate", help="run the fast oracle self-checks")
    p_val.add_argument("--perturb-pfrg", type=float, default=0.0,
                       help="negative-control hook: bias the fragmentation "
                            "probability to prove the checks can fail")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
