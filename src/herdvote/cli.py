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
This module holds the parser and the dispatch, the file formats (the
`_write_*` writers and the config text) and the `run` command: which files
it writes, and its append-only digest check on a rerun.

A process compiles and imports only the command it runs.  The bodies of
`sweep`, `meanfield`, `analyze` and `validate` live in `cli_sweep`,
`cli_meanfield`, `cli_analyze` and `cli_validate`, each imported when its
command is dispatched together with the layers it runs: `analysis` for
`analyze` and `validate`, `meanfield` for `meanfield` and `validate`.  The
run path imports the simulator (`engine`, and `ez` for an E-Z run) inside
`execute_run`.  A standard-library module is imported where it is used:
`hashlib` by the digest and seed code, `csv` by `_write_csv`, `datetime`
by `execute_run`.  At module level this file needs only `config` and
`artifacts`, and no NumPy, so `--help`, `--version`, usage errors and a
refusal made before a layer loads cost no NumPy import, and neither does
`analyze`, whose layers (`series`, `analysis`) are standard library only.
The command bodies call the writers and `execute_run` as `cli.<name>`, and
the run path calls the simulator and the series writer as
`engine.<name>`, so a caller that replaces such an attribute replaces the
call.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from importlib import import_module
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
    import hashlib

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
    import datetime

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


def _write_csv(path, header, rows) -> None:
    """Cells as `str` writes them: a float as its shortest round-trip repr."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


def _loaded(name: str):
    """Command `name`: the `main` of module `cli_<name>`, imported when it runs."""
    def command(args) -> int:
        return import_module(f".cli_{name}", __package__).main(args)

    return command


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
    p_sweep.set_defaults(func=_loaded("sweep"))

    p_mf = sub.add_parser("meanfield", help="solve the stationary group-size equations")
    p_mf.add_argument("--n-agents", type=int, required=True)
    p_mf.add_argument("--x", type=float, required=True)
    p_mf.add_argument("--tolerance", type=float, default=1e-10)
    p_mf.add_argument("--max-iterations", type=int, default=10_000)
    p_mf.add_argument("--out", help="distribution file (two columns: size n_s)")
    p_mf.set_defaults(func=_loaded("meanfield"))

    p_an = sub.add_parser("analyze", help="tail statistics for run directories")
    p_an.add_argument("run_dirs", nargs="+")
    p_an.add_argument("--r-min", type=float, default=None, help="fixed fit cutoff")
    p_an.add_argument("--tail-threshold", type=float, default=50.0)
    p_an.add_argument("--bins-per-decade", type=int, default=10)
    p_an.add_argument("--rescale-k", type=int, default=2, metavar="K",
                      help="sum non-overlapping windows of K steps per return (1: the raw series)")
    p_an.add_argument("--out", default="analysis_summary.csv")
    p_an.set_defaults(func=_loaded("analyze"))

    p_val = sub.add_parser("validate", help="run the fast oracle self-checks")
    p_val.set_defaults(func=_loaded("validate"))
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
    # `python -m herdvote.cli`: the command bodies import `herdvote.cli`; they
    # find this module under that name, not a second copy to compile
    if vars(this := sys.modules[__name__]) is globals():
        sys.modules.setdefault(f"{__package__}.cli", this)
    console_entry()
