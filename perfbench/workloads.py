"""The four benchmark workloads: inputs from a seed, one iteration, output checks.

Every iteration runs `herdvote` CLI subprocesses one after another (a
closed loop with one client) in a fresh output root, so repeats never take
the verify-on-rerun path.  The program sees only the generated config file;
the benchmark seed becomes its `seed` key.  Each iteration checks the
program's outputs; any failed check or nonzero exit fails the iteration.

Step counts are one fifth of desk scale (10^6 steps) at the desk population
N = 10^4, so that one run of the benchmark holds several iterations.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_AGENTS = 10_000
X = 0.41
SIM_STEPS = 200_000
EZ_A = 0.01
MF_N_AGENTS = 400
MF_TOLERANCE = 1e-10

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Trade fraction at the benchmark sizes, measured at the parent of the commit
# that added this benchmark over seeds 1-12 (mean, standard deviation):
# strategy 0.6308, 0.0036; iid 0.6342, 0.0015; E-Z 0.00982, 0.00021.  A
# change of how the dynamics stream is consumed is a new realisation, like a
# new seed, so each band is (mean, half-width) with the half-width about
# seven seed-to-seed standard deviations.
TRADE_FRACTION = {
    "desk_strategy": (0.6308, 0.025),
    "desk_iid": (0.6342, 0.010),
    "ez_desk": (0.00982, 0.0015),
}

# Largest |n_s| difference accepted against the reference stationary
# distribution (`meanfield --n-agents 400 --x 0.41` at the parent commit).
# Solving to the same residual tolerance with damping 0.4 instead of 0.5
# (77 sweeps instead of 53) moves n_s by at most 1.7e-7, at n_1 = 224.8; the
# bound leaves a different solver at the same tolerance a few times that.
MF_MATCH_TOL = 1e-6


@dataclass
class Command:
    """One measured CLI subprocess.

    `host_factor` is how much slower than nominal the host ran during the
    command (see `run.SpeedSampler`); the adjusted times divide by it.
    """

    args: list
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    host_factor: float = 1.0
    trace: dict | None = None

    @property
    def adjusted_wall_s(self) -> float:
        return self.wall_s / self.host_factor

    @property
    def adjusted_cpu_s(self) -> float:
        return self.cpu_s / self.host_factor


@dataclass
class Iteration:
    commands: list = field(default_factory=list)
    steps: int = 0  # simulated steps, or one solve for meanfield
    step_wall_s: float = 0.0  # adjusted wall time of the command that did the steps
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # output defects that do not fail the checks

    @property
    def wall_s(self) -> float:
        return sum(c.adjusted_wall_s for c in self.commands)

    @property
    def cpu_s(self) -> float:
        return sum(c.adjusted_cpu_s for c in self.commands)

    @property
    def raw_wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.commands)

    def run(self, ctx, args: list) -> Command | None:
        """Run one CLI command; record a nonzero exit as an error."""
        cmd = ctx.cli(args)
        self.commands.append(cmd)
        if cmd.exit_code != 0:
            self.errors.append(f"{args[0]} exited with code {cmd.exit_code}")
            return None
        return cmd

    def check(self, fn, *args) -> None:
        """Run an output check; output that cannot be read fails the iteration."""
        try:
            fn(self, *args)
        except (OSError, ValueError, KeyError, IndexError, StopIteration, csv.Error) as exc:
            self.errors.append(f"{fn.__name__}: unreadable output: {exc!r}")


class Workload:
    name = ""
    probe: list = []  # setup_probe.py arguments after the seed

    def config(self, seed: int) -> dict | None:
        """Config keys the program receives, or None for a config-less command."""
        return None

    def iterate(self, ctx) -> Iteration:
        raise NotImplementedError


class Simulation(Workload):
    def __init__(self, name, config, analyze=False):
        self.name = name
        self._config = config
        self.analyze = analyze
        model = config["model"]
        self.probe = ["ez", str(N_AGENTS)] if model == "ez" else [
            "main", str(N_AGENTS), repr(X), config["vote_mode"]]

    def config(self, seed):
        return {**self._config, "total_steps": SIM_STEPS, "seed": seed}

    def iterate(self, ctx):
        it = Iteration()
        out_root = ctx.fresh_dir()
        cmd = it.run(ctx, ["run", "--config", ctx.config_path, "--out", out_root])
        if cmd is None:
            return it
        it.steps = SIM_STEPS
        it.step_wall_s = cmd.adjusted_wall_s
        printed = cmd.stdout.split()
        if not printed:
            it.errors.append("run printed no run directory")
            return it
        run_dir = os.path.join(ctx.cwd, printed[-1])
        it.check(check_run, run_dir, ctx.config, self.name, ctx.state)
        if self.analyze:
            summary = os.path.join(out_root, "analysis_summary.csv")
            if it.run(ctx, ["analyze", run_dir, "--out", summary]) is not None:
                it.check(check_analyze, run_dir)
        return it


class Meanfield(Workload):
    name = "meanfield_n400"
    probe = ["import"]

    def iterate(self, ctx):
        it = Iteration()
        out = os.path.join(ctx.fresh_dir(), "dist.txt")
        cmd = it.run(ctx, ["meanfield", "--n-agents", str(MF_N_AGENTS), "--x", repr(X),
                           "--tolerance", repr(MF_TOLERANCE), "--out", out])
        if cmd is None:
            return it
        # Throughput counts whole solves: a sweep is no fixed unit of work
        # (a Newton solver needs fewer, costlier ones).
        it.steps = 1
        it.step_wall_s = cmd.adjusted_wall_s
        it.check(check_meanfield, cmd.stdout, out)
        return it


WORKLOADS = {w.name: w for w in (
    Simulation(
        "desk_strategy",
        {"model": "main", "n_agents": N_AGENTS, "x": X, "vote_mode": "strategy"},
        analyze=True,
    ),
    Simulation(
        "desk_iid",
        {"model": "main", "n_agents": N_AGENTS, "x": X, "vote_mode": "iid"},
    ),
    Simulation(
        "ez_desk",
        {"model": "ez", "n_agents": N_AGENTS, "ez_a": EZ_A},
    ),
    Meanfield(),
)}


def config_text(config: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config.items())


# -- output checks ------------------------------------------------------------

def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_run(it: Iteration, run_dir: str, config: dict, workload: str, state: dict) -> None:
    errors = it.errors
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    digests = manifest["artifacts"]
    for name, digest in digests.items():
        if _sha256_file(os.path.join(run_dir, name)) != digest:
            errors.append(f"{name}: file digest differs from the manifest")
    # every repeat of one config must produce identical artifacts
    first = state.setdefault("digests", digests)
    if digests != first:
        errors.append("artifact digests differ from the first iteration of this seed")

    with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    n = config["n_agents"]
    if sum(summary["decision_counts"].values()) != config["total_steps"]:
        errors.append("decision counts do not sum to total_steps")

    with open(os.path.join(run_dir, "returns_raw.bin"), "rb") as fh:
        count = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
        raw = np.frombuffer(fh.read(), dtype="<i8")
    if count != len(raw) or count != summary["recorded_steps"]:
        errors.append("returns_raw.bin length differs from recorded_steps")
    trades = round(summary["trade_fraction"] * summary["recorded_steps"])
    if np.count_nonzero(raw) != trades:
        errors.append("trade count differs from the number of nonzero returns")
    if len(raw) and int(np.max(np.abs(raw))) > n:
        errors.append("a return exceeds the population size")

    with open(os.path.join(run_dir, "size_histogram.csv"), encoding="utf-8") as fh:
        covered = sum(int(row["size"]) * int(row["count"]) for row in csv.DictReader(fh))
    if covered != n:
        errors.append(f"size histogram covers {covered} agents, not {n}")

    centre, half_width = TRADE_FRACTION[workload]
    if abs(summary["trade_fraction"] - centre) > half_width:
        errors.append(f"trade fraction {summary['trade_fraction']:.4f} outside "
                      f"{centre:.4f} +/- {half_width:.4f}")


# Under NumPy 2 the CLI writes NumPy scalars in the analysis CSVs as their
# repr, "np.float64(1.0)", not as plain numbers.  The checks read the value
# inside and report the format as a note on every iteration, not as a
# failure: the checks concern the CCDF's values.
NUMPY_REPR_NOTE = "analysis/ccdf.csv cells are NumPy reprs such as np.float64(1.0)"


def _csv_number(cell: str) -> float:
    if cell.startswith("np.") and cell.endswith(")"):
        cell = cell[cell.index("(") + 1:-1]
    return float(cell)


def check_analyze(it: Iteration, run_dir: str) -> None:
    errors = it.errors
    out_dir = os.path.join(run_dir, "analysis")
    with open(os.path.join(out_dir, "ccdf.csv"), encoding="utf-8") as fh:
        cells = [row["probability"] for row in csv.DictReader(fh)]
    if any(c.startswith("np.") for c in cells):
        it.notes.append(NUMPY_REPR_NOTE)
    probs = np.array([_csv_number(c) for c in cells])
    if len(probs) == 0 or probs[0] != 1.0:
        errors.append("CCDF does not start at 1")
    if np.any(np.diff(probs) > 0):
        errors.append("CCDF increases")
    with open(os.path.join(out_dir, "fit.csv"), encoding="utf-8") as fh:
        fit = next(csv.DictReader(fh))
    if not math.isfinite(_csv_number(fit["alpha_density"])):
        errors.append("fitted tail exponent is not finite")


def check_meanfield(it: Iteration, stdout: str, path: str) -> None:
    errors = it.errors
    report = json.loads(stdout.strip().splitlines()[-1])
    if not report["converged"]:
        errors.append("solver did not converge")
    if not report["residual"] <= MF_TOLERANCE:
        errors.append(f"residual {report['residual']:.3e} above tolerance")
    dist = np.loadtxt(path, ndmin=2)
    sizes, counts = dist[:, 0], dist[:, 1]
    if not math.isclose(float(sizes @ counts), MF_N_AGENTS, rel_tol=1e-9):
        errors.append(f"sum s*n_s = {float(sizes @ counts)!r}, not {MF_N_AGENTS}")
    reference = np.loadtxt(REFERENCE_DIR / f"meanfield_N{MF_N_AGENTS}_x{X}.txt", ndmin=2)
    if dist.shape != reference.shape:
        errors.append("distribution has a different number of sizes than the reference")
    elif np.max(np.abs(counts - reference[:, 1])) > MF_MATCH_TOL:
        errors.append(f"n_s differs from the reference by "
                      f"{np.max(np.abs(counts - reference[:, 1])):.3e} > {MF_MATCH_TOL:.1e}")
