"""Benchmark entry point: one workload, closed loop, for a fixed time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from `src/`.  Before
the measured loop the run times several set-up probes and reports their
median as `setup_s`.  It then repeats the workload's iteration (see
`workloads.py`) one subprocess at a time until S seconds have passed.

Every measured process is pinned to one CPU, where a speed sampler times a
fixed loop while it runs (`SpeedSampler`).  Reported times are divided by
the resulting host factor, so they read as times at a fixed reference host
speed; the unadjusted times and the factors are printed and kept too.

`--trace 0` reports the end-to-end metrics, medians over the iterations.
`--trace 1` alternates untraced iterations with traced ones (the same CLI
commands run in-process under `tracer.py`), reports the per-layer metrics
and the tracing overhead, and writes every span and aggregate to
`.perfbench_out/trace-<workload>-seed<N>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Without the package
sources the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from layers import layer_metrics
from workloads import WORKLOADS, Command, config_text

ROOT = Path(__file__).resolve().parent.parent
# Metric names and units, workload names and the run length are declared once,
# in BENCHMARK.json.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 120

# Host speed probe: a short fixed loop timed every PROBE_INTERVAL_S on the CPU
# the measured process is pinned to.  PROBE_NOMINAL_S is its time at the
# reference speed (the fast state of the 2-core Xeon host the benchmark was
# tuned on).
MEASURE_CPU = max(os.sched_getaffinity(0))
PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 4000
PROBE_NOMINAL_S = 0.0005

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("HERDVOTE_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _speed_probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += (i * 2654435761) & 1023
    return time.perf_counter() - start


class SpeedSampler(threading.Thread):
    """Samples host speed on MEASURE_CPU while a measured process runs there.

    The shared host's speed drifts by up to 2x over tens of seconds, which
    no median within one run can remove.  The probe shares the measured
    process's CPU, so it slows down with it: on the 2-core host the mean
    probe time correlated 0.94 with desk_iid iteration time.  It takes about
    2% of the CPU.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {MEASURE_CPU})
        while not self._done.wait(PROBE_INTERVAL_S):
            self.samples.append(_speed_probe())

    def finish(self) -> float:
        """Stop sampling; return the host factor (mean probe time / nominal)."""
        self._done.set()
        self.join()
        return statistics.mean(self.samples) / PROBE_NOMINAL_S if self.samples else 1.0


def run_process(argv: list, cwd: str, env: dict) -> Command:
    """Run one subprocess pinned to MEASURE_CPU; wall, CPU and peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=cwd) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        try:
            os.sched_setaffinity(proc.pid, {MEASURE_CPU})
        except ProcessLookupError:  # already gone; wait4 still reaps it
            pass
        sampler = SpeedSampler()
        sampler.start()
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            watchdog.cancel()
            host_factor = sampler.finish()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return Command(
        args=list(argv), wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode, stdout=stdout,
        host_factor=host_factor,
    )


class Context:
    """What a workload iteration needs: where to work and how to run the CLI."""

    def __init__(self, workload, seed: int, cwd: Path):
        self.cwd = str(cwd)
        self.env = child_env()
        self.state: dict = {}
        self.traced = False
        self._dirs = 0
        self.config = workload.config(seed)
        self.config_path = None
        if self.config is not None:
            self.config_path = str(cwd / "bench.conf")
            Path(self.config_path).write_text(config_text(self.config), encoding="utf-8")

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.cwd, f"iter{self._dirs}")
        os.makedirs(path)
        return path

    def cli(self, args: list) -> Command:
        if not self.traced:
            return run_process([sys.executable, "-m", "herdvote.cli", *args], self.cwd, self.env)
        trace_path = os.path.join(self.cwd, f"trace{self._dirs}-{args[0]}.json")
        cmd = run_process([sys.executable, str(BENCH_DIR / "tracer.py"), trace_path, *args],
                          self.cwd, self.env)
        if os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                cmd.trace = json.load(fh)
        return cmd


def measure_setup(workload, seed: int, ctx: Context) -> list:
    """Set-up times of fresh probe processes; the first (cold) one is dropped."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(seed), *workload.probe]
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        cmd = run_process(argv, ctx.cwd, ctx.env)
        lines = cmd.stdout.split()
        if cmd.exit_code != 0 or len(lines) != 2:
            raise RuntimeError(f"set-up probe failed with exit code {cmd.exit_code}")
        if not Path(lines[0]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"probe imported herdvote from {lines[0]}, not from src/")
        times.append((float(lines[1]) - start) / cmd.host_factor)
    return times[1:]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "loadavg": list(os.getloadavg()),
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def with_units(values: dict, kind: str) -> dict:
    """The BENCHMARK.json metrics of one kind, each with its value and unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCH[kind]}


def end_to_end_metrics(iterations: list, setup_times: list) -> dict:
    failed = sum(1 for it in iterations if it.errors)
    values = {
        "wall_s": median([it.wall_s for it in iterations]),
        "cpu_s": median([it.cpu_s for it in iterations]),
        "steps_per_s": median([it.steps / it.step_wall_s for it in iterations if it.step_wall_s]),
        "setup_s": median(setup_times),
        "peak_rss_mb": median([it.rss_mb for it in iterations]),
        "success_rate": 1.0 - failed / len(iterations),
    }
    return with_units(values, "end_to_end")


def per_layer_metrics(untraced: list, traced: list) -> tuple[dict, list]:
    per_iteration = [layer_metrics([c.trace for c in it.commands if c.trace]) for it in traced]
    values = {name: median([m[name] for m in per_iteration]) for name in per_iteration[0]}
    values["trace.wall_s"] = median([it.wall_s for it in traced])
    values["trace.untraced_wall_s"] = median([it.wall_s for it in untraced])
    values["trace.overhead_ratio"] = values["trace.wall_s"] / values["trace.untraced_wall_s"]
    return with_units(values, "per_layer"), per_iteration


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    ctx = Context(workload, seed, work)
    setup_times = measure_setup(workload, seed, ctx)
    untraced, traced = [], []
    notes = set()
    deadline = time.monotonic() + seconds
    while True:
        ctx.traced = trace and len(traced) < len(untraced)
        it = workload.iterate(ctx)
        (traced if ctx.traced else untraced).append(it)
        for err in it.errors:
            print(f"check failed: {err}", file=sys.stderr)
        notes.update(it.notes)
        if time.monotonic() >= deadline and (traced or not trace):
            break
    iterations = untraced + traced
    failed = sum(1 for it in iterations if it.errors)
    for note in sorted(notes):
        print(f"note: {note}", file=sys.stderr)
    details = {"setup_times_s": setup_times, "notes": sorted(notes),
               "iterations": [{"traced": k >= len(untraced), "wall_s": it.wall_s,
                               "raw_wall_s": it.raw_wall_s, "cpu_s": it.cpu_s,
                               "host_factors": [c.host_factor for c in it.commands],
                               "rss_mb": it.rss_mb, "steps": it.steps,
                               "step_wall_s": it.step_wall_s, "errors": it.errors}
                              for k, it in enumerate(iterations)]}
    if trace:
        metrics, per_iteration = per_layer_metrics(untraced, traced)
        details["layers_per_iteration"] = per_iteration
        details["traces"] = [c.trace for it in traced for c in it.commands if c.trace]
    else:
        metrics = end_to_end_metrics(untraced, setup_times)
    result = {"correct": failed == 0, "attempted": len(iterations), "failed": failed,
              "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "herdvote" / "cli.py").is_file():
        print(f"error: no herdvote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        result, details = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    env["loadavg_after"] = list(os.getloadavg())
    env["loadavg_before"] = env.pop("loadavg")

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                       "result": result, **details}, fh)
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    plain = [i for i in details["iterations"] if not i["traced"]]
    unadjusted = {"wall_s": median([i["raw_wall_s"] for i in plain]),
                  "host_factor": median([f for i in plain for f in i["host_factors"]])}
    print(json.dumps({"environment": env, "unadjusted": unadjusted}))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<15} {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{args.workload:<15} {'(unadjusted wall_s, host factor)':<36} "
          f"{unadjusted['wall_s']:>16.6g} s   {unadjusted['host_factor']:.4g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
