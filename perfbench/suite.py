"""Run every workload and print all metrics: the benchmark's one command.

Usage:
    python3 perfbench/suite.py [--repeats R] [--seed N] [--no-trace] [--out PATH]

For each workload of BENCHMARK.json, and with its `run_seconds`, it makes R
untraced runs (seeds N .. N+R-1) and one traced run (seed N), each a
`run.py` subprocess, one at a time.  It prints every end-to-end metric by
name and unit (median over the runs, the quartile spread as a share of the
median next to the metric's bound, and the error rate), the unadjusted wall
time and host factor, every per-layer metric, and a row per workload
comparing traced and untraced wall time.  The whole result set, with the environment before and
after, goes to PATH (default `.perfbench_out/suite.json`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BENCH, OUT_DIR, ROOT, environment

SECONDS = BENCH["run_seconds"]
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench_run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(l) for l in lines if l.startswith('{"environment"'))
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": time.monotonic() - start, **env, **result}


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=str(OUT_DIR / "suite.json"))
    args = parser.parse_args(argv)

    env_before = environment()
    runs = []
    for name in NAMES:
        for r in range(args.repeats):
            runs.append(bench_run(name, args.seed + r, 0))
            print(f"# {name} seed {args.seed + r}: {runs[-1]['elapsed_s']:.1f} s", file=sys.stderr)
        if not args.no_trace:
            runs.append(bench_run(name, args.seed, 1))
    env_after = environment()

    summary = {}
    print(f"commit {env_before['commit']}  nproc {env_before['nproc']}  {env_before['cpu_model']}")
    print(f"python {env_before['python']}  numpy {env_before['numpy']}  scipy {env_before['scipy']}"
          f"  load {env_before['loadavg']} -> {env_after['loadavg']}")
    print(f"\nend-to-end, tracing off ({args.repeats} run(s) of {SECONDS} s per workload)")
    print(f"{'workload':<15} {'metric':<13} {'median':>12} {'unit':<6} {'spread':>7} {'bound':>6}")
    for name in NAMES:
        plain = [r for r in runs if r["workload"] == name and r["trace"] == 0]
        attempted = sum(r["attempted"] for r in plain)
        failed = sum(r["failed"] for r in plain)
        rows = {}
        for metric in BENCH["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in plain]
            rows[metric["name"]] = {"median": statistics.median(values), "unit": metric["unit"],
                                    "spread": spread(values), "bound": metric["bound"],
                                    "values": values}
            print(f"{name:<15} {metric['name']:<13} {rows[metric['name']]['median']:>12.6g} "
                  f"{metric['unit']:<6} {rows[metric['name']]['spread']:>7.3f} "
                  f"{metric['bound']:>6.2f}")
        print(f"{name:<15} {'error_rate':<13} {failed / attempted:>12.6g} {'ratio':<6}"
              f"   ({failed} of {attempted} iterations failed)")
        raw = [r["unadjusted"]["wall_s"] for r in plain]
        unadjusted = {"wall_s": statistics.median(raw), "wall_s_spread": spread(raw),
                      "host_factor": statistics.median(r["unadjusted"]["host_factor"]
                                                       for r in plain)}
        print(f"{name:<15} (unadjusted wall_s {unadjusted['wall_s']:.6g} s, spread "
              f"{unadjusted['wall_s_spread']:.3f}; host factor {unadjusted['host_factor']:.4g})")
        summary[name] = {"end_to_end": rows, "unadjusted": unadjusted, "attempted": attempted,
                         "failed": failed, "error_rate": failed / attempted}

    traced = {r["workload"]: r for r in runs if r["trace"] == 1}
    if traced:
        print("\nper-layer, traced run (median over traced iterations; 0 = layer not reached)")
        for metric in BENCH["per_layer"]:
            cells = "".join(f" {traced[n]['metrics'][metric['name']]['value']:>14.6g}"
                            for n in NAMES)
            print(f"{metric['name']:<36}{cells} {metric['unit']}")
        print(f"{'':<36}" + "".join(f" {n:>14}" for n in NAMES))
        print("note: the simulation's voting rule is inlined in engine.step; it is timed"
              " only inside engine.step_us, voting.* covers the solver's calls")
        print("\ntracing overhead: traced vs untraced wall_s of the same iteration")
        for name, r in traced.items():
            m = r["metrics"]
            print(f"{name:<15} untraced {m['trace.untraced_wall_s']['value']:.4f} s  "
                  f"traced {m['trace.wall_s']['value']:.4f} s  "
                  f"ratio {m['trace.overhead_ratio']['value']:.3f}")
            summary[name]["per_layer"] = {k: v["value"] for k, v in m.items()}

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    env = dict(env_before, loadavg_after=env_after["loadavg"])
    env["loadavg_before"] = env.pop("loadavg")
    out.write_text(json.dumps({
        "environment": env,
        "settings": {"repeats": args.repeats, "seed": args.seed, "seconds": SECONDS},
        "summary": summary, "runs": runs,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"\nresult set written to {os.path.relpath(out, Path.cwd())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
