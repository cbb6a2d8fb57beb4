#!/usr/bin/env python3
"""The join-engine benchmark: three workloads, end to end and per layer.

One run::

    python3 perfbench/run.py --workload query-round --seed 1 \
        --seconds 35 --trace 0

prints an environment line, any notes, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from a run whose second half has the layer hooks of
``tracing.py`` installed.

Steadiness mode runs every named workload once per seed in fresh
processes and prints each end-to-end metric's run-to-run median,
quartiles, min and max against its bound::

    python3 perfbench/run.py --steady 10 [--workload W ...] [--seconds S]

See ``perfbench/README.md`` for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import time

from harness import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    SRC,
    WORKLOADS,
    calibration_ms,
    source_commit,
    use_work_dir,
)


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    use_work_dir()
    calibration_start = calibration_ms()
    module = importlib.import_module(WORKLOADS[workload])
    outcome = module.run(seed=seed, seconds=seconds, trace=trace)
    env = {
        "commit": source_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "calibration_ms": [round(calibration_start, 4),
                           round(calibration_ms(), 4)],
    }
    print("env " + json.dumps(env))
    for note in outcome.notes:
        print(note)
    if trace:
        values = {name: (unit, outcome.per_layer.get(name, 0.0))
                  for name, unit, _better in PER_LAYER}
    else:
        values = {name: (unit, outcome.end_to_end[name])
                  for name, unit, _better, _bound in END_TO_END}
    print(json.dumps({
        "correct": outcome.mismatches == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in values.items()},
    }))
    return 0


def steady(workloads: list[str], runs: int, seconds: float) -> int:
    """Run each workload *runs* times (seeds 1..runs) and print each
    end-to-end metric's run-to-run spread against its bound."""
    from stats import quartiles, relative_iqr

    worst = 0.0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        walls = []
        for seed in range(1, runs + 1):
            begin = time.perf_counter()
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - begin)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n"
                      f"{out.stderr}")
                return 1
            result = json.loads(lines[-1])
            env = json.loads(next(line for line in lines
                                  if line.startswith("env "))[4:])
            print(f"  {workload} seed {seed}: "
                  f"calibration {env['calibration_ms']} ms, "
                  + ", ".join(f"{name} {metric['value']:.4g}"
                              for name, metric in result["metrics"].items()),
                  flush=True)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{out.stdout}")
                return 1
            shares.add((result["failed"], result["attempted"])
                       if result["failed"] else 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in lines:
                if line.startswith("latency "):
                    for name, value in json.loads(line[8:]).items():
                        values.setdefault(f"latency.{name}", []).append(value)
        print(f"{workload}: {runs} runs of {seconds:g} s, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s per run, "
              f"failed {sorted(shares, key=str)}")
        print(f"  {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'min':>10} {'max':>10} {'iqr/med':>8} {'bound':>6}")
        bounds = {name: bound for name, _u, _b, bound in END_TO_END}
        for name, samples in values.items():
            q1, mid, q3 = quartiles(samples)
            spread = relative_iqr(samples)
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16} {mid:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{min(samples):>10.4f} {max(samples):>10.4f} "
                  f"{spread:>8.3f} "
                  + (f"{bound:>6.2f}" if bound is not None else "  note"))
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="steadiness mode: RUNS seeds per workload")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.steady is not None:
        if args.steady < 2:
            parser.error("--steady needs at least 2 runs")
        return steady(args.workload or list(WORKLOADS), args.steady,
                      args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("name exactly one --workload")
    return run_once(args.workload[0], args.seed, args.seconds,
                    bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
