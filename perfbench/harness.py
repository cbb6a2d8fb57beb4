"""Shared pieces of the benchmark: metric tables, outcomes, timing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from stats import median, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for arenas, span dumps and server logs; the benchmark
#: never writes outside its checkout.
WORK = os.path.join(HERE, ".work")

#: workload name -> module in this directory.
WORKLOADS = {
    "query-round": "query_round",
    "twig-route": "twig_route",
    "service-rw": "service_rw",
}

#: (name, unit, better, bound): every workload reports all of them.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("rss_mb", "MiB", "lower", 0.1),
)

CORPORA = ("xmark-stream", "dblp", "skewed")
TWIGS = ("auction-bidders", "person-interests", "bid-chain",
         "high-bids-low-ids")
SERVICE_OPS = ("pin", "query", "release", "update")

#: (name, unit, better). A workload that never reaches a layer reports
#: 0 for it, which is the prediction for that workload.
PER_LAYER = (
    ("xml.parse_ms", "ms", "lower"),
    ("xml.columnar_build_ms", "ms", "lower"),
    ("xml.stream_build_ms", "ms", "lower"),
    ("engine.plan_ms", "ms", "lower"),
    ("engine.encode_ms", "ms", "lower"),
    ("engine.search_ms", "ms", "lower"),
    ("core.validate_ms", "ms", "lower"),
    ("core.validate_calls", "count", "lower"),
    ("xml.value_parse_calls", "count", "lower"),
    ("buffers.gallop_calls", "count", "lower"),
    ("buffers.intersect_calls", "count", "lower"),
    *((f"engine.intermediate_tuples.{c}", "count", "lower")
      for c in CORPORA),
    *((f"run_query_ms.{c}", "ms", "lower") for c in CORPORA),
    *((f"engine.operator_regret.{c}", "ratio", "lower") for c in CORPORA),
    ("engine.twig_route_ms", "ms", "lower"),
    *((f"xml.match_ms.{t}", "ms", "lower") for t in TWIGS),
    *((f"engine.twig_regret.{t}", "ratio", "lower") for t in TWIGS),
    *((f"service.request_ms.{op}", "ms", "lower") for op in SERVICE_OPS),
    ("service.plan_cache_hit_ratio", "ratio", "higher"),
    ("engine.adaptive_plan_ms", "ms", "lower"),
    ("engine.races", "1/read", "lower"),
    ("mvcc.pin_ms", "ms", "lower"),
    ("mvcc.snapshot_query_ms", "ms", "lower"),
    ("service.run_query_ms", "ms", "lower"),
    ("service.encode_ms", "ms", "lower"),
    ("updates.apply_ms", "ms", "lower"),
    ("service.queue_depth_max", "count", "lower"),
    ("service.write_p50_ms", "ms", "lower"),
    ("load.writer_late_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Ops whose output disagreed with an independent computation
    #: (each is also counted in ``failed``).
    mismatches: int = 0
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def mismatch(self, message: str) -> None:
        self.failed += 1
        self.mismatches += 1
        if self.mismatches <= 5:
            self.notes.append(f"MISMATCH: {message}")


def calibration_ms() -> float:
    """Median ms of a fixed pure-Python loop: shows host drift only."""
    samples = []
    for _ in range(15):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    samples.sort()
    return samples[len(samples) // 2]


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def source_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def use_work_dir() -> None:
    """Keep this process's temporary files, and its children's, inside
    the checkout, and make the program's sources importable."""
    import tempfile

    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = WORK
    tempfile.tempdir = WORK
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def server_env() -> dict:
    """Environment for child interpreters: the checkout's sources, and
    temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = WORK
    return env


def spans_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans at exit."""
    return os.path.join(WORK, f"spans-{workload}-seed{seed}.json")


def closed_loop(op: Callable[[], None], seconds: float
                ) -> tuple[list[float], float]:
    """Call *op* back to back until *seconds* have passed (the op that
    crosses the deadline completes). Returns (latencies ms, loop s)."""
    latencies = []
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        start = time.perf_counter()
        op()
        end = time.perf_counter()
        latencies.append((end - start) * 1e3)
        if end >= deadline:
            return latencies, end - begin


def latency_metrics(latencies: list[float], loop_s: float,
                    outcome: Outcome) -> dict:
    """The op-latency end-to-end metric of one timed loop. The sample
    count, the median, the mean and the throughput go into a ``latency``
    note line: on a host whose speed drifts between runs they spread
    too widely to be gated (see README, "Steadiness")."""
    outcome.notes.append("latency " + json.dumps({
        "n": len(latencies),
        "p50_ms": median(latencies),
        "p75_ms": percentile(latencies, 0.75),
        "p90_ms": percentile(latencies, 0.9),
        "mean_ms": sum(latencies) / len(latencies),
        "ops_per_s": len(latencies) / loop_s,
    }))
    return {"op_p90_ms": percentile(latencies, 0.9)}
