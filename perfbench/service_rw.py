"""``service-rw``: reads beside a live update stream on ``repro serve``.

The server runs in its own process. One client process holds two
connections, one per core of a two-core machine:

* the reader runs a closed loop; one op is pin -> query a snapshot with
  ``evaluate=true`` (a join really runs) -> release;
* the writer sends small update batches in an open loop at
  :data:`WRITE_RATE` batches/s: a relational insert, after the first
  :data:`KEEP` batches a delete of an earlier insert, and an XML price
  change. Each batch's latency is measured from its scheduled send
  time, so a stalled writer shows as latency, not as fewer samples.

Every read is checked after the loop: its ``batches`` count never
decreases, and its rows equal the naive oracle's over a client-side
rebuild of the corpus after exactly that many batches.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import sys
import time
from dataclasses import dataclass, field

from harness import (
    HERE,
    ROOT,
    SERVICE_OPS,
    WORK,
    Outcome,
    latency_metrics,
    peak_rss_mb,
    server_env,
    spans_path,
)
from stats import median
from tracing import COUNTS, SpanTree, load_spans, median_or_zero, op_layers

CORPUS = "bookstore:orders=400,users=60,seed={seed}"
#: Update batches per second sent by the open-loop writer.
WRITE_RATE = 10.0
#: A batch deletes the row inserted this many batches earlier, so the
#: relation stays the same size while the stream runs.
KEEP = 8
#: Server spawns before the timed loop and, in untraced runs, as many
#: again after it, so that the setup median spans the run.
SETUP_REPEATS = 2
READER, WRITER = "bench-reader", "bench-writer"
#: Seconds a server gets to start, or to exit after ``shutdown``.
SERVER_TIMEOUT = 60


class WriteStream:
    """The deterministic update batches of one seed (1-based)."""

    def __init__(self, seed: int, order_ids: list, price_starts: list,
                 twig_input: str):
        self.rng = random.Random(seed)
        self.order_ids = order_ids
        self.price_starts = price_starts
        self.twig_input = twig_input
        self.batches: list = [None]

    def batch(self, number: int) -> list[dict]:
        while len(self.batches) <= number:
            k = len(self.batches)
            ops = [{"kind": "insert", "relation": "R",
                    "row": [self.rng.choice(self.order_ids),
                            f"writer-{k:06d}"]}]
            if k > KEEP:
                ops.append({"kind": "delete", "relation": "R",
                            "row": self.batches[k - KEEP][0]["row"]})
            ops.append({"kind": "change_value", "input": self.twig_input,
                        "start": self.rng.choice(self.price_starts),
                        "text": str(self.rng.randint(5, 80))})
            self.batches.append(ops)
        return self.batches[number]


class Rebuild:
    """The corpus rebuilt client-side, advanced batch by batch with
    plain set and tree edits, answered by the naive oracle."""

    def __init__(self, spec: str):
        from repro.service.corpus import corpus_query

        query = corpus_query(spec)
        self.query = query
        (self.relation,) = query.relations
        (self.binding,) = query.twigs
        self.rows = set(self.relation.rows)
        self.applied = 0
        self._answers: dict[int, tuple] = {}

    def stream(self, seed: int) -> WriteStream:
        document = self.binding.document
        return WriteStream(seed,
                           [node.value for node in document.nodes("orderID")],
                           [node.start for node in document.nodes("price")],
                           self.binding.name)

    def answer(self, batches: int, stream: WriteStream) -> tuple:
        """(attributes, rows) after exactly *batches* batches."""
        if batches in self._answers:
            return self._answers[batches]
        if batches < self.applied:
            raise ValueError("the rebuild only moves forward")
        from repro.core.multimodel import MultiModelQuery, TwigBinding
        from repro.relational.relation import Relation

        document = self.binding.document
        while self.applied < batches:
            self.applied += 1
            for op in stream.batch(self.applied):
                if op["kind"] == "insert":
                    self.rows.add(tuple(op["row"]))
                elif op["kind"] == "delete":
                    self.rows.discard(tuple(op["row"]))
                else:
                    document.node_by_start(op["start"]).text = op["text"]
        query = MultiModelQuery(
            [Relation(self.relation.name, self.relation.schema.attributes,
                      self.rows)],
            [TwigBinding(self.binding.twig, document)],
            name=self.query.name)
        result = query.naive_join()
        self._answers[batches] = (result.schema.attributes, result.rows)
        return self._answers[batches]


@dataclass
class Phase:
    """What one timed loop against one server recorded."""

    reads: list = field(default_factory=list)   # (ms, batches, attrs, rows)
    writes: list = field(default_factory=list)  # (ms from due, late ms)
    queue_depths: list = field(default_factory=list)
    loop_s: float = 0.0
    attempted: int = 0
    failed: int = 0


class Server:
    """One server process and the benchmark's two connections to it."""

    def __init__(self, process, stderr_path: str):
        self.process = process
        self.stderr_path = stderr_path
        self.reader = self.writer = None
        self.session = None

    @classmethod
    async def start(cls, argv: list[str], label: str) -> "Server":
        from repro.service.client import ServiceClient

        stderr_path = os.path.join(WORK, f"server-{os.getpid()}-{label}.err")
        with open(stderr_path, "wb") as stderr:
            process = await asyncio.create_subprocess_exec(
                *argv, cwd=ROOT, env=server_env(),
                stdin=asyncio.subprocess.DEVNULL,
                stdout=asyncio.subprocess.PIPE, stderr=stderr)
        server = cls(process, stderr_path)
        try:
            line = await asyncio.wait_for(process.stdout.readline(),
                                          SERVER_TIMEOUT)
            if b"listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            host, _, port = line.decode().rsplit(" ", 1)[1].rpartition(":")
            server.reader = await ServiceClient.connect(host, int(port))
            server.writer = await ServiceClient.connect(host, int(port))
            server.session = await server.reader.open(READER)
        except BaseException:
            await server.stop()
            raise
        return server

    async def read_cycle(self) -> dict:
        pinned = await self.reader.pin(READER, self.session)
        answer = await self.reader.query(READER, self.session,
                                         snapshot=pinned["snapshot"],
                                         evaluate=True)
        await self.reader.release(READER, self.session, pinned["snapshot"])
        return answer

    async def stop(self) -> list[str]:
        """Shut the server down; returns its stderr lines."""
        try:
            if self.writer is not None:
                await self.writer.aclose()
            if self.reader is not None:
                # Round trip once more so the server has seen the other
                # connection close before it is told to shut down.
                await self.reader.ping()
                await self.reader.shutdown()
                await self.reader.aclose()
            await asyncio.wait_for(self.process.wait(), SERVER_TIMEOUT)
        finally:
            if self.process.returncode is None:
                self.process.kill()
                await self.process.wait()
        with open(self.stderr_path, encoding="utf-8",
                  errors="replace") as stderr:
            lines = stderr.read().splitlines()
        os.unlink(self.stderr_path)
        return lines


async def timed_phase(server: Server, seconds: float, stream: WriteStream,
                      sample_stats: bool, rate: float = WRITE_RATE) -> Phase:
    from repro.errors import ServiceError

    phase = Phase()
    begin = time.perf_counter()
    deadline = begin + seconds

    async def reads() -> None:
        while True:
            start = time.perf_counter()
            phase.attempted += 1
            try:
                answer = await server.read_cycle()
            except ServiceError:
                phase.failed += 1
            else:
                end = time.perf_counter()
                phase.reads.append((
                    (end - start) * 1e3, answer["batches"],
                    tuple(answer["attributes"]),
                    frozenset(tuple(row) for row in answer["rows"])))
            if time.perf_counter() >= deadline:
                phase.loop_s = time.perf_counter() - begin
                return

    async def writes() -> None:
        number = 0
        while rate > 0:
            due = begin + number / rate
            if due >= deadline:
                return
            number += 1
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            phase.attempted += 1
            try:
                await server.writer.update(WRITER, stream.batch(number))
            except ServiceError:
                phase.failed += 1
                continue
            phase.writes.append(((time.perf_counter() - due) * 1e3,
                                 (sent - due) * 1e3))
            if sample_stats:
                stats = await server.writer.stats()
                phase.queue_depths.append(stats["queue_depth"])

    await asyncio.gather(reads(), writes())
    return phase


def check(phase: Phase, rebuild: Rebuild, stream: WriteStream,
          outcome: Outcome) -> None:
    """Compare every read with the rebuild; count failures."""
    outcome.attempted += phase.attempted
    outcome.failed += phase.failed
    previous = 0
    for _ms, batches, attributes, rows in phase.reads:
        if batches < previous:
            outcome.mismatch(f"read saw {batches} batches after "
                             f"{previous}")
            continue
        previous = batches
        expected_attributes, expected = rebuild.answer(batches, stream)
        if attributes != expected_attributes or rows != expected:
            outcome.mismatch(f"read at {batches} batches: {len(rows)} rows "
                             f"differ from the rebuild's {len(expected)}")


async def drive(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    spec = CORPUS.format(seed=seed)
    plain = [sys.executable, "-m", "repro", "serve", "--corpus", spec,
             "--port", "0"]
    setup_samples = []
    server = None

    async def set_up(label: str) -> Server:
        gc.collect()
        start = time.perf_counter()
        started = await Server.start(plain, label)
        try:
            await started.read_cycle()
        except BaseException:
            report_stderr(outcome, await started.stop())
            raise
        setup_samples.append(time.perf_counter() - start)
        return started

    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                report_stderr(outcome, await server.stop())
                server = None
            server = await set_up(f"setup{repeat}")
        rebuild = Rebuild(spec)
        stream = rebuild.stream(seed)
        gc.collect()
        untraced_s = seconds / 2 if trace else seconds
        phase = await timed_phase(server, untraced_s, stream, False)
        rss = peak_rss_mb(server.process.pid)
        report_stderr(outcome, await server.stop())
        server = None
        check(phase, rebuild, stream, outcome)
        latencies = [read[0] for read in phase.reads]
        if not trace:
            for repeat in range(SETUP_REPEATS):
                report_stderr(outcome, await (
                    await set_up(f"after{repeat}")).stop())
        outcome.end_to_end = {
            "setup_s": median(setup_samples),
            **latency_metrics(latencies, phase.loop_s, outcome),
            "rss_mb": rss,
        }
        if not trace:
            return outcome

        layer = outcome.per_layer
        layer["service.write_p50_ms"] = median([w[0] for w in phase.writes])
        layer["load.writer_late_ms"] = median([w[1] for w in phase.writes])
        path = spans_path("service-rw", seed)
        server = await Server.start(
            [sys.executable, os.path.join(HERE, "serve_traced.py"),
             "--corpus", spec, "--spans", path, "--port", "0"], "traced")
        await server.read_cycle()
        rebuild = Rebuild(spec)
        stream = rebuild.stream(seed)
        traced = await timed_phase(server, seconds - untraced_s, stream,
                                   True)
        stats = await server.reader.stats()
        report_stderr(outcome, await server.stop())
        server = None
        check(traced, rebuild, stream, outcome)
        traced_ms = [read[0] for read in traced.reads]
        layer["trace.overhead_ms"] = median(traced_ms) - median(latencies)
        cache = stats["plan_cache"]
        layer["service.plan_cache_hit_ratio"] = \
            cache["hits"] / max(1, cache["hits"] + cache["misses"])
        layer["engine.races"] = stats["adaptive"]["races"] / max(
            1, stats["queries"])
        layer["service.queue_depth_max"] = max(traced.queue_depths,
                                               default=0)
        spans, counts = load_spans(path)
        server_layers(SpanTree(spans), counts, len(traced_ms), layer)
        return outcome
    finally:
        if server is not None:
            report_stderr(outcome, await server.stop())


def report_stderr(outcome: Outcome, lines: list[str]) -> None:
    if lines:
        outcome.notes.append("server stderr:")
        outcome.notes.extend("  " + line for line in lines)


def server_layers(tree: SpanTree, counts: dict, reads: int,
                  layer: dict) -> None:
    """Per-layer metrics from the traced server's spans."""
    def durations(name: str) -> list[float]:
        return [tree.duration(record) * 1e3 for record in tree.named(name)]

    for op in SERVICE_OPS:
        layer[f"service.request_ms.{op}"] = median_or_zero(
            durations(f"service.request.{op}"))
    layer["mvcc.pin_ms"] = median_or_zero(durations("mvcc.pin"))
    layer["service.run_query_ms"] = median_or_zero(
        durations("service.run_query"))
    layer["engine.adaptive_plan_ms"] = median_or_zero(
        durations("engine.adaptive_plan"))

    request_op = {record[4]: record[0].rpartition(".")[2]
                  for record in tree.spans
                  if record[0].startswith("service.request.")}
    snapshot: dict = {}
    for name in ("mvcc.detach", "mvcc.snapshot_query"):
        for record in tree.named(name):
            snapshot[record[4]] = snapshot.get(record[4], 0.0) \
                + tree.duration(record) * 1e3
    layer["mvcc.snapshot_query_ms"] = median_or_zero(snapshot.values())
    layer["service.encode_ms"] = median_or_zero(
        tree.duration(record) * 1e3 for record in tree.named("service.encode")
        if request_op.get(record[4]) == "query")

    applies = tree.outermost("updates.apply")
    per_batch = []
    for update in tree.named("service.request.update"):
        per_batch.append(sum(tree.duration(record) * 1e3
                             for record in applies
                             if update[1] <= record[1] <= update[2]))
    layer["updates.apply_ms"] = median_or_zero(per_batch)

    layer.update(op_layers(tree, "service.request.query"))
    for name in COUNTS:
        layer[name] = counts.get(name, 0) / max(1, reads)


def run(*, seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(drive(seed, seconds, trace))
