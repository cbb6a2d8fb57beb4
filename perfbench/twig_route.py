"""``twig-route``: one op is ``match_twig`` on each of the four bench
twigs, with the planner's matcher pick, over a streamed XMark arena.

Setup streams the XMark text into a file arena with the SAX-style
builder and queries it attached, so the tree parser never runs here and
XJoin's structure validation and relational search are not involved.
Every op's rows are compared with a brute-force evaluation over
``xml.etree.ElementTree`` parsing the same generated text.
"""

from __future__ import annotations

import gc
import re
import time

from harness import (
    TWIGS,
    Outcome,
    closed_loop,
    latency_metrics,
    peak_rss_mb,
    spans_path,
)
from oracles import EtreeDocument, match_twig
from stats import median
from tracing import (
    COUNTS,
    LAYER_HOOKS,
    SpanTree,
    Tracer,
    algorithm_hooks,
    op_layers,
)

#: XMark scale factor of the streamed document.
FACTOR = 12
#: Setup runs this many times before the timed loop and, in untraced
#: runs, as many times again after it, so that its median spans the run.
SETUP_REPEATS = 3
#: Timed runs per matcher when the traced run measures routing regret.
REGRET_REPEATS = 5


def slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")


def bench_twigs() -> dict:
    """slug -> twig, checked against the metric names."""
    from repro.xml.bench import bench_twigs as twigs

    named = {slug(label): twig for label, twig in twigs()}
    if tuple(named) != TWIGS:
        raise RuntimeError(f"bench twigs {tuple(named)} no longer match "
                           f"the per-layer metric names {TWIGS}")
    return named


class Arena:
    """A streamed, attached XMark document (closed and unlinked by
    :meth:`close`)."""

    def __init__(self, seed: int):
        from repro.xml.arenaview import attach_arena_document
        from repro.xml.streaming import stream_document
        from repro.xml.xmark import xmark_stream_chunks

        self.arena = stream_document(xmark_stream_chunks(FACTOR, seed=seed))
        try:
            self.document, _view = attach_arena_document(self.arena)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self.arena.close()
        self.arena.unlink()


def run(*, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.engine.planner import choose_twig_algorithm
    from repro.xml.algorithms import match_twig as planned_match
    from repro.xml.interface import (
        available_twig_algorithms,
        get_twig_algorithm,
    )
    from repro.xml.xmark import xmark_stream_chunks

    outcome = Outcome()
    twigs = bench_twigs()
    expected: dict = {}
    tracer = Tracer() if trace else None

    def op(arena: Arena, traced: bool = False) -> None:
        for name, twig in twigs.items():
            if traced:
                with tracer.span(f"twig:{name}"):
                    result = planned_match(arena.document, twig)
            else:
                result = planned_match(arena.document, twig)
            if expected and (result.schema.attributes != twig.attributes
                             or result.rows != expected[name]):
                outcome.mismatch(f"{name}: {len(result)} rows differ from "
                                 f"the etree evaluation's "
                                 f"{len(expected[name])}")

    def set_up() -> "tuple[Arena, float]":
        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            built = Arena(seed)
            op(built)
        else:
            with tracer.span("setup", root=True):
                built = Arena(seed)
                op(built)
        return built, time.perf_counter() - start

    arena = None
    setup_samples = []
    if tracer is not None:
        tracer.install((*LAYER_HOOKS, *algorithm_hooks()))
    try:
        for _ in range(SETUP_REPEATS):
            if arena is not None:
                arena.close()
                arena = None
            arena, seconds_taken = set_up()
            setup_samples.append(seconds_taken)
        if tracer is not None:
            tracer.uninstall()
        reference = EtreeDocument("".join(xmark_stream_chunks(FACTOR,
                                                              seed=seed)))
        expected.update((name, frozenset(match_twig(reference, twig)))
                        for name, twig in twigs.items())
        del reference
        gc.collect()

        untraced_s = seconds / 2 if trace else seconds
        latencies, loop_s = closed_loop(lambda: op(arena), untraced_s)
        outcome.attempted += len(latencies)
        rss = peak_rss_mb()
        if tracer is None:
            for _ in range(SETUP_REPEATS):
                arena.close()
                arena = None
                arena, seconds_taken = set_up()
                setup_samples.append(seconds_taken)
            outcome.end_to_end = {
                "setup_s": median(setup_samples),
                **latency_metrics(latencies, loop_s, outcome),
                "rss_mb": rss,
            }
            return outcome

        count_deltas: dict[str, list[int]] = {name: [] for name in COUNTS}

        def traced_op() -> None:
            before = dict(tracer.counts)
            with tracer.span("op", root=True):
                op(arena, traced=True)
            for name in COUNTS:
                count_deltas[name].append(tracer.counts[name]
                                          - before.get(name, 0))

        tracer.install((*LAYER_HOOKS, *algorithm_hooks()))
        traced, _ = closed_loop(traced_op, seconds - untraced_s)
        tracer.uninstall()
        outcome.attempted += len(traced)

        layer = outcome.per_layer
        tree = SpanTree(tracer.spans)
        layer.update(op_layers(tree, "op"))
        layer["xml.stream_build_ms"] = median(list(
            tree.sum_by("xml.stream_build", "setup").values()))
        layer["engine.twig_route_ms"] = median(list(
            tree.sum_by("engine.twig_route", "op").values()))
        for name in COUNTS:
            layer[name] = median(count_deltas[name])
        for name, twig in twigs.items():
            layer[f"xml.match_ms.{name}"] = median(list(
                tree.sum_by("xml.match", f"twig:{name}").values()))
            picked = choose_twig_algorithm(arena.document, twig)
            times: dict[str, list[float]] = {}
            for _ in range(REGRET_REPEATS):
                for matcher in available_twig_algorithms():
                    algorithm = get_twig_algorithm(matcher)
                    if not algorithm.supports(twig):
                        continue
                    start = time.perf_counter()
                    algorithm.run(arena.document, twig)
                    times.setdefault(matcher, []).append(
                        time.perf_counter() - start)
            medians = {matcher: median(samples)
                       for matcher, samples in times.items()}
            layer[f"engine.twig_regret.{name}"] = \
                medians[picked] / min(medians.values())
            fastest = min(medians, key=medians.get)
            outcome.notes.append(
                f"twig {name}: picked {picked} "
                f"{medians[picked] * 1e3:.1f} ms, fastest {fastest} "
                f"{medians[fastest] * 1e3:.1f} ms")
        layer["trace.overhead_ms"] = median(traced) - median(latencies)
        tracer.dump(spans_path("twig-route", seed))
        return outcome
    finally:
        if tracer is not None:
            tracer.uninstall()
        if arena is not None:
            arena.close()
