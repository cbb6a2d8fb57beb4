#!/usr/bin/env python3
"""Re-measure the reference figures quoted in ``perfbench/README.md``.

    python3 perfbench/facts.py

Prints, as medians of a few runs each:

* planned ``run_query`` against ``algorithm="baseline"`` on three
  corpora (the static planner's operator choice);
* on a streamed XMark factor-24 arena, each bench twig's routed
  matcher against the naive matcher;
* the service's shared plan cache with and without the update stream
  of ``service-rw``.
"""

from __future__ import annotations

import asyncio
import sys
import time

from harness import use_work_dir

REPEATS = 5


def timed_median(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    samples.sort()
    return samples[len(samples) // 2]


def operator_choice() -> None:
    from repro.engine.planner import plan_query, run_query
    from repro.service.corpus import corpus_query

    for spec in ("xmark-stream:2", "dblp:2000",
                 "bookstore:orders=400,users=60"):
        query = corpus_query(spec)
        run_query(query)
        planned = timed_median(lambda: run_query(query))
        baseline = timed_median(lambda: run_query(query,
                                                  algorithm="baseline"))
        print(f"{spec}: planned {plan_query(query).algorithm} "
              f"{planned:.1f} ms, baseline {baseline:.1f} ms")


def twig_routing(factor: int = 24) -> None:
    from repro.engine.planner import choose_twig_algorithm
    from repro.xml.arenaview import attach_arena_document
    from repro.xml.bench import bench_twigs
    from repro.xml.interface import get_twig_algorithm
    from repro.xml.streaming import stream_document
    from repro.xml.xmark import xmark_stream_chunks

    arena = stream_document(xmark_stream_chunks(factor, seed=0))
    try:
        document, view = attach_arena_document(arena)
        print(f"xmark-stream factor {factor} arena, {view.size} nodes:")
        for label, twig in bench_twigs():
            picked = choose_twig_algorithm(document, twig)
            times = {name: timed_median(
                lambda name=name: get_twig_algorithm(name).run(document,
                                                               twig))
                for name in dict.fromkeys((picked, "naive"))}
            print(f"  {label}: routed to {picked} {times[picked]:.1f} ms, "
                  f"naive {times['naive']:.1f} ms")
    finally:
        arena.close()
        arena.unlink()


async def plan_cache(seconds: float = 15.0) -> None:
    from service_rw import CORPUS, WRITE_RATE, Rebuild, Server, timed_phase

    spec = CORPUS.format(seed=1)
    for rate in (0.0, WRITE_RATE):
        server = await Server.start(
            [sys.executable, "-m", "repro", "serve", "--corpus", spec,
             "--port", "0"], f"facts{rate:g}")
        try:
            phase = await timed_phase(server, seconds,
                                      Rebuild(spec).stream(1), False, rate)
            stats = await server.reader.stats()
        finally:
            lines = await server.stop()
        cache = stats["plan_cache"]
        reads = sorted(read[0] for read in phase.reads)
        print(f"{spec}, {rate:g} batches/s: {len(reads)} reads, "
              f"read p50 {reads[len(reads) // 2]:.1f} ms, plan cache "
              f"{cache['hits']} hits / {cache['misses']} misses, "
              f"{stats['adaptive']['races']} races"
              + (f"; server stderr: {lines}" if lines else ""))


def main() -> int:
    use_work_dir()
    operator_choice()
    twig_routing()
    asyncio.run(plan_cache())
    return 0


if __name__ == "__main__":
    sys.exit(main())
