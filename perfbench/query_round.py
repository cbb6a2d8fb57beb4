"""``query-round``: one op is ``run_query`` on each of three corpora.

* ``xmark-stream`` — XJoin; structure validation dominates;
* ``dblp`` — XJoin; dictionary encoding is about half the time;
* ``skewed`` — generic join over the skewed triangle, whose static
  plan expands the small hub domains first.

Setup builds the corpora with the tree parser and warms them with one
op. Every op's rows are compared with answers computed once apart from
the engine, and its peak intermediate size with the query's AGM bound.
"""

from __future__ import annotations

import gc
import time

from harness import (
    Outcome,
    closed_loop,
    latency_metrics,
    peak_rss_mb,
    spans_path,
)
from oracles import triangle_join
from stats import median
from tracing import (
    COUNTS,
    LAYER_HOOKS,
    SpanTree,
    Tracer,
    algorithm_hooks,
    op_layers,
)

#: corpus name -> ``corpus_query`` spec (``{seed}`` filled per run).
SPECS = {
    "xmark-stream": "xmark-stream:factor=2,seed={seed}",
    "dblp": "dblp:n=1000,seed={seed}",
    "skewed": "skewed:n=2048",
}
#: Setup runs this many times before the timed loop and, in untraced
#: runs, as many times again after it, so that its median spans the run.
SETUP_REPEATS = 3
#: Timed runs per side when the traced run measures operator regret.
REGRET_REPEATS = 5


def build(seed: int) -> dict:
    from repro.service.corpus import corpus_query

    return {name: corpus_query(spec.format(seed=seed))
            for name, spec in SPECS.items()}


def reference(name: str, query) -> frozenset:
    """The corpus's answer, computed apart from the join engine."""
    if name == "skewed":
        r, s, t = (sorted(relation.rows) for relation in query.relations)
        triangles = triangle_join(r, s, t)
        position = {attribute: ("a", "b", "c").index(attribute)
                    for attribute in query.attributes}
        return frozenset(tuple(row[position[a]] for a in query.attributes)
                         for row in triangles)
    return query.naive_join().rows


class Round:
    """The corpora, their references and AGM bounds, and the op."""

    def __init__(self, corpora: dict, outcome: Outcome):
        self.corpora = corpora
        self.outcome = outcome
        self.expected = {}
        self.bounds = {}
        self.last_ms: dict[str, float] = {}
        self.intermediate: dict[str, int] = {}

    def prepare_checks(self) -> None:
        for name, query in self.corpora.items():
            self.expected[name] = (query.attributes,
                                   reference(name, query))
            self.bounds[name] = query.size_bound().bound_ceiling

    def op(self, tracer: "Tracer | None" = None) -> None:
        from repro.engine.planner import run_query
        from repro.instrumentation import JoinStats

        for name, query in self.corpora.items():
            stats = JoinStats()
            start = time.perf_counter()
            if tracer is None:
                result = run_query(query, stats=stats)
            else:
                with tracer.span(f"corpus:{name}"):
                    result = run_query(query, stats=stats)
            self.last_ms[name] = (time.perf_counter() - start) * 1e3
            self.intermediate[name] = stats.total_intermediate
            if not self.expected:
                continue  # the warm-up op of a setup repetition
            attributes, rows = self.expected[name]
            if result.schema.attributes != attributes \
                    or result.rows != rows:
                self.outcome.mismatch(
                    f"{name}: {len(result)} rows differ from the "
                    f"reference's {len(rows)}")
            elif stats.max_intermediate > self.bounds[name]:
                self.outcome.mismatch(
                    f"{name}: peak intermediate {stats.max_intermediate} "
                    f"exceeds the AGM bound {self.bounds[name]}")


def set_up(seed: int, outcome: Outcome,
           tracer: "Tracer | None") -> "tuple[Round, float]":
    """Build the corpora and run one warm op; returns the round and the
    seconds that took."""
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        round_ = Round(build(seed), outcome)
        round_.op()
    else:
        with tracer.span("setup", root=True):
            round_ = Round(build(seed), outcome)
            round_.op()
    return round_, time.perf_counter() - start


def run(*, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.engine.planner import run_query

    outcome = Outcome()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install((*LAYER_HOOKS, *algorithm_hooks()))
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        round_ = None
        round_, seconds_taken = set_up(seed, outcome, tracer)
        setup_samples.append(seconds_taken)
    if tracer is not None:
        tracer.uninstall()
    round_.prepare_checks()
    gc.collect()

    per_corpus: dict[str, list[float]] = {name: [] for name in SPECS}

    def plain_op() -> None:
        round_.op()
        for name, ms in round_.last_ms.items():
            per_corpus[name].append(ms)

    untraced_s = seconds / 2 if trace else seconds
    latencies, loop_s = closed_loop(plain_op, untraced_s)
    outcome.attempted += len(latencies)
    rss = peak_rss_mb()
    if tracer is None:
        round_ = None
        for _ in range(SETUP_REPEATS):
            setup_samples.append(set_up(seed, outcome, None)[1])
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
            round_.op(tracer)
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
    for metric, span in (("xml.parse_ms", "xml.parse"),
                         ("xml.columnar_build_ms", "xml.columnar_build")):
        layer[metric] = median(list(tree.sum_by(span, "setup").values()))
    for name in COUNTS:
        layer[name] = median(count_deltas[name])
    for name, query in round_.corpora.items():
        layer[f"engine.intermediate_tuples.{name}"] = \
            round_.intermediate[name]
        layer[f"run_query_ms.{name}"] = median(per_corpus[name])
        planned, baseline = [], []
        for _ in range(REGRET_REPEATS):
            for algorithm, samples in ((None, planned),
                                       ("baseline", baseline)):
                start = time.perf_counter()
                run_query(query, algorithm=algorithm)
                samples.append(time.perf_counter() - start)
        layer[f"engine.operator_regret.{name}"] = median(planned) / min(
            median(planned), median(baseline))
    layer["trace.overhead_ms"] = median(traced) - median(latencies)
    tracer.dump(spans_path("query-round", seed))
    return outcome

