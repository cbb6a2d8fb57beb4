"""Spans and counters recorded around calls into the program's layers.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install`
swaps the named public functions and methods for wrappers and
:meth:`Tracer.uninstall` puts the originals back, so an untraced run
executes exactly the program's own code.

A span is ``[name, start, end, parent, request]``. The parent and the
request id travel in context variables, so spans nest correctly inside
asyncio tasks and threads started with ``asyncio.to_thread``. Spans stay
in memory; :meth:`Tracer.dump` writes them out once, at exit.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from stats import median

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Hook:
    """One call site to wrap.

    ``target`` is ``module`` or ``module:Class``; ``attr`` the function
    or method name. A module-level function is rebound in every loaded
    ``repro`` module that imported it by name unless ``local`` is set.
    ``kind`` is ``"span"`` (timed) or ``"count"`` (calls counted only,
    for functions too hot to time).
    """

    target: str
    attr: str
    name: str
    kind: str = "span"
    root: bool = False
    local: bool = False


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Collects spans and call counts while its hooks are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent", default=None)
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None)
        self._next_request = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, *, root: bool = False,
             new_request: bool = False):
        """Record one span around the ``with`` body."""
        record = [name, perf_counter(), 0.0,
                  None if root else self._parent.get(), None]
        request_token = None
        if new_request:
            self._next_request += 1
            request_token = self._request.set(self._next_request)
        if new_request or not root:
            record[4] = self._request.get()
        self.spans.append(record)
        token = self._parent.set(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._parent.reset(token)
            if request_token is not None:
                self._request.reset(request_token)

    def timed(self, name: str, fn: Callable, *,
              root: bool = False) -> Callable:
        """*fn* wrapped in a span named *name*."""
        spans, parent, request = self.spans, self._parent, self._request

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), 0.0,
                      None if root else parent.get(),
                      None if root else request.get()]
            spans.append(record)
            token = parent.set(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                parent.reset(token)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped to count its calls under *name*."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def wrap(self, owner: object, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(original)``, keeping
        classmethod/staticmethod descriptors intact."""
        raw = inspect_attr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            self._patch(owner, attr, type(raw)(make(raw.__func__)))
        else:
            self._patch(owner, attr, make(raw))

    def install(self, hooks: Iterable[Hook]) -> None:
        """Install every hook (undo with :meth:`uninstall`)."""
        for hook in hooks:
            owner = _resolve(hook.target)
            if hook.kind == "count":
                make = functools.partial(self.counted, hook.name)
            else:
                make = functools.partial(self.timed, hook.name,
                                         root=hook.root)
            if isinstance(owner, type) or hook.local:
                self.wrap(owner, hook.attr, make)
                continue
            original = getattr(owner, hook.attr)
            wrapper = make(original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if (name == "repro" or name.startswith("repro.")) \
                        and vars(module).get(hook.attr) is original:
                    self._patch(module, hook.attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans (parents as indices) and counts as one JSON file."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [[name, start, end,
                 index.get(id(parent), -1) if parent is not None else -1,
                 request]
                for name, start, end, parent, request in self.spans]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": rows, "counts": dict(self.counts)}, out)


def inspect_attr(owner: object, attr: str):
    """``owner.attr`` without descriptor binding, searching the MRO."""
    for klass in (owner.__mro__ if isinstance(owner, type) else (owner,)):
        if attr in vars(klass):
            return vars(klass)[attr]
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")


def algorithm_hooks() -> list[Hook]:
    """``.run`` of every registered join and twig algorithm."""
    from repro.engine.interface import available_algorithms, get_algorithm
    from repro.xml.interface import (
        available_twig_algorithms,
        get_twig_algorithm,
    )

    hooks = []
    for name, getter, span in (
            *((n, get_algorithm, "engine.search")
              for n in available_algorithms()),
            *((n, get_twig_algorithm, "xml.match")
              for n in available_twig_algorithms())):
        klass = type(getter(name))
        hooks.append(Hook(f"{klass.__module__}:{klass.__qualname__}", "run",
                          span))
    return hooks


#: The engine, XML, core and buffer layers, as one process sees them.
LAYER_HOOKS = (
    Hook("repro.xml.parser", "parse_document", "xml.parse"),
    Hook("repro.xml.columnar", "columnar", "xml.columnar_build"),
    Hook("repro.xml.columnar", "document_stats", "xml.columnar_build"),
    Hook("repro.xml.streaming", "stream_document", "xml.stream_build"),
    Hook("repro.engine.planner", "plan_query", "engine.plan"),
    Hook("repro.engine.planner", "choose_twig_algorithm",
         "engine.twig_route"),
    Hook("repro.engine.encoded:EncodedInstance", "from_query",
         "engine.encode"),
    Hook("repro.core.validation:StructureValidator", "validate",
         "core.validate"),
    # XMLNode.value resolves parse_value from its own module only.
    Hook("repro.xml.model", "parse_value", "xml.value_parse_calls",
         kind="count", local=True),
    Hook("repro.buffers.kernels", "gallop", "buffers.gallop_calls",
         kind="count"),
    Hook("repro.buffers.kernels", "intersect_many",
         "buffers.intersect_calls", kind="count"),
)


#: The call counters among :data:`LAYER_HOOKS`.
COUNTS = tuple(hook.name for hook in LAYER_HOOKS if hook.kind == "count")

#: (metric, span, self time?) read per op on every workload.
OP_SPANS = (
    ("engine.plan_ms", "engine.plan", False),
    ("engine.encode_ms", "engine.encode", False),
    ("engine.search_ms", "engine.search", True),
    ("core.validate_ms", "core.validate", False),
)


def median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return median(values) if values else 0.0


def op_layers(tree: "SpanTree", group: str) -> dict:
    """The :data:`OP_SPANS` metrics and the validation call count, as
    medians over the *group* spans (one per op)."""
    out = {metric: median_or_zero(
               tree.sum_by(span, group, self_time=self_time).values())
           for metric, span, self_time in OP_SPANS}
    out["core.validate_calls"] = median_or_zero(
        tree.count_by("core.validate", group).values())
    return out


class SpanTree:
    """Read-side view of recorded spans: nesting, self time, grouping."""

    def __init__(self, spans: Sequence[list]):
        self.spans = spans
        self._children: dict[int, list] = defaultdict(list)
        for record in spans:
            if record[3] is not None:
                self._children[id(record[3])].append(record)

    @staticmethod
    def duration(record: list) -> float:
        return record[2] - record[1]

    def self_time(self, record: list) -> float:
        """Duration minus the part its child spans cover."""
        return self.duration(record) - sum(
            self.duration(child) for child in self._children[id(record)])

    def ancestor(self, record: list, name: str) -> "list | None":
        """Nearest ancestor span called *name*, or None."""
        parent = record[3]
        while parent is not None and parent[0] != name:
            parent = parent[3]
        return parent

    def named(self, name: str) -> list[list]:
        return [record for record in self.spans if record[0] == name]

    def outermost(self, name: str) -> list[list]:
        """Spans called *name* not nested inside another such span."""
        return [record for record in self.named(name)
                if self.ancestor(record, name) is None]

    def sum_by(self, name: str, group: str, *,
               self_time: bool = False) -> dict[int, float]:
        """Total ms of the outermost *name* spans under each *group*
        span, keyed by the group span's id (groups without any: 0)."""
        totals = {id(record): 0.0 for record in self.named(group)}
        for record in self.outermost(name):
            owner = self.ancestor(record, group)
            if owner is not None:
                seconds = (self.self_time(record) if self_time
                           else self.duration(record))
                totals[id(owner)] += seconds * 1e3
        return totals

    def count_by(self, name: str, group: str) -> dict[int, int]:
        """How many *name* spans (nested ones too) each *group* span
        holds, keyed by the group span's id."""
        totals = {id(record): 0 for record in self.named(group)}
        for record in self.named(name):
            owner = self.ancestor(record, group)
            if owner is not None:
                totals[id(owner)] += 1
        return totals


def load_spans(path: str) -> tuple[list[list], dict]:
    """Spans and counts written by :meth:`Tracer.dump`, with parents
    turned back into references."""
    with open(path, encoding="utf-8") as source:
        data = json.load(source)
    records = [[name, start, end, None, request]
               for name, start, end, _parent, request in data["spans"]]
    for record, row in zip(records, data["spans"]):
        if row[3] >= 0:
            record[3] = records[row[3]]
    return records, data["counts"]
