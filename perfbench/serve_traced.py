"""Serve a corpus as ``python -m repro serve`` does, with layer hooks.

Used by the traced ``service-rw`` run::

    python3 perfbench/serve_traced.py --corpus SPEC --spans PATH

Installs the engine, XML, core and buffer hooks of :mod:`tracing` plus
the service, MVCC and update ones below, serves line-JSON over TCP until
a ``shutdown`` request, and then writes the spans to PATH. Every request
line gets a request id carried by all spans it causes.
"""

from __future__ import annotations

import argparse
import asyncio

from tracing import LAYER_HOOKS, Hook, Tracer, algorithm_hooks

SERVICE_HOOKS = (
    Hook("repro.engine.adaptive:AdaptivePlanner", "plan",
         "engine.adaptive_plan"),
    Hook("repro.updates.session:QuerySession", "pin", "mvcc.pin"),
    Hook("repro.mvcc.snapshot:Snapshot", "detach", "mvcc.detach"),
    Hook("repro.mvcc.snapshot:Snapshot", "query", "mvcc.snapshot_query"),
    Hook("repro.service.server", "run_query", "service.run_query",
         local=True),
    Hook("repro.service.server", "encode_message", "service.encode",
         local=True),
    # Batches are applied by the service's writer task, outside any
    # request's context, so these spans start their own trees.
    *(Hook("repro.updates.session:QuerySession", method, "updates.apply",
           root=True)
      for method in ("insert", "delete", "change_value")),
)


def install_request_spans(tracer: Tracer) -> None:
    """Span every request line (with a fresh request id) and every
    dispatched request (named by its op)."""
    from repro.service.server import ReproService

    def line_wrapper(original):
        async def handle_line(self, line):
            with tracer.span("service.line", root=True, new_request=True):
                return await original(self, line)
        return handle_line

    def request_wrapper(original):
        async def handle_request(self, message):
            op = message.get("op") if isinstance(message, dict) else None
            with tracer.span(f"service.request.{op}"):
                return await original(self, message)
        return handle_request

    tracer.wrap(ReproService, "handle_line", line_wrapper)
    tracer.wrap(ReproService, "handle_request", request_wrapper)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()

    from repro.service.server import ReproService

    tracer = Tracer()
    tracer.install((*LAYER_HOOKS, *algorithm_hooks(), *SERVICE_HOOKS))
    install_request_spans(tracer)
    service = ReproService(args.corpus)
    try:
        asyncio.run(service.serve_tcp(host=args.host, port=args.port))
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
