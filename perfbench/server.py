"""Server launcher for the ``remote-ingest`` workload.

Builds an in-memory engine with ``--triggers`` scale-shape triggers (all
resident in the default cache), serves it with the default front end and
one driver thread, and prints ``READY <port>``.  It then obeys one command
per stdin line:

``on`` / ``aggregate`` / ``off``
    start recording per-layer aggregates, with (``on``) or without
    (``aggregate``) keeping spans, and stop (``--trace 1`` only);
``mark``
    reset the update-queue backlog high-water mark;
``stop``
    stop serving and print one JSON report line: peak RSS, failure counts,
    and (traced) the per-layer aggregates, engine counter deltas and the
    attributed share of the server's CPU time in the ``on`` windows.

Run from the checkout root: ``python3 perfbench/server.py --triggers N``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def create_triggers(tman, count: int, sources: int) -> None:
    """Scale-shape triggers whose ``ScaleHit`` event also carries the
    token's salary, in which the generator encodes the token number."""
    from repro.engine.trigger import generalize_statement, instantiate_statement
    from repro.lang.parser import parse_command
    from repro.workloads.scale import scale_trigger, source_name

    templates = {}
    for i in range(count):
        text, key, constants = scale_trigger(i, sources)
        src = source_name(i, sources)
        text = text.replace(f"ScaleHit({src}.name)",
                            f"ScaleHit({src}.name, {src}.salary)")
        template = templates.get((src, key))
        if template is None:
            template, _ = generalize_statement(parse_command(text))
            templates[(src, key)] = template
        tman.create_trigger_statement(
            instantiate_statement(template, constants, f"sc{i}", None), text
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--triggers", type=int, required=True)
    parser.add_argument("--sources", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import layers
    from repro import TriggerMan
    from repro.workloads.scale import define_scale_sources
    from workloads import peak_rss_mb

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.cpu = True
        layers.install(tracer)
    tman = TriggerMan.in_memory()
    define_scale_sources(tman, args.sources)
    if tracer is not None:
        tracer.active = True  # times trigger creation
    create_triggers(tman, args.triggers, args.sources)
    if tracer is not None:
        tracer.active = False
        setup_totals = tracer.totals()
    tman.triggers()  # loads every trigger into the cache
    server = tman.serve()
    tman.start_drivers(1)
    print("READY", server.address[1], flush=True)

    counters: dict = {}
    traced = None  # aggregates of every on/off window so far
    # CPU time of every server thread in the ``on`` windows (the saturated
    # drain), and the part of it spent inside outermost spans
    span_cpu = thread_cpu = 0
    for line in sys.stdin:
        command = line.strip()
        if tracer is not None and command in ("on", "aggregate"):
            window_counters = layers.engine_counters(tman)
            window_totals = tracer.totals()
            window_threads = layers.threads_cpu_ns()
            window_spans = tracer.top_cpu_ns()
            tracer.keep_spans = command == "on"
            tracer.active = True
        elif tracer is not None and command == "off":
            drain = tracer.keep_spans
            tracer.keep_spans = tracer.active = False
            if drain:
                span_cpu += tracer.top_cpu_ns() - window_spans
                thread_cpu += layers.cpu_used(layers.threads_cpu_ns(),
                                              window_threads)
            window = layers.subtract(tracer.totals(), window_totals)
            traced = window if traced is None else layers.merge(traced, window)
            layers.accumulate(counters, layers.counter_delta(
                layers.engine_counters(tman), window_counters))
        elif tracer is not None and command == "mark":
            tracer.backlog_max = 0
        elif command == "stop":
            break
    # A short drain timeout: the client has already disconnected.
    tman.stop_serving(drain_timeout=0.2)
    tman.stop_drivers()
    dropped = tman.obs.metrics.get("net.notifications_dropped")
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "action_failures": len(tman.actions.failures),
        "delivery_errors": tman.events.delivery_error_count,
        "notifications_dropped": dropped.value if dropped else 0,
    }
    if tracer is not None:
        report["setup_totals"] = setup_totals
        report["totals"] = traced
        report["counters"] = counters
        report["attributed_share"] = span_cpu / thread_cpu if thread_cpu else 0
        report["spans"] = tracer.spans()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
