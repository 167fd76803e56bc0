"""The repository benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload selection-50k --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` builds the engine (several times; the median build is
``setup_s``), warms it up, measures saturated throughput in a closed loop
and per-token latency in an open loop paced at the workload's fixed rate,
then checks every firing against the workload's oracle.  ``--trace 1``
instead wraps each layer's public entry points (see ``layers.py``) and
reports exclusive per-layer self time and counts.  The last stdout line is
the JSON result; the line before it carries the run's context (platform,
sample counts, failure notes).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of every metric a ``--trace 0`` run reports
END_TO_END = (
    ("setup_s", "s"),
    ("tokens_per_s", "tokens/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every metric a ``--trace 1`` run reports
PER_LAYER = (
    ("engine.ingest.us_per_token", "us"),
    ("engine.queue.us_per_token", "us"),
    ("engine.queue.backlog_max", "count"),
    ("engine.pipeline.us_per_token", "us"),
    ("predindex.us_per_token", "us"),
    ("predindex.entries_probed_per_token", "count"),
    ("predindex.residual_tests_per_token", "count"),
    ("predindex.match_ratio", "ratio"),
    ("engine.cache.us_per_pin", "us"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.evictions_per_token", "count"),
    ("engine.runtime.us_per_load", "us"),
    ("engine.runtime.us_per_create", "us"),
    ("network.us_per_activation", "us"),
    ("network.activations_per_token", "count"),
    ("network.completions_per_activation", "count"),
    ("sql.us_per_token", "us"),
    ("sql.page_pins_per_token", "count"),
    ("wal.us_per_token", "us"),
    ("wal.appends_per_token", "count"),
    ("wal.fsyncs_per_token", "count"),
    ("wal.bytes_per_token", "B"),
    ("engine.firing.us_per_firing", "us"),
    ("engine.tasks.wait_us_per_task", "us"),
    ("engine.tasks.tasks_per_token", "count"),
    ("engine.actions.us_per_action", "us"),
    ("engine.events.us_per_event", "us"),
    ("net.client_rtt_us", "us"),
    ("net.server_us_per_request", "us"),
    ("net.codec_us_per_frame", "us"),
    ("net.bytes_per_token", "B"),
    ("net.retries_per_token", "count"),
    ("bench.attributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.generator_late_p99_ms", "ms"),
)

#: A run's ``--seconds`` are spent in ROUNDS rounds spread over the run,
#: each a saturated burst then a paced stretch.  SATURATED is the
#: saturated share of each round.
ROUNDS = 14
SATURATED = 0.4

#: ingest calls the remote generator keeps in flight in a saturated burst
IN_FLIGHT = 4

clock = time.perf_counter
CPUS = sorted(os.sched_getaffinity(0))


def load_config() -> Dict[str, Any]:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def wait_until(when: float, spin: bool) -> None:
    """Sleep until ``when``; ``spin`` finishes the last millisecond busy
    (in process the generator owns the engine's core, so spinning steals
    nothing and avoids sleep overshoot)."""
    remaining = when - clock()
    if remaining > 0.0015 or (remaining > 0 and not spin):
        time.sleep(remaining - 0.001 if spin else remaining)
    while spin and clock() < when:
        pass


def steal_seconds(cpu: Optional[int] = None) -> float:
    """CPU time the hypervisor gave to other guests (``/proc/stat``), on
    ``cpu`` or summed over all CPUs; 0 where the host reports none."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == label:
                break
        else:
            return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def place(w) -> Optional[int]:
    """Pin the engine to one CPU: this process in process; for
    ``remote-ingest`` every thread of the (started) server, with the client
    on the other CPUs.  Returns the engine's CPU, or None where placement
    is left to the OS (one CPU, or affinity not ours to set)."""
    if len(CPUS) < 2:
        return None
    engine = CPUS[0]
    try:
        if not w.remote:
            os.sched_setaffinity(0, {engine})
            return engine
        for task in Path(f"/proc/{w.proc.pid}/task").iterdir():
            try:
                os.sched_setaffinity(int(task.name), {engine})
            except ProcessLookupError:
                pass  # the thread ended meanwhile
        os.sched_setaffinity(0, set(CPUS) - {engine})
    except OSError:
        return None
    return engine


# -- in-process phases -------------------------------------------------------


def closed_loop(w, tokens: Iterator, seconds: float):
    """Submit and drain one token at a time for ``seconds``; returns the
    phase start, every completion time, and when the generator stopped."""
    stamps: List[float] = []
    start = clock()
    end = start + seconds
    now = start
    while now < end:
        w.submit(next(tokens))
        w.drain_one()
        now = clock()
        stamps.append(now)
    return start, stamps, now


def paced_in_process(w, tokens: Iterator, rate: float, seconds: float):
    """Open loop at ``rate``: push every due token, then drain one (FIFO).
    Latency runs from a token's due time to the return of its drain call;
    returns (latencies, generator lateness), in seconds."""
    count = int(rate * seconds)
    interval = 1.0 / rate
    start = clock() + 0.005
    pending: List[float] = []
    head = 0
    latencies: List[float] = []
    late: List[float] = []
    i = 0
    while i < count or head < len(pending):
        now = clock()
        while i < count and start + i * interval <= now:
            due = start + i * interval
            late.append(clock() - due)
            w.submit(next(tokens))
            pending.append(due)
            i += 1
        if head < len(pending):
            w.drain_one()
            latencies.append(clock() - pending[head])
            head += 1
        elif i < count:
            wait_until(start + i * interval, spin=True)
    return latencies, late


# -- remote phases -----------------------------------------------------------


def closed_loop_remote(w, tokens: Iterator, seconds: float):
    """Keep :data:`IN_FLIGHT` ingest calls outstanding on the one
    connection for ``seconds`` (one sender thread each; a single
    synchronous sender would measure the round trip, not the server),
    then wait for every notification.  Returns the phase start, the
    sorted arrival times, and when the senders stopped."""
    first = w.submitted
    lock = threading.Lock()
    start = clock()
    end = start + seconds

    def sender() -> None:
        while True:
            with lock:
                if clock() >= end:
                    return
                token = next(tokens)
            w.submit(token)

    senders = [threading.Thread(target=sender) for _ in range(IN_FLIGHT)]
    for thread in senders:
        thread.start()
    for thread in senders:
        thread.join()
    stopped = clock()
    if not w.wait_arrivals(w.sent, timeout=60):
        raise RuntimeError("notifications missing after the saturated phase")
    stamps = sorted(w.arrivals[t] for t in range(first, w.submitted)
                    if t in w.arrivals)
    return start, stamps, stopped


def paced_remote(w, tokens: Iterator, rate: float, seconds: float):
    """Open loop at ``rate`` over one connection; latency runs from a
    token's due time to its notification's arrival at the client."""
    count = int(rate * seconds)
    interval = 1.0 / rate
    start = clock() + 0.005
    due: Dict[int, float] = {}
    late: List[float] = []
    for i in range(count):
        when = start + i * interval
        wait_until(when, spin=False)
        late.append(clock() - when)
        token = next(tokens)
        due[token[0]] = when
        w.submit(token)
    if not w.wait_arrivals(w.sent, timeout=60):
        raise RuntimeError("notifications missing after the paced phase")
    latencies = [w.arrivals[t] - when for t, when in due.items()
                 if t in w.arrivals]
    return latencies, late


def phases(w) -> Tuple[Callable, Callable]:
    if w.remote:
        return closed_loop_remote, paced_remote
    return closed_loop, paced_in_process


# -- runs ----------------------------------------------------------------------


def make_workload(name: str, cfg: Dict[str, Any], seed: int, trace: bool):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if cls.remote:
        return cls(cfg, seed, trace=trace)
    return cls(cfg, seed)


def warm_up(w, tokens: Iterator, cfg: Dict[str, Any]) -> None:
    closed, _ = phases(w)
    closed(w, tokens, cfg["warmup_s"])


def run_untraced(name: str, cfg: Dict[str, Any], seed: int, seconds: float):
    """Set-up, warm-up and :data:`ROUNDS` rounds of a saturated burst and
    a paced stretch; returns (metrics, context, outcome)."""
    from workloads import peak_rss_mb

    w = make_workload(name, cfg, seed, trace=False)
    cpu = None if w.remote else place(w)
    setups: List[float] = []
    try:
        for n in range(cfg["setups"]):
            if n:
                w.close()
            began = clock()
            w.build()
            setups.append(clock() - began)
        if w.remote:
            cpu = place(w)
        tokens = w.tokens()
        warm_up(w, tokens, cfg)
        closed, paced = phases(w)
        # Steal is counted on the CPUs the engine's work runs on: in
        # process the pinned one; for remote-ingest all of them, because a
        # stall of the client empties the server's pipeline as well.
        steal_cpu = None if w.remote else cpu
        rounds = []
        for _ in range(ROUNDS):
            stolen = steal_seconds()
            burst_stolen = steal_seconds(steal_cpu)
            start, stamps, _ = closed(w, tokens,
                                      seconds * SATURATED / ROUNDS)
            burst_stolen = (steal_seconds(steal_cpu) - burst_stolen
                            if cpu is not None else 0.0)
            lat, late = paced(w, tokens, cfg["paced_rate"],
                              seconds * (1 - SATURATED) / ROUNDS)
            lat.sort()
            rounds.append({
                "steal_s": steal_seconds() - stolen,
                "tokens": len(stamps),
                "burst_s": stamps[-1] - start,
                "burst_steal_s": burst_stolen,
                "p50_ms": percentile(lat, 0.50) * 1e3,
                "p90_ms": percentile(lat, 0.90) * 1e3,
                "samples": len(lat),
                "late_p99_ms": percentile(sorted(late), 0.99) * 1e3,
            })
        outcome = w.finish()
    finally:
        w.close()
    rss = w.peak_rss_mb() if w.remote else peak_rss_mb()
    # Time the hypervisor gave the engine's CPUs to other guests is not the
    # engine's: on a shared host it comes in spells of seconds.
    metrics = {
        "setup_s": statistics.median(setups),
        "tokens_per_s": (sum(r["tokens"] for r in rounds)
                         / sum(r["burst_s"] - r["burst_steal_s"]
                               for r in rounds)),
        "latency_p50_ms": statistics.median(r["p50_ms"] for r in rounds),
        "peak_rss_mb": rss,
    }
    context = {
        "setup_runs_s": setups,
        "latency_p90_ms": statistics.median(r["p90_ms"] for r in rounds),
        "rounds": rounds,
    }
    return metrics, context, outcome


def per_token_metrics(totals, counters, tokens: int, creates, rtt_ns,
                      bench: Dict[str, float]) -> Dict[str, float]:
    """Turn traced aggregates into the :data:`PER_LAYER` figures."""
    import layers

    self_ns = layers.layer_self_ns(totals)
    calls = totals["calls"]
    units = totals["units"]

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    def us(ns: float, n: float) -> float:
        return per(ns, n) / 1e3

    def entries(*names: str, part: str = "calls") -> int:
        return sum(totals[part].get(name, 0) for name in names)

    activations = entries("ATreatNetwork.activate", "GatorNetwork.activate")
    pins = entries("TriggerCache.pin")
    lookups = counters["cache.hits"] + counters["cache.misses"]
    frames = (entries("protocol.encode_frame")
              + entries("FrameDecoder.feed", part="units"))
    rtts = sorted(rtt_ns)
    return {
        "engine.ingest.us_per_token": us(self_ns["engine.ingest"], tokens),
        "engine.queue.us_per_token": us(self_ns["engine.queue"], tokens),
        "engine.queue.backlog_max": totals["extra"]["backlog_max"],
        "engine.pipeline.us_per_token": us(self_ns["engine.pipeline"], tokens),
        "predindex.us_per_token": us(self_ns["predindex"], tokens),
        "predindex.entries_probed_per_token":
            per(counters["index.entries_probed"], tokens),
        "predindex.residual_tests_per_token":
            per(counters["index.residual_tests"], tokens),
        "predindex.match_ratio":
            per(counters["index.matches"], counters["index.residual_tests"]),
        "engine.cache.us_per_pin": us(self_ns["engine.cache"], pins),
        "engine.cache.hit_ratio": per(counters["cache.hits"], lookups),
        "engine.cache.evictions_per_token":
            per(counters["cache.evictions"], tokens),
        "engine.runtime.us_per_load":
            us(totals["self_ns"].get("RuntimeManager.load_runtime", 0),
               entries("RuntimeManager.load_runtime")),
        "engine.runtime.us_per_create": us(*creates),
        "network.us_per_activation": us(self_ns["network"], activations),
        "network.activations_per_token": per(activations, tokens),
        "network.completions_per_activation": per(
            entries("ATreatNetwork.activate", "GatorNetwork.activate",
                    part="units"), activations),
        "sql.us_per_token": us(self_ns["sql"], tokens),
        "sql.page_pins_per_token": per(counters["sql.page_pins"], tokens),
        "wal.us_per_token": us(self_ns["wal"], tokens),
        "wal.appends_per_token": per(counters["wal.appends"], tokens),
        "wal.fsyncs_per_token": per(counters["wal.fsyncs"], tokens),
        "wal.bytes_per_token": per(counters["wal.bytes"], tokens),
        "engine.firing.us_per_firing":
            us(self_ns["engine.firing"], entries("FiringEngine.fire")),
        "engine.tasks.wait_us_per_task":
            us(units.get(layers.TASK_WAIT, 0), entries("Task.run")),
        "engine.tasks.tasks_per_token": per(entries("Task.run"), tokens),
        "engine.actions.us_per_action":
            us(self_ns["engine.actions"], entries("ActionExecutor.execute")),
        "engine.events.us_per_event":
            us(self_ns["engine.events"], entries("EventManager.raise_event")),
        "net.client_rtt_us": percentile(rtts, 0.5) / 1e3 if rtts else 0.0,
        "net.server_us_per_request":
            us(totals["self_ns"].get("ServerCore.handle", 0),
               entries("ServerCore.handle")),
        "net.codec_us_per_frame": us(
            entries("protocol.encode_frame", "FrameDecoder.feed",
                    part="self_ns"), frames),
        "net.bytes_per_token": per(
            counters["net.bytes_in"] + counters["net.bytes_out"], tokens),
        "net.retries_per_token": per(counters["net.ingest_rejected"], tokens),
        **bench,
    }


def run_traced(name: str, cfg: Dict[str, Any], seed: int, seconds: float):
    """Rounds of an untraced then a traced saturated burst, then a traced
    paced phase, on one engine whose entry points were wrapped before it
    was built.  Per-layer figures cover the traced stretches only."""
    import layers

    tracer = layers.Tracer()
    layers.install(tracer)
    w = make_workload(name, cfg, seed, trace=True)
    timed = layers.install_bench(tracer, w)
    closed, paced = phases(w)
    counters: Dict[str, int] = {}

    def traced(phase: Callable, keep_spans: bool):
        """Run ``phase`` with the wrappers (of both processes) recording."""
        if w.remote:
            w.control("on" if keep_spans else "aggregate")
        else:
            before = layers.engine_counters(w.tman)
        tracer.active, tracer.keep_spans = True, keep_spans
        try:
            return phase()
        finally:
            tracer.active = tracer.keep_spans = False
            if w.remote:
                w.control("off")
            else:
                layers.accumulate(counters, layers.counter_delta(
                    layers.engine_counters(w.tman), before))

    try:
        if not w.remote:
            place(w)
        tracer.active = True  # times trigger creation (in process)
        w.build()
        tracer.active = False
        if w.remote:
            place(w)
        creates = layers.creates(tracer.totals())
        tokens = timed(w.tokens())
        warm_up(w, tokens, cfg)
        untraced_tokens = traced_tokens = 0
        untraced_time = traced_time = traced_wall = 0.0
        before = tracer.totals()
        tracer.rtt_ns = []
        top_before = tracer.top_ns()
        burst = seconds * SATURATED / ROUNDS
        for _ in range(ROUNDS):
            start, stamps, _ = closed(w, tokens, burst)
            untraced_tokens += len(stamps)
            untraced_time += stamps[-1] - start
            start, stamps, stopped = traced(
                lambda: closed(w, tokens, burst), keep_spans=True)
            traced_tokens += len(stamps)
            traced_time += stamps[-1] - start
            traced_wall += stopped - start
        # In process: the generator thread's saturated wall time covered
        # by outermost spans (remote: replaced by the server's figure).
        attributed = (tracer.top_ns() - top_before) / (traced_wall * 1e9)
        untraced_rate = untraced_tokens / untraced_time
        traced_rate = traced_tokens / traced_time
        spans = tracer.spans()
        tracer.backlog_max = 0
        if w.remote:
            w.control("mark")
        latencies, late = traced(
            lambda: paced(w, tokens, cfg["paced_rate"],
                          seconds * (1 - 2 * SATURATED)),
            keep_spans=False)
        traced_tokens += len(latencies)
        totals = layers.subtract(tracer.totals(), before)
        outcome = w.finish()
    finally:
        w.close()
    if w.remote:
        report = w.server_report
        totals = layers.merge(totals, report["totals"])
        counters = report["counters"]
        creates = layers.creates(report["setup_totals"])
        # The server's CPU time in the traced bursts covered by outermost
        # spans: every engine layer runs there, on several threads.
        attributed = report["attributed_share"]
        # Server span ids get a high bit so they cannot collide with ours.
        server = 1 << 56
        spans += [(sid | server, parent | server if parent else 0, *rest)
                  for sid, parent, *rest in report["spans"]]
    bench = {
        "bench.attributed_share": attributed,
        "bench.trace_overhead": 1.0 - traced_rate / untraced_rate,
        "bench.generator_late_p99_ms": percentile(sorted(late), 0.99) * 1e3,
    }
    metrics = per_token_metrics(totals, counters, traced_tokens, creates,
                                tracer.rtt_ns, bench)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{name}-seed{seed}.jsonl"
    with open(span_file, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    context = {
        "traced_tokens": traced_tokens,
        "untraced_tokens_per_s": untraced_rate,
        "traced_tokens_per_s": traced_rate,
        "spans_file": str(span_file.relative_to(ROOT)),
        "spans": len(spans),
        "layer_self_ms": {layer: ns / 1e6 for layer, ns in
                          layers.layer_self_ns(totals).items()},
    }
    return metrics, context, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="TriggerMan benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    config = load_config()["workloads"]
    if args.workload not in config:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(config)})", file=sys.stderr)
        return 2
    cfg = config[args.workload]
    result = run(args.workload, cfg, args.seed, args.seconds, args.trace)
    for line in result:
        print(json.dumps(line), flush=True)
    return 0


def run(name: str, cfg: Dict[str, Any], seed: int, seconds: float,
        trace: int) -> List[Dict[str, Any]]:
    """One benchmark run; returns its context line and its result line."""
    runner = run_traced if trace else run_untraced
    steal = steal_seconds()
    metrics, context, outcome = runner(name, cfg, seed, seconds)
    context["host_steal_s"] = steal_seconds() - steal
    units = dict(PER_LAYER if trace else END_TO_END)
    context.update({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(CPUS),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "paced_rate": cfg["paced_rate"],
        "error_rate": outcome.failed / outcome.attempted,
        "failures": outcome.notes,
    })
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return [{"context": context}, result]


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
