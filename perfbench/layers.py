"""Per-layer tracing from outside the engine.

The engine is not instrumented for this benchmark.  Instead,
:func:`install` replaces each layer's public entry points (class
attributes and module functions) with thin wrappers that record a span
per call: name, start, end, parent span and token id.  A layer's *self*
time is the duration of its spans minus the time covered by their child
spans, so the layers add up to the wall time of the outermost call
without double counting.

Wrappers are installed before the engine is built (some entry points are
bound once at construction) and stay dormant until ``Tracer.active`` is
set: a dormant wrapper costs one attribute test per call.  Aggregates are
kept per thread and merged on read, so engine threads (drivers, network
readers) never contend on a shared counter.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine import (actions, cache, events, firing, pipeline, queue,
                          runtime, tasks)
from repro.engine.triggerman import TriggerMan
from repro.net import protocol, remote, server
from repro.network import gator, nodes, treat
from repro.predindex import index
from repro.sql import database
from repro.wal import log

_clock = time.perf_counter_ns
_thread_cpu = time.thread_time_ns


def threads_cpu_ns() -> Dict[int, int]:
    """CPU time used so far by each live thread of this process."""
    out = {}
    for thread in threading.enumerate():
        try:
            out[thread.ident] = time.clock_gettime_ns(
                time.pthread_getcpuclockid(thread.ident))
        except (OSError, TypeError):
            pass  # the thread ended meanwhile
    return out


def cpu_used(after: Dict[int, int], before: Dict[int, int]) -> int:
    """CPU time threads used between two :func:`threads_cpu_ns` readings
    (a thread started in between counts from zero)."""
    return sum(ns - before.get(ident, 0) for ident, ns in after.items())


def _result_len(args, kwargs, result) -> int:
    return len(result) if isinstance(result, (list, tuple, bytes)) else 0


#: (layer, owner, attribute, count-hook) for every wrapped entry point.
#: A count hook returns an amount added to the entry point's ``units``
#: counter (activation completions, frames decoded, bytes encoded).
ENTRY_POINTS: Tuple[Tuple[str, Any, str, Optional[Callable]], ...] = (
    ("engine.ingest", TriggerMan, "insert", None),
    ("engine.ingest", TriggerMan, "push", None),
    ("engine.ingest", TriggerMan, "execute_sql", None),
    ("engine.ingest", remote.RemoteDataSourceProgram, "insert", None),
    ("engine.queue", queue.MemoryQueue, "enqueue", None),
    ("engine.queue", queue.MemoryQueue, "dequeue", None),
    ("engine.queue", queue.MemoryQueue, "dequeue_batch", None),
    ("engine.queue", queue.TableQueue, "enqueue", None),
    ("engine.queue", queue.TableQueue, "dequeue", None),
    ("engine.queue", queue.TableQueue, "dequeue_batch", None),
    ("engine.pipeline", TriggerMan, "process_all", None),
    ("engine.pipeline", TriggerMan, "process_token", None),
    ("engine.pipeline", TriggerMan, "process_batch", None),
    ("engine.pipeline", pipeline.TokenPipeline, "refill_tasks", None),
    ("predindex", index.PredicateIndex, "match", None),
    ("predindex", index.PredicateIndex, "match_tokens", None),
    ("engine.cache", cache.TriggerCache, "pin", None),
    ("engine.cache", cache.TriggerCache, "unpin", None),
    ("engine.runtime", runtime.RuntimeManager, "load_runtime", None),
    ("engine.runtime", runtime.RuntimeManager, "create_trigger_statement",
     None),
    ("network", treat.ATreatNetwork, "activate", _result_len),
    ("network", treat.ATreatNetwork, "retract", None),
    ("network", gator.GatorNetwork, "activate", _result_len),
    ("network", gator.GatorNetwork, "retract", None),
    ("sql", database.Database, "execute", None),
    ("sql", database.Table, "insert", None),
    ("sql", database.Table, "update", None),
    ("sql", database.Table, "delete", None),
    ("wal", log.WriteAheadLog, "append", None),
    ("wal", log.WriteAheadLog, "append_many", None),
    ("wal", log.WriteAheadLog, "append_json", None),
    ("wal", log.WriteAheadLog, "append_json_many", None),
    ("wal", log.WriteAheadLog, "flush", None),
    ("engine.firing", firing.FiringEngine, "fire", None),
    ("engine.firing", firing.FiringEngine, "token_matched", None),
    ("engine.firing", firing.FiringEngine, "flush_batch", None),
    ("engine.tasks", tasks.TaskQueue, "put", None),
    ("engine.tasks", tasks.TaskQueue, "get", None),
    ("engine.tasks", tasks.Task, "run", None),
    ("engine.tasks", tasks, "tman_test", None),
    ("engine.actions", actions.ActionExecutor, "execute", None),
    ("engine.events", events.EventManager, "raise_event", None),
    ("net", remote.RemoteConnection, "call", None),
    ("net", server.ServerCore, "handle", None),
    ("net", protocol, "encode_frame", _result_len),
    ("net", protocol.FrameDecoder, "feed", _result_len),
    ("net", socket.socket, "recv", None),
    ("net", socket.socket, "sendall", None),
)
# protocol.read_frame is deliberately not wrapped: the only caller is the
# client's receiver thread, where the call spends its time blocked on the
# socket waiting for the next frame, not decoding.  The server's driver
# threads enter through tasks.tman_test and TriggerMan.process_batch, and
# its connection threads spend much of their CPU time in socket recv and
# sendall; those calls are wrapped so that the server's CPU time is
# accounted for (a blocked recv adds wall time, not CPU time, to ``net``).

#: Iterators timed one ``next()`` at a time: a virtual alpha memory's rows
#: are fetched from the base table lazily, inside the join search.
ITERATORS: Tuple[Tuple[str, Any, str], ...] = (
    ("sql", nodes.VirtualAlphaMemory, "rows"),
)

#: units key holding the summed put-to-run wait of every traced task
TASK_WAIT = "Task.run.wait_ns"

#: the harness's own work on the generator thread (token generation and
#: oracle bookkeeping), wrapped by :func:`install_bench`
BENCH_ENTRIES = ("Workload.tokens", "Workload.submit")

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS)) + ("bench",)


class _ThreadState:
    """One thread's span stack and aggregates (merged on read)."""

    __slots__ = ("stack", "self_ns", "calls", "units", "top_ns",
                 "top_cpu_ns", "spans", "next_id", "token")

    def __init__(self) -> None:
        #: open spans: [span id, child ns]
        self.stack: List[List[int]] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.units: Dict[str, int] = {}
        #: wall time covered by outermost spans on this thread
        self.top_ns = 0
        #: CPU time of this thread inside outermost spans (Tracer.cpu)
        self.top_cpu_ns = 0
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        self.next_id = 1
        #: token id (update-queue sequence number; 0 where unknown, as on
        #: a remote client) stamped on spans this thread records
        self.token = 0


class Tracer:
    """Span recorder shared by every wrapper :func:`install` creates."""

    def __init__(self) -> None:
        #: wrappers record only while set
        self.active = False
        #: spans are kept (not only aggregated) while set
        self.keep_spans = False
        #: outermost spans also read their thread's CPU clock while set
        self.cpu = False
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: put time of each queued task, for task wait time
        self._put_ns: Dict[int, int] = {}
        #: inclusive durations of client round trips
        self.rtt_ns: List[int] = []
        #: largest update-queue depth seen after an enqueue
        self.backlog_max = 0

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._states_lock:
                self._states.append(st)
        return st

    # -- reading -----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Merged aggregates: ``self_ns``/``calls``/``units`` by entry
        point (``Owner.attr``) plus the backlog high-water mark."""
        self_ns: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        units: Dict[str, int] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for into, part in ((self_ns, st.self_ns), (calls, st.calls),
                               (units, st.units)):
                for key, value in list(part.items()):
                    into[key] = into.get(key, 0) + value
        return {
            "self_ns": self_ns,
            "calls": calls,
            "units": units,
            "extra": {"backlog_max": self.backlog_max},
        }

    def top_ns(self) -> int:
        """Wall time covered by outermost spans, summed over threads."""
        with self._states_lock:
            return sum(st.top_ns for st in self._states)

    def top_cpu_ns(self) -> int:
        """CPU time spent inside outermost spans, summed over threads
        (recorded only while :attr:`cpu` is set)."""
        with self._states_lock:
            return sum(st.top_cpu_ns for st in self._states)

    def spans(self) -> List[Tuple[int, int, str, int, int, int]]:
        """Every kept span as (id, parent id, name, start ns, end ns,
        token); ids are unique per thread, so spans are listed by thread."""
        with self._states_lock:
            states = list(self._states)
        out = []
        for number, st in enumerate(states):
            base = number << 40
            for sid, parent, name, start, end, token in st.spans:
                out.append((base | sid, base | parent if parent else 0,
                            name, start, end, token))
        return out


def _wrap(tracer: Tracer, layer: str, entry: str, fn: Callable,
          count: Optional[Callable], special: Optional[str]) -> Callable:
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        st = tracer.state()
        stack = st.stack
        sid = st.next_id
        st.next_id = sid + 1
        parent = stack[-1][0] if stack else 0
        cpu = _thread_cpu() if tracer.cpu and not stack else None
        frame = [sid, 0]
        stack.append(frame)
        if special == "run":
            put = tracer._put_ns.pop(id(args[0]), None)
        elif special == "process":
            st.token = args[1].seq
        elif special == "batch" and args[1]:
            st.token = args[1][0].seq
        start = _clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            if special in ("enqueue", "dequeue") and result is not None:
                st.token = result.seq
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            st.self_ns[entry] = st.self_ns.get(entry, 0) + duration - frame[1]
            st.calls[entry] = st.calls.get(entry, 0) + 1
            if stack:
                stack[-1][1] += duration
            else:
                st.top_ns += duration
                if cpu is not None:
                    st.top_cpu_ns += _thread_cpu() - cpu
            if tracer.keep_spans:
                st.spans.append((sid, parent, entry, start, end, st.token))
        if count is not None:
            st.units[entry] = st.units.get(entry, 0) + count(
                args, kwargs, result
            )
        if special == "put":
            tracer._put_ns[id(args[1])] = end
        elif special == "run" and put is not None:
            st.units[TASK_WAIT] = st.units.get(TASK_WAIT, 0) + start - put
        elif special == "enqueue":
            depth = len(args[0])
            if depth > tracer.backlog_max:
                tracer.backlog_max = depth
        elif special == "call":
            tracer.rtt_ns.append(duration)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", entry)
    return wrapper


def _wrap_iter(tracer: Tracer, layer: str, entry: str,
               fn: Callable) -> Callable:
    """Time each ``next()`` of the iterator ``fn`` returns as one span."""
    step = _wrap(tracer, layer, entry, next, None, None)

    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        if not tracer.active:
            return iterator
        return _timed(iterator, step)

    wrapper.__wrapped__ = fn
    return wrapper


def _timed(iterator, step):
    while True:
        try:
            item = step(iterator)
        except StopIteration:
            return
        yield item


#: Entry points whose wrapper does more than time the call: task put/run
#: pairs give task wait time, enqueues give the backlog high-water mark,
#: client calls give round trips, and the token id stamped on spans
#: follows the update-queue sequence number of the token being enqueued,
#: dequeued or processed.
_SPECIAL = {
    "TaskQueue.put": "put",
    "Task.run": "run",
    "MemoryQueue.enqueue": "enqueue",
    "TableQueue.enqueue": "enqueue",
    "MemoryQueue.dequeue": "dequeue",
    "TableQueue.dequeue": "dequeue",
    "RemoteConnection.call": "call",
    "TriggerMan.process_token": "process",
    "TriggerMan.process_batch": "batch",
}


def entry_name(owner: Any, attr: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


#: entry point name (``Owner.attr``) -> layer
ENTRY_LAYER: Dict[str, str] = {
    entry_name(owner, attr): layer
    for layer, owner, attr, *_ in ENTRY_POINTS + ITERATORS
}
ENTRY_LAYER.update((entry, "bench") for entry in BENCH_ENTRIES)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` and
    :data:`ITERATORS` (once per process)."""
    for layer, owner, attr, count in ENTRY_POINTS:
        entry = entry_name(owner, attr)
        fn = getattr(owner, attr)
        setattr(owner, attr, _wrap(tracer, layer, entry, fn, count,
                                   _SPECIAL.get(entry)))
    for layer, owner, attr in ITERATORS:
        entry = entry_name(owner, attr)
        setattr(owner, attr, _wrap_iter(tracer, layer, entry,
                                        getattr(owner, attr)))


def install_bench(tracer: Tracer, workload) -> Callable[[Iterator], Iterator]:
    """Wrap the workload's ``submit`` as a ``bench`` span; returns a
    function that times each ``next()`` of a token iterator likewise.  Once
    the harness's own work is a layer, ``bench.attributed_share`` checks
    that spans cover the generator thread's whole wall time."""
    workload.submit = _wrap(tracer, "bench", "Workload.submit",
                            workload.submit, None, None)
    step = _wrap(tracer, "bench", "Workload.tokens", next, None, None)
    return lambda iterator: _timed(iterator, step)


def layer_self_ns(totals: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Self time summed per layer."""
    out = {layer: 0 for layer in LAYERS}
    for entry, ns in totals["self_ns"].items():
        layer = ENTRY_LAYER[entry]
        out[layer] += ns
    return out


def subtract(after: Dict[str, Dict[str, int]],
             before: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Aggregates recorded between two :meth:`Tracer.totals` calls."""
    out = {}
    for part in ("self_ns", "calls", "units"):
        out[part] = {key: value - before[part].get(key, 0)
                     for key, value in after[part].items()}
    out["extra"] = dict(after["extra"])
    return out


def creates(totals: Dict[str, Dict[str, int]]) -> Tuple[int, int]:
    """(self ns, calls) of trigger creation in ``totals``."""
    entry = "RuntimeManager.create_trigger_statement"
    return totals["self_ns"].get(entry, 0), totals["calls"].get(entry, 0)


def merge(a: Dict[str, Dict[str, int]],
          b: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Sum two :meth:`Tracer.totals` results (client + server process)."""
    out: Dict[str, Dict[str, int]] = {}
    for part in ("self_ns", "calls", "units", "extra"):
        merged = dict(a.get(part, {}))
        for key, value in b.get(part, {}).items():
            if key == "backlog_max":
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
        out[part] = merged
    return out


def engine_counters(tman) -> Dict[str, int]:
    """The engine's always-on accounting, read from outside: cache, index,
    buffer-pool, WAL and network-server counters.  Two snapshots taken
    around a phase give its per-layer counts."""
    cache_stats = tman.cache.stats
    index_stats = tman.index.stats
    pools = {id(tman.catalog_db): tman.catalog_db.pool}
    for connection in tman.connections.values():
        pools[id(connection.database)] = connection.database.pool
    out = {
        "cache.hits": cache_stats.hits,
        "cache.misses": cache_stats.misses,
        "cache.evictions": cache_stats.evictions,
        "index.entries_probed": index_stats.entries_probed,
        "index.residual_tests": index_stats.residual_tests,
        "index.matches": index_stats.matches,
        "sql.page_pins": sum(pool.stats.hits + pool.stats.misses
                             for pool in pools.values()),
        "wal.appends": 0,
        "wal.fsyncs": 0,
        "wal.bytes": 0,
    }
    if tman.wal is not None:
        out["wal.appends"] = tman.wal.appends
        out["wal.fsyncs"] = tman.wal.fsyncs
        out["wal.bytes"] = tman.wal.bytes_appended
    registry = tman.obs.metrics
    for name in ("net.bytes_in", "net.bytes_out", "net.ingest_rejected"):
        metric = registry.get(name)
        out[name] = metric.value if metric is not None else 0
    return out


def counter_delta(after: Dict[str, int], before: Dict[str, int]
                  ) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def accumulate(into: Dict[str, int], delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        into[key] = into.get(key, 0) + value
