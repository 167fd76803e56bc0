"""The benchmark's workloads: engine set-up, seeded token streams and the
correctness oracle of each.

Every workload draws its tokens from ``random.Random(seed)`` and hands the
engine only the generated rows.  Expected firings are derived from the
generator's own constants, never from the engine's predicate index, and
compared as multisets once every submitted token is processed.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import TriggerMan
from repro.engine.descriptors import Operation
from repro.net.remote import RemoteDataSourceProgram, RemoteTriggerManClient
from repro.errors import RemoteError
from repro.wal.log import ACTION_FIRED, scan_file
from repro.workloads import populate_realestate
from repro.workloads.scale import (TOKEN_DEPTS, create_scale_triggers,
                                   define_scale_sources, scale_trigger,
                                   source_name)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_DIR = ROOT / ".perfbench_tmp"

#: scale-shape templates whose condition every token row satisfies when it
#: carries the trigger's own name/eno constant; every other template's
#: constants sit outside the token value ranges (see workloads/scale.py)
FIRING_TEMPLATES = frozenset(
    {"name_eq", "eno_eq", "name_eq_salary_gt", "eno_eq_age_gt"}
)

#: token salaries are ``SALARY_BASE + token number``: above every
#: ``salary > 0`` residual, below every ``salary > 1e6`` threshold
SALARY_BASE = 100_000.0


def peak_rss_mb() -> float:
    """Peak resident set size (VmHWM) of this process, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def firing_table(universe: int) -> List[bool]:
    """Whether a scale token aimed at trigger ``idx`` fires it, for every
    ``idx`` below ``universe``."""
    return [scale_trigger(idx)[1] in FIRING_TEMPLATES
            for idx in range(universe)]


class ZipfPicker:
    """Zipf(s) popularity over ``[0, universe)``, drawn from ``rng``."""

    def __init__(self, rng: random.Random, universe: int, s: float):
        weights = [1.0 / (i + 1) ** s for i in range(universe)]
        total = sum(weights)
        acc = 0.0
        self.cumulative = []
        for w in weights:
            acc += w / total
            self.cumulative.append(acc)
        self.rng = rng
        self.last = universe - 1

    def __call__(self) -> int:
        return min(bisect.bisect_left(self.cumulative, self.rng.random()),
                   self.last)


def scale_row(idx: int, t: int) -> Dict[str, Any]:
    """Token ``t`` aimed at scale trigger ``idx``."""
    return {
        "eno": idx,
        "name": f"user{idx}",
        "salary": SALARY_BASE + t,
        "dept": TOKEN_DEPTS[t % len(TOKEN_DEPTS)],
        "age": 18 + t % 50,
    }


class Outcome:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            self.notes.append(note)

    def compare(self, expected: Counter, observed: Counter, what: str) -> None:
        """Count every firing missing from or extra to the oracle."""
        self.attempted += sum(expected.values())
        missing = expected - observed
        extra = observed - expected
        self.fail(sum(missing.values()) + sum(extra.values()),
                  f"{what}: {sum(missing.values())} missing, "
                  f"{sum(extra.values())} unexpected")


class InProcess:
    """A workload whose engine runs in the benchmark's own process; the
    single-threaded generator submits tokens and drains them one at a time
    with ``process_all(max_tokens=1)`` (FIFO, action tasks included)."""

    remote = False

    def __init__(self, config: Dict[str, Any], seed: int):
        self.config = config
        self.seed = seed
        self.tman: Optional[TriggerMan] = None
        self.submitted = 0

    def drain_one(self) -> None:
        self.tman.process_all(max_tokens=1)

    def engine_failures(self, outcome: Outcome) -> None:
        tman = self.tman
        outcome.fail(len(tman.actions.failures), "action failures")
        outcome.fail(tman.events.delivery_error_count, "event delivery errors")
        outcome.fail(len(tman.queue), "tokens left in the update queue")

    def finish(self) -> "Outcome":
        """Check the run against the oracle, then shut the engine down."""
        outcome = self.verify()
        self.close()
        return outcome

    def close(self) -> None:
        if self.tman is not None:
            self.tman.close()
            self.tman = None
        gc.collect()


class Selection(InProcess):
    """``selection-50k``: the paper's central scenario (§5) — many
    selection triggers over a few signatures, a Zipf-skewed token stream
    and a trigger cache smaller than the working set."""

    def build(self) -> None:
        cfg = self.config
        tman = TriggerMan.in_memory(cache_bytes=cfg["cache_bytes"])
        define_scale_sources(tman, cfg["sources"])
        create_scale_triggers(tman, cfg["triggers"], cfg["sources"])
        self.observed: Counter = Counter()
        tman.register_for_event(
            "ScaleHit",
            lambda n: self.observed.update(
                ((n.trigger_name,) + tuple(n.args),)
            ),
        )
        self.tman = tman
        self.expected: Counter = Counter()
        self.submitted = 0

    def tokens(self) -> Iterator[Tuple[str, Dict[str, Any], Optional[str]]]:
        """(source, row, name of the trigger it fires or None) per token."""
        cfg = self.config
        pick = ZipfPicker(random.Random(self.seed), cfg["universe"],
                          cfg["zipf_s"])
        fires = firing_table(cfg["universe"])
        t = 0
        while True:
            idx = pick()
            yield (source_name(idx, cfg["sources"]), scale_row(idx, t),
                   f"sc{idx}" if fires[idx] else None)
            t += 1

    def submit(self, token) -> None:
        source, row, fired = token
        self.tman.push(source, Operation.INSERT, new=row)
        self.submitted += 1
        if fired is not None:
            self.expected[(fired, row["name"])] += 1

    def verify(self) -> Outcome:
        outcome = Outcome()
        outcome.attempted = self.submitted
        self.engine_failures(outcome)
        outcome.compare(self.expected, self.observed, "ScaleHit firings")
        return outcome


class JoinDurable(InProcess):
    """``join-durable``: the write side — SQL capture, durable queue, WAL,
    A-TREAT join search over virtual memories and execSQL actions."""

    #: the engine's directory under TMP_DIR (set by build)
    dir: Optional[Path] = None

    def build(self) -> None:
        cfg = self.config
        TMP_DIR.mkdir(exist_ok=True)
        self.dir = TMP_DIR / f"join-{os.getpid()}-{time.monotonic_ns()}"
        tman = TriggerMan.persistent(str(self.dir), wal_sync="group")
        # The base tables are the same for every seed, so the seed varies
        # only the token stream and every seed measures the same work.
        rng = random.Random(0)
        hoods = cfg["neighborhoods"]
        populate_realestate(tman, houses=cfg["houses"],
                            salespeople=cfg["salespeople"],
                            neighborhoods=hoods, seed=0)
        tman.execute_sql(
            "create table alert_log (k integer, hno integer, price float)"
        )
        #: alert k's salesperson represents these neighborhoods
        self.represents: List[frozenset] = []
        for k in range(cfg["join_triggers"]):
            spno = 1000 + k
            tman.insert("salesperson",
                        {"spno": spno, "name": f"alert{k}", "phone": "-"})
            hoods_k = frozenset(rng.sample(range(hoods), cfg["represents"]))
            for nno in sorted(hoods_k):
                tman.insert("represents", {"spno": spno, "nno": nno})
            self.represents.append(hoods_k)
        tman.process_all()
        for k in range(cfg["join_triggers"]):
            tman.create_trigger(
                f"create trigger alert{k} on insert to house "
                f"from salesperson s, house h, represents r "
                f"when s.name = 'alert{k}' and s.spno = r.spno "
                f"and r.nno = h.nno "
                f"do execSQL 'insert into alert_log values "
                f"({k}, :NEW.h.hno, :NEW.h.price)'"
            )
        width = cfg["band_width"]
        self.bands = [
            (cfg["price_low"] + j * cfg["band_step"],
             cfg["price_low"] + j * cfg["band_step"] + width)
            for j in range(cfg["band_triggers"])
        ]
        for j, (low, high) in enumerate(self.bands):
            tman.create_trigger(
                f"create trigger band{j} from house on update(house.price) "
                f"when house.price between {low:.1f} and {high:.1f} "
                f"do raise event PriceUp(house.hno, house.price)"
            )
        self.price_up: Counter = Counter()
        tman.register_for_event(
            "PriceUp", lambda n: self.price_up.update((tuple(n.args),))
        )
        self.live = deque(
            hno for (hno,) in tman.execute_sql(
                "select hno from house order by hno"
            )
        )
        self.next_hno = 1 + max(self.live)
        self.tman = tman
        self.expected_alerts: Counter = Counter()
        self.expected_price_up: Counter = Counter()
        self.submitted = 0

    def _price(self, rng: random.Random) -> float:
        # Half-unit prices never sit on a band edge.
        return float(rng.randrange(int(self.config["price_low"]),
                                   int(self.config["price_high"]))) + 0.5

    def tokens(self):
        """Operations against the benchmark's model of the house table:
        inserts of new houses, price updates by key and deletes of the
        oldest house.  The mix is exact in every block of
        ``len(cfg["mix"])`` tokens (their order within a block is random),
        so every stretch of a run carries the same share of cheap and
        costly tokens."""
        cfg = self.config
        rng = random.Random(self.seed)
        live = deque(self.live)
        hno = self.next_hno
        block = list(cfg["mix"])
        while True:
            rng.shuffle(block)
            for kind in block:
                if kind == "insert":
                    row = {"hno": hno, "address": f"{hno} Elm St",
                           "price": self._price(rng),
                           "nno": rng.randrange(cfg["neighborhoods"]),
                           "spno": rng.randrange(cfg["salespeople"])}
                    live.append(hno)
                    hno += 1
                    yield "insert", row
                elif kind == "update":
                    key = live[rng.randrange(len(live))]
                    yield "update", (key, self._price(rng))
                else:
                    yield "delete", live.popleft()

    def submit(self, token) -> None:
        kind, arg = token
        tman = self.tman
        if kind == "insert":
            tman.insert("house", arg)
            for k, hoods in enumerate(self.represents):
                if arg["nno"] in hoods:
                    self.expected_alerts[(k, arg["hno"], arg["price"])] += 1
        elif kind == "update":
            key, price = arg
            tman.execute_sql(
                f"update house set price = {price!r} where hno = {key}"
            )
            for low, high in self.bands:
                if low <= price <= high:
                    self.expected_price_up[(key, price)] += 1
        else:
            tman.execute_sql(f"delete from house where hno = {arg}")
        self.submitted += 1

    def verify(self) -> Outcome:
        outcome = Outcome()
        outcome.attempted = self.submitted
        self.engine_failures(outcome)
        alerts = Counter(self.tman.execute_sql("select * from alert_log"))
        outcome.compare(self.expected_alerts, alerts, "alert_log rows")
        outcome.compare(self.expected_price_up, self.price_up,
                        "PriceUp events")
        self.tman.wal.flush()
        ledger = Counter(
            (record.json()["seq"], record.json()["digest"])
            for record in scan_file(str(self.dir / "wal.log"))
            if record.rtype == ACTION_FIRED
        )
        outcome.fail(sum(n - 1 for n in ledger.values() if n > 1),
                     "duplicate ACTION_FIRED ledger records")
        return outcome

    def close(self) -> None:
        super().close()
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


class RemoteIngest:
    """``remote-ingest``: §3's process boundary.  A separate server process
    (``server.py``) serves an in-memory engine with one driver thread; this
    process holds one client connection, sends every token with
    ``RemoteDataSourceProgram.insert`` and completes a token when its
    ``ScaleHit`` notification arrives (the event carries the token number
    in its salary argument)."""

    remote = True

    def __init__(self, config: Dict[str, Any], seed: int,
                 trace: bool = False):
        self.config = config
        self.seed = seed
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[RemoteTriggerManClient] = None
        self.arrivals: Dict[int, float] = {}
        self.submitted = 0
        #: calls that succeeded, so a notification is due for each
        self.sent = 0
        self.send_failures = 0
        self._lock = threading.Lock()
        self.server_report: Dict[str, Any] = {}

    def build(self) -> None:
        cfg = self.config
        cmd = [sys.executable, str(HERE / "server.py"),
               "--triggers", str(cfg["triggers"]),
               "--sources", str(cfg["sources"]),
               "--trace", "1" if self.trace else "0"]
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.client = RemoteTriggerManClient("127.0.0.1", int(line[1]))
        self.client.register_for_event("ScaleHit", self._arrived)
        self.feeds = {
            source: RemoteDataSourceProgram(self.client, source)
            for source in (f"scale{k}" for k in range(cfg["sources"]))
        }
        self.expected: Counter = Counter()
        self.observed: Counter = Counter()
        self.arrivals = {}
        self.submitted = self.sent = self.send_failures = 0

    def _arrived(self, notification) -> None:
        # Runs on the client's receiver thread.
        now = time.perf_counter()
        name, salary = notification.args
        t = int(salary - SALARY_BASE)
        self.arrivals[t] = now
        self.observed[(notification.trigger_name, name, t)] += 1

    def tokens(self):
        """Zipf-skewed tokens, each aimed at a trigger it fires."""
        cfg = self.config
        pick = ZipfPicker(random.Random(self.seed), cfg["universe"],
                          cfg["zipf_s"])
        fires = firing_table(cfg["universe"])
        t = 0
        while True:
            idx = pick()
            while not fires[idx]:
                idx = (idx + 1) % cfg["universe"]
            yield t, source_name(idx, cfg["sources"]), scale_row(idx, t), idx
            t += 1

    def submit(self, token) -> None:
        """Send one token; safe to call from several generator threads."""
        t, source, row, idx = token
        try:
            self.feeds[source].insert(row)
        except RemoteError:
            with self._lock:
                self.submitted += 1
                self.send_failures += 1
            return
        with self._lock:
            self.submitted += 1
            self.sent += 1
            self.expected[(f"sc{idx}", row["name"], t)] += 1

    def control(self, command: str) -> None:
        """One line to the server launcher (see server.py)."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def wait_arrivals(self, count: int, timeout: float) -> bool:
        """Wait until ``count`` notifications have arrived."""
        deadline = time.perf_counter() + timeout
        while len(self.arrivals) < count:
            if time.perf_counter() > deadline:
                return False
            time.sleep(0.001)
        return True

    def verify(self) -> Outcome:
        outcome = Outcome()
        outcome.attempted = self.submitted
        outcome.fail(self.send_failures, "ingest calls failed after retries")
        report = self.server_report
        outcome.fail(report.get("action_failures", 0), "action failures")
        outcome.fail(report.get("delivery_errors", 0),
                     "event delivery errors")
        outcome.fail(report.get("notifications_dropped", 0),
                     "event pushes dropped by the server")
        outcome.compare(self.expected, self.observed, "ScaleHit arrivals")
        return outcome

    def peak_rss_mb(self) -> float:
        return self.server_report["peak_rss_mb"]

    def finish(self) -> Outcome:
        """Stop the server (collecting its report), then check the run."""
        self.close()
        return self.verify()

    def close(self) -> None:
        """Disconnect, stop the server and collect its final report."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is not None:
            try:
                self.control("stop")
                out, _ = self.proc.communicate(timeout=60)
                lines = out.strip().splitlines()
                if lines:
                    self.server_report = json.loads(lines[-1])
            finally:
                if self.proc.poll() is None:
                    self.proc.kill()
                self.proc.wait()
                self.proc = None


WORKLOADS = {
    "selection-50k": Selection,
    "join-durable": JoinDurable,
    "remote-ingest": RemoteIngest,
}
