"""The standing end-to-end benchmark: SPARQL text in, result bytes out.

One run::

    python3 e2ebench/run.py --workload lubm-hot --seed 1 --seconds 15 --trace 0

generates the workload's seeded graph and request stream, starts
``repro --backend columnar serve GRAPH --frontend asyncio`` from the
checkout's ``src/`` as a separate process, drives it over loopback HTTP
with keep-alive connections in a closed loop, checks every response and
a sampled answer per template against an independent ρdf oracle, and
prints one JSON object as its last line.  ``--trace 1`` serves through
``traced_serve.py`` instead and reports the per-layer metrics.

``--steadiness`` runs two sets of runs of every workload and prints
each end-to-end metric's per-set median and spread against its bound
(see README.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from client import (CheckError, Connection, as_lexical, check_ack,  # noqa: E402
                    rows_of)
from inputs import Query, Read, Update  # noqa: E402
from server import CpuMeter, Server, ServerError, program_env  # noqa: E402

#: spawns per run whose median is ``setup_s`` (the last one is measured)
SETUP_SPAWNS = 7
#: whole warm-up rounds are driven for at least this long before timing
WARMUP_SECONDS = 1.0
#: set-up probes per traced run (their medians are the setup.* metrics)
SETUP_PROBES = 3
#: runs per set in ``--steadiness``, which runs two sets
STEADINESS_RUNS = 10

clock = time.perf_counter


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def median_of_medians(samples: Dict[str, List[float]]) -> float:
    """The geometric mean, over labels, of each label's median — the
    SP2Bench per-query summary, immune to how a pooled median would
    fall between templates of different cost."""
    medians = [statistics.median(values) for values in samples.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def p99(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def cpu_ticks() -> List[int]:
    """The host's CPU time counters (``/proc/stat``: user, nice, system,
    idle, iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the vCPUs' time the hypervisor gave to other machines."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ----------------------------------------------------------------------
# driving the server
# ----------------------------------------------------------------------

class Recorder:
    """Latency and scaled server-CPU samples per label (``drive``), the
    host job's times, and every response."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reads: Dict[str, List[float]] = defaultdict(list)
        self.updates: Dict[str, List[float]] = defaultdict(list)
        self.read_cpu: Dict[str, List[float]] = defaultdict(list)
        self.update_cpu: Dict[str, List[float]] = defaultdict(list)
        self.host_job: List[float] = []
        self.bodies: Dict[bytes, tuple] = {}   # digest -> (body, query, fmt)
        self.renderings: Dict[tuple, Dict[str, set]] = defaultdict(
            lambda: defaultdict(set))           # (text, version) -> fmt -> digests
        self.attempted = 0
        self.failed: List[str] = []
        self.wrong: List[str] = []
        self.timing = False

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed.append(message)


def drive(conn: Connection, ops, rec: Recorder, meter: CpuMeter) -> None:
    """Issue ``ops`` in order on one connection, checking each answer.
    An operation's server CPU time runs from just before it is sent to
    just before the next one is, so work the server finishes after it
    has written the answer counts too (the one connection keeps the
    server otherwise idle).  It is recorded in seconds at the reference
    host speed: scaled by the host job timed on either side of it."""
    pending, start, job = None, 0, 0.0   # pending: (samples, label)

    def close(now: int, job_after: float) -> None:
        scale = 2 * hostspeed.REFERENCE_MS / (job + job_after)
        pending[0][pending[1]].append(scale * (now - start) / 1e9)
        rec.host_job.append(job_after)

    for op in ops:
        job_now = hostspeed.job_ms()
        now = meter.read()
        if pending is not None:
            close(now, job_now)
        start, pending, job = now, None, job_now
        with rec.lock:
            rec.attempted += 1
        if isinstance(op, Read):
            status, response, body, seconds = conn.query(op.query.text,
                                                         op.fmt)
            if status != 200:
                rec.fail(f"{op.label}: HTTP {status}: {body[:200]!r}")
                continue
            version = response.getheader("X-Repro-Graph-Version")
            digest = hashlib.blake2b(body, digest_size=16).digest()
            with rec.lock:
                rec.bodies.setdefault(digest, (body, op.query, op.fmt))
                rec.renderings[(op.query.text, version)][op.fmt].add(digest)
                if rec.timing:
                    rec.reads[op.label].append(seconds)
                    pending = (rec.read_cpu, op.label)
        else:
            status, _, body, seconds = conn.update(op.text)
            if status != 200:
                rec.fail(f"{op.kind}: HTTP {status}: {body[:200]!r}")
                continue
            size = len(op.triples)
            try:
                check_ack(body, size if op.is_insert else 0,
                          0 if op.is_insert else size)
            except CheckError as error:
                with rec.lock:
                    rec.wrong.append(f"{op.kind}: {error}")
            if rec.timing:
                with rec.lock:
                    rec.updates[op.kind].append(seconds)
                pending = (rec.update_cpu, op.kind)
    if pending is not None:
        job_now = hostspeed.job_ms()
        close(meter.read(), job_now)


def drive_rounds(server: Server, workload, seed: int, catalog,
                 rec: Recorder, seconds: float, first_connection: int
                 ) -> float:
    """Every connection drives whole rounds of its stream until
    ``seconds`` have passed; returns the wall time until all stopped.
    On more than one connection a request's server CPU time takes in
    whatever the others' requests ran meanwhile."""
    start = clock()
    deadline = start + seconds
    errors: List[BaseException] = []

    def worker(connection: int) -> None:
        conn = Connection(server.port)
        meter = CpuMeter(server.process.pid)
        try:
            for ops in inputs.stream(workload, seed, connection, catalog):
                drive(conn, ops, rec, meter)
                if clock() >= deadline:
                    break
                meter.refresh()
        except (OSError, http.client.HTTPException) as error:
            errors.append(error)
        finally:
            conn.close()
            meter.close()

    threads = [threading.Thread(target=worker, args=(first_connection + c,))
               for c in range(workload.connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise ServerError(f"connection failed: {errors[0]!r}")
    return clock() - start


def check_bodies(rec: Recorder) -> None:
    """Shape checks on every distinct response body, then JSON/CSV
    agreement for every query answered in both formats at one version."""
    parsed = {}
    for digest, (body, query, fmt) in rec.bodies.items():
        try:
            parsed[digest] = set(rows_of(body, query, fmt))
        except CheckError as error:
            rec.wrong.append(str(error))
    for (text, version), formats in rec.renderings.items():
        if "json" not in formats or "csv" not in formats:
            continue
        lexical = [as_lexical(parsed[d]) for d in formats["json"]
                   if d in parsed]
        plain = [parsed[d] for d in formats["csv"] if d in parsed]
        if lexical and any(rows != lexical[0] for rows in lexical + plain):
            rec.wrong.append(f"JSON and CSV answers differ at version "
                             f"{version}: {text}")


#: for an instance insert, the join template bound to one of the batch's
#: objects whose answer must gain the fresh subject
_OBJECT_PROBES = {
    inputs.univ("advisor"): lambda o: inputs.churn_query("advisees", o),
    inputs.univ("memberOf"): lambda o: inputs.churn_query("triangle", o),
}


def probes_for(update: Update) -> List[Query]:
    """Queries whose answers the batch of insert ``update`` must change:
    for a ``p subPropertyOf fresh`` schema insert, the fresh
    superproperty; for an instance insert, the star on the fresh subject
    (answered by its owner shard when sharded) and the joins or in-links
    through its objects (answered by every shard)."""
    s, p, o = update.triples[0]
    if p == inputs.SUBPROPERTY:
        return [Query("probe-superproperty", ("s", "o"), (("?s", o, "?o"),))]
    probes = [Query("probe-subject", ("p", "o"), ((s, "?p", "?o"),))]
    for _, p, o in update.triples:
        if p in _OBJECT_PROBES:
            probes.append(_OBJECT_PROBES[p](o))
        elif p.startswith(inputs.soc("link")[:-1]):
            probes.append(Query("probe-inlinks", ("s", "p"),
                                (("?s", "?p", o),)))
    return probes


def check_round(port: int, workload, seed: int, catalog, base, rec: Recorder,
                perturb: bool) -> int:
    """One sequential round at graph states the benchmark knows: one
    sampled query per template checked against the oracle before each
    insert, after it and after its matching delete (when the answer must
    be back to its pre-insert value).  Returns the answers checked."""
    ops = inputs.round_ops(workload, seed, 200, 0, catalog)
    samples: Dict[str, Query] = {}
    for op in ops:
        if isinstance(op, Read):
            samples.setdefault(op.query.template, op.query)
    conn = Connection(port)
    checked = 0

    def served(query: Query, fmt: str):
        with rec.lock:
            rec.attempted += 1
        status, _, body, _ = conn.query(query.text, fmt)
        if status != 200:
            raise ServerError(f"check query {query.template}: HTTP {status}")
        return set(rows_of(body, query, fmt))

    def expect(query: Query, rows, graph, where: str) -> None:
        nonlocal checked, perturb
        if perturb and rows:
            rows = set(sorted(rows)[1:])   # lose one row: must be caught
            perturb = False
        wanted = oracle.answer(graph, query)
        checked += 1
        if rows != wanted:
            rec.wrong.append(
                f"{query.template} {where}: {len(rows)} rows served, "
                f"{len(wanted)} by the oracle; e.g. missing "
                f"{sorted(wanted - rows)[:2]}, extra {sorted(rows - wanted)[:2]}"
                f": {query.text}")

    def apply(update: Update) -> None:
        with rec.lock:
            rec.attempted += 1
        status, _, body, _ = conn.update(update.text)
        if status != 200:
            raise ServerError(f"check update {update.kind}: HTTP {status}")
        size = len(update.triples)
        try:
            check_ack(body, size if update.is_insert else 0,
                      0 if update.is_insert else size)
        except CheckError as error:
            rec.wrong.append(f"check {update.kind}: {error}")

    try:
        before = {}
        for label, query in samples.items():
            rows = served(query, "json")
            expect(query, rows, base, "at the base graph")
            if as_lexical(rows) != served(query, "csv"):
                rec.wrong.append(f"{label}: JSON and CSV answers differ")
            before[label] = rows
        deletes = {op.triples: op for op in ops
                   if isinstance(op, Update) and not op.is_insert}
        for insert in [op for op in ops
                       if isinstance(op, Update) and op.is_insert]:
            apply(insert)
            state = oracle.closure(base | set(insert.triples))
            probes = probes_for(insert)
            for query in list(samples.values()) + probes:
                expect(query, served(query, "json"), state,
                       f"after {insert.kind}")
            apply(deletes[insert.triples])
            for label, query in samples.items():
                if served(query, "json") != before[label]:
                    rec.wrong.append(f"{label}: answer did not return to its "
                                     f"pre-insert value after "
                                     f"{insert.kind}'s delete")
            for probe in probes:
                expect(probe, served(probe, "json"), base,
                       f"after {insert.kind}'s delete")
    finally:
        conn.close()
    return checked


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def _counters(document: dict) -> Dict[str, float]:
    """Every obs counter of the server, summed over shard workers."""
    reports = [document.get("obs", {})]
    for detail in document.get("server", {}).get("shards_detail", ()):
        reports.append(detail.get("obs") or {})
    totals: Dict[str, float] = defaultdict(float)
    for report in reports:
        for name, value in report.get("metrics", {}).get(
                "counters", {}).items():
            totals[name] += (sum(value.values()) if isinstance(value, dict)
                             else value)
    cache = document.get("server", {}).get("cache", {})
    totals["cache.hits"] = cache.get("hits", 0)
    totals["cache.misses"] = cache.get("misses", 0)
    return totals


def _snapshot_samples(server: Server, path: Path, index: int) -> dict:
    server.process.send_signal(signal.SIGUSR1)
    target = Path(f"{path}.{index}")
    deadline = time.monotonic() + 10
    while not target.exists():
        if time.monotonic() > deadline:
            raise ServerError("traced server wrote no samples")
        time.sleep(0.01)
    return json.loads(target.read_text())


def _serve_args(workload, work: Path, spawn: int) -> List[str]:
    args = list(workload.serve_args)
    if workload.name == "social-reform":
        args += ["--storage-dir", str(work / f"store{spawn}")]
    return args


def run_once(workload_name: str, seed: int, seconds: float, trace: bool,
             perturb: bool = False, connections: int = 0) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing")
    workload = inputs.WORKLOADS[workload_name]
    if connections:
        workload = dataclasses.replace(workload, connections=connections)
    work = ROOT / ".e2ebench_work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, perturb, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, perturb, work: Path) -> dict:
    triples, catalog = inputs.make_graph(workload, seed)
    graph = work / "graph.nt"
    graph.write_text(inputs.to_ntriples(triples), encoding="utf-8")
    warmup = inputs.warmup_query(workload)
    samples_path = work / "samples.json" if trace else None

    setup, server = [], None
    spawns = 1 if trace else SETUP_SPAWNS
    try:
        for spawn in range(spawns):
            server = Server(ROOT, graph, _serve_args(workload, work, spawn),
                            work / f"server{spawn}.log", samples_path)
            setup.append(server.wait_ready(warmup))
            if spawn < spawns - 1:
                server.stop()
                server = None
        rec = Recorder()
        drive_rounds(server, workload, seed, catalog, rec,
                     WARMUP_SECONDS, first_connection=100)
        ticks_before = cpu_ticks()
        rec.timing = True
        conn = Connection(server.port)
        stats_before = conn.get_json("/stats")
        samples_before = (_snapshot_samples(server, samples_path, 1)
                          if trace else None)
        wall = drive_rounds(server, workload, seed, catalog, rec,
                            seconds, first_connection=0)
        samples_after = (_snapshot_samples(server, samples_path, 2)
                         if trace else None)
        stats_after = conn.get_json("/stats")
        conn.close()
        rec.timing = False
        ticks_after = cpu_ticks()
        rss = server.peak_rss_mb()
        base = oracle.closure(triples)
        checked = check_round(server.port, workload, seed, catalog, base,
                              rec, perturb)
    finally:
        if server is not None:
            server.stop()
    check_bodies(rec)

    completed = sum(map(len, rec.reads.values())) + \
        sum(map(len, rec.updates.values()))
    server_cpu = sum(map(sum, rec.read_cpu.values())) + \
        sum(map(sum, rec.update_cpu.values()))
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "query_cpu_ms": (1000 * median_of_medians(rec.read_cpu), "ms"),
        "update_cpu_ms": (1000 * median_of_medians(rec.update_cpu), "ms"),
        "capacity_rps": (completed / server_cpu, "requests/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    wall_clock = {
        "query_ms": 1000 * median_of_medians(rec.reads),
        "update_ms": 1000 * median_of_medians(rec.updates),
        "throughput_rps": completed / wall,
    }
    report = {
        "workload": workload.name, "seed": seed, "checked_answers": checked,
        "distinct_bodies": len(rec.bodies), "setup_samples": setup,
        "host_steal_share": steal_share(ticks_before, ticks_after),
        "timings": {
            label: {"median_ms": 1000 * statistics.median(values),
                    "p99_ms": 1000 * p99(values), "count": len(values),
                    "cpu_median_ms": 1000 * statistics.median(cpu[label])}
            for group, cpu in ((rec.reads, rec.read_cpu),
                               (rec.updates, rec.update_cpu))
            for label, values in sorted(group.items())},
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "wall_clock": wall_clock,
        "host_job_ms": statistics.median(rec.host_job),
        "failures": rec.failed[:5], "wrong": rec.wrong[:5],
    }
    if trace:
        probes = setup_layers(workload, graph, work)
        metrics = layer_metrics(
            delta_samples(samples_before, samples_after),
            _counters(stats_before), _counters(stats_after), probes,
            updates=sum(map(len, rec.updates.values())))
    else:
        metrics = end_to_end
    result = {
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": len(rec.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"report": report, "result": result}


# ----------------------------------------------------------------------
# the traced run's per-layer metrics
# ----------------------------------------------------------------------

def setup_layers(workload, graph: Path, work: Path) -> Dict[str, float]:
    """Medians of the set-up layer timings over fresh interpreters."""
    strategy = "encoded" if workload.graph == "social" else "saturation"
    shards = "2" if "--shards" in workload.serve_args else "0"
    runs = []
    for probe in range(SETUP_PROBES):
        storage = (str(work / f"probe-store{probe}")
                   if workload.name == "social-reform" else "-")
        output = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(graph),
             strategy, shards, storage],
            cwd=ROOT, env=program_env(ROOT), capture_output=True, text=True,
            timeout=120,
            check=True).stdout
        runs.append(json.loads(output.strip().splitlines()[-1]))
    return {key: statistics.median(run.get(key, 0.0) for run in runs)
            for key in ("import", "parse", "index", "reason", "shard")}


def delta_samples(before: dict, after: dict) -> Dict[str, Dict[str, float]]:
    out = {}
    for name, entry in after.items():
        earlier = before.get(name, {})
        out[name] = {key: value - earlier.get(key, 0)
                     for key, value in entry.items()}
    return out


def layer_metrics(samples, before, after, probes, updates: int):
    def calls(name):
        return samples.get(name, {}).get("calls", 0)

    def total(name, key="seconds"):
        return samples.get(name, {}).get(key, 0.0)

    def per_call_ms(name):
        return 1000 * total(name) / calls(name) if calls(name) else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def counted(name):
        return after.get(name, 0) - before.get(name, 0)

    requests = calls("aserver.respond")
    inside = (total("protocol.plan") + total("pool.queue") + total("pool.job")
              + total("protocol.render"))
    evaluated = calls("shard.evaluate")
    answered_rows = total("db.query", "rows") + total("shardplan.merge", "rows")
    hits, misses = counted("cache.hits"), counted("cache.misses")
    reform_hits = counted("db.reformulation_cache_hits")
    reform_misses = counted("db.reformulation_cache_misses")
    ms, count, share = "ms", "count", "ratio"
    return {
        "setup.import_s": (probes["import"], "s"),
        "setup.parse_s": (probes["parse"], "s"),
        "setup.index_s": (probes["index"], "s"),
        "setup.reason_s": (probes["reason"], "s"),
        "setup.shard_s": (probes["shard"], "s"),
        "aserver.self_ms": (ratio(1000 * (total("aserver.respond") - inside),
                                  requests), ms),
        "protocol.plan_ms": (per_call_ms("protocol.plan"), ms),
        "results.json_ms": (per_call_ms("results.json"), ms),
        "results.csv_ms": (per_call_ms("results.csv"), ms),
        "results.bytes_per_row.json": (ratio(total("results.json", "bytes"),
                                             total("results.json", "rows")),
                                       "bytes"),
        "results.bytes_per_row.csv": (ratio(total("results.csv", "bytes"),
                                            total("results.csv", "rows")),
                                      "bytes"),
        "pool.queue_ms": (per_call_ms("pool.queue"), ms),
        "service.lock_wait_ms": (per_call_ms("service.lock_wait"), ms),
        "sparql.parse_ms": (per_call_ms("sparql.parse"), ms),
        "cache.hit_ratio": (ratio(hits, hits + misses), share),
        "db.query_ms": (per_call_ms("db.query"), ms),
        "joins.bindings_per_row": (ratio(counted("joins.intermediate_bindings"),
                                         answered_rows), count),
        "evaluator.lookups_per_query": (ratio(
            counted("evaluator.index_lookups"), counted("db.queries")), count),
        "reformulation.ms": (per_call_ms("reformulation"), ms),
        "reformulation.cqs_per_query": (ratio(total("reformulation", "cqs"),
                                              calls("reformulation")), count),
        "reformulation.cache_hit_ratio": (ratio(
            reform_hits, reform_hits + reform_misses), share),
        "encoding.build_ms": (per_call_ms("encoding.build"), ms),
        "encoding.builds_per_update": (ratio(counted("encoding.builds"),
                                             updates), count),
        "maintenance.insert_ms": (per_call_ms("maintenance.insert"), ms),
        "maintenance.delete_ms": (per_call_ms("maintenance.delete"), ms),
        "maintenance.derived_per_triple": (ratio(
            counted("maintenance.implicit_added"),
            counted("db.triples_inserted")), count),
        "maintenance.rederived_ratio": (ratio(
            counted("maintenance.rederived"),
            counted("maintenance.overdeleted")), share),
        "columnar.merges_per_update": (ratio(counted("columnar.merges"),
                                             updates), count),
        "storage.wal_bytes_per_update": (ratio(counted("storage.wal_bytes"),
                                               updates), "bytes"),
        "storage.snapshot_ms": (per_call_ms("storage.snapshot"), ms),
        "shard.scatter_ms": (ratio(1000 * total("shard.scatter.query"),
                                   evaluated), ms),
        "shardwire.decode_ms": (ratio(1000 * total("shardwire.recv"),
                                      evaluated), ms),
        "shardwire.bytes_per_query": (ratio(total("shardwire.bytes", "bytes"),
                                            evaluated), "bytes"),
        "shardplan.merge_ms": (per_call_ms("shardplan.merge"), ms),
        "shard.rows_per_result_row": (ratio(
            total("shardplan.merge", "gathered"),
            total("shardplan.merge", "rows")), count),
        "shard.ship_rounds_per_update": (ratio(calls("shard.scatter.ship"),
                                               calls("shard.update")), count),
    }


# ----------------------------------------------------------------------
# steadiness: two sets of runs
# ----------------------------------------------------------------------

def steadiness(seconds: int) -> int:
    """Run two sets of ``STEADINESS_RUNS`` runs of every workload (seeds
    differ across all of them) and print each end-to-end metric's
    per-set median and interquartile spread against its bound.  A
    discarded run first takes the slow first run after an idle host.
    A metric is steady when both spreads and the gap between the two
    medians, taken from the smaller one, are within its bound; no metric
    of a workload with a wrong answer or a failed request is."""
    bounds = {metric["name"]: metric["bound"] for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    workloads = list(inputs.WORKLOADS)

    def one(workload: str, seed: int, length: int):
        lines = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(length), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=600).stdout.strip().splitlines()
        if len(lines) < 2:
            raise ServerError(f"{workload} seed {seed} printed no result")
        return json.loads(lines[-2]), json.loads(lines[-1])

    one(workloads[0], 999_999, min(seconds, 5))   # the idle-host warm-up
    table = defaultdict(lambda: ([], []))   # (workload, metric) -> per set
    shares = defaultdict(set)
    steal = defaultdict(list)               # (workload, set) -> steal shares
    faulty = set()
    for set_index in range(2):
        for workload in workloads:
            for run in range(STEADINESS_RUNS):
                report, result = one(workload, 1 + 1000 * set_index + run,
                                     seconds)
                print(f"set {set_index + 1} {workload} seed {report['seed']}: "
                      f"steal {report['host_steal_share']:.3f} "
                      f"job {report['host_job_ms']:.3f} " + " ".join(
                          f"{name} {metric['value']:.4g}" for name, metric
                          in sorted(result["metrics"].items())),
                      file=sys.stderr, flush=True)
                steal[(workload, set_index)].append(report["host_steal_share"])
                shares[workload].add(result["failed"] / result["attempted"])
                if not result["correct"] or result["failed"]:
                    faulty.add(workload)
                    print(f"{workload} seed {report['seed']}: correct="
                          f"{result['correct']}, failed={result['failed']}: "
                          f"{report['wrong'] + report['failures']}",
                          file=sys.stderr)
                for name, metric in result["metrics"].items():
                    table[(workload, name)][set_index].append(metric["value"])
    print("| workload | metric | median set 1 | median set 2 | gap "
          "| spread set 1 | spread set 2 | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    steady = not faulty
    for (workload, name), per_set in sorted(table.items()):
        bound = bounds[name]
        medians = [statistics.median(values) for values in per_set]
        spreads = [spread(values) for values in per_set]
        gap = abs(medians[1] - medians[0]) / min(medians)
        verdict = ("FAULTY" if workload in faulty else
                   "ok" if max(spreads + [gap]) <= bound else "UNSTEADY")
        steady &= verdict == "ok"
        print(f"| {workload} | {name} | {medians[0]:.4g} | {medians[1]:.4g} "
              f"| {gap:.3f} | {spreads[0]:.3f} | {spreads[1]:.3f} | {bound} "
              f"| {verdict} |")
    for workload in workloads:
        print(f"{workload}: failed share per run {sorted(shares[workload])}; "
              "host steal share, median per set: " + ", ".join(
                  f"{statistics.median(steal[(workload, s)]):.3f}"
                  for s in range(2)))
    return 0 if steady else 1


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="drop one row of one checked answer; the run "
                             "must then report correct=false")
    parser.add_argument("--connections", type=int, default=0,
                        help="override the workload's connection count "
                             "(for the wall-clock reference figures only)")
    parser.add_argument("--steadiness", action="store_true",
                        help=f"two sets of {STEADINESS_RUNS} runs of every "
                             "workload")
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through the ``finally`` that stops the server
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.steadiness:
        return steadiness(int(args.seconds))
    if args.workload is None:
        parser.error("--workload is required")
    outcome = run_once(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.perturb, args.connections)
    report, result = outcome["report"], outcome["result"]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
