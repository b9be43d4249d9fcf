"""Launch ``repro serve`` with the layers' public entry points timed.

Usage: ``traced_serve.py SAMPLES.json <repro CLI arguments>``

Wraps the functions each per-layer metric names, then hands over to
the CLI.  Samples (call counts, summed seconds and a few summed sizes)
stay in memory; they are written to ``SAMPLES.json`` when the server
stops, and to ``SAMPLES.json.<n>`` on each SIGUSR1.  Nothing in the program is changed on disk; the wrapping happens
in this process only, so forked shard workers report through the
server's own ``/stats`` counters instead.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import signal
import sys
import threading
import time

clock = time.perf_counter
_lock = threading.Lock()
_local = threading.local()
SAMPLES: dict = {}


def record(name: str, seconds: float = 0.0, **sizes: float) -> None:
    with _lock:
        entry = SAMPLES.setdefault(name, {"calls": 0, "seconds": 0.0})
        entry["calls"] += 1
        entry["seconds"] += seconds
        for key, value in sizes.items():
            entry[key] = entry.get(key, 0) + value


def _context() -> str:
    return getattr(_local, "context", "")


def timed(name, fn, sizes=None, context=None):
    """``fn`` wrapped to record its wall time under ``name``;
    ``sizes(args, result)`` adds summed sizes, ``context`` marks the
    thread while the call runs (so nested calls can tell who called)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        previous = _context()
        if context:
            _local.context = context
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            _local.context = previous
        seconds = clock() - start
        record(name, seconds, **(sizes(args, result) if sizes else {}))
        return result
    return wrapper


def patch_function(module, attribute, wrapper_factory) -> None:
    """Replace a module-level function everywhere it was imported by
    name inside the ``repro`` package."""
    original = getattr(module, attribute)
    wrapped = wrapper_factory(original)
    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, attribute, None) is original):
            setattr(loaded, attribute, wrapped)


def patch_method(cls, attribute, wrapper_factory) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(cls, attribute, classmethod(wrapper_factory(raw.__func__)))
    else:
        setattr(cls, attribute, wrapper_factory(raw))


def install() -> None:
    import repro.cli  # noqa: F401  (loads every module patched below)
    from repro.db.database import RDFDatabase
    from repro.reasoning import encoding, incremental, reformulation
    from repro.server import aserver, pool, protocol, rwlock, shard
    from repro.server import shardplan, shardwire
    from repro.sparql import parser, results
    from repro.storage.store import DurableStore

    # protocol: planning, the pool job and rendering of each request
    def plan_factory(fn):
        def wrapper(*args, **kwargs):
            start = clock()
            work = fn(*args, **kwargs)
            seconds = clock() - start
            target = args[4]
            if target.startswith(("/sparql", "/update")):
                record("protocol.plan", seconds)
                if isinstance(work, protocol.Work):
                    work = dataclasses.replace(
                        work, fn=timed("pool.job", work.fn),
                        render=timed("protocol.render", work.render))
            return work
        return wrapper
    patch_function(protocol, "plan_request", plan_factory)

    def respond_factory(fn):
        async def wrapper(self, method, target, headers, body):
            start = clock()
            response = await fn(self, method, target, headers, body)
            if target.startswith(("/sparql", "/update")):
                record("aserver.respond", clock() - start)
            return response
        return wrapper
    patch_method(aserver.ReproAsyncServer, "_respond", respond_factory)

    def rendered(args, text):
        return {"rows": len(args[0]), "bytes": len(text.encode())}
    patch_function(results, "results_to_json", lambda fn: timed(
        "results.json", fn, rendered))
    patch_function(results, "results_to_csv", lambda fn: timed(
        "results.csv", fn, rendered))

    # admission -> job start
    created = {}

    def job_init_factory(fn):
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            created[id(self)] = clock()
        return wrapper

    def job_run_factory(fn):
        def wrapper(self):
            born = created.pop(id(self), None)
            if born is not None:
                record("pool.queue", clock() - born)
            return fn(self)
        return wrapper
    patch_method(pool.Job, "__init__", job_init_factory)
    patch_method(pool.Job, "run", job_run_factory)

    for side in ("acquire_read", "acquire_write"):
        patch_method(rwlock.ReadWriteLock, side,
                     lambda fn: timed("service.lock_wait", fn))

    patch_function(parser, "parse_query",
                   lambda fn: timed("sparql.parse", fn))
    patch_method(RDFDatabase, "query", lambda fn: timed(
        "db.query", fn, lambda args, result: {"rows": len(result)}))
    patch_function(reformulation, "reformulate", lambda fn: timed(
        "reformulation", fn,
        lambda args, result: {"cqs": result.ucq_size}))
    patch_method(encoding.EncodedGraphView, "build",
                 lambda fn: timed("encoding.build", fn))
    patch_method(incremental.IncrementalReasoner, "insert",
                 lambda fn: timed("maintenance.insert", fn))
    patch_method(incremental.DRedReasoner, "delete",
                 lambda fn: timed("maintenance.delete", fn))
    patch_method(DurableStore, "snapshot",
                 lambda fn: timed("storage.snapshot", fn))

    # the coordinator <-> worker hop; update traffic is kept apart from
    # query traffic by the thread's context mark
    patch_method(shard.ShardedDatabase, "update",
                 lambda fn: timed("shard.update", fn, context="update"))
    patch_method(shard.ShardedDatabase, "_evaluate",
                 lambda fn: timed("shard.evaluate", fn, context="query"))
    patch_function(shard, "_run_ship_rounds",
                   lambda fn: timed("shard.ship", fn, context="ship"))

    def scatter_factory(fn):
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            where = _context()
            record("shard.scatter." + (where or "other"), clock() - start)
            return result
        return wrapper
    patch_method(shard.ShardCluster, "scatter", scatter_factory)

    def recv_factory(fn):
        def wrapper(sock):
            start = clock()
            payload = fn(sock)
            if _context() == "query":
                record("shardwire.recv", clock() - start)
            return payload
        return wrapper
    patch_function(shardwire, "recv_frame", recv_factory)

    def exact_factory(fn):
        def wrapper(sock, count):
            data = fn(sock, count)
            if _context() == "query" and data:
                record("shardwire.bytes", 0.0, bytes=len(data))
            return data
        return wrapper
    patch_function(shardwire, "_recv_exact", exact_factory)

    patch_function(shardplan, "merge_bgp_rows", lambda fn: timed(
        "shardplan.merge", fn, lambda args, result: {
            "gathered": sum(len(rows) for rows in args[1]),
            "rows": len(result)}))


def dump(path: str) -> None:
    with _lock:
        text = json.dumps(SAMPLES)
    with open(path + ".tmp", "w") as handle:
        handle.write(text)
    os.replace(path + ".tmp", path)


def main() -> int:
    samples_path, argv = sys.argv[1], sys.argv[2:]
    install()
    # SIGUSR1 writes the samples so far to SAMPLES.json.<n>: the
    # benchmark brackets its timed phase with two of them
    snapshots = iter(range(1, 1 << 30))
    signal.signal(signal.SIGUSR1, lambda *_: dump(
        f"{samples_path}.{next(snapshots)}"))
    from repro.cli import main as cli_main
    try:
        return cli_main(argv)
    finally:
        dump(samples_path)


if __name__ == "__main__":
    sys.exit(main())
