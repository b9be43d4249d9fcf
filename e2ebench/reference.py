"""Reference figures that are not gated metrics (see README.md).

    python3 e2ebench/reference.py two-root-join   # the excluded social join
    python3 e2ebench/reference.py sigterm-shards  # workers left by SIGTERM
    python3 e2ebench/reference.py query-log       # RSS growth of the query log

Each prints what it measured as JSON and stops every process it started.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from client import Connection  # noqa: E402
from inputs import RDF_TYPE, Query, soc  # noqa: E402
from server import Server, _descendants, _gone  # noqa: E402

TWO_ROOT_JOIN = Query("two-root", ("x", "y"), (
    ("?x", RDF_TYPE, soc("Agent")), ("?x", soc("link0"), "?y"),
    ("?y", RDF_TYPE, soc("Place"))))


def _graph(work: Path, kind: str, seed: int = 1) -> Path:
    workload = inputs.WORKLOADS["social-reform" if kind == "social"
                                else "lubm-churn"]
    triples, _ = inputs.make_graph(workload, seed)
    path = work / f"{kind}.nt"
    path.write_text(inputs.to_ntriples(triples), encoding="utf-8")
    return path


def two_root_join(work: Path) -> dict:
    """Seconds for ``?x a Agent . ?x link0 ?y . ?y a Place`` under each
    reformulation evaluator and under saturation, deadline disabled."""
    graph = _graph(work, "social")
    figures = {}
    for strategy in ("saturation", "reformulation"):
        server = Server(ROOT, graph, ["--strategy", strategy, "--timeout", "0"],
                        work / f"{strategy}.log")
        try:
            server.wait_ready(inputs.warmup_query(inputs.WORKLOADS[
                "social-reform"]))
            conn = Connection(server.port, timeout=600)
            evaluators = (("ucq", "encoded", "factorized")
                          if strategy == "reformulation" else ("",))
            for evaluator in evaluators:
                status, _, body, seconds = conn.query(
                    TWO_ROOT_JOIN.text, "json", evaluator)
                rows = len(json.loads(body)["results"]["bindings"]) \
                    if status == 200 else None
                figures[evaluator or strategy] = {
                    "status": status, "seconds": seconds, "rows": rows}
            conn.close()
        finally:
            server.stop()
    return figures


def sigterm_shards(work: Path) -> dict:
    """Send SIGTERM to a ``--shards 2`` coordinator and see whether its
    forked workers end with it."""
    graph = _graph(work, "lubm")
    server = Server(ROOT, graph, ["--shards", "2"], work / "shards.log")
    try:
        server.wait_ready(inputs.warmup_query(inputs.WORKLOADS["lubm-shard2"]))
        workers = _descendants(server.process.pid)
        server._known = [server.process.pid] + workers
        server.process.send_signal(signal.SIGTERM)
        server.process.wait(timeout=10)
        time.sleep(5)
        alive = [pid for pid in workers if not _gone(pid)]
    finally:
        server.stop()
    return {"workers": len(workers),
            "alive_5s_after_sigterm": len(alive)}


def query_log(work: Path) -> dict:
    """Peak RSS of a saturated LUBM database before and after answering
    20,000 distinct churn queries in-process: ``RDFDatabase.query``
    appends every answered query to an in-memory log that nothing
    trims."""
    sys.path.insert(0, str(ROOT / "src"))
    import resource
    from repro.db.database import RDFDatabase
    from repro.rdf.ntriples import graph_from_ntriples

    triples, catalog = inputs.make_graph(inputs.WORKLOADS["lubm-churn"], 1)
    db = RDFDatabase(graph_from_ntriples(inputs.to_ntriples(triples))
                     .to_backend("columnar"))
    queries = [inputs.churn_query(template, constant)
               for template, constants in (("star", catalog.professors),
                                           ("chain", catalog.courses),
                                           ("advisees", catalog.advisors))
               for constant in constants]
    for query in queries:       # warm every code path once
        db.query(query.text)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    logged_before = len(db.query_log())
    for i in range(20_000):
        db.query(queries[i % len(queries)].text)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"queries": 20_000,
            "log_entries": [logged_before, len(db.query_log())],
            "peak_rss_mb": [before / 1024, after / 1024]}


def main() -> int:
    work = ROOT / ".e2ebench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        figure = {"two-root-join": two_root_join,
                  "sigterm-shards": sigterm_shards,
                  "query-log": query_log}[sys.argv[1]](work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(figure, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
