"""Time the set-up layers of ``repro serve`` in a fresh interpreter.

Usage: ``probe_setup.py GRAPH.nt STRATEGY SHARDS STORAGE_DIR``
(``STORAGE_DIR`` may be ``-`` for none).  Prints one JSON object with
the seconds spent importing the CLI, parsing N-Triples, building the
columnar indexes, constructing the database (saturation or schema
closure and encoding) and, with ``SHARDS`` > 0, forking and loading the
shard workers — the same calls ``repro serve`` makes, in its order.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


def main() -> int:
    graph_path, strategy, shards, storage = sys.argv[1:5]
    timings = {}
    start = clock()
    import repro.cli  # noqa: F401
    from repro.db.database import RDFDatabase, Strategy
    from repro.rdf.ntriples import graph_from_ntriples
    from repro.server import build_sharded_database
    timings["import"] = clock() - start

    with open(graph_path, encoding="utf-8") as handle:
        text = handle.read()
    start = clock()
    graph = graph_from_ntriples(text)
    timings["parse"] = clock() - start
    start = clock()
    graph = graph.to_backend("columnar")
    timings["index"] = clock() - start

    resolved = ((Strategy.SATURATION, "factorized") if strategy == "saturation"
                else (Strategy.REFORMULATION, strategy))
    if int(shards):
        start = clock()
        sharded = build_sharded_database(
            graph, int(shards), strategy=resolved[0], backend="columnar",
            reformulation_strategy=resolved[1])
        timings["shard"] = clock() - start
        sharded.close()
    else:
        start = clock()
        db = RDFDatabase(graph, strategy=resolved[0],
                         reformulation_strategy=resolved[1],
                         storage_dir=None if storage == "-" else storage)
        timings["reason"] = clock() - start
        db.close()
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    sys.exit(main())
