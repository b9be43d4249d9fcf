"""The host's speed, read next to every request.

The benchmark runs on vCPUs shared with other machines, and how much
work they do per CPU-second drifts: a fixed pure-Python job's CPU time
moved by ±25% within a minute on the 2-vCPU host this was built on, and
whole runs minutes apart differed by 40% in server CPU time per request.
A time metric taken raw follows that drift.  So the load generator times
``job_ms()`` just before each request (which is just after the previous
one), and each request's server CPU time is divided by the mean of the
job's times on either side of it and multiplied by ``REFERENCE_MS``: the
request's cost in milliseconds at the host speed where the job takes
``REFERENCE_MS``.  Host speed moves within fractions of a second, so
only a reading taken next to the request tracks it; a median over the
run did not (README.md, Steadiness).

The job is the kind of work the server's interpreter does: building a
small dict of strings, a keyed sort, the pure-Python JSON encoder.  It
keeps to a small working set on purpose: a job that also read a table
larger than the CPU caches took 0.37 ms between lubm-hot's requests and
0.55 ms between social-reform's, because the server's own memory traffic
evicted it, so a change to the program's footprint would have moved the
yardstick.  It is the benchmark's own code; no change to the program
moves it.
"""

from __future__ import annotations

import json
import time

#: about ``job_ms()`` between requests on the host this was built on (run
#: medians of 0.32-0.41 ms over every workload); it only sets the scale
REFERENCE_MS = 0.34


def job_ms() -> float:
    """Thread CPU milliseconds of one fixed job."""
    start = time.thread_time_ns()
    rows = {f"r{i}": {"value": f"http://x/{i}"} for i in range(60)}
    ordered = sorted(rows.items(), key=lambda item: item[1]["value"])
    json.dumps(ordered[:40], indent=2)
    return (time.thread_time_ns() - start) / 1e6
