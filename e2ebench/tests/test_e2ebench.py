"""Tests of the benchmark's own code: the oracle, the streams, the
arithmetic and the checks.  Run with ``python3 -m pytest e2ebench/tests``."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from client import CheckError, check_ack, csv_rows, json_rows  # noqa: E402
from inputs import (DOMAIN, RANGE, RDF_TYPE, SUBCLASS, SUBPROPERTY,  # noqa: E402
                    Query)
from server import CpuMeter  # noqa: E402
from run import (Recorder, check_bodies, median_of_medians,  # noqa: E402
                 probes_for)


def ex(name: str) -> str:
    return f"<http://example.org/{name}>"


# -- the oracle against hand-computed closures ---------------------------

def test_closure_of_the_figure_1_graph():
    # a book written by someone: schema of Figure 1, rules of Figure 2
    graph = {
        (ex("Book"), SUBCLASS, ex("Publication")),
        (ex("writtenBy"), SUBPROPERTY, ex("hasAuthor")),
        (ex("writtenBy"), DOMAIN, ex("Book")),
        (ex("writtenBy"), RANGE, ex("Person")),
        (ex("doi1"), ex("writtenBy"), ex("borges")),
        (ex("doi1"), ex("hasTitle"), '"El Aleph"'),
    }
    derived = oracle.closure(graph) - graph
    assert derived == {
        (ex("doi1"), RDF_TYPE, ex("Book")),             # rdfs2
        (ex("borges"), RDF_TYPE, ex("Person")),         # rdfs3
        (ex("doi1"), ex("hasAuthor"), ex("borges")),    # rdfs7
        (ex("doi1"), RDF_TYPE, ex("Publication")),      # rdfs9 after rdfs2
    }


def test_closure_follows_schema_chains():
    graph = {
        (ex("A"), SUBCLASS, ex("B")), (ex("B"), SUBCLASS, ex("C")),
        (ex("p"), SUBPROPERTY, ex("q")), (ex("q"), SUBPROPERTY, ex("r")),
        (ex("r"), DOMAIN, ex("A")),
        (ex("x"), ex("p"), ex("y")),
    }
    derived = oracle.closure(graph) - graph
    assert derived == {
        (ex("A"), SUBCLASS, ex("C")),                   # rdfs11
        (ex("p"), SUBPROPERTY, ex("r")),                # rdfs5
        (ex("x"), ex("q"), ex("y")), (ex("x"), ex("r"), ex("y")),
        (ex("x"), RDF_TYPE, ex("A")), (ex("x"), RDF_TYPE, ex("B")),
        (ex("x"), RDF_TYPE, ex("C")),
    }


def test_answer_is_distinct_nested_loop_matching():
    graph = oracle.closure({
        (ex("Cat"), SUBCLASS, ex("Animal")),
        (ex("tom"), RDF_TYPE, ex("Cat")),
        (ex("tom"), ex("likes"), ex("jerry")),
        (ex("tom"), ex("likes"), ex("milk")),
        (ex("jerry"), RDF_TYPE, ex("Animal")),
    })
    query = Query("t", ("x",), (("?x", RDF_TYPE, ex("Animal")),
                                ("?x", ex("likes"), "?y")))
    assert oracle.answer(graph, query) == {(ex("tom"),)}
    join = Query("t", ("x", "y"), (("?x", ex("likes"), "?y"),
                                   ("?y", RDF_TYPE, ex("Animal"))))
    assert oracle.answer(graph, join) == {(ex("tom"), ex("jerry"))}


# -- determinism ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_streams_are_determined_by_the_seed(name):
    workload = inputs.WORKLOADS[name]
    triples, catalog = inputs.make_graph(workload, 7)
    again, catalog_again = inputs.make_graph(workload, 7)
    assert triples == again
    first = [inputs.round_ops(workload, 7, c, r, catalog)
             for c in range(2) for r in range(3)]
    second = [inputs.round_ops(workload, 7, c, r, catalog_again)
              for c in range(2) for r in range(3)]
    assert first == second
    other_triples, other_catalog = inputs.make_graph(workload, 8)
    other = [inputs.round_ops(workload, 8, c, r, other_catalog)
             for c in range(2) for r in range(3)]
    assert other != first


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_every_round_returns_the_graph_to_its_size(name):
    workload = inputs.WORKLOADS[name]
    _, catalog = inputs.make_graph(workload, 3)
    ops = inputs.round_ops(workload, 3, 0, 5, catalog)
    inserted = [op.triples for op in ops
                if isinstance(op, inputs.Update) and op.is_insert]
    deleted = [op.triples for op in ops
               if isinstance(op, inputs.Update) and not op.is_insert]
    assert sorted(inserted) == sorted(deleted)
    assert len({op.kind for op in ops if isinstance(op, inputs.Update)}) in (2, 4)


# -- arithmetic ----------------------------------------------------------

def test_geometric_mean_of_per_template_medians():
    samples = {"a": [3.0, 1.0, 2.0], "b": [4.0, 100.0, 4.0], "c": [8.0]}
    assert median_of_medians(samples) == pytest.approx((2 * 4 * 8) ** (1 / 3))
    # one slow outlier per template does not move it
    samples["a"].append(1e6)
    samples["a"].append(0.5)
    assert median_of_medians(samples) == pytest.approx(4.0)
    assert math.isclose(median_of_medians({"x": [5.0]}), 5.0)


# -- the checks ----------------------------------------------------------

QUERY = Query("t", ("x",), (("?x", RDF_TYPE, ex("C")),))


def _json(*values: str, head=("x",)) -> bytes:
    return json.dumps({"head": {"vars": list(head)}, "results": {"bindings": [
        {"x": {"type": "uri", "value": v}} for v in values]}}).encode()


def test_well_formed_answers_pass():
    assert json_rows(_json("http://a", "http://b"), QUERY) == [
        ("<http://a>",), ("<http://b>",)]
    assert csv_rows(b"x\r\nhttp://a\r\n", QUERY) == [("http://a",)]


@pytest.mark.parametrize("body", [
    _json("http://a", "http://a"),             # duplicate row
    _json("http://a", head=("y",)),            # head is not the projection
    b"{not json",
])
def test_malformed_json_answers_fail(body):
    with pytest.raises(CheckError):
        json_rows(body, QUERY)


@pytest.mark.parametrize("body", [b"y\r\nhttp://a\r\n", b"x\r\na\r\na\r\n",
                                  b"x\nhttp://a\n"])
def test_malformed_csv_answers_fail(body):
    with pytest.raises(CheckError):
        csv_rows(body, QUERY)


def test_acknowledgements_must_count_exactly():
    check_ack(b'{"added": 6, "removed": 0, "version": 3}', 6, 0)
    with pytest.raises(CheckError):
        check_ack(b'{"added": 5, "removed": 0, "version": 3}', 6, 0)


def test_json_and_csv_renderings_must_agree():
    rec = Recorder()
    for body, fmt in ((_json("http://a"), "json"), (b"x\r\nhttp://b\r\n", "csv")):
        rec.bodies[body] = (body, QUERY, fmt)
        rec.renderings[(QUERY.text, "1")][fmt].add(body)
    check_bodies(rec)
    assert rec.wrong


def test_a_perturbed_answer_fails_the_run():
    """End to end: one dropped row in one checked answer must turn the
    run's verdict to incorrect and its exit code to 1."""
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lubm-churn",
         "--seed", "1", "--seconds", "1", "--perturb"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert process.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == 0


@pytest.mark.parametrize("name", ["lubm-churn", "social-reform"])
def test_every_insert_has_probes_that_see_its_batch(name):
    """The answer check after an insert and after its delete can only
    fail on a lost update if some checked answer depends on the batch."""
    workload = inputs.WORKLOADS[name]
    for seed in (1, 2):
        triples, catalog = inputs.make_graph(workload, seed)
        base = oracle.closure(triples)
        for op in inputs.round_ops(workload, seed, 200, 0, catalog):
            if isinstance(op, inputs.Update) and op.is_insert:
                state = oracle.closure(base | set(op.triples))
                probes = probes_for(op)
                assert probes
                for probe in probes:
                    assert oracle.answer(state, probe) != \
                        oracle.answer(base, probe), (op.kind, probe.text)


# -- the server CPU meter ------------------------------------------------

def test_cpu_meter_counts_every_thread_and_never_goes_back():
    def spin():
        sum(range(3_000_000))

    worker = threading.Thread(target=spin)
    worker.start()
    meter = CpuMeter(os.getpid())   # sees the worker while it runs
    try:
        before = meter.read()
        spin()
        worker.join()               # the ended thread keeps its last reading
        after = meter.read()
        assert after > before
        meter.refresh()
        assert meter.read() >= after
    finally:
        meter.close()
