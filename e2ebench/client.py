"""The load generator's HTTP client and the per-response property checks."""

from __future__ import annotations

import csv
import http.client
import io
import json
import time
from typing import Dict, List, Tuple
from urllib.parse import urlencode

from inputs import Query

Row = Tuple[str, ...]


class CheckError(AssertionError):
    """A response that breaks a property every answer must have."""


class Connection:
    """One keep-alive HTTP/1.1 connection; every call is timed from the
    request being sent to the last response byte being read."""

    def __init__(self, port: int, timeout: float = 30.0):
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout)

    def _call(self, method: str, path: str, body: str = None,
              headers: Dict[str, str] = None):
        start = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers or {})
        response = self._conn.getresponse()
        payload = response.read()
        seconds = time.perf_counter() - start
        return response.status, response, payload, seconds

    def query(self, text: str, fmt: str, strategy: str = None):
        params = {"query": text, "format": fmt}
        if strategy:
            params["strategy"] = strategy
        return self._call("GET", "/sparql?" + urlencode(params))

    def update(self, text: str):
        return self._call(
            "POST", "/update", body=urlencode({"update": text}),
            headers={"Content-Type": "application/x-www-form-urlencoded"})

    def get_json(self, path: str) -> dict:
        status, _, payload, _ = self._call("GET", path)
        if status != 200:
            raise CheckError(f"GET {path} answered {status}")
        return json.loads(payload)

    def close(self) -> None:
        self._conn.close()


# ----------------------------------------------------------------------
# W3C result documents -> rows of N-Triples tokens / lexical forms
# ----------------------------------------------------------------------

def _token(node: dict) -> str:
    kind, value = node.get("type"), node.get("value")
    if not isinstance(value, str):
        raise CheckError(f"result term without a string value: {node!r}")
    if kind == "uri":
        return f"<{value}>"
    if kind == "bnode":
        return f"_:{value}"
    if kind == "literal":
        if "datatype" in node:
            return f'"{value}"^^<{node["datatype"]}>'
        if "xml:lang" in node:
            return f'"{value}"@{node["xml:lang"]}'
        return f'"{value}"'
    raise CheckError(f"unknown result term type {kind!r}")


def lexical(token: str) -> str:
    """A token's CSV form: the IRI, the blank label or the lexical value."""
    if token.startswith("<"):
        return token[1:-1]
    if token.startswith('"'):
        return token[1:token.rindex('"')]
    return token


def _distinct(rows: List[Row], what: str) -> List[Row]:
    if len(set(rows)) != len(rows):
        raise CheckError(f"{what}: duplicate rows in a DISTINCT answer")
    return rows


def json_rows(body: bytes, query: Query) -> List[Row]:
    """The rows of a W3C JSON results document, checked for shape: the
    head names exactly the projection, every binding binds exactly the
    head variables, and no row repeats."""
    try:
        document = json.loads(body)
        head = document["head"]["vars"]
        bindings = document["results"]["bindings"]
    except (ValueError, KeyError, TypeError) as error:
        raise CheckError(f"{query.template}: malformed JSON results "
                         f"({error})") from None
    if head != list(query.variables):
        raise CheckError(f"{query.template}: head {head} does not match "
                         f"the projection {list(query.variables)}")
    rows = []
    for binding in bindings:
        if not isinstance(binding, dict) or sorted(binding) != sorted(head):
            raise CheckError(f"{query.template}: binding {binding!r} does "
                             "not bind exactly the head variables")
        rows.append(tuple(_token(binding[v]) for v in head))
    return _distinct(rows, query.template)


def csv_rows(body: bytes, query: Query) -> List[Row]:
    """The rows of a W3C CSV results document (lexical forms), checked
    for the same shape properties as :func:`json_rows`."""
    try:
        records = list(csv.reader(io.StringIO(body.decode("utf-8"),
                                              newline="")))
    except (UnicodeDecodeError, csv.Error) as error:
        raise CheckError(f"{query.template}: malformed CSV ({error})") \
            from None
    if not body.endswith(b"\r\n") or not records:
        raise CheckError(f"{query.template}: CSV rows must end in CRLF")
    if records[0] != list(query.variables):
        raise CheckError(f"{query.template}: CSV header {records[0]} does "
                         f"not match the projection")
    rows = []
    for record in records[1:]:
        if len(record) != len(query.variables):
            raise CheckError(f"{query.template}: CSV row {record} has the "
                             "wrong arity")
        rows.append(tuple(record))
    return _distinct(rows, query.template)


def rows_of(body: bytes, query: Query, fmt: str) -> List[Row]:
    return json_rows(body, query) if fmt == "json" else csv_rows(body, query)


def as_lexical(rows) -> set:
    return {tuple(lexical(t) for t in row) for row in rows}


def check_ack(body: bytes, expected_added: int, expected_removed: int) -> int:
    """An update acknowledgement must report exactly the triples the
    batch adds or removes; returns the graph version it reports."""
    try:
        ack = json.loads(body)
        added, removed, version = ack["added"], ack["removed"], ack["version"]
    except (ValueError, KeyError, TypeError) as error:
        raise CheckError(f"malformed update acknowledgement ({error})") \
            from None
    if (added, removed) != (expected_added, expected_removed):
        raise CheckError(f"update acknowledged added={added} "
                         f"removed={removed}, expected "
                         f"added={expected_added} removed={expected_removed}")
    return version
