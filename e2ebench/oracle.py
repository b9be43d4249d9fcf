"""An independent ρdf reference for checking the served answers.

A naive fix-point of the six ρdf rules (rdfs2, 3, 5, 7, 9, 11) over the
benchmark's own copy of the graph, and nested-loop BGP matching with
DISTINCT.  It shares no code with the program under test: it works on
N-Triples token strings, so it is slow but obviously right, which is
all a reference needs to be.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from inputs import DOMAIN, RANGE, RDF_TYPE, SUBCLASS, SUBPROPERTY, Query

Triple = Tuple[str, str, str]
Row = Tuple[str, ...]


def _pairs(graph: Set[Triple], predicate: str) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = defaultdict(set)
    for s, p, o in graph:
        if p == predicate:
            out[s].add(o)
    return out


def closure(triples: Iterable[Triple]) -> FrozenSet[Triple]:
    """G∞ under ρdf: apply every rule to every triple until nothing new
    appears (naive evaluation; the schema maps are rebuilt each round,
    so schema triples derived in a round feed the next one)."""
    graph: Set[Triple] = set(triples)
    while True:
        subclass = _pairs(graph, SUBCLASS)
        subproperty = _pairs(graph, SUBPROPERTY)
        domain = _pairs(graph, DOMAIN)
        range_ = _pairs(graph, RANGE)
        new: Set[Triple] = set()
        for a, bs in subclass.items():                        # rdfs11
            for b in bs:
                for c in subclass.get(b, ()):
                    new.add((a, SUBCLASS, c))
        for a, bs in subproperty.items():                     # rdfs5
            for b in bs:
                for c in subproperty.get(b, ()):
                    new.add((a, SUBPROPERTY, c))
        for s, p, o in graph:
            for c in domain.get(p, ()):                       # rdfs2
                new.add((s, RDF_TYPE, c))
            for c in range_.get(p, ()):                       # rdfs3
                new.add((o, RDF_TYPE, c))
            for q in subproperty.get(p, ()):                  # rdfs7
                new.add((s, q, o))
            if p == RDF_TYPE:
                for c in subclass.get(o, ()):                 # rdfs9
                    new.add((s, RDF_TYPE, c))
        new -= graph
        if not new:
            return frozenset(graph)
        graph |= new


def _is_var(term: str) -> bool:
    return term.startswith("?")


def answer(graph: Iterable[Triple], query: Query) -> Set[Row]:
    """The DISTINCT projection of every match of the query's patterns,
    found by nested loops over the triples (one list per predicate, so
    the loops stay affordable on graphs of a few tens of thousands)."""
    by_predicate: Dict[str, List[Triple]] = defaultdict(list)
    everything: List[Triple] = []
    for triple in graph:
        by_predicate[triple[1]].append(triple)
        everything.append(triple)
    rows: Set[Row] = set()

    def match(index: int, binding: Dict[str, str]) -> None:
        if index == len(query.patterns):
            rows.add(tuple(binding[v] for v in query.variables))
            return
        pattern = query.patterns[index]
        bound = [binding.get(t[1:], t) if _is_var(t) else t for t in pattern]
        candidates = (everything if _is_var(bound[1])
                      else by_predicate.get(bound[1], ()))
        for triple in candidates:
            extended = dict(binding)
            for term, value in zip(bound, triple):
                if _is_var(term):
                    if extended.setdefault(term[1:], value) != value:
                        break
                elif term != value:
                    break
            else:
                match(index + 1, extended)

    match(0, {})
    return rows
