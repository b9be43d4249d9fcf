"""Seeded inputs: the N-Triples graphs and the request streams.

Everything here is a pure function of ``(workload, seed)``; the program
under test only ever sees the N-Triples file and the HTTP requests.
Terms are kept as N-Triples tokens (``<iri>``, ``"lexical"`` or
``"lexical"^^<datatype>``) so the same strings serve as file lines,
SPARQL text and the oracle's triples.

Both graphs are generated here rather than by the program's own
generators, so a change to the program cannot change what is measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random
from typing import Dict, Iterator, List, Sequence, Tuple

Triple = Tuple[str, str, str]

RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
_RDFS = "http://www.w3.org/2000/01/rdf-schema#"
SUBCLASS = f"<{_RDFS}subClassOf>"
SUBPROPERTY = f"<{_RDFS}subPropertyOf>"
DOMAIN = f"<{_RDFS}domain>"
RANGE = f"<{_RDFS}range>"
XSD_INTEGER = "<http://www.w3.org/2001/XMLSchema#integer>"

_UNIV = "http://e2ebench.example.org/univ#"
_SOC = "http://e2ebench.example.org/social#"
_FRESH = "http://e2ebench.example.org/fresh#"


def univ(name: str) -> str:
    return f"<{_UNIV}{name}>"


def soc(name: str) -> str:
    return f"<{_SOC}{name}>"


def fresh(name: str) -> str:
    return f"<{_FRESH}{name}>"


def literal(text: str) -> str:
    return f'"{text}"'


def integer(value: int) -> str:
    return f'"{value}"^^{XSD_INTEGER}'


def to_ntriples(triples: Sequence[Triple]) -> str:
    return "".join(f"{s} {p} {o} .\n" for s, p, o in triples)


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------

#: departments in the LUBM-style graph (about 5,600 triples)
LUBM_DEPARTMENTS = 8

_LUBM_SUBCLASS = (
    ("Employee", "Person"), ("Faculty", "Employee"),
    ("Professor", "Faculty"), ("FullProfessor", "Professor"),
    ("AssociateProfessor", "Professor"), ("AssistantProfessor", "Professor"),
    ("Chair", "Professor"), ("Lecturer", "Faculty"),
    ("Student", "Person"), ("UndergraduateStudent", "Student"),
    ("GraduateStudent", "Student"), ("TeachingAssistant", "Person"),
    ("University", "Organization"), ("Department", "Organization"),
    ("ResearchGroup", "Organization"), ("Course", "Work"),
    ("GraduateCourse", "Course"), ("Article", "Publication"),
    ("ConferencePaper", "Article"), ("JournalArticle", "Article"),
    ("TechnicalReport", "Article"), ("Book", "Publication"),
)
_LUBM_SUBPROPERTY = (
    ("worksFor", "memberOf"), ("headOf", "worksFor"),
    ("undergraduateDegreeFrom", "degreeFrom"),
    ("doctoralDegreeFrom", "degreeFrom"),
    ("teachingAssistantOf", "assistsWith"),
)
_LUBM_DOMAIN = (
    ("memberOf", "Person"), ("degreeFrom", "Person"), ("advisor", "Person"),
    ("teacherOf", "Faculty"), ("takesCourse", "Student"),
    ("assistsWith", "Person"), ("publicationAuthor", "Publication"),
    ("subOrganizationOf", "Organization"), ("name", "Person"),
)
_LUBM_RANGE = (
    ("memberOf", "Organization"), ("degreeFrom", "University"),
    ("advisor", "Professor"), ("teacherOf", "Course"),
    ("takesCourse", "Course"), ("assistsWith", "Course"),
    ("publicationAuthor", "Person"), ("subOrganizationOf", "Organization"),
)
_RANKS = (("FullProfessor", 7), ("AssociateProfessor", 6),
          ("AssistantProfessor", 5), ("Lecturer", 4))
_UNDERGRADS, _GRADS, _COURSES, _GRAD_COURSES, _GROUPS = 60, 18, 20, 8, 4


def _schema(subclass, subproperty, domain, range_, term) -> List[Triple]:
    triples = [(term(a), SUBCLASS, term(b)) for a, b in subclass]
    triples += [(term(a), SUBPROPERTY, term(b)) for a, b in subproperty]
    triples += [(term(a), DOMAIN, term(b)) for a, b in domain]
    triples += [(term(a), RANGE, term(b)) for a, b in range_]
    return triples


@dataclass(frozen=True)
class LubmCatalog:
    """The constants the LUBM request templates are instantiated from
    (the "queries from the graph's own constants" approach)."""

    departments: Tuple[str, ...]
    courses: Tuple[str, ...]            # undergraduate courses
    professors: Tuple[str, ...]         # every teaching faculty member
    advisors: Tuple[str, ...]           # faculty that advise someone
    dept_courses: Dict[str, Tuple[str, ...]]
    dept_faculty: Dict[str, Tuple[str, ...]]


def lubm_graph(seed: int) -> Tuple[List[Triple], LubmCatalog]:
    """A seeded LUBM-style university: a deep class hierarchy, a
    property hierarchy, and instances typed only with their most
    specific class and property, so nearly every answer needs
    reasoning."""
    rng = Random(f"lubm:{seed}")
    triples = _schema(_LUBM_SUBCLASS, _LUBM_SUBPROPERTY, _LUBM_DOMAIN,
                      _LUBM_RANGE, univ)
    university = univ("University0")
    triples.append((university, RDF_TYPE, univ("University")))
    departments, courses_all, professors, advisors = [], [], [], set()
    dept_courses, dept_faculty = {}, {}
    for d in range(LUBM_DEPARTMENTS):
        tag = f"d{d}"
        dept = univ(f"Department{d}")
        departments.append(dept)
        triples += [(dept, RDF_TYPE, univ("Department")),
                    (dept, univ("subOrganizationOf"), university)]
        for g in range(_GROUPS):
            group = univ(f"ResearchGroup{tag}g{g}")
            triples += [(group, RDF_TYPE, univ("ResearchGroup")),
                        (group, univ("subOrganizationOf"), dept)]
        courses = [univ(f"Course{tag}c{i}") for i in range(_COURSES)]
        grad_courses = [univ(f"GraduateCourse{tag}c{i}")
                        for i in range(_GRAD_COURSES)]
        triples += [(c, RDF_TYPE, univ("Course")) for c in courses]
        triples += [(c, RDF_TYPE, univ("GraduateCourse"))
                    for c in grad_courses]
        dept_courses[dept] = tuple(courses)
        courses_all += courses
        faculty = []
        for rank, count in _RANKS:
            for i in range(count):
                person = univ(f"{rank}{tag}n{i}")
                triples += [(person, RDF_TYPE, univ(rank)),
                            (person, univ("worksFor"), dept),
                            (person, univ("name"),
                             literal(f"{rank} {tag}-{i}")),
                            (person, univ("doctoralDegreeFrom"), university)]
                faculty.append(person)
        chair = univ(f"Chair{tag}")
        triples += [(chair, RDF_TYPE, univ("Chair")),
                    (chair, univ("headOf"), dept)]
        faculty.append(chair)
        dept_faculty[dept] = tuple(faculty)
        all_courses = courses + grad_courses
        for person in faculty:
            for course in rng.sample(all_courses, 2):
                triples.append((person, univ("teacherOf"), course))
            for i in range(2):
                paper = univ(f"Publication{tag}{person[len(_UNIV) + 1:-1]}p{i}")
                kind = rng.choice(("ConferencePaper", "JournalArticle",
                                   "TechnicalReport", "Book"))
                triples += [(paper, RDF_TYPE, univ(kind)),
                            (paper, univ("publicationAuthor"), person)]
        professors += faculty
        for i in range(_UNDERGRADS):
            student = univ(f"UndergraduateStudent{tag}s{i}")
            triples += [(student, RDF_TYPE, univ("UndergraduateStudent")),
                        (student, univ("memberOf"), dept)]
            triples += [(student, univ("takesCourse"), c)
                        for c in rng.sample(courses, 2)]
        for i in range(_GRADS):
            student = univ(f"GraduateStudent{tag}s{i}")
            advisor = rng.choice(faculty)
            advisors.add(advisor)
            triples += [(student, RDF_TYPE, univ("GraduateStudent")),
                        (student, univ("memberOf"), dept),
                        (student, univ("undergraduateDegreeFrom"),
                         university),
                        (student, univ("advisor"), advisor)]
            triples += [(student, univ("takesCourse"), c)
                        for c in rng.sample(grad_courses + courses[:4], 2)]
            if rng.random() < 0.3:
                triples.append((student, univ("teachingAssistantOf"),
                                rng.choice(courses)))
    catalog = LubmCatalog(
        departments=tuple(departments), courses=tuple(courses_all),
        professors=tuple(professors),
        advisors=tuple(p for p in professors if p in advisors),
        dept_courses=dept_courses,
        dept_faculty=dept_faculty)
    return triples, catalog


_SOCIAL_ROOTS = ("Agent", "Place", "Work", "Event")
_SOCIAL_WIDTH, _SOCIAL_ENTITIES, _SOCIAL_LINKS = 40, 600, 1500
_SOCIAL_ATTRIBUTES, _SOCIAL_LINK_PROPS, _SOCIAL_ATTR_PROPS = 800, 12, 8
#: entities picked as hub link targets (low indices are favoured)
SOCIAL_HUBS = 12


def social_graph(seed: int) -> List[Triple]:
    """A seeded wide-shallow encyclopedia graph: 4 roots with 40 leaf
    classes each, link properties whose domains and ranges are roots,
    a thin subproperty layer and hub-skewed link targets."""
    rng = Random(f"social:{seed}")
    triples: List[Triple] = []
    for root in _SOCIAL_ROOTS:
        triples.append((soc(root), SUBCLASS, soc("Entity")))
        triples += [(soc(f"{root}_{i}"), SUBCLASS, soc(root))
                    for i in range(_SOCIAL_WIDTH)]
    for i in range(_SOCIAL_LINK_PROPS):
        prop = soc(f"link{i}")
        triples += [(prop, DOMAIN, soc(_SOCIAL_ROOTS[i % 4])),
                    (prop, RANGE, soc(_SOCIAL_ROOTS[(i + 1) % 4]))]
        if i % 3 == 0:
            triples.append((prop, SUBPROPERTY, soc("relatedTo")))
    for i in range(_SOCIAL_ATTR_PROPS):
        triples.append((soc(f"attr{i}"), DOMAIN, soc(_SOCIAL_ROOTS[i % 4])))
    entities = [soc(f"e{i}") for i in range(_SOCIAL_ENTITIES)]
    leaves = [soc(f"{root}_{i}") for root in _SOCIAL_ROOTS
              for i in range(_SOCIAL_WIDTH)]
    triples += [(entity, RDF_TYPE, rng.choice(leaves)) for entity in entities]
    seen = set(triples)
    for __ in range(_SOCIAL_LINKS):
        target = entities[int(rng.random() ** 3.0 * (len(entities) - 1))]
        link = (rng.choice(entities),
                soc(f"link{rng.randrange(_SOCIAL_LINK_PROPS)}"), target)
        if link not in seen:
            seen.add(link)
            triples.append(link)
    for __ in range(_SOCIAL_ATTRIBUTES):
        value = (integer(rng.randint(1, 2026)) if rng.random() < 0.5
                 else literal(f"label-{rng.randint(0, 9999)}"))
        attr = (rng.choice(entities),
                soc(f"attr{rng.randrange(_SOCIAL_ATTR_PROPS)}"), value)
        if attr not in seen:
            seen.add(attr)
            triples.append(attr)
    return triples


# ----------------------------------------------------------------------
# queries and updates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """One SELECT DISTINCT BGP query: the template it instantiates,
    its projection and its triple patterns (``?name`` is a variable)."""

    template: str
    variables: Tuple[str, ...]
    patterns: Tuple[Triple, ...]

    @property
    def text(self) -> str:
        body = " . ".join(" ".join(pattern) for pattern in self.patterns)
        head = " ".join(f"?{v}" for v in self.variables)
        return f"SELECT DISTINCT {head} WHERE {{ {body} }}"


@dataclass(frozen=True)
class Read:
    query: Query
    fmt: str                      # "json" | "csv"
    phase: str = ""               # the update this read follows in its round

    @property
    def label(self) -> str:
        """What a latency sample counts for: the template, its format
        and its phase.  A template costs differently after different
        updates (a delete leaves tombstones to read through, a schema
        change defers a rebuild to the next query), so pooling phases
        would put the median between two modes."""
        form = "" if self.fmt == "json" else f"/{self.fmt}"
        return f"{self.query.template}{form}@{self.phase}"


@dataclass(frozen=True)
class Update:
    kind: str                     # instance-insert, schema-delete, ...
    triples: Tuple[Triple, ...]

    @property
    def is_insert(self) -> bool:
        return self.kind.endswith("insert")

    @property
    def text(self) -> str:
        verb = "INSERT" if self.is_insert else "DELETE"
        body = " . ".join(" ".join(t) for t in self.triples)
        return f"{verb} DATA {{ {body} }}"


Op = object  # Read | Update

def _q(template: str, variables: str, *patterns: Triple) -> Query:
    return Query(template, tuple(variables.split()), tuple(patterns))


def lubm_q1_q10() -> List[Query]:
    """The ten LUBM workload queries: root, mid and leaf class atoms,
    subproperty closures and joins over reformulated atoms."""
    T = RDF_TYPE
    return [
        _q("Q1", "x", ("?x", T, univ("Person"))),
        _q("Q2", "x", ("?x", T, univ("Student"))),
        _q("Q3", "x y", ("?x", T, univ("Professor")),
           ("?x", univ("teacherOf"), "?y")),
        _q("Q4", "x y", ("?x", univ("memberOf"), "?y")),
        _q("Q5", "x", ("?x", T, univ("FullProfessor"))),
        _q("Q6", "x u", ("?x", univ("degreeFrom"), "?u")),
        _q("Q7", "x y", ("?x", univ("advisor"), "?y"),
           ("?y", T, univ("Professor"))),
        _q("Q8", "x", ("?x", T, univ("Organization"))),
        _q("Q9", "x y u", ("?x", univ("memberOf"), "?y"),
           ("?y", univ("subOrganizationOf"), "?u"),
           ("?x", univ("undergraduateDegreeFrom"), "?u")),
        _q("Q10", "x y", ("?x", T, univ("Faculty")),
           ("?x", univ("worksFor"), "?y")),
    ]


def churn_query(template: str, constant: str) -> Query:
    """The selective LUBM join templates, bound to one constant."""
    T = RDF_TYPE
    if template == "star":        # a professor's courses and their students
        return _q("star", "c s", (constant, univ("teacherOf"), "?c"),
                  ("?s", univ("takesCourse"), "?c"),
                  ("?s", T, univ("Student")))
    if template == "chain":       # a course's students, their org, its parent
        return _q("chain", "s d u", ("?s", univ("takesCourse"), constant),
                  ("?s", univ("memberOf"), "?d"),
                  ("?d", univ("subOrganizationOf"), "?u"))
    if template == "triangle":    # a department's advised students
        return _q("triangle", "s p", ("?s", univ("memberOf"), constant),
                  ("?s", univ("advisor"), "?p"),
                  ("?p", univ("worksFor"), constant))
    if template == "advisees":    # a professor's advisees and their courses
        return _q("advisees", "s c", ("?s", univ("advisor"), constant),
                  ("?s", univ("takesCourse"), "?c"),
                  ("?c", T, univ("Course")))
    raise KeyError(template)


CHURN_TEMPLATES = ("star", "chain", "triangle", "advisees")


def _churn_constant(template: str, catalog: LubmCatalog, rng: Random) -> str:
    if template == "star":
        return rng.choice(catalog.professors)
    if template == "chain":
        return rng.choice(catalog.courses)
    if template == "triangle":
        return rng.choice(catalog.departments)
    return rng.choice(catalog.advisors)


def social_query(template: str, rng: Random, index: int = 0) -> Query:
    """The social-reform read templates under reformulation; ``index``
    cycles the few root and hub constants so every run mixes them in the
    same proportions."""
    T = RDF_TYPE
    if template == "root":
        return _q("root", "x", ("?x", T, soc(_SOCIAL_ROOTS[index % 4])))
    if template == "leaf":
        return _q("leaf", "x", ("?x", T, soc(
            f"{rng.choice(_SOCIAL_ROOTS)}_{rng.randrange(_SOCIAL_WIDTH)}")))
    if template == "subprop":
        return _q("subprop", "y", (soc(f"e{rng.randrange(_SOCIAL_ENTITIES)}"),
                                   soc("relatedTo"), "?y"))
    if template == "star":
        return _q("star", "p o", (soc(f"e{rng.randrange(_SOCIAL_ENTITIES)}"),
                                  "?p", "?o"))
    if template == "hub":
        return _q("hub", "s p", ("?s", "?p", soc(f"e{index % SOCIAL_HUBS}")))
    if template == "classprop":
        link = rng.randrange(_SOCIAL_LINK_PROPS)
        return _q("classprop", "x y",
                  ("?x", T, soc(_SOCIAL_ROOTS[link % 4])),
                  ("?x", soc(f"link{link}"), "?y"))
    raise KeyError(template)


#: the eight reads of a social-reform round, two after each update.  The
#: first read after a schema change or an instance delete pays the
#: rebuild the update deferred; ``leaf`` always takes that slot, so the
#: other templates always meet a settled view.
SOCIAL_ROUND = ("leaf", "root", "subprop", "star",
                "leaf", "hub", "leaf", "classprop")


# ----------------------------------------------------------------------
# streams: whole rounds of operations
# ----------------------------------------------------------------------

def _lubm_student(tag: str, catalog: LubmCatalog, rng: Random
                  ) -> Tuple[Triple, ...]:
    """A fresh graduate student: every triple is new, so an insert adds
    exactly these and the matching delete removes exactly these."""
    dept = rng.choice(catalog.departments)
    student = fresh(f"Student{tag}")
    courses = rng.sample(catalog.dept_courses[dept], 2)
    return ((student, RDF_TYPE, univ("GraduateStudent")),
            (student, univ("memberOf"), dept),
            (student, univ("advisor"), rng.choice(catalog.dept_faculty[dept])),
            (student, univ("takesCourse"), courses[0]),
            (student, univ("takesCourse"), courses[1]),
            (student, univ("name"), literal(f"student {tag}")))


def _social_entity(tag: str, rng: Random) -> Tuple[Triple, ...]:
    entity = fresh(f"Entity{tag}")
    link = rng.randrange(_SOCIAL_LINK_PROPS)
    return ((entity, RDF_TYPE, soc(f"{_SOCIAL_ROOTS[link % 4]}_"
                                   f"{rng.randrange(_SOCIAL_WIDTH)}")),
            (entity, soc(f"link{link}"), soc(f"e{rng.randrange(SOCIAL_HUBS)}")),
            (entity, soc(f"attr{rng.randrange(_SOCIAL_ATTR_PROPS)}"),
             literal(f"label-{tag}")))


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str                    # "lubm" | "social"
    connections: int
    serve_args: Tuple[str, ...]   # after ``repro --backend columnar serve G``


WORKLOADS: Dict[str, Workload] = {
    "lubm-hot": Workload("lubm-hot", "lubm", 1, ()),
    "lubm-churn": Workload("lubm-churn", "lubm", 1, ()),
    "social-reform": Workload("social-reform", "social", 1,
                              ("--strategy", "encoded",
                               "--snapshot-every", "64")),
    # one connection, like lubm-churn: every scatter still runs both
    # workers at once, and the graph state each read meets stays known
    "lubm-shard2": Workload("lubm-shard2", "lubm", 1, ("--shards", "2")),
}


def make_graph(workload: Workload, seed: int):
    """The workload's explicit triples and its template catalog."""
    if workload.graph == "lubm":
        return lubm_graph(seed)
    return social_graph(seed), None


def round_ops(workload: Workload, seed: int, connection: int, index: int,
              catalog) -> List[Op]:
    """Round ``index`` of ``connection``'s stream: a fixed shape of
    operations whose constants come from the seed.  Every insert in a
    round is deleted later in the same round, so each round ends on the
    graph it started from."""
    rng = Random(f"{workload.name}:{seed}:{connection}:{index}")
    tag = f"c{connection}r{index}"
    if workload.name == "lubm-hot":
        queries = lubm_q1_q10()
        reads: List[Op] = []
        for __ in range(10):
            batch = [Read(q, fmt) for q in queries for fmt in ("json", "csv")]
            rng.shuffle(batch)
            reads += batch
        student = _lubm_student(tag, catalog, rng)
        return _interleave(reads, [Update("instance-insert", student),
                                   Update("instance-delete", student)])
    if workload.graph == "lubm":  # lubm-churn and lubm-shard2
        student = _lubm_student(tag, catalog, rng)
        schema = ((univ("takesCourse"), SUBPROPERTY, fresh(f"takes{tag}")),)
        reads = [Read(churn_query(t, _churn_constant(t, catalog, rng)), "json")
                 for __ in range(4) for t in CHURN_TEMPLATES]
        updates = [Update("instance-insert", student),
                   Update("schema-insert", schema),
                   Update("instance-delete", student),
                   Update("schema-delete", schema)]
        return _interleave(reads, updates)
    entity = _social_entity(tag, rng)
    schema = ((soc("link1"), SUBPROPERTY, fresh(f"link{tag}")),)
    reads = [Read(social_query(t, rng, index), "json") for t in SOCIAL_ROUND]
    updates = [Update("instance-insert", entity),
               Update("schema-insert", schema),
               Update("instance-delete", entity),
               Update("schema-delete", schema)]
    return _interleave(reads, updates)


def _interleave(reads: List[Read], updates: List[Update]) -> List[Op]:
    """Equal runs of reads, each followed by one update; every read is
    marked with the update it follows (the round's last update for the
    first run, since the previous round ended with it)."""
    step = len(reads) // len(updates)
    ops: List[Op] = []
    phase = updates[-1].kind
    for i, update in enumerate(updates):
        ops += [replace(read, phase=f"after-{phase}")
                for read in reads[i * step:(i + 1) * step]]
        ops.append(update)
        phase = update.kind
    return ops


def stream(workload: Workload, seed: int, connection: int,
           catalog) -> Iterator[List[Op]]:
    index = 0
    while True:
        yield round_ops(workload, seed, connection, index, catalog)
        index += 1


def warmup_query(workload: Workload) -> Query:
    """The query the set-up clock stops on: the first answer served."""
    if workload.graph == "lubm":
        return lubm_q1_q10()[4]
    return social_query("leaf", Random(0))
