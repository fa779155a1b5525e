"""The four-graph nanopublication container and its rules.

A ``Nanopublication`` is valid by construction: ``Nanopublication(uri,
quads)`` routes the quads into head/assertion/provenance/pubinfo graphs
by the links declared in the head, checks every rule once and raises
``NanopubValidationError`` on any violation.  ``validate`` reports the
same rules for a candidate document without raising.  Rule ids are
stable strings and part of the contract:

  missing-head-link      one of the three np links is absent
  duplicate-head-link    a link predicate occurs more than once
  scattered-head         the head declarations span multiple graphs
  missing-head-type      no rdf:type np:Nanopublication in the head
  graph-collision        the four graph IRIs are not pairwise distinct
  undeclared-graph       a quad lies outside the four graphs
  empty-assertion        the assertion graph has no quads
  provenance-detached    no provenance quad about the assertion graph
  pubinfo-detached       no pubinfo quad about the nanopublication URI
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable

from . import namespaces as ns
from .rdf import Quad, QuadDocument, iri

RULE_IDS = (
    "missing-head-link",
    "duplicate-head-link",
    "scattered-head",
    "missing-head-type",
    "graph-collision",
    "undeclared-graph",
    "empty-assertion",
    "provenance-detached",
    "pubinfo-detached",
)

HEAD_LINKS = (ns.NP_HAS_ASSERTION, ns.NP_HAS_PROVENANCE, ns.NP_HAS_PUBINFO)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[tuple[str, str], ...]

    def __post_init__(self):
        assert self.valid == (len(self.violations) == 0)

    def rule_ids(self) -> set[str]:
        return {rule for rule, _ in self.violations}


class NanopubValidationError(ValueError):
    def __init__(self, report: ValidationReport):
        lines = "; ".join(f"{rule}: {msg}" for rule, msg in report.violations)
        super().__init__(f"invalid nanopublication: {lines}")
        self.report = report


@dataclass(frozen=True, slots=True)
class GraphPart:
    """One named graph of the container: its IRI and its quads."""

    iri: str
    quads: tuple[Quad, ...]

    def __len__(self) -> int:
        return len(self.quads)


@dataclass(frozen=True, slots=True)
class Nanopublication:
    """A valid nanopublication: no other kind can be constructed.

    ``quads`` may come in any order and with repeats; the instance keeps
    them once each, head first, then assertion, provenance and pubinfo,
    each graph in input order.  Equal instances hold equal ``quads``.
    """

    uri: str
    quads: tuple[Quad, ...]
    head: GraphPart = field(init=False, repr=False, compare=False)
    assertion: GraphPart = field(init=False, repr=False, compare=False)
    provenance: GraphPart = field(init=False, repr=False, compare=False)
    pubinfo: GraphPart = field(init=False, repr=False, compare=False)
    prefixes = MappingProxyType(ns.STANDARD_PREFIXES)  # a class attribute, not a field

    def __post_init__(self):
        violations, parts = _check(dict.fromkeys(self.quads), self.uri)
        if violations:
            raise NanopubValidationError(ValidationReport(False, tuple(violations)))
        object.__setattr__(self, "quads", tuple(q for part in parts for q in part.quads))
        for name, part in zip(("head", "assertion", "provenance", "pubinfo"), parts):
            object.__setattr__(self, name, part)

    def parts(self) -> tuple[GraphPart, GraphPart, GraphPart, GraphPart]:
        return (self.head, self.assertion, self.provenance, self.pubinfo)

    def to_document(self) -> QuadDocument:
        """A new document of ``quads`` with the standard prefix table."""
        return QuadDocument(self.quads, self.prefixes)


def part_sizes(np: Nanopublication) -> tuple[int, int, int, int]:
    """Per-graph quad counts (head, assertion, provenance, pubinfo)."""
    return tuple(len(part) for part in np.parts())


def _check(quads: Iterable[Quad], uri: str) -> tuple[list[tuple[str, str]], tuple[GraphPart, ...]]:
    """Every violated rule over duplicate-free ``quads``, and the (head,
    assertion, provenance, pubinfo) parts when there is none (else ``()``)."""
    graphs: dict[str, list[Quad]] = {}
    links: dict[str, list[Quad]] = {pred: [] for pred in HEAD_LINKS}
    for q in quads:
        graphs.setdefault(q.graph.value, []).append(q)
        if q.subject.value == uri and q.object.is_iri:
            found = links.get(q.predicate.value)
            if found is not None:
                found.append(q)

    violations: list[tuple[str, str]] = []
    for pred, found in links.items():
        short = pred.rsplit("#", 1)[-1]
        if not found:
            violations.append(("missing-head-link", f"no {short} link for <{uri}>"))
        elif len(found) > 1:
            violations.append(("duplicate-head-link", f"{len(found)} {short} links"))

    if any(len(found) != 1 for found in links.values()):
        return violations, ()

    head_graphs = {found[0].graph.value for found in links.values()}
    if len(head_graphs) != 1:
        violations.append(
            ("scattered-head", f"head links live in {len(head_graphs)} graphs")
        )
        return violations, ()

    head_iri = head_graphs.pop()
    assertion_iri = links[ns.NP_HAS_ASSERTION][0].object.value
    provenance_iri = links[ns.NP_HAS_PROVENANCE][0].object.value
    pubinfo_iri = links[ns.NP_HAS_PUBINFO][0].object.value
    four = (head_iri, assertion_iri, provenance_iri, pubinfo_iri)

    has_type = any(
        q.subject.value == uri
        and q.predicate.value == ns.RDF_TYPE
        and q.object.is_iri
        and q.object.value == ns.NP_NANOPUBLICATION
        for q in graphs[head_iri]
    )
    if not has_type:
        violations.append(
            ("missing-head-type", f"<{uri}> is not typed np:Nanopublication in the head")
        )

    if len(set(four)) != 4:
        violations.append(("graph-collision", f"graph IRIs not pairwise distinct: {four}"))

    stray = sorted(graphs.keys() - set(four))
    for graph in stray:
        violations.append(("undeclared-graph", f"quads in undeclared graph <{graph}>"))

    if assertion_iri not in graphs:
        violations.append(("empty-assertion", f"assertion graph <{assertion_iri}> is empty"))

    if not any(q.subject.value == assertion_iri for q in graphs.get(provenance_iri, ())):
        violations.append(
            ("provenance-detached", "no provenance quad about the assertion graph")
        )

    if not any(q.subject.value == uri for q in graphs.get(pubinfo_iri, ())):
        violations.append(
            ("pubinfo-detached", "no pubinfo quad about the nanopublication URI")
        )

    if violations:
        return violations, ()
    return violations, tuple(GraphPart(graph, tuple(graphs[graph])) for graph in four)


def validate(doc: QuadDocument, uri: str) -> ValidationReport:
    """Check the candidate against every container rule; never raises."""
    violations, _ = _check(doc.quads, uri)
    return ValidationReport(not violations, tuple(violations))


# the fixed IRIs of every head, shared by all nanopubs built here
_TYPE = iri(ns.RDF_TYPE)
_NANOPUBLICATION = iri(ns.NP_NANOPUBLICATION)
_ASSERTION_LINK, _PROVENANCE_LINK, _PUBINFO_LINK = (iri(link) for link in HEAD_LINKS)


def head_quads(uri: str, head_iri: str, assertion_iri: str, provenance_iri: str, pubinfo_iri: str) -> list[Quad]:
    """The four mandatory head statements."""
    g = iri(head_iri)
    u = iri(uri)
    return [
        Quad(u, _TYPE, _NANOPUBLICATION, g),
        Quad(u, _ASSERTION_LINK, iri(assertion_iri), g),
        Quad(u, _PROVENANCE_LINK, iri(provenance_iri), g),
        Quad(u, _PUBINFO_LINK, iri(pubinfo_iri), g),
    ]
