"""Assemble and validate the four-graph nanopublication container.

A candidate document is routed into head/assertion/provenance/pubinfo
graphs by the links declared in its head.  Validation reports every
violated rule; rule ids are stable strings and part of the contract:

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


@dataclass(frozen=True)
class GraphPart:
    """One named graph of the container: its IRI and its quads."""

    iri: str
    quads: tuple[Quad, ...]

    def __len__(self) -> int:
        return len(self.quads)


@dataclass(frozen=True)
class Nanopublication:
    uri: str
    head: GraphPart
    assertion: GraphPart
    provenance: GraphPart
    pubinfo: GraphPart
    _document: QuadDocument | None = field(default=None, init=False, repr=False, compare=False)

    def parts(self) -> tuple[GraphPart, GraphPart, GraphPart, GraphPart]:
        return (self.head, self.assertion, self.provenance, self.pubinfo)

    def to_document(self) -> QuadDocument:
        """All quads, head first, with the standard prefix table.  Built on
        first use, then returned as the same object; it holds the document
        only, never a verification result."""
        if self._document is None:
            quads = [q for part in self.parts() for q in part.quads]
            object.__setattr__(self, "_document", QuadDocument(quads, ns.STANDARD_PREFIXES))
        return self._document


def part_sizes(np: Nanopublication) -> tuple[int, int, int, int]:
    """Per-graph quad counts (head, assertion, provenance, pubinfo)."""
    return tuple(len(part) for part in np.parts())


def _link_objects(doc: QuadDocument, uri: str, predicate: str) -> list[Quad]:
    return [
        q
        for q in doc.quads
        if q.subject.value == uri and q.predicate.value == predicate and q.object.is_iri
    ]


def _check(doc: QuadDocument, uri: str) -> tuple[list[tuple[str, str]], tuple[str, ...]]:
    """Every violated rule, and the (head, assertion, provenance, pubinfo)
    graph IRIs once the head links are unambiguous (else ``()``)."""
    violations: list[tuple[str, str]] = []

    links: dict[str, list[Quad]] = {}
    for pred in HEAD_LINKS:
        found = _link_objects(doc, uri, pred)
        links[pred] = found
        short = pred.rsplit("#", 1)[-1]
        if not found:
            violations.append(("missing-head-link", f"no {short} link for <{uri}>"))
        elif len(found) > 1:
            violations.append(("duplicate-head-link", f"{len(found)} {short} links"))

    if any(len(found) != 1 for found in links.values()):
        return violations, ()

    head_graphs = {links[pred][0].graph.value for pred in HEAD_LINKS}
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
        and q.graph.value == head_iri
        for q in doc.quads
    )
    if not has_type:
        violations.append(
            ("missing-head-type", f"<{uri}> is not typed np:Nanopublication in the head")
        )

    if len(set(four)) != 4:
        violations.append(("graph-collision", f"graph IRIs not pairwise distinct: {four}"))

    stray = sorted({q.graph.value for q in doc.quads} - set(four))
    for graph in stray:
        violations.append(("undeclared-graph", f"quads in undeclared graph <{graph}>"))

    assertion_quads = doc.graph_quads(assertion_iri)
    if not assertion_quads:
        violations.append(("empty-assertion", f"assertion graph <{assertion_iri}> is empty"))

    if not any(
        q.subject.value == assertion_iri for q in doc.graph_quads(provenance_iri)
    ):
        violations.append(
            ("provenance-detached", "no provenance quad about the assertion graph")
        )

    if not any(q.subject.value == uri for q in doc.graph_quads(pubinfo_iri)):
        violations.append(
            ("pubinfo-detached", "no pubinfo quad about the nanopublication URI")
        )

    return violations, four


def validate(doc: QuadDocument, uri: str) -> ValidationReport:
    """Check the candidate against every container rule; never raises."""
    violations, _ = _check(doc, uri)
    return ValidationReport(not violations, tuple(violations))


def assemble(doc: QuadDocument, uri: str) -> Nanopublication:
    """Route a validated candidate's quads into the four graphs.

    Raises NanopubValidationError carrying the full report when any
    rule is violated.
    """
    violations, four = _check(doc, uri)
    if violations:
        raise NanopubValidationError(ValidationReport(False, tuple(violations)))
    return Nanopublication(uri, *(GraphPart(graph, doc.graph_quads(graph)) for graph in four))


def head_quads(uri: str, head_iri: str, assertion_iri: str, provenance_iri: str, pubinfo_iri: str) -> list[Quad]:
    """The four mandatory head statements."""
    g = iri(head_iri)
    u = iri(uri)
    return [
        Quad(u, iri(ns.RDF_TYPE), iri(ns.NP_NANOPUBLICATION), g),
        Quad(u, iri(ns.NP_HAS_ASSERTION), iri(assertion_iri), g),
        Quad(u, iri(ns.NP_HAS_PROVENANCE), iri(provenance_iri), g),
        Quad(u, iri(ns.NP_HAS_PUBINFO), iri(pubinfo_iri), g),
    ]
