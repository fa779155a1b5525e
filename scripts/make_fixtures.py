#!/usr/bin/env python3
"""Regenerate the committed test fixtures.

Usage: python scripts/make_fixtures.py [OUTDIR]   (default: tests/fixtures/)

Deterministic: running this twice produces identical files.  The valid
set covers all five corpus shapes; the invalid set mutates valid
containers so that every validation rule id is triggered by at least
one file (the target rule is encoded in the filename).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nanokit import namespaces as ns
from nanokit.build import mint_nanopub, placeholders
from nanokit.corpusgen import TOOL_DOI, CorpusConfig, generate_corpus
from nanokit.nanopub import validate
from nanokit.rdf import Quad, QuadDocument, iri, literal, serialize_trig
from nanokit.store import candidate_uris

FIXTURES = ROOT / "tests" / "fixtures"

OBO = "http://purl.obolibrary.org/obo/"
ITIS = "https://www.itis.gov/servlet/SingleRpt/SingleRpt?search_topic=TSN&search_value="


def make_birddiet(out: Path) -> None:
    """The 12-quad bird-diet nanopublication: head 4, assertion 3,
    provenance 2, pubinfo 3."""
    base = "http://example.org/np/birddiet."
    ph = placeholders(base)
    interaction = iri(ph.uri + "#interaction")
    prey = iri(ph.uri + "#prey")
    study = iri("http://example.org/literature/1985-bird-diet-study")
    assertion = [
        (interaction, iri(ns.RDF_TYPE), iri(OBO + "GO_0044419")),
        (interaction, iri(OBO + "RO_0001025"), iri(OBO + "ENVO_01000240")),
        (prey, iri(OBO + "RO_0002162"), iri(ITIS + "114936")),
    ]
    provenance = [
        (iri(ph.assertion), iri(ns.PROV_WAS_DERIVED_FROM), study),
        (study, iri(ns.DCT + "date"), literal("1985")),
    ]
    me = iri(ph.uri)
    pubinfo = [
        (me, iri(ns.PAV_CREATED_BY), iri(TOOL_DOI)),
        (me, iri(ns.PROV_WAS_DERIVED_FROM), iri("https://github.com/hurlbertlab/dietdatabase")),
        (me, iri(ns.DCT_CREATED), literal("2017-11-02T00:00:00Z", datatype=ns.XSD_DATETIME)),
    ]
    _, np = mint_nanopub(base, assertion, provenance, pubinfo)
    (out / "birddiet.trig").write_text(
        serialize_trig(np.to_document()), encoding="utf-8"
    )
    print("birddiet.trig", np.uri)


def make_licensed(out: Path) -> None:
    """Plain quad document with exactly two dct:license quads planted."""
    text = """\
@prefix dct: <http://purl.org/dc/terms/> .

<http://example.org/doc/g1> {
  <http://example.org/doc/a> <http://purl.org/dc/terms/license> <http://creativecommons.org/licenses/by/4.0/> .
  <http://example.org/doc/a> <http://purl.org/dc/terms/title> "A small dataset" .
}
<http://example.org/doc/g2> {
  <http://example.org/doc/b> <http://purl.org/dc/terms/license> <http://opendatacommons.org/licenses/odbl/1.0/> .
  <http://example.org/doc/b> <http://purl.org/dc/terms/creator> "somebody" .
}
"""
    (out / "licensed.trig").write_text(text, encoding="utf-8")


def make_valid(out: Path) -> list[QuadDocument]:
    outdir = out / "valid"
    outdir.mkdir(parents=True, exist_ok=True)
    corpus = generate_corpus(CorpusConfig(count=20, seed=7, shape_cycle=True))
    docs = []
    for i, np in enumerate(corpus):
        doc = np.to_document()
        report = validate(doc, np.uri)
        assert report.valid, report.violations
        (outdir / f"valid-{i:02d}.trig").write_text(serialize_trig(doc), encoding="utf-8")
        docs.append(doc)
    print(f"valid/: {len(corpus)} files")
    return docs


def _uri_of(doc: QuadDocument) -> str:
    return candidate_uris(doc)[0]


def _drop(doc: QuadDocument, keep) -> QuadDocument:
    return QuadDocument([q for q in doc.quads if keep(q)], doc.prefixes)


def make_invalid(valid_docs: list[QuadDocument], out: Path) -> None:
    outdir = out / "invalid"
    outdir.mkdir(parents=True, exist_ok=True)
    mutants: list[tuple[str, QuadDocument]] = []

    def doc_at(i: int) -> QuadDocument:
        return valid_docs[i % len(valid_docs)]

    def head_graph(doc: QuadDocument) -> str:
        uri = _uri_of(doc)
        for q in doc.quads:
            if q.subject.value == uri and q.predicate.value == ns.NP_HAS_ASSERTION:
                return q.graph.value
        raise AssertionError("no head")

    def link_target(doc: QuadDocument, predicate: str) -> str:
        uri = _uri_of(doc)
        for q in doc.quads:
            if q.subject.value == uri and q.predicate.value == predicate:
                return q.object.value
        raise AssertionError(predicate)

    # missing-head-link: drop one of the three links
    for n, predicate in ((0, ns.NP_HAS_PROVENANCE), (1, ns.NP_HAS_PUBINFO)):
        doc = doc_at(n)
        mutants.append(
            (
                "missing-head-link",
                _drop(doc, lambda q, p=predicate: q.predicate.value != p),
            )
        )

    # duplicate-head-link: second link quad with a different target
    for n, predicate in ((2, ns.NP_HAS_ASSERTION), (3, ns.NP_HAS_PROVENANCE)):
        doc = doc_at(n)
        uri = _uri_of(doc)
        extra = Quad(
            iri(uri),
            iri(predicate),
            iri("http://example.org/elsewhere#graph"),
            iri(head_graph(doc)),
        )
        mutants.append(("duplicate-head-link", QuadDocument(list(doc.quads) + [extra], doc.prefixes)))

    # scattered-head: move the pubinfo link into the assertion graph
    doc = doc_at(4)
    uri = _uri_of(doc)
    assertion_iri = link_target(doc, ns.NP_HAS_ASSERTION)
    moved = []
    for q in doc.quads:
        if q.subject.value == uri and q.predicate.value == ns.NP_HAS_PUBINFO:
            moved.append(Quad(q.subject, q.predicate, q.object, iri(assertion_iri)))
        else:
            moved.append(q)
    mutants.append(("scattered-head", QuadDocument(moved, doc.prefixes)))

    # missing-head-type: drop the type quad / retype it
    doc = doc_at(5)
    mutants.append(
        (
            "missing-head-type",
            _drop(
                doc,
                lambda q: not (
                    q.predicate.value == ns.RDF_TYPE
                    and q.object.is_iri
                    and q.object.value == ns.NP_NANOPUBLICATION
                ),
            ),
        )
    )
    doc = doc_at(6)
    retyped = [
        Quad(q.subject, q.predicate, iri("http://example.org/SomethingElse"), q.graph)
        if q.predicate.value == ns.RDF_TYPE and q.object.is_iri and q.object.value == ns.NP_NANOPUBLICATION
        else q
        for q in doc.quads
    ]
    mutants.append(("missing-head-type", QuadDocument(retyped, doc.prefixes)))

    # graph-collision: point hasProvenance at the assertion graph
    for n in (7, 8):
        doc = doc_at(n)
        uri = _uri_of(doc)
        assertion_iri = link_target(doc, ns.NP_HAS_ASSERTION)
        collided = [
            Quad(q.subject, q.predicate, iri(assertion_iri), q.graph)
            if q.subject.value == uri and q.predicate.value == ns.NP_HAS_PROVENANCE
            else q
            for q in doc.quads
        ]
        mutants.append(("graph-collision", QuadDocument(collided, doc.prefixes)))

    # undeclared-graph: plant a quad in a fifth graph
    for n in (9, 10):
        doc = doc_at(n)
        stray = Quad(
            iri("http://example.org/stray#s"),
            iri("http://example.org/stray#p"),
            literal("stray"),
            iri("http://example.org/stray#graph"),
        )
        mutants.append(("undeclared-graph", QuadDocument(list(doc.quads) + [stray], doc.prefixes)))

    # empty-assertion: delete every assertion quad
    for n in (11, 12):
        doc = doc_at(n)
        assertion_iri = link_target(doc, ns.NP_HAS_ASSERTION)
        mutants.append(
            ("empty-assertion", _drop(doc, lambda q, g=assertion_iri: q.graph.value != g))
        )

    # provenance-detached: provenance no longer mentions the assertion graph
    for n in (13, 14):
        doc = doc_at(n)
        assertion_iri = link_target(doc, ns.NP_HAS_ASSERTION)
        provenance_iri = link_target(doc, ns.NP_HAS_PROVENANCE)
        redirected = [
            Quad(iri("http://example.org/other#entity"), q.predicate, q.object, q.graph)
            if q.graph.value == provenance_iri and q.subject.value == assertion_iri
            else q
            for q in doc.quads
        ]
        mutants.append(("provenance-detached", QuadDocument(redirected, doc.prefixes)))

    # pubinfo-detached: pubinfo no longer mentions the nanopublication
    doc = doc_at(15)
    uri = _uri_of(doc)
    pubinfo_iri = link_target(doc, ns.NP_HAS_PUBINFO)
    redirected = [
        Quad(iri("http://example.org/other#entity"), q.predicate, q.object, q.graph)
        if q.graph.value == pubinfo_iri and q.subject.value == uri
        else q
        for q in doc.quads
    ]
    mutants.append(("pubinfo-detached", QuadDocument(redirected, doc.prefixes)))

    counts: dict[str, int] = {}
    for rule, doc in mutants:
        uri = _uri_of(doc)
        report = validate(doc, uri)
        assert not report.valid, rule
        assert rule in report.rule_ids(), (rule, report.violations)
        counts[rule] = counts.get(rule, 0) + 1
        name = f"{rule}-{counts[rule]}.trig"
        (outdir / name).write_text(serialize_trig(doc), encoding="utf-8")
    print(f"invalid/: {len(mutants)} files covering {len(counts)} rules")


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURES
    out.mkdir(parents=True, exist_ok=True)
    make_birddiet(out)
    make_licensed(out)
    valid_docs = make_valid(out)
    make_invalid(valid_docs, out)


if __name__ == "__main__":
    main()
