import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanokit import namespaces as ns
from nanokit.nanopub import (
    GraphPart,
    Nanopublication,
    NanopubValidationError,
    RULE_IDS,
    part_sizes,
    validate,
)
from nanokit.rdf import Quad, QuadDocument, Term, iri, literal
from nanokit.store import candidate_uris


def test_birddiet_assembles(birddiet_doc, birddiet_uri):
    np = Nanopublication(birddiet_uri, birddiet_doc.quads)
    assert np.uri == birddiet_uri
    assert part_sizes(np) == (4, 3, 2, 3)
    assert sum(part_sizes(np)) == 12


def test_value_classes_are_slotted_frozen_values(birddiet_doc, birddiet_uri):
    np = Nanopublication(birddiet_uri, birddiet_doc.quads)
    q = np.quads[0]
    cases = ((q.subject, "value"), (q, "graph"), (np.head, "iri"), (np, "uri"))
    assert [type(obj) for obj, _ in cases] == [Term, Quad, GraphPart, Nanopublication]
    for obj, field in cases:
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))

    # equal values built separately are equal and hash alike
    pairs = [
        (iri("http://a.example/s"), iri("http://a.example/s")),
        (literal("3", datatype=ns.XSD_INTEGER), literal("3", datatype=ns.XSD_INTEGER)),
        (literal("drei", language="de"), literal("drei", language="de")),
        *((Quad(*(iri(t.value) for t in (q.subject, q.predicate, q.object, q.graph))), q) for q in np.quads[:4]),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert iri("http://a.example/s") != literal("http://a.example/s")
    assert literal("3") != literal("3", datatype=ns.XSD_INTEGER)

    # a nanopublication compares by uri and quads only
    again = Nanopublication(birddiet_uri, birddiet_doc.quads + birddiet_doc.quads[:3])
    object.__setattr__(again, "head", None)
    assert again == np and hash(again) == hash(np)
    fewer = Nanopublication(birddiet_uri, [q for q in np.quads if q != np.assertion.quads[-1]])
    assert fewer != np
    assert Nanopublication.prefixes is np.prefixes and "prefixes" not in {f.name for f in dataclasses.fields(np)}


def test_validate_valid_fixture_has_no_violations(birddiet_doc, birddiet_uri):
    report = validate(birddiet_doc, birddiet_uri)
    assert report.valid
    assert report.violations == ()


def test_empty_document_missing_head_link():
    report = validate(QuadDocument(), "http://ex.org/np1")
    assert not report.valid
    assert "missing-head-link" in report.rule_ids()


def test_missing_provenance_link(birddiet_doc, birddiet_uri):
    doc = QuadDocument(
        [q for q in birddiet_doc.quads if q.predicate.value != ns.NP_HAS_PROVENANCE]
    )
    report = validate(doc, birddiet_uri)
    assert "missing-head-link" in report.rule_ids()
    with pytest.raises(NanopubValidationError):
        Nanopublication(birddiet_uri, doc.quads)


def test_deleted_assertion_is_empty_assertion(birddiet_doc, birddiet_uri):
    assertion_iri = birddiet_uri + "#assertion"
    doc = QuadDocument([q for q in birddiet_doc.quads if q.graph.value != assertion_iri])
    report = validate(doc, birddiet_uri)
    assert "empty-assertion" in report.rule_ids()


def test_provenance_detached(birddiet_doc, birddiet_uri):
    assertion_iri = birddiet_uri + "#assertion"
    provenance_iri = birddiet_uri + "#provenance"
    rewired = [
        Quad(iri("http://ex.org/other"), q.predicate, q.object, q.graph)
        if q.graph.value == provenance_iri and q.subject.value == assertion_iri
        else q
        for q in birddiet_doc.quads
    ]
    report = validate(QuadDocument(rewired), birddiet_uri)
    assert "provenance-detached" in report.rule_ids()


def test_validate_reports_all_rules_not_just_first(birddiet_doc, birddiet_uri):
    assertion_iri = birddiet_uri + "#assertion"
    provenance_iri = birddiet_uri + "#provenance"
    doc = QuadDocument(
        [
            q
            for q in birddiet_doc.quads
            if q.graph.value not in (assertion_iri, provenance_iri)
        ]
    )
    rules = validate(doc, birddiet_uri).rule_ids()
    assert {"empty-assertion", "provenance-detached"} <= rules


def test_fixture_set_classifies_correctly(valid_fixture_docs, invalid_fixture_docs):
    assert len(valid_fixture_docs) >= 20
    assert len(invalid_fixture_docs) >= 15
    for name, doc in valid_fixture_docs:
        uri = candidate_uris(doc)[0]
        assert validate(doc, uri).valid, name
    covered = set()
    for name, doc in invalid_fixture_docs:
        uri = candidate_uris(doc)[0]
        report = validate(doc, uri)
        assert not report.valid, name
        target = name.rsplit("-", 1)[0]
        assert target in report.rule_ids(), (name, report.violations)
        covered.add(target)
    assert covered == set(RULE_IDS)


def test_assemble_roundtrip_identity(valid_fixture_docs):
    for name, doc in valid_fixture_docs:
        uri = candidate_uris(doc)[0]
        np = Nanopublication(uri, doc.quads)
        again = Nanopublication(uri, np.to_document().quads)
        assert again == np, name


def test_invalid_fixtures_cannot_be_constructed(invalid_fixture_docs):
    for name, doc in invalid_fixture_docs:
        uri = candidate_uris(doc)[0]
        with pytest.raises(NanopubValidationError) as err:
            Nanopublication(uri, doc.quads)
        assert err.value.report.violations == validate(doc, uri).violations, name


def test_constructor_dedups_and_orders_head_first(birddiet_doc, birddiet_uri):
    np = Nanopublication(birddiet_uri, birddiet_doc.quads)
    mixed = Nanopublication(birddiet_uri, [*reversed(birddiet_doc.quads), *birddiet_doc.quads])
    assert len(mixed.quads) == 12
    assert mixed.quads == mixed.head.quads + mixed.assertion.quads + mixed.provenance.quads + mixed.pubinfo.quads
    assert [part.iri for part in mixed.parts()] == [part.iri for part in np.parts()]
    assert frozenset(mixed.quads) == frozenset(np.quads)


def test_fixtures_regenerate_byte_identical(tmp_path):
    root = Path(__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_fixtures.py"), str(tmp_path)],
        check=True, capture_output=True, timeout=300,
    )
    committed = root / "tests" / "fixtures"
    names = sorted(p.relative_to(committed) for p in committed.rglob("*") if p.is_file())
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


def test_to_document_is_built_once_head_first(birddiet_doc, birddiet_uri):
    np = Nanopublication(birddiet_uri, birddiet_doc.quads)
    assert np.quads == np.head.quads + np.assertion.quads + np.provenance.quads + np.pubinfo.quads
    doc = np.to_document()
    assert doc.quads == np.quads
    assert doc.prefixes == ns.STANDARD_PREFIXES


def test_minimal_head_is_exactly_four(corpus200):
    # generator emits exactly the four mandatory head triples
    assert all(part_sizes(np)[0] == 4 for np in corpus200)


def test_part_sizes_sum_over_corpus(corpus200):
    np100 = corpus200[:100]
    total = sum(sum(part_sizes(np)) for np in np100)
    brute = sum(len(np.to_document()) for np in np100)
    assert total == brute


@settings(max_examples=40)
@given(st.data())
def test_deleting_mandatory_head_quads_never_validates(birddiet_doc, birddiet_uri, data):
    head_iri = birddiet_uri + "#head"
    head_quads = [q for q in birddiet_doc.quads if q.graph.value == head_iri]
    subset = data.draw(st.sets(st.sampled_from(head_quads), min_size=1))
    doc = QuadDocument([q for q in birddiet_doc.quads if q not in subset])
    assert not validate(doc, birddiet_uri).valid
    # deleting even more mandatory quads keeps it invalid
    more = data.draw(st.sets(st.sampled_from(head_quads)))
    doc2 = QuadDocument([q for q in doc.quads if q not in more])
    assert not validate(doc2, birddiet_uri).valid
