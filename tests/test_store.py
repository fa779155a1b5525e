import dataclasses
import shutil
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanokit import namespaces as ns
from nanokit.build import mint_nanopub, placeholders
from nanokit import nanopub as nanopub_module
from nanokit import store as store_module
from nanokit.nanopub import Nanopublication, NanopubValidationError
from nanokit.rdf import Quad, QuadDocument, QuadPattern, iri, literal, parse_trig, serialize_trig
from nanokit.store import NanopubStore, StoreError, parse_nanopub, split_corpus
from nanokit.trusty import verify, verify_reason

from oracles import as_pairs, scan_pattern, scan_uri


def make_np(created=None, orcid=None, license_iri=None, label="x"):
    base = "http://test.example/np/"
    ph = placeholders(base)
    me = iri(ph.uri)
    assertion = [
        (iri(f"http://test.example/data/{label}"), iri(ns.RDF_TYPE), iri("http://test.example/Thing"))
    ]
    provenance = [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))]
    pubinfo = [(me, iri(ns.DCT + "description"), literal(label))]
    if created is not None:
        pubinfo.append((me, iri(ns.DCT_CREATED), literal(created, datatype=ns.XSD_DATETIME)))
    if orcid is not None:
        pubinfo.append((me, iri(ns.DCT_CREATOR), iri(orcid)))
    if license_iri is not None:
        pubinfo.append((me, iri(ns.DCT_LICENSE), iri(license_iri)))
    _, np = mint_nanopub(base, assertion, provenance, pubinfo)
    return np


def test_put_is_idempotent():
    store = NanopubStore()
    np = make_np()
    code1 = store.put(np)
    code2 = store.put(np)
    assert code1 == code2
    assert len(store) == 1


def test_put_rejects_tampered_nanopub():
    store = NanopubStore()
    np = make_np()
    doc = np.to_document()
    tampered = QuadDocument(
        [
            Quad(q.subject, q.predicate, literal("changed"), q.graph)
            if q.object.is_literal
            else q
            for q in doc.quads
        ],
        doc.prefixes,
    )
    bad = Nanopublication(np.uri, tampered.quads)
    with pytest.raises(StoreError, match="verification"):
        store.put(bad)
    assert len(store) == 0


def test_put_and_get_roundtrip(corpus200, store200):
    for np in corpus200:
        code = np.uri[-45:]
        assert store200.get(code) == np
    assert len(store200) == len(corpus200)


def test_missing_keeps_order_and_drops_held_codes(corpus200):
    store = NanopubStore()
    codes = [np.uri[-45:] for np in corpus200[:6]]
    store.put_all([corpus200[1], corpus200[4]])
    assert store.missing(codes) == [codes[0], codes[2], codes[3], codes[5]]
    assert store.missing(reversed(codes)) == [codes[5], codes[3], codes[2], codes[0]]
    assert store.missing([codes[1], codes[4]]) == []
    assert store.missing([]) == []
    assert NanopubStore().missing(codes) == codes


def test_get_absent_code_is_none():
    assert NanopubStore().get("RA" + "A" * 43) is None


def test_bulk_generated_corpus_all_retrievable(corpus200, store200):
    assert len(store200) == 200
    for code in store200.codes():
        assert store200.get(code) is not None


def test_persistence_roundtrip(tmp_path, corpus200):
    directory = tmp_path / "store"
    store = NanopubStore(directory)
    for np in corpus200[:25]:
        store.put(np)
    assert (directory / "journal.log").exists()
    assert len(list(directory.glob("*.trig"))) == 25

    reloaded = NanopubStore(directory)
    assert len(reloaded) == 25
    assert reloaded.codes() == store.codes()
    for code in store.codes():
        assert reloaded.get(code) == store.get(code)


def test_journal_line_format(tmp_path):
    directory = tmp_path / "store"
    store = NanopubStore(directory)
    np = make_np()
    code = store.put(np)
    lines = (directory / "journal.log").read_text().splitlines()
    assert lines == [f"1 {code}"]


def _disk_store(directory, nanopubs):
    store = NanopubStore(directory)
    for np in nanopubs:
        store.put(np)
    return store


def test_reopen_drops_torn_journal_tail(tmp_path, corpus200):
    directory = tmp_path / "store"
    codes = _disk_store(directory, corpus200[:3]).codes()
    journal = directory / "journal.log"
    complete = journal.read_text()
    with journal.open("a") as fh:
        fh.write("4 RAabc")  # a crash mid-append: no newline
    reopened = NanopubStore(directory)
    assert reopened.codes() == codes
    assert journal.read_text() == complete
    code = reopened.put(corpus200[3])
    assert journal.read_text().splitlines()[-1] == f"4 {code}"
    assert NanopubStore(directory).codes() == codes + [code]


@pytest.mark.parametrize(
    "line",
    [
        b"4 RAabc",
        b"x RA" + b"A" * 43,
        b"4",
        b"4 RA" + b"A" * 44,
        "\u0664 RA".encode() + b"A" * 43,  # Arabic-Indic digit four
        b"4 RA" + b"A" * 42 + b"\xff",  # not UTF-8
        pytest.param(b"9" * 5000 + b" RA" + b"A" * 43, id="seq-too-long-for-int"),
    ],
)
def test_reopen_rejects_malformed_journal_line(tmp_path, corpus200, line):
    directory = tmp_path / "store"
    _disk_store(directory, corpus200[:2])
    with (directory / "journal.log").open("ab") as fh:
        fh.write(line + b"\n")
    with pytest.raises(StoreError, match="malformed entry"):
        NanopubStore(directory)


def test_reopen_rejects_out_of_order_seqs(tmp_path, corpus200):
    directory = tmp_path / "store"
    _disk_store(directory, corpus200[:3])
    journal = directory / "journal.log"
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join([lines[1], lines[0], lines[2]]) + "\n")
    with pytest.raises(StoreError, match="seq 1 after 2"):
        NanopubStore(directory)


def test_reopen_rejects_repeated_code(tmp_path, corpus200):
    directory = tmp_path / "store"
    code = _disk_store(directory, corpus200[:2]).codes()[0]
    with (directory / "journal.log").open("a") as fh:
        fh.write(f"3 {code}\n")
    with pytest.raises(StoreError, match="listed twice"):
        NanopubStore(directory)


@pytest.mark.parametrize(
    "damage",
    [
        lambda path: path.unlink(),
        lambda path: path.write_text("<http://x.example/a> <broken", encoding="utf-8"),
    ],
    ids=["missing", "unparsable"],
)
def test_reopen_bad_trig_file_is_store_error_naming_file_and_line(tmp_path, corpus200, damage):
    directory = tmp_path / "store"
    code = _disk_store(directory, corpus200[:3]).codes()[1]
    damage(directory / f"{code}.trig")
    with pytest.raises(StoreError, match=f"journal.log line 2: {code}.trig: "):
        NanopubStore(directory)


def test_tampered_replace_of_verified_nanopub_is_rejected(corpus200):
    np = corpus200[0]
    NanopubStore().put(np)  # verified once already
    first = np.assertion.quads[0]
    changed = Quad(first.subject, first.predicate, iri("http://evil.example/x"), first.graph)
    tampered = dataclasses.replace(np, quads=tuple(changed if q == first else q for q in np.quads))
    assert tampered.assertion.quads[0] == changed
    store = NanopubStore()
    with pytest.raises(StoreError, match="verification"):
        store.put(tampered)
    assert len(store) == 0


def test_reopen_rejects_trig_holding_another_code(tmp_path, corpus200):
    directory = tmp_path / "store"
    first, second = _disk_store(directory, corpus200[:2]).codes()
    shutil.copyfile(directory / f"{first}.trig", directory / f"{second}.trig")
    with pytest.raises(StoreError, match=f"journal.log line 2: {second}.trig: holds <[^>]*{first}>"):
        NanopubStore(directory)


def _recoded_assertion(np, code):
    """``np`` with its assertion graph base+C#assertion renamed to base+code#assertion."""
    old = np.assertion.iri
    new = np.uri[:-45] + code + old[len(np.uri):]
    swap = lambda term: iri(new) if term.is_iri and term.value == old else term
    return Nanopublication(
        np.uri, (Quad(swap(q.subject), swap(q.predicate), swap(q.object), swap(q.graph)) for q in np.quads)
    )


def test_other_code_under_the_base_fails_verification(corpus200):
    np = corpus200[0]
    variant = _recoded_assertion(np, corpus200[1].uri[-45:])
    assert not verify(variant, np.uri)  # only the claimed code is stripped
    store = NanopubStore()
    store.put(np)
    with pytest.raises(StoreError, match="verification"):
        store.put(variant)
    assert store.get(np.uri[-45:]) is np


def test_same_code_with_other_quads_fails_verification(corpus200):
    np = corpus200[0]
    assert np.assertion.iri == np.uri + "#assertion"
    variant = _recoded_assertion(np, "")
    assert frozenset(variant.quads) != frozenset(np.quads)
    # the bare base#assertion lacks the claimed code, so it does not verify
    assert not verify(variant, np.uri)
    store = NanopubStore()
    store.put(np)
    with pytest.raises(StoreError, match="verification"):
        store.put(variant)
    assert len(store) == 1
    assert store.get(np.uri[-45:]) is np


def test_bare_base_variant_is_refused_by_a_fresh_store(corpus200):
    variant = _recoded_assertion(corpus200[0], "")
    store = NanopubStore()
    with pytest.raises(StoreError, match="verification failed .* lacks code"):
        store.put(variant)
    assert len(store) == 0 and store.codes() == []


def test_reopen_rejects_trig_holding_a_bare_base_variant(tmp_path, corpus200):
    directory = tmp_path / "store"
    np = corpus200[0]
    code = _disk_store(directory, [np]).codes()[0]
    variant = _recoded_assertion(np, "")
    (directory / f"{code}.trig").write_text(serialize_trig(variant), encoding="utf-8")
    with pytest.raises(StoreError, match=f"journal.log line 1: {code}.trig: verification failed"):
        NanopubStore(directory)


def test_same_quads_in_another_order_put_is_idempotent(corpus200):
    np = corpus200[0]
    reordered = Nanopublication(np.uri, reversed(np.quads))
    assert reordered.quads != np.quads
    store = NanopubStore()
    assert store.put(np) == store.put(reordered) == np.uri[-45:]
    assert len(store) == 1


def test_one_container_check_between_trig_and_store(monkeypatch, corpus200):
    check = nanopub_module._check
    calls = []

    def counting(quads, uri):
        calls.append(uri)
        return check(quads, uri)

    monkeypatch.setattr(nanopub_module, "_check", counting)
    store = NanopubStore()
    np = parse_nanopub(serialize_trig(corpus200[0]))
    store.put(np)
    assert calls == [np.uri]
    calls.clear()
    store.put(np)
    NanopubStore().put(np)
    assert calls == []


def test_put_all_verifies_each_nanopub_once_and_stores_all_or_none(monkeypatch, tmp_path, corpus200):
    calls = []

    def counting(doc, uri):
        calls.append(uri)
        return verify_reason(doc, uri)

    monkeypatch.setattr(store_module, "verify_reason", counting)
    batch = list(corpus200[:4])
    first = batch[1].assertion.quads[0]
    changed = Quad(first.subject, first.predicate, iri("http://evil.example/x"), first.graph)
    tampered = Nanopublication(batch[1].uri, (changed if q == first else q for q in batch[1].quads))
    directory = tmp_path / "store"
    store = NanopubStore(directory)
    with pytest.raises(StoreError, match=f"verification failed for <{tampered.uri}>"):
        store.put_all([batch[0], tampered, *batch[2:]])
    assert calls == [batch[0].uri, tampered.uri]  # stops at the first failure
    assert len(store) == 0 and len(NanopubStore(directory)) == 0
    calls.clear()
    assert store.put_all(batch + batch[:1]) == [np.uri[-45:] for np in batch + batch[:1]]
    assert calls == [np.uri for np in batch + batch[:1]]
    assert store.codes() == NanopubStore(directory).codes() == [np.uri[-45:] for np in batch]
    calls.clear()
    assert store.put(batch[0]) == batch[0].uri[-45:]
    assert calls == [batch[0].uri]


def _full_sort(nanopubs, from_seq=1, limit=None):
    entries = [(seq, np.uri[-45:]) for seq, np in enumerate(nanopubs, 1)]
    entries = [entry for entry in entries if entry[0] >= from_seq]
    return entries if limit is None else entries[:limit]


def test_journal_entries_equal_full_sort(tmp_path, corpus200):
    nanopubs = corpus200[:25]
    store = _disk_store(tmp_path / "store", nanopubs)
    for current in (store, NanopubStore(tmp_path / "store")):
        assert current.codes() == [code for _, code in _full_sort(nanopubs)]
        for from_seq in range(-1, 29):
            for limit in (None, 0, 1, 7, 25, 100):
                assert current.journal_entries(from_seq, limit) == _full_sort(nanopubs, from_seq, limit)
    assert store.journal_entries(26) == []
    assert store.journal_entries(1, 0) == []


def test_journal_reads_while_another_thread_puts(corpus200):
    store = NanopubStore()
    errors = []

    def write():
        try:
            for np in corpus200:
                store.put(np)
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    writer = threading.Thread(target=write)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer.start()
        while writer.is_alive():
            try:
                entries = store.journal_entries(1, 150)
                codes = store.codes()
            except Exception as exc:
                errors.append(exc)
                break
            assert [seq for seq, _ in entries] == list(range(1, len(entries) + 1))
            assert codes[: len(entries)] == [code for _, code in entries]
        writer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert errors == []
    assert store.codes() == [np.uri[-45:] for np in corpus200]


def test_put_builds_no_query_index_until_the_first_query(monkeypatch, tmp_path, corpus200):
    calls = []
    object_key = store_module._object_key
    monkeypatch.setattr(
        store_module, "_object_key", lambda term: calls.append(term) or object_key(term)
    )
    memory, disk = NanopubStore(), NanopubStore(tmp_path / "store")
    for store in (memory, disk):
        store.put_all(corpus200[:20])
    reopened = NanopubStore(tmp_path / "store")
    for store in (memory, disk, reopened):
        assert len(store) == 20
        assert store._keys == [] and store._latest == []
        assert all(posting == {} for posting in store._postings.values())
    assert calls == []
    assert reopened.find_by_pattern(QuadPattern(predicate=iri(ns.RDF_TYPE)))
    assert calls  # the first query indexed the stored nanopubs
    assert len(reopened._keys) == len(reopened._latest) == 20


def test_find_by_pattern_wildcard_returns_all(store200):
    assert set(store200.find_by_pattern(QuadPattern())) == set(store200.codes())


def test_find_by_pattern_license(store200, corpus200):
    cc_by = iri("http://creativecommons.org/licenses/by/3.0/")
    pattern = QuadPattern(predicate=iri(ns.DCT_LICENSE), object=cc_by)
    got = store200.find_by_pattern(pattern)
    expected = scan_pattern(as_pairs(corpus200), predicate=iri(ns.DCT_LICENSE), obj=cc_by)
    assert set(got) == expected
    assert len(expected) > 0


def test_latest_ordering_by_created_date():
    store = NanopubStore()
    older = make_np(created="2015-03-02T00:00:00Z", label="older")
    newer = make_np(created="2015-03-04T00:00:00Z", label="newer")
    undated = make_np(label="undated")
    for np in (newer, older, undated):
        store.put(np)
    codes = store.find_by_pattern(QuadPattern(), latest=True)
    assert codes[0] == newer.uri[-45:]
    assert codes[1] == older.uri[-45:]
    assert codes[2] == undated.uri[-45:]  # missing timestamps last


def test_latest_ties_break_by_code():
    store = NanopubStore()
    same_day = [make_np(created="2016-01-01T00:00:00Z", label=f"twin{i}") for i in range(4)]
    for np in same_day:
        store.put(np)
    codes = store.find_by_pattern(QuadPattern(), latest=True)
    assert codes == sorted(codes)


def test_unordered_variant_same_set_and_stable(store200):
    pattern = QuadPattern(predicate=iri(ns.RDF_TYPE))
    latest = store200.find_by_pattern(pattern, latest=True)
    loose1 = store200.find_by_pattern(pattern, latest=False)
    loose2 = store200.find_by_pattern(pattern, latest=False)
    assert set(latest) == set(loose1)
    assert loose1 == loose2


def test_find_by_uri_self_reference(store200, corpus200):
    np = corpus200[0]
    hits = store200.find_by_uri(np.uri)
    assert np.uri[-45:] in hits


def test_find_by_uri_unused_iri_is_empty(store200):
    assert store200.find_by_uri("http://nowhere.example/nothing") == []


def test_find_by_uri_planted_orcid():
    store = NanopubStore()
    orcid = "http://orcid.org/0000-0001-0000-0007"
    with_orcid = [make_np(orcid=orcid, label=f"o{i}") for i in range(7)]
    without = [make_np(label=f"w{i}") for i in range(5)]
    for np in with_orcid + without:
        store.put(np)
    hits = store.find_by_uri(orcid)
    assert set(hits) == {np.uri[-45:] for np in with_orcid}


def test_find_by_uri_ignores_iris_inside_literal_text():
    store = NanopubStore()
    base = "http://test.example/np/"
    ph = placeholders(base)
    me = iri(ph.uri)
    mention = "see http://literal.example/page for details"
    _, np = mint_nanopub(
        base,
        [(iri("http://test.example/data/l"), iri(ns.DCT + "description"), literal(mention))],
        [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))],
        [(me, iri(ns.DCT + "description"), literal("lit-mention"))],
    )
    store.put(np)
    assert store.find_by_uri("http://literal.example/page") == []


def test_find_by_uri_equals_scan_for_every_iri_in_every_position(store200, corpus200):
    pairs = as_pairs(corpus200)
    uris = {
        term.value
        for np in corpus200[:20]
        for q in np.quads
        for term in (q.subject, q.predicate, q.object, q.graph)
        if term.is_iri
    }
    head = corpus200[0].head.iri
    assert head in uris
    # the head graph IRI occurs only in the graph position
    assert not any(
        head in (q.subject.value, q.predicate.value, q.object.value)
        for np in corpus200
        for q in np.quads
    )
    for uri in uris:
        expected = scan_uri(pairs, uri)
        assert expected
        assert set(store200.find_by_uri(uri, latest=True)) == expected
        assert set(store200.find_by_uri(uri, latest=False)) == expected
    assert store200.find_by_uri(head) == [corpus200[0].uri[-45:]]

    # a datatype IRI sits inside literals, in no term position
    assert any(q.object.datatype == ns.XSD_DATETIME for q in corpus200[0].quads)
    assert scan_uri(pairs, ns.XSD_DATETIME) == set()
    assert store200.find_by_uri(ns.XSD_DATETIME) == []
    assert store200.find_by_uri(ns.XSD_DATETIME, latest=False) == []
    # a string that is no IRI finds nothing and does not raise
    assert store200.find_by_uri("not an iri") == []
    assert store200.find_by_uri("not an iri", latest=False) == []


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_oracle_equivalence_on_small_corpus(store200, corpus200, data):
    pairs = as_pairs(corpus200)
    np = data.draw(st.sampled_from(corpus200))
    q = data.draw(st.sampled_from(np.to_document().quads))
    subj = q.subject if data.draw(st.booleans()) else None
    pred = q.predicate if data.draw(st.booleans()) else None
    obj = q.object if data.draw(st.booleans()) else None
    pattern = QuadPattern(subject=subj, predicate=pred, object=obj)
    expected = scan_pattern(pairs, subject=subj, predicate=pred, obj=obj)
    assert set(store200.find_by_pattern(pattern, latest=True)) == expected
    assert set(store200.find_by_pattern(pattern, latest=False)) == expected

    uri_term = data.draw(st.sampled_from([t for t in (q.subject, q.predicate, q.graph) if t.is_iri]))
    assert set(store200.find_by_uri(uri_term.value)) == scan_uri(pairs, uri_term.value)


def test_split_corpus_roundtrip(corpus200):
    chunk = corpus200[:10]
    text = "".join(serialize_trig(np.to_document()) for np in chunk)
    recovered = split_corpus(parse_trig(text))
    assert {np.uri for np in recovered} == {np.uri for np in chunk}


def test_split_corpus_rejects_stray_quads(corpus200):
    text = serialize_trig(corpus200[0].to_document())
    text += '\n<http://stray.example/g> { <http://stray.example/s> <http://stray.example/p> "v" . }\n'
    with pytest.raises(StoreError, match="belong to no nanopublication"):
        split_corpus(parse_trig(text))


def test_split_corpus_whole_corpus_equals_input(corpus200):
    text = "".join(serialize_trig(np.to_document()) for np in corpus200)
    assert split_corpus(parse_trig(text)) == corpus200


def test_split_corpus_interleaved_graphs(corpus200):
    chunk = corpus200[:10]
    # every head first, then every assertion, every provenance, every pubinfo
    quads = [q for part in range(4) for np in chunk for q in np.parts()[part].quads]
    interleaved = split_corpus(parse_trig(serialize_trig(QuadDocument(quads))))
    ordered = split_corpus(parse_trig("".join(serialize_trig(np.to_document()) for np in chunk)))
    assert interleaved == ordered == chunk


def _stray_graph(name: str) -> str:
    return f'<http://stray.example/{name}> {{ <http://stray.example/s> <http://stray.example/p> "v" . }}\n'


def test_split_corpus_stray_error_names_first_stray_graph(corpus200):
    # "z" comes first in the document but sorts after "a"
    text = (
        serialize_trig(corpus200[0].to_document())
        + _stray_graph("z")
        + serialize_trig(corpus200[1].to_document())
        + _stray_graph("a")
    )
    with pytest.raises(StoreError) as err:
        split_corpus(parse_trig(text))
    assert str(err.value) == "2 quads belong to no nanopublication (first graph: <http://stray.example/z>)"


def test_split_corpus_takes_a_head_only_from_a_link_to_an_iri(corpus200):
    # a literal hasAssertion object, in a graph before the real head, names no head
    np = corpus200[0]
    text = f'<http://stray.example/g1> {{ <{np.uri}> <{ns.NP_HAS_ASSERTION}> "lit" . }}\n'
    with pytest.raises(StoreError) as err:
        split_corpus(parse_trig(text + serialize_trig(np.to_document())))
    assert str(err.value) == "1 quads belong to no nanopublication (first graph: <http://stray.example/g1>)"


def test_split_corpus_reports_first_invalid_nanopub(corpus200):
    chunk = corpus200[:10]
    # two nanopubs whose URIs sort in the opposite order to the document
    first, second = next(
        (i, j) for i in range(len(chunk)) for j in range(i + 1, len(chunk)) if chunk[i].uri > chunk[j].uri
    )
    parts = []
    for k, np in enumerate(chunk):
        doc = np.to_document()
        if k in (first, second):  # drop the assertion: empty-assertion
            doc = QuadDocument(q for q in doc.quads if q.graph.value != np.assertion.iri)
        parts.append(serialize_trig(doc))
    with pytest.raises(NanopubValidationError) as err:
        split_corpus(parse_trig("".join(parts)))
    assert err.value.report.rule_ids() == {"empty-assertion"}
    assert f"<{chunk[first].assertion.iri}>" in str(err.value)


def test_get_by_uri_needs_the_exact_stored_uri(store200, corpus200):
    np = corpus200[0]
    code = np.uri[-45:]
    assert store200.get_by_uri(np.uri) is store200.get(code)
    for uri in (
        "http://elsewhere.example/np/" + code,  # the same code under another base
        np.uri[:-45] + "plain",  # no code
        np.uri[:-45] + "RA" + "Q" * 43,  # an unknown code
    ):
        with pytest.raises(KeyError):
            store200.get_by_uri(uri)
