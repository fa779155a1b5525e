import random

import pytest

from nanokit import index as index_module
from nanokit import namespaces as ns
from nanokit import store as store_module
from nanokit.api import ApiService
from nanokit.build import mint_nanopub, placeholders
from nanokit.corpusgen import synthetic_trusty_uris
from nanokit.index import (
    IndexCycleError,
    IndexError_,
    IndexMetadata,
    IndexRecord,
    NotAnIndexError,
    UnresolvableIndexError,
    _mint_chain,
    build_incremental,
    build_index,
    expand,
    list_indexes,
    store_resolver,
    walk,
)
from nanokit.nanopub import validate
from nanokit.rdf import iri, literal
from nanokit.store import NanopubStore
from nanokit.trusty import verify

from oracles import transitive_union

META = IndexMetadata(title="Test index", created="2018-01-01T00:00:00Z")


def make_resolver(*record_lists):
    by_uri = {}
    for records in record_lists:
        for record in records:
            by_uri[record.uri] = record
    return lambda uri: by_uri[uri]


def test_build_small_index_is_single_complete_record():
    elements = synthetic_trusty_uris(3)
    records = build_index(elements, metadata=META)
    assert len(records) == 1
    (head,) = records
    assert not head.is_incomplete
    assert head.appends is None
    assert set(head.elements) == set(elements)
    assert head.title == "Test index"


def test_build_2500_elements_capacity_1000_gives_chain_of_3():
    elements = synthetic_trusty_uris(2500)
    records = build_index(elements, metadata=META)
    assert len(records) == 3
    assert [len(r.elements) for r in records] == [1000, 1000, 500]
    assert [r.is_incomplete for r in records] == [True, True, False]
    assert records[1].appends == records[0].uri
    assert records[2].appends == records[1].uri
    assert records[2].title == "Test index"
    assert records[0].title is None


def test_every_emitted_record_is_valid_and_verifiable():
    records = build_index(synthetic_trusty_uris(2500), metadata=META)
    for record in records:
        doc = record.nanopub.to_document()
        assert validate(doc, record.uri).valid
        assert verify(doc, record.uri)


def test_union_of_two_subindexes():
    small = build_index(synthetic_trusty_uris(20, label="small"), metadata=META, capacity=8)
    large = build_index(synthetic_trusty_uris(48, label="large"), metadata=META, capacity=8)
    union = build_index(
        [],
        sub_indexes=[small[-1].uri, large[-1].uri],
        metadata=IndexMetadata(title="Union", created="2018-01-02T00:00:00Z"),
    )
    resolver = make_resolver(small, large, union)
    members = expand(union[-1], resolver)
    assert len(members) == 68
    all_elements = {e for r in small + large for e in r.elements}
    assert members == all_elements
    assert union[-1].sub_indexes == (small[-1].uri, large[-1].uri)


def test_expand_no_subs_no_appends_is_own_elements():
    records = build_index(synthetic_trusty_uris(5), metadata=META)
    assert expand(records[0], make_resolver(records)) == set(records[0].elements)


def test_expand_random_dag_equals_bruteforce():
    rng = random.Random(4)
    pool = synthetic_trusty_uris(500)
    chains = []
    for i in range(10):
        elements = rng.sample(pool, rng.randint(0, 60))
        subs = [chains[j][-1].uri for j in range(len(chains)) if rng.random() < 0.3]
        chains.append(
            build_index(
                elements,
                sub_indexes=subs,
                metadata=IndexMetadata(title=f"idx-{i}", created="2018-01-01T00:00:00Z"),
                capacity=25,
            )
        )
    resolver = make_resolver(*chains)

    elements_of, subs_of, appends_of = {}, {}, {}
    for chain in chains:
        for record in chain:
            elements_of[record.uri] = set(record.elements)
            subs_of[record.uri] = list(record.sub_indexes)
            appends_of[record.uri] = record.appends

    for chain in chains:
        head = chain[-1]
        assert expand(head, resolver) == transitive_union(
            head.uri, elements_of, subs_of, appends_of
        )


def test_expand_unresolvable_reference_raises():
    records = build_index(
        synthetic_trusty_uris(3),
        sub_indexes=["http://example.org/idx/" + "RA" + "B" * 43],
        metadata=META,
    )
    with pytest.raises(UnresolvableIndexError):
        expand(records[-1], make_resolver(records))


def test_expand_cycle_detected():
    a = build_index(synthetic_trusty_uris(2), metadata=META)
    b = build_index(
        synthetic_trusty_uris(2, label="other"), sub_indexes=[a[-1].uri], metadata=META
    )
    # forge a cyclic resolver: a resolves to b's head under a's URI
    cyclic = {
        a[-1].uri: IndexRecord(
            uri=a[-1].uri,
            nanopub=a[-1].nanopub,
            elements=a[-1].elements,
            sub_indexes=(b[-1].uri,),
            appends=None,
            is_incomplete=False,
        ),
        b[-1].uri: b[-1],
    }
    with pytest.raises(IndexCycleError):
        expand(b[-1], lambda uri: cyclic[uri])


def test_build_rejects_duplicates_and_bad_capacity():
    elements = synthetic_trusty_uris(2)
    with pytest.raises(IndexError_, match="duplicate"):
        build_index(elements + [elements[0]], metadata=META)
    with pytest.raises(IndexError_, match="capacity"):
        build_index(elements, metadata=META, capacity=0)
    with pytest.raises(IndexError_, match="trusty"):
        build_index(["http://example.org/not-a-code"], metadata=META)
    with pytest.raises(IndexError_, match="metadata"):
        build_index(elements, metadata=IndexMetadata())


@pytest.mark.parametrize("capacity", [0, -1])
def test_incremental_rejects_bad_capacity(capacity):
    v1 = build_index(synthetic_trusty_uris(30), metadata=META, capacity=10)
    with pytest.raises(IndexError_, match="capacity"):
        build_incremental(
            v1[-1],
            added=synthetic_trusty_uris(5, label="added"),
            removed=set(),
            metadata=META,
            resolver=make_resolver(v1),
            capacity=capacity,
        )


def test_incremental_noop_version_has_same_expansion():
    elements = synthetic_trusty_uris(40)
    v1 = build_index(elements, metadata=META, capacity=25)
    resolver = make_resolver(v1)
    v2 = build_incremental(
        v1[-1],
        added=[],
        removed=set(),
        metadata=IndexMetadata(title="v2", created="2018-02-01T00:00:00Z"),
        resolver=resolver,
        capacity=25,
    )
    resolver2 = make_resolver(v1, v2)
    assert expand(v2[-1], resolver2) == expand(v1[-1], resolver)
    assert v2[-1].uri != v1[-1].uri


def test_incremental_growth_reuses_full_links():
    v1 = build_index(synthetic_trusty_uris(1000), metadata=META)
    assert len(v1) == 1
    resolver = make_resolver(v1)
    added = synthetic_trusty_uris(155, label="added")
    v2 = build_incremental(
        v1[-1],
        added=added,
        removed=set(),
        metadata=IndexMetadata(title="v2", created="2018-02-01T00:00:00Z"),
        resolver=resolver,
    )
    # <= 2 newly minted element-bearing records
    assert len([r for r in v2 if r.elements]) <= 2
    members = expand(v2[-1], make_resolver(v1, v2))
    assert len(members) == 1155
    assert members == set(v1[-1].elements) | set(added)


def test_incremental_disgenet_shaped_growth_at_scale_1000th():
    v2_elements = synthetic_trusty_uris(940, label="gda")
    v2 = build_index(
        v2_elements, metadata=IndexMetadata(title="GDA v2", created="2015-03-04T00:00:00Z")
    )
    resolver = make_resolver(v2)
    added = synthetic_trusty_uris(79, label="gda-new")
    v3 = build_incremental(
        v2[-1],
        added=added,
        removed=set(),
        metadata=IndexMetadata(title="GDA v3", created="2015-11-15T00:00:00Z"),
        resolver=resolver,
    )
    full = make_resolver(v2, v3)
    assert len(expand(v2[-1], full)) == 940
    assert len(expand(v3[-1], full)) == 1019
    # set-algebra oracle
    assert expand(v3[-1], full) == expand(v2[-1], full) | set(added)


def test_incremental_removal_reemits_suffix():
    elements = synthetic_trusty_uris(60)
    v1 = build_index(elements, metadata=META, capacity=20)
    resolver = make_resolver(v1)
    removed = {elements[25], elements[59]}  # second link and head link
    added = synthetic_trusty_uris(5, label="fresh")
    v2 = build_incremental(
        v1[-1],
        added=added,
        removed=removed,
        metadata=IndexMetadata(title="v2", created="2018-02-01T00:00:00Z"),
        resolver=resolver,
        capacity=20,
    )
    # first link untouched by removal stays reused
    assert v2[0].appends == v1[0].uri
    members = expand(v2[-1], make_resolver(v1, v2))
    assert members == (set(elements) - removed) | set(added)


def test_incremental_rejects_unknown_removal():
    v1 = build_index(synthetic_trusty_uris(10), metadata=META)
    stranger = synthetic_trusty_uris(1, label="stranger")[0]
    with pytest.raises(IndexError_, match="not in previous"):
        build_incremental(
            v1[-1],
            added=[],
            removed={stranger},
            metadata=META,
            resolver=make_resolver(v1),
        )


def test_chain_law_pure_append_versions_grow():
    v1 = build_index(synthetic_trusty_uris(30), metadata=META, capacity=10)
    resolver = make_resolver(v1)
    v2 = build_incremental(
        v1[-1],
        added=synthetic_trusty_uris(7, label="v2"),
        removed=set(),
        metadata=IndexMetadata(title="v2", created="2018-03-01T00:00:00Z"),
        resolver=resolver,
        capacity=10,
    )
    full = make_resolver(v1, v2)
    assert expand(v1[-1], full) <= expand(v2[-1], full)


def test_list_indexes_empty_store():
    assert list_indexes(NanopubStore()) == []


def test_list_indexes_excludes_incomplete_chain_links():
    store = NanopubStore()
    records = build_index(synthetic_trusty_uris(25), metadata=META, capacity=10)
    assert len(records) == 3
    for record in records:
        store.put(record.nanopub)
    summaries = list_indexes(store)
    assert len(summaries) == 1
    assert summaries[0].uri == records[-1].uri
    assert summaries[0].size == 25
    assert summaries[0].title == "Test index"


def test_list_indexes_date_order_and_sizes():
    store = NanopubStore()
    rows = [
        ("OpenBEL small 1.0", "2015-03-02T00:00:00Z", 20),
        ("OpenBEL large 1.0", "2015-03-02T01:00:00Z", 48),
        ("OpenBEL small 20131211", "2015-03-02T02:00:00Z", 12),
        ("OpenBEL large 20131211", "2015-03-02T03:00:00Z", 72),
        ("AIDA", "2015-03-04T00:00:00Z", 15),
        ("GDA v2", "2015-03-04T01:00:00Z", 94),
        ("Protein data", "2015-03-09T00:00:00Z", 40),
        ("LIDDI v1.01", "2015-07-17T00:00:00Z", 9),
    ]
    for i, (title, created, count) in enumerate(rows):
        records = build_index(
            synthetic_trusty_uris(count, label=f"row{i}"),
            metadata=IndexMetadata(title=title, created=created),
        )
        for record in records:
            store.put(record.nanopub)
    summaries = list_indexes(store)
    assert [s.title for s in summaries] == [title for title, _, _ in rows]
    assert [s.size for s in summaries] == [count for _, _, count in rows]
    assert [s.number for s in summaries] == list(range(1, 9))
    assert all(s.sub_count == 0 for s in summaries)


def test_list_indexes_skips_nanopub_typing_another_subject_as_index():
    base = "http://example.org/np/"
    ph = placeholders(base)
    other = iri("http://example.org/data/some-index")
    _, typer = mint_nanopub(
        base,
        [(other, iri(ns.RDF_TYPE), iri(ns.NPX_NANOPUB_INDEX))],
        [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))],
        [(iri(ph.uri), iri(ns.DCT_TITLE), literal("not an index"))],
    )
    (index,) = build_index(synthetic_trusty_uris(3), metadata=META)
    store = NanopubStore()
    store.put(typer)
    store.put(index.nanopub)
    assert [s.uri for s in list_indexes(store)] == [index.uri]


# -- the store's index table ---------------------------------------------------------

MISSING = "http://example.org/missing/RA" + "A" * 43


def _minted_index(label, links):
    """An index nanopub with ``(predicate, object)`` links about itself;
    the object ``None`` stands for its own URI."""
    base = f"http://example.org/raw/{label}/"
    ph = placeholders(base)
    me = iri(ph.uri)
    assertion = [(me, iri(ns.RDF_TYPE), iri(ns.NPX_NANOPUB_INDEX))]
    assertion += [(me, iri(pred), me if obj is None else iri(obj)) for pred, obj in links]
    provenance = [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))]
    pubinfo = [(me, iri(ns.DCT_TITLE), literal(label))]
    return mint_nanopub(base, assertion, provenance, pubinfo)[1]


def _unlistable_heads():
    """Index heads that cannot be expanded or parsed, by label."""
    (dangling_append,) = _mint_chain(
        "http://example.org/idx/dangling/", [], [], MISSING, IndexMetadata(title="t"), 1
    )
    (dangling_sub,) = build_index([], sub_indexes=[MISSING], metadata=META)
    return {
        "dangling append": dangling_append.nanopub,
        "dangling sub-index": dangling_sub.nanopub,
        "self-append": _minted_index("self-append", [(ns.NPX_APPENDS_INDEX, None)]),
        "self-sub-index": _minted_index("self-sub", [(ns.NPX_INCLUDES_SUBINDEX, None)]),
        "two appends": _minted_index(
            "two-appends",
            [(ns.NPX_APPENDS_INDEX, MISSING), (ns.NPX_APPENDS_INDEX, MISSING[:-1] + "B")],
        ),
    }


@pytest.mark.parametrize("label", sorted(_unlistable_heads()))
def test_list_indexes_leaves_out_an_unlistable_head(label):
    good = build_index(synthetic_trusty_uris(25), metadata=META, capacity=10)
    store = NanopubStore()
    for record in good:
        store.put(record.nanopub)
    bad = _unlistable_heads()[label]
    store.put(bad)
    summaries = list_indexes(store)
    assert [(s.number, s.uri, s.size) for s in summaries] == [(1, good[-1].uri, 25)]
    with pytest.raises(IndexError_):  # its resolution still fails as before
        expand(store_resolver(store)(bad.uri), store_resolver(store))


def test_list_indexes_lists_a_dangling_head_once_its_link_is_stored():
    links = build_index(synthetic_trusty_uris(25), metadata=META, capacity=10)
    store = NanopubStore()
    store.put(links[-1].nanopub)  # the head first: the links it appends are absent
    assert list_indexes(store) == []
    for record in links[:-1]:
        store.put(record.nanopub)
    assert [(s.uri, s.size) for s in list_indexes(store)] == [(links[-1].uri, 25)]


@pytest.fixture
def count_parses(monkeypatch):
    """URIs passed to ``IndexRecord.from_nanopub`` from now on."""
    calls = []
    parse = IndexRecord.from_nanopub

    def counting(cls, np):
        calls.append(np.uri)
        return parse(np)

    monkeypatch.setattr(IndexRecord, "from_nanopub", classmethod(counting))
    return calls


def _three_indexes(uris):
    chain = build_index(
        uris[:25],
        metadata=IndexMetadata(title="Chain", created="2017-01-01T00:00:00Z"),
        capacity=10,
    )
    solo = build_index(
        uris[25:30], metadata=IndexMetadata(title="Solo", created="2017-02-01T00:00:00Z")
    )
    union = build_index(
        [],
        sub_indexes=[chain[-1].uri, solo[-1].uri],
        metadata=IndexMetadata(title="Union", created="2017-03-01T00:00:00Z"),
    )
    return chain, solo, union


def test_put_parses_each_index_once_and_queries_parse_none(count_parses, corpus200):
    base = "http://example.org/np/"
    ph = placeholders(base)
    _, typer = mint_nanopub(
        base,
        [(iri("http://example.org/data/some-index"), iri(ns.RDF_TYPE), iri(ns.NPX_NANOPUB_INDEX))],
        [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))],
        [(iri(ph.uri), iri(ns.DCT_TITLE), literal("not an index"))],
    )
    chain, solo, union = _three_indexes([np.uri for np in corpus200])
    count_parses.clear()  # minting parses each link once
    store = NanopubStore()
    for np in corpus200[:30]:
        store.put(np)
    store.put(typer)
    assert count_parses == []
    records = chain + solo + union
    for record in records:
        store.put(record.nanopub)
        store.put(record.nanopub)  # a duplicate put registers nothing
    assert count_parses == [record.uri for record in records]

    count_parses.clear()
    service = ApiService(store)
    assert [row.size for row in service.get_all_indexes()] == [25, 5, 30]
    assert len(service.get_index_elements(chain[-1].uri)) == 25
    assert service.get_index_elements(solo[-1].uri, page_size=2) == list(solo[-1].elements[:2])
    assert service.get_index_elements(union[-1].uri) == []
    assert count_parses == []


def test_reopen_rebuilds_the_index_table(tmp_path, corpus200, count_parses):
    chain, solo, union = _three_indexes([np.uri for np in corpus200])
    store = NanopubStore(tmp_path / "s")
    for np in corpus200[:30]:
        store.put(np)
    for record in chain + solo + union:
        store.put(record.nanopub)
    service = ApiService(store)
    heads = [chain[-1].uri, solo[-1].uri, union[-1].uri]

    def answers(service):
        pages = [
            service.get_index_elements(uri, page=page, page_size=10)
            for uri in heads
            for page in (1, 2, 3, 4)
        ]
        return service.get_all_indexes(), pages

    before = answers(service)
    count_parses.clear()
    reopened = NanopubStore(tmp_path / "s")
    assert count_parses == [record.uri for record in chain + solo + union]
    assert reopened.index_records() == store.index_records()
    assert answers(ApiService(reopened)) == before
    assert [row.title for row in before[0]] == ["Chain", "Solo", "Union"]


# -- the one walk ---------------------------------------------------------------------

FORGED = "http://example.org/forged/"


def _forged(name, elements=(), subs=(), appends=None):
    """An index record built by hand: the walk reads only its links."""
    return IndexRecord(
        uri=FORGED + name,
        nanopub=None,
        elements=tuple(elements),
        sub_indexes=tuple(FORGED + sub for sub in subs),
        appends=None if appends is None else FORGED + appends,
        is_incomplete=False,
    )


def test_walk_resolves_each_record_of_a_dag_once_appends_first():
    # top appends older; top -> a, b; a -> c; b -> c; c appends d
    records = [
        _forged("top", ["e1"], subs=["a", "b"], appends="older"),
        _forged("older", ["e2"]),
        _forged("a", ["e3"], subs=["c"]),
        _forged("b", ["e4"], subs=["c"]),
        _forged("c", ["e5"], appends="d"),
        _forged("d", ["e1", "e6"]),
    ]
    calls, resolver = [], make_resolver(records)

    def resolve(uri):
        calls.append(uri)
        return resolver(uri)

    walked = walk(records[0], resolve)
    assert [r.uri[len(FORGED):] for r in walked] == ["top", "older", "a", "c", "d", "b"]
    assert sorted(calls) == sorted(r.uri for r in records[1:])  # each once, the head never
    calls.clear()
    assert expand(records[0], resolve) == {"e1", "e2", "e3", "e4", "e5", "e6"}
    assert len(calls) == 5
    calls.clear()
    assert walk(records[0], resolve, subs=False) == records[:2]
    assert walk(records[2], resolve, subs=False) == [records[2]]


def test_walk_without_subs_finds_a_cycle_in_the_chain():
    a = _forged("a", appends="b")
    b = _forged("b", appends="a")
    with pytest.raises(IndexCycleError):
        walk(a, make_resolver([a, b]), subs=False)


def test_walk_of_a_3000_link_chain_stays_within_the_recursion_limit():
    links = [_forged("0", ["e0"])]
    links += [_forged(str(i), [f"e{i}"], appends=str(i - 1)) for i in range(1, 3000)]
    head, resolver = links[-1], make_resolver(links)
    assert walk(head, resolver, subs=False) == links[::-1]
    assert expand(head, resolver) == {f"e{i}" for i in range(3000)}


def test_expand_raises_not_an_index_for_an_appended_plain_nanopub(corpus200):
    plain = corpus200[0]
    (appends_plain,) = _mint_chain(
        "http://example.org/idx/plain/", [], [], plain.uri, IndexMetadata(title="t"), 1
    )
    store = NanopubStore()
    store.put(plain)
    store.put(appends_plain.nanopub)
    resolver = store_resolver(store)
    with pytest.raises(NotAnIndexError):
        expand(resolver(appends_plain.uri), resolver)


def test_one_index_put_checks_is_index_once(monkeypatch):
    calls = []
    check = index_module.is_index

    def counting(np):
        calls.append(np.uri)
        return check(np)

    for module in (index_module, store_module):
        monkeypatch.setattr(module, "is_index", counting, raising=False)
    (record,) = build_index(synthetic_trusty_uris(3), metadata=META)
    calls.clear()
    NanopubStore().put(record.nanopub)
    assert calls == [record.uri]


def test_is_index_holds_only_for_the_assertion_typing_its_own_nanopub_an_index():
    base = "http://test.example/np/"
    ph = placeholders(base)
    me, rdf_type, npx_index = iri(ph.uri), iri(ns.RDF_TYPE), iri(ns.NPX_NANOPUB_INDEX)
    other = iri("http://test.example/data/other")
    thing = (other, rdf_type, iri("http://test.example/Thing"))
    cases = {
        "typed": ([(me, rdf_type, npx_index)], [], True),
        "literal object of the same text": ([(me, rdf_type, literal(ns.NPX_NANOPUB_INDEX))], [], False),
        "typed in pubinfo": ([thing], [(me, rdf_type, npx_index)], False),
        "another subject": ([(other, rdf_type, npx_index)], [], False),
        "another predicate": ([(me, iri(ns.DCT + "subject"), npx_index)], [], False),
    }
    for label, (assertion, pubinfo, expected) in cases.items():
        provenance = [(iri(ph.assertion), rdf_type, iri(ns.PROV_ENTITY))]
        pubinfo = [(me, iri(ns.DCT + "description"), literal(label)), *pubinfo]
        np = mint_nanopub(base, assertion, provenance, pubinfo)[1]
        assert index_module.is_index(np) is expected, label
