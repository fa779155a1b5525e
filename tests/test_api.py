import random
import socket
import sys
import threading
import time

import pytest
import requests

from nanokit import api, network
from nanokit import namespaces as ns
from nanokit.api import (
    MAX_PAGE_SIZE,
    ApiError,
    ApiServer,
    ApiService,
    NotFoundError,
)
from nanokit.index import IndexMetadata, IndexRecord, _mint_chain, build_incremental, build_index
from nanokit.rdf import QuadPattern, iri, parse_trig
from nanokit.store import NanopubStore
from nanokit.trusty import verify

from oracles import as_pairs, scan_pattern, scan_uri, synthetic_trusty_uris, transitive_union


@pytest.fixture(scope="module")
def service(store200):
    return ApiService(store200)


@pytest.fixture(scope="module")
def nanopub_pairs(corpus200):
    return as_pairs(corpus200)


def test_wildcard_over_empty_store_is_empty():
    service = ApiService(NanopubStore())
    assert service.find_latest_nanopubs_with_pattern() == []
    assert service.get_all_indexes() == []


def test_pattern_methods_agree_with_each_other_and_oracle(service, nanopub_pairs):
    pred = iri(ns.DCT_LICENSE)
    latest = service.find_latest_nanopubs_with_pattern(pred=pred)
    loose = service.find_nanopubs_with_pattern(pred=pred)
    expected = scan_pattern(nanopub_pairs, predicate=pred)
    assert set(latest) == set(loose) == expected


def test_uri_methods_agree_with_oracle(service, nanopub_pairs, corpus200):
    target = corpus200[17].uri
    latest = service.find_latest_nanopubs_with_uri(target)
    loose = service.find_nanopubs_with_uri(target)
    expected = scan_uri(nanopub_pairs, target)
    assert set(latest) == set(loose) == expected
    assert service.find_latest_nanopubs_with_uri("http://unknown.example/x") == []


def test_pagination_arithmetic(service):
    everything = service.find_latest_nanopubs_with_pattern(page_size=10000)
    assert len(everything) == 200
    pages = [
        service.find_latest_nanopubs_with_pattern(page=p, page_size=90)
        for p in (1, 2, 3)
    ]
    assert [len(p) for p in pages] == [90, 90, 20]
    assert pages[0] + pages[1] + pages[2] == everything
    # out-of-range page: empty, not an error
    assert service.find_latest_nanopubs_with_pattern(page=4, page_size=90) == []


def test_page_parameter_validation(service):
    with pytest.raises(ApiError):
        service.find_latest_nanopubs_with_pattern(page=0)
    with pytest.raises(ApiError):
        service.find_latest_nanopubs_with_pattern(page_size=10001)


class _NoLookupStore:
    """A store whose every lookup fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"store.{name} used before the page was checked")


@pytest.mark.parametrize("page, page_size", [(0, 10), (-1, 10), (1, 0), (1, 10001)])
def test_page_parameters_are_checked_before_the_lookup(page, page_size):
    service = ApiService(_NoLookupStore())
    calls = [
        lambda **kw: service.find_latest_nanopubs_with_pattern(pred=iri(ns.RDF_TYPE), **kw),
        lambda **kw: service.find_nanopubs_with_pattern(pred=iri(ns.RDF_TYPE), **kw),
        lambda **kw: service.find_latest_nanopubs_with_uri(ns.RDF_TYPE, **kw),
        lambda **kw: service.find_nanopubs_with_uri(ns.RDF_TYPE, **kw),
        lambda **kw: service.get_all_indexes(**kw),
        lambda **kw: service.get_index_elements("http://example.org/np/index", **kw),
    ]
    for call in calls:
        with pytest.raises(ApiError) as info:
            call(page=page, page_size=page_size)
        assert info.value.code in ("bad-page", "bad-page-size")


@pytest.fixture(scope="module")
def indexed_store(corpus200):
    store = NanopubStore()
    for np in corpus200[:50]:
        store.put(np)
    codes = store.codes()
    uris = ["http://example.org/np/" + c for c in codes]
    chain = build_index(
        uris[:30],
        metadata=IndexMetadata(title="First 30", created="2017-01-01T00:00:00Z"),
        capacity=12,
    )
    solo = build_index(
        uris[30:35],
        metadata=IndexMetadata(title="Five more", created="2017-02-01T00:00:00Z"),
    )
    subbed = build_index(
        [],
        sub_indexes=[chain[-1].uri, solo[-1].uri],
        metadata=IndexMetadata(title="Union", created="2017-03-01T00:00:00Z"),
    )
    for records in (chain, solo, subbed):
        for record in records:
            store.put(record.nanopub)
    return store, chain, solo, subbed, uris


def test_get_all_indexes_excludes_incomplete(indexed_store):
    store, chain, solo, subbed, _ = indexed_store
    rows = ApiService(store).get_all_indexes()
    assert [r.title for r in rows] == ["First 30", "Five more", "Union"]
    assert [r.sub_count for r in rows] == [0, 0, 2]
    assert [r.size for r in rows] == [30, 5, 35]
    assert [r.number for r in rows] == [1, 2, 3]


def test_get_index_elements_follows_chain_not_subs(indexed_store):
    store, chain, solo, subbed, uris = indexed_store
    service = ApiService(store)
    # the chained index: direct elements across the whole appends chain
    got = service.get_index_elements(chain[-1].uri, page_size=10000)
    assert sorted(got) == sorted(uris[:30])
    # the sub-index-only head: no direct elements at all
    assert service.get_index_elements(subbed[-1].uri) == []


def test_get_index_elements_paginates(indexed_store):
    store, chain, _, _, uris = indexed_store
    service = ApiService(store)
    pages = [service.get_index_elements(chain[-1].uri, page=p, page_size=12) for p in (1, 2, 3, 4)]
    assert [len(p) for p in pages] == [12, 12, 6, 0]
    flat = [uri for page in pages for uri in page]
    assert sorted(flat) == sorted(uris[:30])


def test_get_index_elements_unknown_index(indexed_store):
    store = indexed_store[0]
    with pytest.raises(NotFoundError):
        ApiService(store).get_index_elements("http://example.org/idx/" + "RA" + "Z" * 43)


def test_http_get_index_elements_missing_link_404_non_index_400(indexed_store):
    chain = indexed_store[1]
    plain = indexed_store[0].get(indexed_store[0].codes()[0])
    (appends_plain,) = _mint_chain(
        "http://example.org/idx/bad/", [], [], plain.uri, IndexMetadata(title="t"), 1
    )
    store = NanopubStore()
    store.put(chain[-1].nanopub)  # the head only: the links it appends are absent
    store.put(plain)
    store.put(appends_plain.nanopub)
    server = ApiServer(ApiService(store))
    server.serve_in_background()
    try:
        url = f"http://{server.address}/api/get_index_elements"
        got = requests.get(url, params={"index_uri": chain[-1].uri})
        assert got.status_code == 404
        assert got.text.startswith("ERROR not-found ")
        for index_uri in (plain.uri, appends_plain.uri):
            got = requests.get(url, params={"index_uri": index_uri})
            assert got.status_code == 400
            assert got.text.startswith("ERROR ")
    finally:
        server.shutdown()
        server.server_close()


def test_get_index_elements_lists_the_chain_head_first(indexed_store):
    store, chain, _, _, uris = indexed_store
    assert [len(link.elements) for link in chain] == [12, 12, 6]
    got = ApiService(store).get_index_elements(chain[-1].uri)
    assert got == uris[24:30] + uris[12:24] + uris[:12]


def test_http_get_index_elements_cycle_is_400(monkeypatch):
    # content-hashed links cannot append each other, so the resolver is forged
    a, b = ("http://example.org/forged/" + name for name in "ab")
    cyclic = {
        uri: IndexRecord(uri, None, (uri + "/e",), (), appends, False)
        for uri, appends in ((a, b), (b, a))
    }
    monkeypatch.setattr(api, "store_resolver", lambda store: cyclic.__getitem__)
    server = ApiServer(ApiService(NanopubStore()))
    server.serve_in_background()
    try:
        url = f"http://{server.address}/api/get_index_elements"
        got = requests.get(url, params={"index_uri": a})
        assert got.status_code == 400
        assert got.text.startswith("ERROR bad-request cycle through ")
    finally:
        server.shutdown()
        server.server_close()


def test_http_get_all_indexes_leaves_out_a_dangling_head(corpus200):
    store = NanopubStore()
    for np in corpus200[:20]:
        store.put(np)
    (good,) = build_index(
        [np.uri for np in corpus200[:20]], metadata=IndexMetadata(title="Twenty")
    )
    missing = "http://example.org/missing/RA" + "A" * 43
    (dangling,) = _mint_chain(
        "http://example.org/idx/dangling/", [], [], missing, IndexMetadata(title="t"), 1
    )
    store.put(good.nanopub)
    store.put(dangling.nanopub)
    server = ApiServer(ApiService(store))
    server.serve_in_background()
    try:
        got = requests.get(f"http://{server.address}/api/get_all_indexes")
        assert got.status_code == 200
        assert got.text == f"1\t{good.uri}\tTwenty\t\t0\t20\n"
        url = f"http://{server.address}/api/get_index_elements"
        got = requests.get(url, params={"index_uri": dangling.uri})
        assert got.status_code == 404
        assert got.text == f"ERROR not-found cannot resolve index <{missing}>\n"
    finally:
        server.shutdown()
        server.server_close()


def test_index_queries_while_another_thread_puts_chains():
    rng = random.Random(5)
    pool = synthetic_trusty_uris(300)
    chains = []
    for i in range(8):
        chains.append(
            build_index(
                rng.sample(pool, rng.randint(0, 40)),
                sub_indexes=[chain[-1].uri for chain in chains if rng.random() < 0.3],
                metadata=IndexMetadata(title=f"idx-{i}", created=f"2018-01-0{i + 1}T00:00:00Z"),
                capacity=7,
            )
        )
    by_uri = {record.uri: record for chain in chains for record in chain}
    chains.append(  # a new version that reuses the full links of an old one
        build_incremental(
            chains[3][-1],
            added=pool[:9],
            removed=set(chains[3][0].elements[-1:]) - set(pool[:9]),
            metadata=IndexMetadata(title="idx-3 v2", created="2018-02-01T00:00:00Z"),
            resolver=by_uri.__getitem__,
            capacity=7,
        )
    )
    records = [record for chain in chains for record in chain]
    by_uri = {record.uri: record for record in records}
    elements_of = {uri: set(record.elements) for uri, record in by_uri.items()}
    subs_of = {uri: record.sub_indexes for uri, record in by_uri.items()}
    appends_of = {uri: record.appends for uri, record in by_uri.items()}

    def direct_elements(uri):
        out = []
        while uri is not None:
            out += by_uri[uri].elements
            uri = by_uri[uri].appends
        return out

    errors, listings = [], []

    def read():
        try:
            while not done.is_set():
                rows = service.get_all_indexes()
                assert [row.number for row in rows] == list(range(1, len(rows) + 1))
                for row in rows:
                    union = transitive_union(row.uri, elements_of, subs_of, appends_of)
                    assert row.size == len(union)
                    got = service.get_index_elements(row.uri, page_size=MAX_PAGE_SIZE)
                    assert got == direct_elements(row.uri)
                listings.append(len(rows))
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    def write():
        try:
            for record in records:  # oldest first, link by link
                store.put(record.nanopub)
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    for _ in range(3):
        store, done = NanopubStore(), threading.Event()
        service = ApiService(store)
        threads = [threading.Thread(target=read), threading.Thread(target=write)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
    assert listings
    heads = {row.uri for row in service.get_all_indexes()}
    # the old version stays listed next to the new one that reuses its links
    assert heads == {chain[-1].uri for chain in chains}


def test_get_nanopub_reverifies(service, corpus200):
    np = corpus200[3]
    text = service.get_nanopub(np.uri)
    doc = parse_trig(text)
    assert verify(doc, np.uri)


def test_get_nanopub_not_found(service):
    with pytest.raises(NotFoundError):
        service.get_nanopub("http://example.org/np/" + "RA" + "Y" * 43)
    with pytest.raises(ApiError):
        service.get_nanopub("http://example.org/np/no-code-here")


def test_get_nanopub_equals_persisted_file(tmp_path, corpus200):
    store = NanopubStore(tmp_path / "s")
    np = corpus200[0]
    store.put(np)
    service = ApiService(store)
    # the log holds one record: a byte count, then the TriG body
    persisted = (tmp_path / "s" / "journal.log").read_bytes().partition(b"\n")[2]
    assert service.get_nanopub(np.uri) == persisted.decode("utf-8")


# -- HTTP transport -----------------------------------------------------------


@pytest.fixture(scope="module")
def http_base(store200):
    server = ApiServer(ApiService(store200))
    server.serve_in_background()
    yield f"http://{server.address}"
    server.shutdown()
    server.server_close()


def test_http_pattern_route(http_base, store200):
    url = f"{http_base}/api/find_latest_nanopubs_with_pattern"
    got = requests.get(url, params={"pred": ns.DCT_LICENSE, "page_size": 10000})
    assert got.status_code == 200
    codes = got.text.splitlines()
    expected = store200.find_by_pattern(QuadPattern(predicate=iri(ns.DCT_LICENSE)))
    assert codes == expected


def test_http_literal_object_flag(http_base, store200, corpus200):
    lit = next(
        q.object
        for np in corpus200
        for q in np.to_document().quads
        if q.object.is_literal and q.object.datatype is None and q.object.language is None
    )
    url = f"{http_base}/api/find_nanopubs_with_pattern"
    got = requests.get(url, params={"obj": lit.value, "objtype": "literal"})
    expected = store200.find_by_pattern(QuadPattern(object=lit), latest=False)
    assert got.text.splitlines() == expected


@pytest.mark.parametrize(
    "obj, objtype",
    [("http://purl.org/dc/terms/x", "literl"), ("hello", "Literal"), ("http://x.example/", "IRI"), ("hello", "")],
)
def test_http_objtype_is_iri_or_literal(http_base, obj, objtype):
    url = f"{http_base}/api/find_nanopubs_with_pattern"
    got = requests.get(url, params={"obj": obj, "objtype": objtype})
    assert got.status_code == 400
    assert got.text == "ERROR bad-parameter objtype must be iri or literal\n"
    assert requests.get(url, params={"obj": "http://x.example/", "objtype": "iri"}).status_code == 200


def test_http_get_nanopub_returns_trig(http_base, corpus200):
    got = requests.get(f"{http_base}/api/get_nanopub", params={"uri": corpus200[5].uri})
    assert got.status_code == 200
    doc = parse_trig(got.text)
    assert verify(doc, corpus200[5].uri)


def test_http_error_body_shape(http_base):
    got = requests.get(f"{http_base}/api/get_nanopub", params={"uri": "http://x.example/none" })
    assert got.status_code == 400
    assert got.text.startswith("ERROR ")
    got = requests.get(f"{http_base}/api/no_such_method")
    assert got.status_code == 404
    assert got.text.startswith("ERROR ")
    got = requests.get(f"{http_base}/api/find_latest_nanopubs_with_uri")
    assert got.status_code == 400
    assert "uri is required" in got.text


def test_http_target_urlsplit_refuses_is_400(http_base):
    host, port = http_base[len("http://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(b"GET http://[::1/api/x HTTP/1.0\r\n\r\n")
        conn.shutdown(socket.SHUT_WR)
        reply = b"".join(iter(lambda: conn.recv(65536), b""))
    assert reply.startswith(b"HTTP/1.0 400 ")
    assert reply.endswith(b"\r\n\r\nERROR bad-request Invalid IPv6 URL\n")


@pytest.mark.parametrize("raw", ["%D9%A3", "1_0", "%2B2", "%202", "2%20", "-1", "0x2", "", "9" * 5000])
def test_http_page_takes_ascii_digits_only(http_base, raw):
    for key in ("page", "page_size"):
        got = requests.get(f"{http_base}/api/find_latest_nanopubs_with_pattern?{key}={raw}")
        assert got.status_code == 400
        assert got.text == f"ERROR bad-parameter {key} must be an integer\n"
    got = requests.get(f"{http_base}/api/find_latest_nanopubs_with_pattern?page=3&page_size=2")
    assert got.status_code == 200
    assert len(got.text.splitlines()) == 2


def test_http_server_drops_silent_client(monkeypatch):
    monkeypatch.setattr(network, "SERVER_TIMEOUT", 0.5)
    server = ApiServer(ApiService(NanopubStore()))
    thread = server.serve_in_background()
    try:
        with socket.create_connection(server.server_address[:2], timeout=5) as conn:
            started = time.monotonic()
            assert conn.recv(65536) == b""  # closed, no reply
            assert time.monotonic() - started < 4
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
