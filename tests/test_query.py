"""Store and API lookups against a brute-force scan, as ordered lists.

Every combination of bound positions over subject, predicate, object and
graph is checked with ``latest`` true and false, whole and cut at page
ends around both edges of the answer.  A ``latest`` answer is in
``latest_key`` order; any other answer is in ingest order.
"""

import itertools
import random
import sys
import threading

import pytest

from nanokit import namespaces as ns
from nanokit import store as store_module
from nanokit.api import ApiService
from nanokit.build import mint_nanopub, placeholders
from nanokit.nanopub import Nanopublication
from nanokit.rdf import Quad, QuadPattern, iri, literal
from nanokit.store import NanopubStore, StoreError

from oracles import as_pairs, latest_key, scan_pattern, scan_uri

POSITIONS = ("subject", "predicate", "object", "graph")
ABSENT = iri("http://absent.example/term")


def _minted(label, triples, created=None):
    base = "http://test.example/np/"
    ph = placeholders(base)
    me = iri(ph.uri)
    pubinfo = [(me, iri(ns.DCT + "description"), literal(label))]
    if created is not None:
        pubinfo.append((me, iri(ns.DCT_CREATED), literal(created, datatype=ns.XSD_DATETIME)))
    provenance = [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))]
    return mint_nanopub(base, triples, provenance, pubinfo)[1]


def _special_nanopubs():
    """IRI and literal objects with one lexical value, and literals that
    differ only in datatype or language."""
    s = iri("http://test.example/data/s")
    p = iri("http://test.example/vocab/p")
    only_in_literal = "http://only-literal.example/y"
    objects = [
        iri("http://x"),
        literal("http://x"),
        literal("5"),
        literal("5", datatype=ns.XSD_INTEGER),
        literal("5", datatype=ns.XSD_DECIMAL),
        literal("5", language="en"),
        literal("5", language="de"),
        literal(only_in_literal),
    ]
    dates = ["2016-05-01T00:00:00Z", None, "2016-05-01T00:00:00Z", "2017-01-01T00:00:00Z"]
    return [
        _minted(f"special{i}", [(s, p, obj)], created=dates[i % len(dates)])
        for i, obj in enumerate(objects)
    ]


@pytest.fixture(scope="module")
def oracle_store(corpus200):
    nanopubs = list(corpus200[:80]) + _special_nanopubs()
    store = NanopubStore()
    for np in nanopubs:
        store.put(np)
    return store, nanopubs


def ordered(store, hits, ingest_order, latest):
    """Scan hits as the list the store must return."""
    if latest:
        return sorted(hits, key=lambda code: latest_key(store.get(code)))
    return [code for code in ingest_order if code in hits]


def _stops(size):
    """Page ends around both edges of an answer of ``size`` codes."""
    return sorted({0, 1, 7, max(size - 1, 0), size, size + 1}) + [None]


def _patterns(nanopubs):
    """Patterns for all 16 bound-position combinations: bound from one
    quad, from two quads of one nanopub, and with one absent term."""
    rng = random.Random(14)
    specials = nanopubs[-8:]
    quads = [rng.choice(np.quads) for np in rng.sample(nanopubs, 12)]
    quads += [np.assertion.quads[0] for np in specials]
    patterns = []
    for size in range(len(POSITIONS) + 1):
        for bound in itertools.combinations(POSITIONS, size):
            for q in quads if bound else quads[:1]:
                patterns.append({p: getattr(q, p) for p in bound})
                np = next(n for n in nanopubs if q in n.quads)
                other = rng.choice(np.quads)
                for p in bound:
                    # one position from another quad of the same nanopub
                    patterns.append({**{b: getattr(q, b) for b in bound}, p: getattr(other, p)})
                if bound:
                    patterns.append({**{b: getattr(q, b) for b in bound}, bound[-1]: ABSENT})
    # an IRI pattern never finds a literal of the same lexical value, and back
    patterns.append({"object": iri("http://x")})
    patterns.append({"object": literal("http://x")})
    patterns.append({"subject": literal("http://test.example/data/s")})
    patterns.append({"predicate": iri("http://test.example/vocab/p"), "object": literal("5")})
    return patterns


def test_every_bound_combination_equals_ordered_scan(oracle_store):
    store, nanopubs = oracle_store
    pairs = as_pairs(nanopubs)
    ingest_order = [code for code, _ in pairs]
    patterns = _patterns(nanopubs)
    assert {frozenset(p) for p in patterns} == {
        frozenset(c) for n in range(5) for c in itertools.combinations(POSITIONS, n)
    }
    found = set()  # combinations with at least one hit
    for terms in patterns:
        hits = scan_pattern(
            pairs,
            subject=terms.get("subject"),
            predicate=terms.get("predicate"),
            obj=terms.get("object"),
            graph=terms.get("graph"),
        )
        if hits:
            found.add(frozenset(terms))
        pattern = QuadPattern(**terms)
        for latest in (True, False):
            expected = ordered(store, hits, ingest_order, latest)
            assert store.find_by_pattern(pattern, latest=latest) == expected, (terms, latest)
            for stop in _stops(len(expected)):
                got = store.find_by_pattern(pattern, latest=latest, stop=stop)
                assert got == expected[:stop], (terms, latest, stop)
    assert len(found) == 16


def test_literal_and_iri_of_one_value_are_distinct(oracle_store):
    store, nanopubs = oracle_store
    codes = [np.uri[-45:] for np in nanopubs[-8:]]
    p = iri("http://test.example/vocab/p")
    for i, obj in enumerate(np.assertion.quads[0].object for np in nanopubs[-8:]):
        for latest in (True, False):
            assert store.find_by_pattern(QuadPattern(object=obj), latest=latest) == [codes[i]]
            assert store.find_by_pattern(QuadPattern(predicate=p, object=obj), latest=latest) == [
                codes[i]
            ]


def test_find_by_uri_equals_ordered_scan(oracle_store):
    store, nanopubs = oracle_store
    pairs = as_pairs(nanopubs)
    ingest_order = [code for code, _ in pairs]
    uris = sorted(
        {
            term.value
            for np in nanopubs[::7]
            for q in np.quads
            for term in (q.subject, q.predicate, q.object, q.graph)
            if term.is_iri
        }
    )
    uris += [
        "http://x",  # an IRI object in one nanopub, a literal in another
        "http://only-literal.example/y",  # only ever a literal
        ns.XSD_INTEGER,  # only ever a datatype
        ABSENT.value,
        "not an iri",
    ]
    for uri in uris:
        hits = scan_uri(pairs, uri)
        for latest in (True, False):
            expected = ordered(store, hits, ingest_order, latest)
            assert store.find_by_uri(uri, latest=latest) == expected, (uri, latest)
            for stop in _stops(len(expected)):
                got = store.find_by_uri(uri, latest=latest, stop=stop)
                assert got == expected[:stop], (uri, latest, stop)
    assert store.find_by_uri("http://x") == [nanopubs[-8].uri[-45:]]
    assert store.find_by_uri("http://only-literal.example/y") == []


def _recency_nanopubs():
    """Label -> nanopub, one for each case of the recency rule; every one
    holds the same assertion triple."""
    base = "http://test.example/np/"
    triple = (iri("http://test.example/data/r"), iri("http://test.example/vocab/r"), literal("r"))
    cases = {
        "createdOn-only": [(ns.PAV_CREATED_ON, "2015-01-01T00:00:00Z")],
        "bad-created-then-createdOn": [
            (ns.DCT_CREATED, "yesterday"),
            (ns.PAV_CREATED_ON, "2018-01-01T00:00:00Z"),
        ],
        "created-over-createdOn": [
            (ns.PAV_CREATED_ON, "2019-01-01T00:00:00Z"),
            (ns.DCT_CREATED, "2014-01-01T00:00:00Z"),
        ],
        "plus-two-hours": [(ns.DCT_CREATED, "2016-06-01T12:00:00+02:00")],
        "zulu": [(ns.DCT_CREATED, "2016-06-01T10:00:00Z")],
        "a-second-later": [(ns.DCT_CREATED, "2016-06-01T10:00:01Z")],
        "naive": [(ns.DCT_CREATED, "2016-06-01T10:00:00")],
        "undated": [],
    }
    nanopubs = {}
    for label, stamps in cases.items():
        ph = placeholders(base)
        me = iri(ph.uri)
        pubinfo = [(me, iri(ns.DCT + "description"), literal(label))]
        pubinfo += [(me, iri(p), literal(v, datatype=ns.XSD_DATETIME)) for p, v in stamps]
        provenance = [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))]
        nanopubs[label] = mint_nanopub(base, [triple], provenance, pubinfo)[1]
    return nanopubs


def test_latest_order_follows_the_recency_rule():
    nanopubs = _recency_nanopubs()
    store = NanopubStore()
    for np in nanopubs.values():
        store.put(np)
    code = {label: np.uri[-45:] for label, np in nanopubs.items()}
    # the three 2016 stamps are one instant, so their ties go by code
    same_instant = sorted(code[label] for label in ("plus-two-hours", "zulu", "naive"))
    expected = [
        code["bad-created-then-createdOn"],  # 2018, from pav:createdOn
        code["a-second-later"],  # after the same instant, whatever its offset
        *same_instant,
        code["createdOn-only"],  # 2015
        code["created-over-createdOn"],  # 2014, dct:created wins over 2019
        code["undated"],
    ]
    assert sorted(code.values(), key=lambda c: latest_key(store.get(c))) == expected
    pattern = QuadPattern(predicate=iri("http://test.example/vocab/r"))
    assert store.find_by_pattern(pattern) == expected
    assert store.find_by_uri("http://test.example/data/r") == expected
    for stop in range(len(expected) + 1):
        assert store.find_by_pattern(pattern, stop=stop) == expected[:stop]


def _all_pages(fn, page_size, **kwargs):
    collected, page = [], 1
    while True:
        chunk = fn(page=page, page_size=page_size, **kwargs)
        collected.extend(chunk)
        if len(chunk) < page_size:
            return collected
        page += 1


def test_api_pages_concatenate_to_ordered_scan(oracle_store):
    store, nanopubs = oracle_store
    service = ApiService(store)
    pairs = as_pairs(nanopubs)
    ingest_order = [code for code, _ in pairs]
    for terms in _patterns(nanopubs)[::5]:
        if "graph" in terms:
            continue  # the API binds subject, predicate and object only
        hits = scan_pattern(
            pairs, subject=terms.get("subject"), predicate=terms.get("predicate"), obj=terms.get("object")
        )
        kwargs = {"subj": terms.get("subject"), "pred": terms.get("predicate"), "obj": terms.get("object")}
        for page_size in (1, 7, 1000):
            assert _all_pages(
                service.find_latest_nanopubs_with_pattern, page_size, **kwargs
            ) == ordered(store, hits, ingest_order, True)
            assert _all_pages(service.find_nanopubs_with_pattern, page_size, **kwargs) == ordered(
                store, hits, ingest_order, False
            )
    for uri in ("http://x", ns.DCT_LICENSE, nanopubs[3].uri, "http://only-literal.example/y"):
        hits = scan_uri(pairs, uri)
        for page_size in (1, 7, 1000):
            assert _all_pages(service.find_latest_nanopubs_with_uri, page_size, uri=uri) == ordered(
                store, hits, ingest_order, True
            )
            assert _all_pages(service.find_nanopubs_with_uri, page_size, uri=uri) == ordered(
                store, hits, ingest_order, False
            )


def test_reopened_store_answers_its_first_query_as_the_ordered_scan(oracle_store, tmp_path):
    _, nanopubs = oracle_store
    directory = tmp_path / "store"
    NanopubStore(directory).put_all(nanopubs)
    pairs = as_pairs(nanopubs)
    ingest_order = [code for code, _ in pairs]
    p, five = iri("http://test.example/vocab/p"), literal("5")
    hits = scan_pattern(pairs, predicate=p, obj=five)
    for latest in (True, False):
        store = NanopubStore(directory)
        expected = ordered(store, hits, ingest_order, latest)
        assert expected
        assert store.find_by_pattern(QuadPattern(predicate=p, object=five), latest=latest) == expected
        store = NanopubStore(directory)
        expected = ordered(store, scan_uri(pairs, ns.DCT_LICENSE), ingest_order, latest)
        assert store.find_by_uri(ns.DCT_LICENSE, latest=latest) == expected
        store = NanopubStore(directory)
        assert store.find_by_pattern(QuadPattern(), latest=latest) == ordered(
            store, set(ingest_order), ingest_order, latest
        )


def test_rejected_batch_leaves_no_position_a_query_returns(corpus200):
    store = NanopubStore()
    store.put_all(corpus200[:10])
    assert store.find_by_pattern(QuadPattern())  # caught up before the batch
    good = corpus200[10]
    first = corpus200[11].assertion.quads[0]
    evil = iri("http://evil.example/x")
    tampered = Nanopublication(
        corpus200[11].uri,
        (Quad(first.subject, first.predicate, evil, first.graph) if q == first else q
         for q in corpus200[11].quads),
    )
    with pytest.raises(StoreError, match="verification failed"):
        store.put_all([good, tampered])
    stored = [np.uri[-45:] for np in corpus200[:10]]
    for latest in (True, False):
        assert sorted(store.find_by_pattern(QuadPattern(), latest=latest)) == sorted(stored)
        assert store.find_by_uri(good.uri, latest=latest) == []
        assert store.find_by_uri(evil.value, latest=latest) == []
        assert store.find_by_pattern(QuadPattern(object=evil), latest=latest) == []
    assert store.codes() == stored


# -- cost, counted in calls ------------------------------------------------------


def test_exact_patterns_never_confirm_against_quads(oracle_store, monkeypatch):
    store, nanopubs = oracle_store
    calls = []
    matches = QuadPattern.matches
    monkeypatch.setattr(QuadPattern, "matches", lambda self, q: calls.append(q) or matches(self, q))
    license_quad = next(q for q in nanopubs[0].pubinfo.quads if q.predicate.value == ns.DCT_LICENSE)
    exact = [QuadPattern(predicate=license_quad.predicate, object=license_quad.object)]
    for q in (license_quad, nanopubs[1].assertion.quads[0], nanopubs[-3].assertion.quads[0]):
        exact += [QuadPattern(**{p: getattr(q, p)}) for p in POSITIONS]
    for pattern in exact:
        for latest in (True, False):
            assert store.find_by_pattern(pattern, latest=latest)
    assert calls == []
    # a three-position pattern does confirm, so the counter sees the calls
    q = license_quad
    store.find_by_pattern(QuadPattern(subject=q.subject, predicate=q.predicate, object=q.object))
    assert calls


class Probed(list):
    """The latest order, counting the positions a lookup reads."""

    probes = 0

    def __iter__(self):
        for pos in super().__iter__():
            self.probes += 1
            yield pos

    def __getitem__(self, index):
        got = super().__getitem__(index)
        self.probes += len(got) if isinstance(index, slice) else 1
        return got


def test_ingest_order_needs_no_sort_and_latest_sorts_only_the_hits(corpus200, monkeypatch):
    store = NanopubStore()
    for np in corpus200[:60]:
        store.put(np)
    store.find_by_pattern(QuadPattern())  # the catch-up, before the probes go in
    sorted_sizes = []
    monkeypatch.setattr(
        store_module,
        "sorted",
        lambda codes, **k: sorted_sizes.append(len(codes)) or sorted(codes, **k),
        raising=False,
    )
    license_iri = next(
        q.object for q in corpus200[0].pubinfo.quads if q.predicate.value == ns.DCT_LICENSE
    )
    queries = [
        lambda latest, stop=None: store.find_by_pattern(QuadPattern(), latest=latest, stop=stop),
        lambda latest, stop=None: store.find_by_pattern(
            QuadPattern(predicate=iri(ns.RDF_TYPE)), latest=latest, stop=stop
        ),
        lambda latest, stop=None: store.find_by_pattern(
            QuadPattern(predicate=iri(ns.DCT_LICENSE), object=license_iri), latest=latest, stop=stop
        ),
        # one position
        lambda latest, stop=None: store.find_by_uri(license_iri.value, latest=latest, stop=stop),
    ]

    store._latest = Probed(store._latest)
    n, stop = len(store), 5
    for query in queries:
        sorted_sizes.clear()
        first = query(False)
        assert sorted_sizes == []
        expected = list(first)
        first.clear()  # a fresh list: the posting is untouched
        assert query(False) == expected
        latest = query(True)
        assert sorted(latest) == sorted(expected)
        # a latest page walks the latest order and stops at the page end
        sorted_sizes.clear()
        store._latest.probes = 0
        assert query(True, stop) == latest[:stop]
        assert sorted_sizes == []
        assert 0 < store._latest.probes <= 2 * stop * n / len(expected)


def test_latest_walk_gives_up_on_hits_late_in_the_order(corpus200, monkeypatch):
    # undated nanopubs come last in latest order; their hits are dense
    # enough to walk, but an even spread would have filled the page early
    loop = iri("http://test.example/data/loop")
    undated = [_minted(f"undated{i}", [(loop, loop, loop)]) for i in range(30)]
    dated = [np for np in corpus200 if store_module._created_of(np) is not None][:150]
    store = NanopubStore()
    for np in [*dated, *undated]:
        store.put(np)
    store.find_by_pattern(QuadPattern())  # the catch-up, before the probes go in
    store._latest = Probed(store._latest)
    sorted_sizes = []
    monkeypatch.setattr(
        store_module,
        "sorted",
        lambda codes, **k: sorted_sizes.append(len(codes)) or sorted(codes, **k),
        raising=False,
    )
    pairs = as_pairs([*dated, *undated])
    ingest_order = [code for code, _ in pairs]
    expected = ordered(store, scan_uri(pairs, loop.value), ingest_order, True)
    assert sorted(expected) == sorted(store.codes()[150:])
    n, h = len(store), len(expected)
    queries = [
        # one posting of h positions
        (lambda stop: store.find_by_pattern(QuadPattern(predicate=loop), stop=stop), h, 5),
        # a union that counts each of its h positions three times, with a
        # page end past h: the walk can never fill the page
        (lambda stop: store.find_by_uri(loop.value, stop=stop), 3 * h, 40),
    ]
    for query, total, stop in queries:
        want = min(stop, total)
        assert total * total >= want * n  # dense: the walk is tried
        sorted_sizes.clear()
        store._latest.probes = 0
        assert query(stop) == expected[:stop]
        assert sorted_sizes == [h]
        assert store._latest.probes <= 2 * want * n / total < n
        assert query(None) == expected


# -- concurrency -------------------------------------------------------------------


def test_lookups_while_another_thread_puts(corpus200):
    license_iri = next(
        q.object for q in corpus200[0].pubinfo.quads if q.predicate.value == ns.DCT_LICENSE
    )
    patterns = [
        QuadPattern(),
        QuadPattern(predicate=iri(ns.RDF_TYPE)),
        QuadPattern(predicate=iri(ns.DCT_LICENSE), object=license_iri),
        QuadPattern(object=license_iri),
        QuadPattern(subject=iri(corpus200[0].uri), predicate=iri(ns.DCT_LICENSE)),
    ]
    uris = [license_iri.value, corpus200[3].uri, corpus200[150].assertion.iri, ns.RDF_TYPE]
    errors = []

    def lookups():
        for pattern in patterns:
            for latest in (True, False):
                yield store.find_by_pattern(pattern, latest=latest)
        for uri in uris:
            for latest in (False, True):
                yield store.find_by_uri(uri, latest=latest)

    def latest_pages():
        for stop in (1, 10):
            for pattern in patterns:
                yield store.find_by_pattern(pattern, stop=stop)
            for uri in uris:
                yield store.find_by_uri(uri, stop=stop)

    def read():
        try:
            while not done.is_set():
                for codes in itertools.chain(lookups(), latest_pages()):
                    assert all(store.get(code) is not None for code in codes)
                    # a put that inserts ahead of a walk must not repeat a code
                    assert len(set(codes)) == len(codes)
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    def write():
        try:
            for np in corpus200:
                store.put(np)
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    # a walk that a put shifts shows in most rounds, so three rarely all miss it
    for _ in range(3):
        store, done = NanopubStore(), threading.Event()
        threads = [threading.Thread(target=read) for _ in range(2)]
        threads.append(threading.Thread(target=write))
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
    pairs = as_pairs(corpus200)
    ingest_order = [code for code, _ in pairs]
    expected = []
    for pattern in patterns:
        hits = scan_pattern(pairs, pattern.subject, pattern.predicate, pattern.object)
        expected += [ordered(store, hits, ingest_order, latest) for latest in (True, False)]
    for uri in uris:
        hits = scan_uri(pairs, uri)
        expected += [ordered(store, hits, ingest_order, latest) for latest in (False, True)]
    assert list(lookups()) == expected
    assert all(expected)
    latest = [
        ordered(store, scan_pattern(pairs, p.subject, p.predicate, p.object), ingest_order, True)
        for p in patterns
    ]
    latest += [ordered(store, scan_uri(pairs, uri), ingest_order, True) for uri in uris]
    assert list(latest_pages()) == [codes[:stop] for stop in (1, 10) for codes in latest]


def test_first_query_races_a_thread_that_keeps_putting(corpus200):
    license_iri = next(
        q.object for q in corpus200[0].pubinfo.quads if q.predicate.value == ns.DCT_LICENSE
    )
    queries = [
        lambda latest: store.find_by_pattern(QuadPattern(), latest=latest),
        lambda latest: store.find_by_pattern(QuadPattern(predicate=iri(ns.RDF_TYPE)), latest=latest),
        lambda latest: store.find_by_uri(license_iri.value, latest=latest, stop=10),
    ]
    errors, answers = [], []

    def read():
        try:
            while True:  # at least one round, the first query included
                finished = done.is_set()
                answers.extend(query(latest) for query in queries for latest in (True, False))
                if finished:
                    return
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    def write():
        try:
            for np in corpus200[100:]:
                store.put(np)
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    store, done = NanopubStore(), threading.Event()
    store.put_all(corpus200[:100])  # stored, not yet indexed
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
    assert answers and all(answers)
    for codes in answers:
        assert len(set(codes)) == len(codes)
        assert all(store.get(code) is not None for code in codes)
    pairs = as_pairs(corpus200)
    ingest_order = [code for code, _ in pairs]
    for latest in (True, False):
        assert store.find_by_pattern(QuadPattern(), latest=latest) == ordered(
            store, set(ingest_order), ingest_order, latest
        )
        assert store.find_by_uri(license_iri.value, latest=latest) == ordered(
            store, scan_uri(pairs, license_iri.value), ingest_order, latest
        )
