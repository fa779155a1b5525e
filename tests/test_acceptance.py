"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its runtime budget (run with ``pytest -v -s``)."""

import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from nanokit import namespaces as ns
from nanokit.analysis import DEFAULT_TOOL_URIS, analyze
from nanokit.api import ApiService
from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.index import IndexMetadata, build_incremental, build_index, expand
from nanokit.nanopub import RULE_IDS, validate
from nanokit.network import PublishEvent, SimConfig, Simulation, client_retrieve
from nanokit.rdf import Quad, QuadDocument, iri, literal, parse_trig
from nanokit.store import NanopubStore, candidate_uris
from nanokit.trusty import compute_code, verify

from conftest import FIXTURES
from oracle_trusty import oracle_strip_trusty as strip_trusty
from oracles import (
    graph_names,
    recount_creators,
    recount_licenses,
    recount_namespace_cell,
    recount_totals,
    recount_types,
    scan_pattern,
    scan_uri,
    synthetic_trusty_uris,
)


@contextmanager
def budget(name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"{name}: {elapsed:.1f}s exceeded the {limit_s:.0f}s budget"
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s < {limit_s:.0f}s)")


# -- shared heavy fixtures ------------------------------------------------------


@pytest.fixture(scope="module")
def corpus10k():
    return generate_corpus(CorpusConfig(count=10_000, seed=0))


@pytest.fixture(scope="module")
def store10k(corpus10k):
    store = NanopubStore()
    for np in corpus10k:
        store.put(np)
    # three indexes over corpus slices, queryable via get_index_elements
    codes = store.codes()
    uris = ["http://example.org/np/" + code for code in codes]
    chain = build_index(
        uris[:2500],
        metadata=IndexMetadata(title="First 2500", created="2018-01-01T00:00:00Z"),
    )
    solo = build_index(
        uris[2500:3000],
        metadata=IndexMetadata(title="Next 500", created="2018-02-01T00:00:00Z"),
    )
    union = build_index(
        [],
        sub_indexes=[chain[-1].uri, solo[-1].uri],
        metadata=IndexMetadata(title="Union 3000", created="2018-03-01T00:00:00Z"),
    )
    index_heads = []
    for records in (chain, solo, union):
        for record in records:
            store.put(record.nanopub)
        index_heads.append(records[-1].uri)
    return store, index_heads


def test_criterion_1_format_validation_suite():
    with budget("1 format/validation fixtures", 1.0):
        valid_files = sorted((FIXTURES / "valid").glob("*.trig"))
        invalid_files = sorted((FIXTURES / "invalid").glob("*.trig"))
        assert len(valid_files) >= 20
        assert len(invalid_files) >= 15
        for path in valid_files:
            doc = parse_trig(path.read_text(encoding="utf-8"))
            uri = candidate_uris(doc)[0]
            assert validate(doc, uri).valid, path.name
        covered = set()
        for path in invalid_files:
            doc = parse_trig(path.read_text(encoding="utf-8"))
            uri = candidate_uris(doc)[0]
            report = validate(doc, uri)
            assert not report.valid, path.name
            target = path.name.rsplit("-", 1)[0]
            assert target in report.rule_ids(), path.name
            covered.add(target)
        assert covered == set(RULE_IDS)


def _mutations(doc: QuadDocument):
    foreign = iri("http://mutant.example/x")
    quads = list(doc.quads)
    for i, q in enumerate(quads):
        yield QuadDocument(quads[:i] + quads[i + 1 :])  # delete
        for position in range(4):
            parts = [q.subject, q.predicate, q.object, q.graph]
            parts[position] = foreign
            yield QuadDocument(quads[:i] + [Quad(*parts)] + quads[i + 1 :])
    for graph in graph_names(doc):
        yield QuadDocument(quads + [Quad(foreign, foreign, literal("planted"), iri(graph))])


def test_criterion_2_tamper_suite():
    with budget("2 trusty tamper suite", 30.0):
        fixtures = generate_corpus(CorpusConfig(count=50, seed=2))
        base = "http://example.org/np/"
        mutants = 0
        for np in fixtures:
            doc = np.to_document()
            assert verify(doc, np.uri)
            for mutant in _mutations(doc):
                assert not verify(mutant, np.uri)
                mutants += 1
        assert mutants > 50 * 40  # exhaustive per fixture

        # mint determinism across 3 runs
        for np in fixtures[:10]:
            stripped = strip_trusty(np.to_document(), base)
            codes = {compute_code(stripped, base) for _ in range(3)}
            assert codes == {np.uri[-45:]}


def test_criterion_3_index_arithmetic():
    with budget("3 index arithmetic", 60.0):
        small_elements = synthetic_trusty_uris(2033, label="openbel-small")
        large_elements = synthetic_trusty_uris(48674, label="openbel-large")
        small = build_index(
            small_elements,
            metadata=IndexMetadata(title="Small corpus 1.0", created="2015-03-02T00:00:00Z"),
        )
        large = build_index(
            large_elements,
            metadata=IndexMetadata(title="Large corpus 1.0", created="2015-03-02T01:00:00Z"),
        )
        union = build_index(
            [],
            sub_indexes=[small[-1].uri, large[-1].uri],
            metadata=IndexMetadata(
                title="Small and large corpus 1.0", created="2015-03-04T00:00:00Z"
            ),
        )
        by_uri = {r.uri: r for records in (small, large, union) for r in records}
        members = expand(union[-1], lambda uri: by_uri[uri])
        assert len(members) == 50_707
        assert members == set(small_elements) | set(large_elements)

        # growth 940_034 -> 1_018_735 modeled at 1/1000 scale
        v2_elements = synthetic_trusty_uris(940, label="gda")
        v2 = build_index(
            v2_elements, metadata=IndexMetadata(title="GDA v2.1", created="2015-03-04T00:00:00Z")
        )
        added = synthetic_trusty_uris(79, label="gda-v3")
        resolver_map = {r.uri: r for r in v2}
        v3 = build_incremental(
            v2[-1],
            added=added,
            removed=set(),
            metadata=IndexMetadata(title="GDA v3.0", created="2015-11-15T00:00:00Z"),
            resolver=lambda uri: resolver_map[uri],
        )
        for r in v3:
            resolver_map[r.uri] = r
        resolve = lambda uri: resolver_map[uri]
        assert len(expand(v2[-1], resolve)) == 940
        assert len(expand(v3[-1], resolve)) == 1019
        # set-algebra oracle, exact
        assert expand(v3[-1], resolve) == (set(v2_elements) | set(added))


def test_criterion_4_network_simulation():
    with budget("4 network simulation", 120.0):
        nanopubs = generate_corpus(CorpusConfig(count=1000, seed=0))
        failed = (1, 3, 5, 7, 9, 11, 13)  # 7 of 15 nodes crash at round 6
        config = SimConfig(
            node_count=15,
            topology="complete",
            rounds=10,
            seed=0,
            failures=tuple((idx, 6, 99) for idx in failed),
        )
        # publishes over rounds 0..4 round-robin, one late batch in round 7
        workload = [
            PublishEvent(i % 5 if i < 900 else 7, i % 15, np)
            for i, np in enumerate(nanopubs)
        ]

        sim = Simulation(config)
        report = sim.run(workload)
        live = sim.live_nodes()
        assert len(live) == 8
        assert report.converged

        # exhaustive retrievability: succeeds iff some live node holds it
        for code in report.published:
            holders = [node for node in live if node.store.get(code) is not None]
            assert holders, code
            got = client_retrieve(code, live)
            assert got.uri.endswith(code)
        unseen = synthetic_trusty_uris(1, label="never-published")[0][-45:]
        with pytest.raises(KeyError):
            client_retrieve(unseen, live)

        # identical seed => byte-identical report across 3 runs
        texts = {Simulation(config).run(workload).to_text() for _ in range(3)}
        assert texts == {report.to_text()}


def _index_elements_oracle(store: NanopubStore, head_uri: str) -> list[str]:
    # chain walk over raw quads, not through the index module
    elements: list[str] = []
    current = head_uri
    while current is not None:
        np = store.get_by_uri(current)
        nxt = None
        for q in np.assertion.quads:
            if q.subject.value != current or not q.object.is_iri:
                continue
            if q.predicate.value == ns.NPX_INCLUDES_ELEMENT:
                elements.append(q.object.value)
            elif q.predicate.value == ns.NPX_APPENDS_INDEX:
                nxt = q.object.value
        current = nxt
    return elements


def test_criterion_5_api_oracle_equivalence(store10k, corpus10k):
    with budget("5 API oracle equivalence", 120.0):
        store, index_heads = store10k
        service = ApiService(store)
        pairs = [(code, store.get(code).to_document().quads) for code in store.codes()]
        all_nanopubs = [store.get(code) for code in store.codes()]

        rng = random.Random(505)

        def collect_all(fn, **kwargs):
            collected, page = [], 1
            while True:
                chunk = fn(page=page, page_size=10000, **kwargs)
                collected.extend(chunk)
                if len(chunk) < 10000:
                    return collected
                page += 1

        def check_pages(fn, expected_list, **kwargs):
            # page size chosen to cover the result in 2-5 pages
            page_size = max(1, len(expected_list) // rng.randint(2, 5) + 1)
            collected, page = [], 1
            while True:
                chunk = fn(page=page, page_size=page_size, **kwargs)
                collected.extend(chunk)
                if len(chunk) < page_size:
                    break
                page += 1
            assert collected == expected_list  # partition law: disjoint, complete
            assert len(set(collected)) == len(collected)

        for query in range(200):
            kind = query % 5
            if kind in (0, 1):
                np = rng.choice(all_nanopubs)
                q = rng.choice(np.to_document().quads)
                subj = q.subject if rng.random() < 0.5 else None
                pred = q.predicate if rng.random() < 0.7 else None
                obj = q.object if rng.random() < 0.5 else None
                expected = scan_pattern(pairs, subject=subj, predicate=pred, obj=obj)
                latest = collect_all(
                    service.find_latest_nanopubs_with_pattern, subj=subj, pred=pred, obj=obj
                )
                loose = collect_all(
                    service.find_nanopubs_with_pattern, subj=subj, pred=pred, obj=obj
                )
                assert set(latest) == set(loose) == expected
                check_pages(
                    service.find_latest_nanopubs_with_pattern,
                    latest,
                    subj=subj,
                    pred=pred,
                    obj=obj,
                )
            elif kind in (2, 3):
                if rng.random() < 0.1:
                    uri = "http://nowhere.example/" + str(query)
                else:
                    np = rng.choice(all_nanopubs)
                    q = rng.choice(np.to_document().quads)
                    terms = [t for t in (q.subject, q.predicate, q.object, q.graph) if t.is_iri]
                    uri = rng.choice(terms).value
                expected = scan_uri(pairs, uri)
                latest = collect_all(service.find_latest_nanopubs_with_uri, uri=uri)
                loose = collect_all(service.find_nanopubs_with_uri, uri=uri)
                assert set(latest) == set(loose) == expected
                check_pages(service.find_latest_nanopubs_with_uri, latest, uri=uri)
            else:
                head = rng.choice(index_heads)
                expected_elements = _index_elements_oracle(store, head)
                got = collect_all(service.get_index_elements, index_uri=head)
                assert got == expected_elements
                check_pages(service.get_index_elements, got, index_uri=head)


def test_criterion_6_analysis_oracle_equivalence(corpus10k):
    with budget("6 analysis oracle equivalence", 60.0):
        corpus = corpus10k
        report = analyze(corpus, k=10)

        totals = report.totals
        recount = recount_totals(corpus)
        assert totals.nanopub_count == recount["nanopub_count"] == 10_000
        assert totals.head_triples == recount["head"]
        assert totals.assertion_triples == recount["assertion"]
        assert totals.provenance_triples == recount["provenance"]
        assert totals.pubinfo_triples == recount["pubinfo"]
        assert totals.total_triples == recount["total"]
        assert totals.mean_triples == recount["total"] / 10_000

        creators = report.creators
        creator_recount = recount_creators(corpus, DEFAULT_TOOL_URIS)
        for row in creators.rows:
            want = creator_recount.get(row.identifier_type, {"total": 0, "unique": 0})
            assert (row.total, row.unique) == (want["total"], want["unique"])
        assert creators.total == sum(v["total"] for v in creator_recount.values())

        licenses = report.licenses
        license_counts, unspecified = recount_licenses(corpus)
        assert dict(licenses.rows) == dict(license_counts)
        assert licenses.unspecified == unspecified

        table = report.namespaces
        for graph in ("head", "assertion", "provenance", "pubinfo"):
            for position in ("subject", "predicate", "object"):
                counter = recount_namespace_cell(corpus, graph, position)
                expected = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
                cell = table.cells[(graph, position)]
                assert [(nsv, count) for nsv, count, _ in cell] == expected
                for nsv, count, pct in cell:
                    assert pct == 100.0 * count / 10_000  # exact ratio

        types = report.types
        type_recount = recount_types(corpus)
        assert dict(types.rows) == dict(type_recount)
        assert types.total == sum(type_recount.values())
        assert types.unique == len(type_recount)


# published figures for the full historical dataset; exact when a dump is given
FULL_DATASET = {
    "nanopub_count": 10_803_231,
    "total_triples": 378_654_287,
    "assertion_triples": 61_184_484,
    "provenance_triples": 122_229_003,
    "pubinfo_triples": 136_738_995,
    "creator_total": 47_579_235,
    "creator_unique": 41,
    "orcid_total": 40_964_679,
    "orcid_unique": 26,
    "license_cc_by_3": 5_539_268,
    "license_odbl": 4_843_212,
    "license_cc0": 6_240,
    "license_unspecified": 14_801,
    "type_assignments": 50_384_007,
    "type_unique": 14_941,
    "top_type_count": 8_828_067,
}


# the FULL_DATASET figures that criterion 7 checks, besides the two means
GATE_FIGURES = (
    "nanopub_count",
    "total_triples",
    "assertion_triples",
    "provenance_triples",
    "pubinfo_triples",
    "creator_total",
    "creator_unique",
    "type_assignments",
    "type_unique",
    "top_type_count",
)


def _gate_figures(report: dict) -> dict:
    """The criterion-7 figures of an analyze ``report.json``."""
    totals, creators, types = report["totals"], report["creators"], report["types"]
    return {
        **{k: totals[k] for k in GATE_FIGURES if k in totals},
        "mean_triples": round(totals["mean_triples"], 1),
        "mean_provenance_triples": round(totals["mean_provenance_triples"], 1),
        "creator_total": creators["total"],
        "creator_unique": creators["unique"],
        "type_assignments": types["total"],
        "type_unique": types["unique"],
        "top_type_count": types["rows"][0][1],
    }


def test_criterion_7_full_dataset_gate(tmp_path):
    """Desk-scale acceptance rests on criteria 1-6: the full-dataset totals
    need the multi-gigabyte dump.  With NANOPUB_DUMP set, ``nanokit
    analyze`` runs on it and must match the published figures exactly;
    without it, the same path runs on a stand-in dump and must match the
    oracle recount."""
    from nanokit.cli import main
    from nanokit.rdf import serialize_trig

    with budget("7 full-dataset analyze gate", 60.0):
        dump = os.environ.get("NANOPUB_DUMP")
        if dump:
            expected = {k: FULL_DATASET[k] for k in GATE_FIGURES}
            expected.update(mean_triples=35.1, mean_provenance_triples=11.3)
        else:
            # the dump-shaped entry point: one concatenated corpus file
            corpus = generate_corpus(CorpusConfig(count=50, seed=77))
            dump = tmp_path / "dump.trig"
            dump.write_text(
                "".join(serialize_trig(np.to_document()) for np in corpus),
                encoding="utf-8",
            )
            totals = recount_totals(corpus)
            creators = recount_creators(corpus, DEFAULT_TOOL_URIS).values()
            types = recount_types(corpus)
            n = totals["nanopub_count"]
            expected = {
                "nanopub_count": n,
                "total_triples": totals["total"],
                "assertion_triples": totals["assertion"],
                "provenance_triples": totals["provenance"],
                "pubinfo_triples": totals["pubinfo"],
                "mean_triples": round(totals["total"] / n, 1),
                "mean_provenance_triples": round(totals["provenance"] / n, 1),
                "creator_total": sum(c["total"] for c in creators),
                "creator_unique": sum(c["unique"] for c in creators),
                "type_assignments": sum(types.values()),
                "type_unique": len(types),
                "top_type_count": max(types.values()),
            }
            print(
                "\n(criterion 7: NANOPUB_DUMP not set; analyze gate exercised on a "
                "stand-in dump, full-corpus totals left to criteria 1-6)"
            )
        out = tmp_path / "reports"
        assert main(["analyze", str(dump), "--out", str(out)]) == 0
        for name in ("totals.tsv", "creators.tsv", "licenses.tsv", "namespaces.tsv", "types.tsv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert _gate_figures(report) == expected
