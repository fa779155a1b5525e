import pytest

from nanokit import namespaces as ns
from nanokit.analysis import (
    DEFAULT_TOOL_URIS,
    analyze,
    classify_creator,
    load_corpus,
    namespace_of,
    write_reports,
)
from nanokit.build import mint_nanopub, placeholders
from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.rdf import iri, literal

from oracles import (
    rank_counts,
    recount_creators,
    recount_licenses,
    recount_namespace_cell,
    recount_totals,
    recount_types,
)


def minimal_np(label, creators=(), license_iri=None, types=(), assertion_extra=0):
    base = "http://ana.example/np/"
    ph = placeholders(base)
    me = iri(ph.uri)
    assertion = [
        (iri(f"http://ana.example/data/{label}"), iri(ns.RDF_TYPE), iri(type_iri))
        for type_iri in (types or ["http://ana.example/Thing"])
    ]
    for i in range(assertion_extra):
        assertion.append(
            (iri(f"http://ana.example/data/{label}"), iri(f"http://ana.example/p{i}"), literal(str(i)))
        )
    provenance = [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))]
    pubinfo = [(me, iri(ns.DCT + "description"), literal(label))]
    for creator in creators:
        pubinfo.append((me, iri(ns.DCT_CREATOR), creator))
    if license_iri:
        pubinfo.append((me, iri(ns.DCT_LICENSE), iri(license_iri)))
    _, np = mint_nanopub(base, assertion, provenance, pubinfo)
    return np


@pytest.fixture(scope="module")
def corpus1k():
    return generate_corpus(CorpusConfig(count=1000, seed=23))


@pytest.fixture(scope="module")
def report1k(corpus1k):
    return analyze(corpus1k)


def test_totals_single_minimal_nanopub():
    np = minimal_np("solo")
    report = analyze([np]).totals
    assert report.nanopub_count == 1
    assert report.head_triples == 4
    assert report.total_triples == sum(len(p.quads) for p in np.parts())
    assert report.mean_triples == report.total_triples / 1


def test_totals_empty_corpus_flags_undefined_means():
    report = analyze([]).totals
    assert report.nanopub_count == 0
    assert report.total_triples == 0
    assert report.mean_triples is None
    assert report.mean_provenance_triples is None


def test_totals_match_recount(corpus1k, report1k):
    report = report1k.totals
    recount = recount_totals(corpus1k)
    assert report.nanopub_count == recount["nanopub_count"]
    assert report.head_triples == recount["head"]
    assert report.assertion_triples == recount["assertion"]
    assert report.provenance_triples == recount["provenance"]
    assert report.pubinfo_triples == recount["pubinfo"]
    assert report.total_triples == recount["total"]


def test_classify_creator_partition():
    cases = {
        literal("CALIPHO project"): "Literal string",
        iri("http://orcid.org/0000-0002-1784-2920"): "ORCID",
        iri("https://doi.org/10.5281/zenodo.1212599"): "Tool URI",
        iri("https://scholar.google.it/citations?user=9aI21r8"): "Google Scholar URI",
        iri("http://www.researcherid.com/rid/B-6035-2012"): "ResearcherID",
        iri("http://sorry.example/~user"): "Other URI",
    }
    for term, expected in cases.items():
        assert classify_creator(term) == expected


def test_creator_stats_three_mentions_one_unique():
    orcid = iri("http://orcid.org/0000-0001-2345-6789")
    corpus = [minimal_np(f"c{i}", creators=[orcid]) for i in range(3)]
    report = analyze(corpus).creators
    by_type = {row.identifier_type: row for row in report.rows}
    assert by_type["ORCID"].total == 3
    assert by_type["ORCID"].unique == 1
    assert by_type["ORCID"].example == orcid.value
    assert report.total == 3
    assert report.unique == 1


def test_creator_stats_rows_sum_to_total(report1k):
    report = report1k.creators
    assert sum(row.total for row in report.rows) == report.total
    assert all(row.unique <= row.total for row in report.rows if row.total)


def test_creator_stats_match_recount(corpus1k, report1k):
    report = report1k.creators
    recount = recount_creators(corpus1k, DEFAULT_TOOL_URIS)
    for row in report.rows:
        want = recount.get(row.identifier_type, {"total": 0, "unique": 0})
        assert (row.total, row.unique) == (want["total"], want["unique"]), row.identifier_type


def test_creator_scan_is_pubinfo_only():
    # an ORCID sitting in the assertion graph must not count
    orcid = iri("http://orcid.org/0000-0009-9999-0000")
    base = "http://ana.example/np/"
    ph = placeholders(base)
    me = iri(ph.uri)
    _, np = mint_nanopub(
        base,
        [(iri("http://ana.example/data/x"), iri(ns.DCT_CREATOR), orcid)],
        [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))],
        [(me, iri(ns.DCT + "description"), literal("no creators here"))],
    )
    report = analyze([np]).creators
    assert report.total == 0


def test_license_stats_planted():
    cc4 = "http://creativecommons.org/licenses/by/4.0/"
    corpus = [
        minimal_np("a", license_iri=cc4),
        minimal_np("b", license_iri=cc4),
        minimal_np("c"),
    ]
    report = analyze(corpus).licenses
    assert report.rows == ((cc4, 2),)
    assert report.unspecified == 1


def test_license_stats_all_unspecified():
    corpus = [minimal_np(f"u{i}") for i in range(4)]
    report = analyze(corpus).licenses
    assert report.rows == ()
    assert report.unspecified == 4


def test_license_stats_match_recount(corpus1k, report1k):
    report = report1k.licenses
    counts, unspecified = recount_licenses(corpus1k)
    assert dict(report.rows) == dict(counts)
    assert report.unspecified == unspecified


def test_namespace_of_rules():
    assert namespace_of("http://www.w3.org/1999/02/22-rdf-syntax-ns#type") == ns.RDF
    assert namespace_of("http://orcid.org/0000-0001") == "http://orcid.org/"
    assert namespace_of("http://nextprot.example") == "http://"
    assert namespace_of("urn:isbn:12345") == "urn:isbn:12345"


def test_namespace_table_head_predicates_always_np(corpus1k):
    table = analyze(corpus1k, k=3).namespaces
    cell = dict((nsv, pct) for nsv, _, pct in table.cells[("head", "predicate")])
    # every head uses rdf:type plus the three np links
    assert cell[ns.NP] == 100.0
    assert cell[ns.RDF] == 100.0


def test_namespace_table_single_nanopub_everything_100():
    np = minimal_np("solo")
    table = analyze([np], k=10).namespaces
    for cell in table.cells.values():
        for _, count, pct in cell:
            assert count == 1
            assert pct == 100.0


def test_namespace_table_matches_recount(corpus1k):
    k = 8
    table = analyze(corpus1k, k=k).namespaces
    for graph in ("head", "assertion", "provenance", "pubinfo"):
        for position in ("subject", "predicate", "object"):
            counter = recount_namespace_cell(corpus1k, graph, position)
            expected = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            got = [(nsv, count) for nsv, count, _ in table.cells[(graph, position)]]
            assert got == expected, (graph, position)


def test_namespace_table_percentages_monotone(report1k):
    table = report1k.namespaces
    for cell in table.cells.values():
        pcts = [pct for _, _, pct in cell]
        assert all(0 <= p <= 100 for p in pcts)
        assert pcts == sorted(pcts, reverse=True)


def test_namespace_table_rejects_bad_k(corpus1k):
    with pytest.raises(ValueError):
        analyze(corpus1k[:1], k=0)


def test_analyze_rejects_bad_k_before_reading_the_corpus(tmp_path):
    with pytest.raises(ValueError, match="k must be >= 1"):
        analyze(load_corpus(tmp_path / "missing.trig"), k=0)


def test_type_frequency_none():
    base = "http://ana.example/np/"
    ph = placeholders(base)
    me = iri(ph.uri)
    _, np = mint_nanopub(
        base,
        [(iri("http://ana.example/data/q"), iri("http://ana.example/p"), literal("v"))],
        [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))],
        [(me, iri(ns.DCT + "description"), literal("untyped"))],
    )
    report = analyze([np]).types
    assert report.total == 0
    assert report.unique == 0


def test_type_frequency_planted():
    a, b = "http://ana.example/TypeA", "http://ana.example/TypeB"
    corpus = [
        minimal_np("t1", types=[a]),
        minimal_np("t2", types=[a]),
        minimal_np("t3", types=[a, b]),
    ]
    report = analyze(corpus).types
    assert report.rows == ((a, 3), (b, 1))
    assert report.total == 4
    assert report.unique == 2
    assert rank_counts(report) == [(1, 3), (2, 1)]


def test_type_frequency_matches_recount_and_is_order_invariant(corpus1k, report1k):
    report = report1k.types
    counter = recount_types(corpus1k)
    assert dict(report.rows) == dict(counter)
    assert report.total == sum(counter.values())
    shuffled = list(reversed(corpus1k))
    assert analyze(shuffled).types == report


def test_write_reports_and_load_corpus_roundtrip(tmp_path, corpus1k):
    from nanokit.rdf import serialize_trig

    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    chunk = corpus1k[:40]
    for np in chunk:
        (corpus_dir / f"{np.uri[-45:]}.trig").write_text(
            serialize_trig(np.to_document()), encoding="utf-8"
        )
    loaded = list(load_corpus(corpus_dir))
    assert {np.uri for np in loaded} == {np.uri for np in chunk}

    outdir = tmp_path / "reports"
    paths = write_reports(outdir, analyze(loaded, k=5))
    for name in ("totals", "creators", "licenses", "namespaces", "types", "json"):
        assert paths[name].exists()
    totals_lines = paths["totals"].read_text().splitlines()
    assert totals_lines[1] == "nanopub_count\t40"


def test_load_corpus_reads_one_file_at_a_time(tmp_path, corpus1k):
    from nanokit.rdf import serialize_trig

    (tmp_path / "a.trig").write_text(serialize_trig(corpus1k[0].to_document()), encoding="utf-8")
    (tmp_path / "b.trig").write_text(
        "<http://g> { <http://s> <http://p> <http://o> . }\n", encoding="utf-8"
    )
    loaded = load_corpus(tmp_path)
    assert next(loaded).uri == corpus1k[0].uri  # b.trig is not read yet
    with pytest.raises(ValueError, match=r"b\.trig: 1 quads belong to no nanopublication"):
        next(loaded)
