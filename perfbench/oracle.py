"""Expected answers, computed untimed from the generated nanopublications.

Nothing here calls nanokit's analysis, store, index or api code: the
expectations come from a direct scan over the generated quads, so a
wrong answer from the program under test cannot also be the expected
one.  Vocabulary IRIs are spelled out for the same reason.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional
from urllib.parse import urlencode

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
DCT = "http://purl.org/dc/terms/"
DCT_LICENSE = DCT + "license"
DCT_RIGHTS = DCT + "rights"
DCT_CREATED = DCT + "created"
PAV_CREATED_ON = "http://purl.org/pav/createdOn"
NPX_INCLUDES_ELEMENT = "http://purl.org/nanopub/x/includesElement"
NPX_APPENDS_INDEX = "http://purl.org/nanopub/x/appendsIndex"

CODE_LENGTH = 45


def code_of(uri: str) -> str:
    return uri[-CODE_LENGTH:]


def all_quads(np) -> list:
    return [q for part in (np.head, np.assertion, np.provenance, np.pubinfo) for q in part.quads]


# -- analyze-dump -------------------------------------------------------------


def analysis_expectation(corpus) -> dict:
    """Totals, type rows and license rows, recounted from the corpus."""
    totals = Counter(nanopub_count=len(corpus))
    types: Counter = Counter()
    licenses: Counter = Counter()
    unspecified = 0
    for np in corpus:
        for label in ("head", "assertion", "provenance", "pubinfo"):
            totals[f"{label}_triples"] += len(getattr(np, label).quads)
        for q in np.assertion.quads:
            if q.predicate.value == RDF_TYPE and q.object.is_iri:
                types[q.object.value] += 1
        declared = {
            q.object.value
            for q in np.pubinfo.quads
            if q.predicate.value in (DCT_LICENSE, DCT_RIGHTS) and q.object.is_iri
        }
        licenses.update(declared)
        unspecified += not declared
    totals["total_triples"] = sum(
        totals[f"{label}_triples"] for label in ("head", "assertion", "provenance", "pubinfo")
    )

    def rows(counter):
        return [[key, n] for key, n in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))]

    return {
        "totals": dict(totals),
        "types": {"total": sum(types.values()), "unique": len(types), "rows": rows(types)},
        "licenses": {"rows": rows(licenses), "unspecified": unspecified},
    }


def check_analysis(report: dict, expected: dict) -> list[str]:
    """Mismatches between ``report.json`` and the recount."""
    problems = []
    for key, value in expected["totals"].items():
        if report["totals"].get(key) != value:
            problems.append(f"totals.{key}: {report['totals'].get(key)} != {value}")
    for section in ("types", "licenses"):
        for key, value in expected[section].items():
            if report[section].get(key) != value:
                problems.append(f"{section}.{key} differs")
    return problems


# -- api-query ----------------------------------------------------------------

LATEST_METHODS = ("find_latest_nanopubs_with_pattern", "find_latest_nanopubs_with_uri")
LOOSE_METHODS = ("find_nanopubs_with_pattern", "find_nanopubs_with_uri")

# queries per 200 requests.  No request log of a nanopublication server
# is at hand, so the shares are assumed: a quarter are get_nanopub, the
# commonest call of a client that resolves nanopublications; 30% are
# point lookups of rare terms (and a few absent ones); 30% are
# patterns and URIs of popular terms, whose hit sets run to thousands
# of codes; 15% read indexes.  The heaviest of them, the two-position
# license pattern, is 4% of requests, so p99 falls among queries whose
# cost grows with their hits rather than with their page.
QUERY_MIX = (
    ("get-nanopub", 50),
    ("rare-subject", 20),
    ("rare-subject-predicate", 10),
    ("rare-uri", 24),
    ("absent-uri", 6),
    ("type-predicate", 8),
    ("popular-type-object", 10),
    ("type-predicate-object", 8),
    ("license-object", 8),
    ("license-predicate-object", 8),
    ("literal-object", 6),
    ("popular-uri", 12),
    ("index-elements", 24),
    ("all-indexes", 6),
)


@dataclass
class Query:
    method: str
    params: dict
    category: str
    pattern: Optional[tuple] = None  # ((position, term key), ...) for pattern methods
    expected: Optional[list] = None  # exact lines, for ordered answers
    expected_len: int = 0  # for loose (unordered) answers
    quads: Optional[frozenset] = None  # for get_nanopub

    @property
    def path(self) -> str:
        return f"/api/{self.method}?{urlencode(self.params)}"

    def page_bounds(self) -> tuple[int, int]:
        start = (int(self.params["page"]) - 1) * int(self.params["page_size"])
        return start, start + int(self.params["page_size"])


def _term_key(term) -> tuple:
    if term.is_iri:
        return ("iri", term.value)
    return ("literal", term.value, term.datatype, term.language)


def _timestamp(text: str) -> Optional[datetime]:
    text = text.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        return None
    return stamp if stamp.tzinfo else stamp.replace(tzinfo=timezone.utc)


def latest_key(np) -> tuple:
    """Descending dct:created (else pav:createdOn), undated last, ties by code."""
    for predicate in (DCT_CREATED, PAV_CREATED_ON):
        for q in np.pubinfo.quads:
            if q.subject.value == np.uri and q.predicate.value == predicate and q.object.is_literal:
                stamp = _timestamp(q.object.value)
                if stamp is not None:
                    return (0, -stamp.timestamp(), code_of(np.uri))
    return (1, 0.0, code_of(np.uri))


def _page(rng: random.Random) -> dict:
    page = 1 if rng.random() < 0.8 else rng.choice((2, 3))
    return {"page": str(page), "page_size": str(rng.choice((10, 20, 50, 100)))}


def make_query_pool(rng: random.Random, corpus, index_heads: list[str], repeat: int) -> list[Query]:
    """Distinct queries in QUERY_MIX shares (``repeat`` times over), shuffled."""
    type_counts = Counter(
        q.object.value for np in corpus for q in np.assertion.quads
        if q.predicate.value == RDF_TYPE and q.object.is_iri
    )
    popular_types = [t for t, _ in type_counts.most_common(5)]
    pubinfo_iris = Counter(
        q.object.value for np in corpus for q in np.pubinfo.quads if q.object.is_iri
    )
    popular_uris = [u for u, _ in pubinfo_iris.most_common(4)]
    license_counts = Counter(
        q.object.value for np in corpus for q in np.pubinfo.quads if q.predicate.value == DCT_LICENSE
    )
    popular_licenses = [u for u, _ in license_counts.most_common(2)]

    def pattern(category: str, **terms) -> Query:
        method = rng.choice(("find_latest_nanopubs_with_pattern", "find_nanopubs_with_pattern"))
        params, key = {}, []
        for position, param in (("subject", "subj"), ("predicate", "pred"), ("object", "obj")):
            term = terms.get(param)
            if term is None:
                continue
            if term[0] == "literal":
                params["obj"], params["objtype"] = term[1], "literal"
                key.append((position, ("literal", term[1], None, None)))
            else:
                params[param] = term[1]
                key.append((position, ("iri", term[1])))
        return Query(method, {**params, **_page(rng)}, category, pattern=tuple(key))

    def uri(category: str, value: str) -> Query:
        method = rng.choice(("find_latest_nanopubs_with_uri", "find_nanopubs_with_uri"))
        return Query(method, {"uri": value, **_page(rng)}, category)

    def assertion_quad():
        return rng.choice(rng.choice(corpus).assertion.quads)

    def make(category: str) -> Query:
        if category == "rare-subject":
            return pattern(category, subj=("iri", assertion_quad().subject.value))
        if category == "rare-subject-predicate":
            q = assertion_quad()
            return pattern(category, subj=("iri", q.subject.value), pred=("iri", q.predicate.value))
        if category == "type-predicate":
            return pattern(category, pred=("iri", RDF_TYPE))
        if category == "popular-type-object":
            return pattern(category, obj=("iri", rng.choice(popular_types)))
        if category == "type-predicate-object":
            return pattern(category, pred=("iri", RDF_TYPE), obj=("iri", rng.choice(popular_types)))
        if category == "license-object":
            return pattern(category, obj=("iri", rng.choice(popular_licenses)))
        if category == "license-predicate-object":
            return pattern(category, pred=("iri", DCT_LICENSE), obj=("iri", popular_licenses[0]))
        if category == "literal-object":
            return pattern(category, obj=("literal", rng.choice(("high", "medium", "low"))))
        if category == "rare-uri":
            return uri(category, assertion_quad().subject.value)
        if category == "popular-uri":
            return uri(category, rng.choice(popular_uris))
        if category == "absent-uri":
            return uri(category, f"http://nowhere.example/{rng.randrange(10**6)}")
        if category == "get-nanopub":
            return Query("get_nanopub", {"uri": rng.choice(corpus).uri}, category)
        if category == "all-indexes":
            page = "1" if rng.random() < 0.8 else "2"
            return Query("get_all_indexes", {"page": page, "page_size": str(rng.choice((2, 10)))}, category)
        return Query(
            "get_index_elements", {"index_uri": rng.choice(index_heads), **_page(rng)}, category
        )

    pool = [make(category) for category, share in QUERY_MIX for _ in range(share * repeat)]
    rng.shuffle(pool)
    return pool


def _chain_elements(by_uri: dict, head: str) -> list[str]:
    """Direct elements along an appends chain, walked over raw quads."""
    elements, current = [], head
    while current is not None:
        np, nxt = by_uri[current], None
        for q in np.assertion.quads:
            if q.subject.value != current or not q.object.is_iri:
                continue
            if q.predicate.value == NPX_INCLUDES_ELEMENT:
                elements.append(q.object.value)
            elif q.predicate.value == NPX_APPENDS_INDEX:
                nxt = q.object.value
        current = nxt
    return elements


def resolve_expected(pool: list[Query], stored, index_rows: list[str]) -> None:
    """Fill every query's expected answer with one scan over ``stored``
    (all nanopublications in the store, index records included).

    The scan runs in latest-first order, so an ordered query's first hits
    are its expected page and no query keeps more hits than its page
    reaches: the benchmark holds next to nothing beside the program."""
    by_shape: dict[tuple, dict[tuple, list[int]]] = defaultdict(lambda: defaultdict(list))
    by_uri: dict[str, list[int]] = defaultdict(list)
    for i, query in enumerate(pool):
        if query.pattern is not None:
            shape = tuple(position for position, _ in query.pattern)
            by_shape[shape][tuple(key for _, key in query.pattern)].append(i)
        elif "uri" in query.params and query.method != "get_nanopub":
            by_uri[query.params["uri"]].append(i)

    first: dict[int, list[str]] = defaultdict(list)  # pool position -> hits up to its page end
    counts: Counter = Counter()  # pool position -> number of hits
    np_by_uri = {}
    for np in sorted(stored, key=latest_key):
        np_by_uri[np.uri] = np
        hit = set()
        for q in all_quads(np):
            terms = {"subject": q.subject, "predicate": q.predicate, "object": q.object}
            for shape, wanted in by_shape.items():
                hit.update(wanted.get(tuple(_term_key(terms[p]) for p in shape), ()))
            for term in (q.subject, q.predicate, q.object, q.graph):
                if term.is_iri:
                    hit.update(by_uri.get(term.value, ()))
        for i in hit:
            counts[i] += 1
            if len(first[i]) < pool[i].page_bounds()[1]:
                first[i].append(code_of(np.uri))

    for i, query in enumerate(pool):
        if query.method == "get_nanopub":
            query.quads = frozenset(all_quads(np_by_uri[query.params["uri"]]))
            continue
        start, end = query.page_bounds()
        if query.method in LATEST_METHODS:
            query.expected = first[i][start:end]
        elif query.method in LOOSE_METHODS:
            query.expected_len = max(0, min(end, counts[i]) - start)
        elif query.method == "get_all_indexes":
            query.expected = index_rows[start:end]
        elif query.method == "get_index_elements":
            query.expected = _chain_elements(np_by_uri, query.params["index_uri"])[start:end]


def matches(query: Query, np) -> bool:
    """Whether ``np`` is a hit of a pattern or uri query."""
    if query.pattern is not None:
        return any(
            all(_term_key(getattr(q, position)) == key for position, key in query.pattern)
            for q in all_quads(np)
        )
    uri = query.params["uri"]
    return any(
        term.is_iri and term.value == uri
        for q in all_quads(np) for term in (q.subject, q.predicate, q.object, q.graph)
    )


def check_answer(query: Query, body: str, parse_trig, by_code: dict) -> bool:
    """``by_code`` maps every stored code to its nanopublication."""
    if query.method == "get_nanopub":
        return frozenset(parse_trig(body).quads) == query.quads
    lines = body.splitlines()
    if query.method in LOOSE_METHODS:
        # unordered but stable: a page of distinct hits of the right size
        return (
            len(set(lines)) == len(lines) == query.expected_len
            and all(code in by_code and matches(query, by_code[code]) for code in lines)
        )
    return lines == query.expected


# -- sim-15node ---------------------------------------------------------------


def expected_published(codes: list[str], schedule: list[tuple[int, int]], failures) -> set[str]:
    """Codes whose publish round finds their node up."""
    def down(node: int, rnd: int) -> bool:
        return any(node == idx and start <= rnd < end for idx, start, end in failures)

    return {code for code, (rnd, node) in zip(codes, schedule) if not down(node, rnd)}
