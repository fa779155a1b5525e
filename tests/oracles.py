"""Brute-force oracles the engine results are compared against.

Each function here takes the dumbest correct path: full scans, no
indexes, no shared code with the lookup structures under test.
"""

import hashlib
from collections import Counter
from datetime import datetime, timezone

from nanokit import namespaces as ns
from nanokit.network import Simulation
from nanokit.rdf import serialize_trig
from nanokit.trusty import encode_digest


def as_pairs(nanopubs):
    """(code, quads) pairs for the scan functions below."""
    return [(np.uri[-45:], np.to_document().quads) for np in nanopubs]


def scan_pattern(pairs, subject=None, predicate=None, obj=None, graph=None):
    """Codes of nanopubs with >= 1 quad agreeing with all bound positions."""
    hits = set()
    for code, quads in pairs:
        for q in quads:
            if subject is not None and q.subject != subject:
                continue
            if predicate is not None and q.predicate != predicate:
                continue
            if obj is not None and q.object != obj:
                continue
            if graph is not None and q.graph != graph:
                continue
            hits.add(code)
            break
    return hits


def log_records(data):
    """The records of a complete store log, each its header and body."""
    records = []
    while data:
        header, _, rest = data.partition(b"\n")
        end = len(header) + 1 + int(header)
        records.append(data[:end])
        data = data[end:]
    return records


def log_record(np):
    """The log record ``put`` writes for ``np``."""
    body = serialize_trig(np).encode("utf-8")
    return b"%d\n" % len(body) + body


def run_simulation(config, workload):
    """Build the network for ``config`` and run ``workload`` to completion."""
    return Simulation(config).run(workload)


def synthetic_trusty_uris(count, base="http://example.org/np/", label="e"):
    """Syntactically valid, pairwise distinct trusty URIs (content-free,
    for index membership tests at scale)."""
    return [
        base + "RA" + encode_digest(hashlib.sha256(f"{label}-{i}".encode()).digest())
        for i in range(count)
    ]


def graph_names(doc):
    """The graph IRIs of ``doc``, in first-appearance order."""
    return tuple(dict.fromkeys(q.graph.value for q in doc.quads))


def rank_counts(types):
    """(rank, count) pairs of a ``TypeFrequency``: the data behind a
    log-log frequency plot."""
    return [(rank + 1, count) for rank, (_, count) in enumerate(types.rows)]


def match(doc, pattern):
    """Quads of ``doc`` agreeing with every non-wildcard position of
    ``pattern``: the scan the ``test_match_*`` tests hold
    ``QuadPattern.matches`` to."""
    return [q for q in doc.quads if pattern.matches(q)]


def scan_uri(pairs, uri):
    """Codes of nanopubs mentioning ``uri`` in any term position."""
    hits = set()
    for code, quads in pairs:
        for q in quads:
            for term in (q.subject, q.predicate, q.object, q.graph):
                if term.is_iri and term.value == uri:
                    hits.add(code)
                    break
            else:
                continue
            break
    return hits


def transitive_union(head_uri, elements_of, subs_of, appends_of):
    """Set reachable from an index via appends/sub-index edges (dicts in,
    set out); assumes acyclic input."""
    out = set()
    todo = [head_uri]
    seen = set()
    while todo:
        uri = todo.pop()
        if uri in seen:
            continue
        seen.add(uri)
        out.update(elements_of[uri])
        todo.extend(subs_of[uri])
        if appends_of[uri] is not None:
            todo.append(appends_of[uri])
    return out


def latest_key(np):
    """Sort key of "latest" order as the README states it: descending
    dct:created, falling back to pav:createdOn, read from the nanopub's
    own pubinfo statements (a naive timestamp is UTC, an unparsable one
    is skipped); undated last; ties by artifact code."""

    def created(predicate):
        for q in np.pubinfo.quads:
            if q.subject.value == np.uri and q.predicate.value == predicate and q.object.is_literal:
                text = q.object.value.strip()
                if text.endswith("Z"):
                    # fromisoformat reads a trailing 'Z' only from Python 3.11 on
                    text = text[:-1] + "+00:00"
                try:
                    stamp = datetime.fromisoformat(text)
                except ValueError:
                    continue
                return stamp if stamp.tzinfo else stamp.replace(tzinfo=timezone.utc)
        return None

    stamp = created(ns.DCT_CREATED) or created(ns.PAV_CREATED_ON)
    code = np.uri[-45:]
    if stamp is None:
        return (1, code)
    # the older the stamp, the larger the gap: ascending keys are newest first
    return (0, datetime.max.replace(tzinfo=timezone.utc) - stamp, code)


# -- analysis recounts ----------------------------------------------------------


def recount_totals(nanopubs):
    n = len(nanopubs)
    parts = [0, 0, 0, 0]
    for np in nanopubs:
        for i, part in enumerate(np.parts()):
            parts[i] += len(part.quads)
    return {
        "nanopub_count": n,
        "head": parts[0],
        "assertion": parts[1],
        "provenance": parts[2],
        "pubinfo": parts[3],
        "total": sum(parts),
    }


def _creator_kind(term, tool_uris):
    if term.is_literal:
        return "Literal string"
    v = term.value
    if v in tool_uris:
        return "Tool URI"
    if v.startswith(("http://orcid.org/", "https://orcid.org/")):
        return "ORCID"
    if v.startswith(("http://www.researcherid.com/rid/", "https://www.researcherid.com/rid/")):
        return "ResearcherID"
    hostpart = v.split("//", 1)[-1].split("/", 1)[0].lower()
    if hostpart.startswith("scholar.google."):
        return "Google Scholar URI"
    return "Other URI"


def recount_creators(nanopubs, tool_uris):
    preds = {
        ns.DCT_CREATOR,
        ns.DCE_CREATOR,
        ns.PAV_CREATED_BY,
        ns.PAV_AUTHORED_BY,
        ns.PROV_WAS_ATTRIBUTED_TO,
    }
    per_kind = {}
    for np in nanopubs:
        for q in np.pubinfo.quads:
            if q.predicate.value in preds:
                kind = _creator_kind(q.object, tool_uris)
                per_kind.setdefault(kind, Counter())[q.object.value] += 1
    return {
        kind: {
            "total": sum(counter.values()),
            "unique": len(counter),
        }
        for kind, counter in per_kind.items()
    }


def recount_licenses(nanopubs):
    counts = Counter()
    unspecified = 0
    for np in nanopubs:
        found = set()
        for q in np.pubinfo.quads:
            if q.predicate.value in (ns.DCT_LICENSE, ns.DCT_RIGHTS) and q.object.is_iri:
                found.add(q.object.value)
        if not found:
            unspecified += 1
        for license_iri in found:
            counts[license_iri] += 1
    return counts, unspecified


def _ns_of(value):
    h = value.rfind("#")
    if h >= 0:
        return value[: h + 1]
    s = value.rfind("/")
    if s >= 0:
        return value[: s + 1]
    return value


def recount_namespace_cell(nanopubs, graph_label, position):
    """namespace -> number of nanopubs where it occurs in that cell."""
    labels = ("head", "assertion", "provenance", "pubinfo")
    index = labels.index(graph_label)
    counter = Counter()
    for np in nanopubs:
        part = np.parts()[index]
        seen = set()
        for q in part.quads:
            term = {"subject": q.subject, "predicate": q.predicate, "object": q.object}[
                position
            ]
            if term.is_iri:
                seen.add(_ns_of(term.value))
        for namespace in seen:
            counter[namespace] += 1
    return counter


def recount_types(nanopubs):
    counter = Counter()
    for np in nanopubs:
        for q in np.assertion.quads:
            if q.predicate.value == ns.RDF_TYPE and q.object.is_iri:
                counter[q.object.value] += 1
    return counter
