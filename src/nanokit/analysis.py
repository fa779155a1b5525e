"""Corpus statistics: totals, creators, licenses, namespaces, types.

All statistics are exact counts or exact ratios over a corpus of valid
nanopublications.  ``load_corpus`` reads each file whole and splits it
into a list held in memory; ``write_reports`` then makes one pass over
that list per analysis, five in all.  Creator and license scans look at
pubinfo graphs only, type counts at assertion graphs only, the namespace
table at all four.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional
from urllib.parse import urlsplit

from . import namespaces as ns
from .nanopub import Nanopublication
from .rdf import Term, parse_trig
from .store import split_corpus

DEFAULT_TOOL_URIS = frozenset({"https://doi.org/10.5281/zenodo.1212599"})

CREATOR_PREDICATES = (
    ns.DCT_CREATOR,
    ns.DCE_CREATOR,
    ns.PAV_CREATED_BY,
    ns.PAV_AUTHORED_BY,
    ns.PROV_WAS_ATTRIBUTED_TO,
)

LICENSE_PREDICATES = (ns.DCT_LICENSE, ns.DCT_RIGHTS)

IDENTIFIER_TYPES = (
    "ORCID",
    "Literal string",
    "Tool URI",
    "Google Scholar URI",
    "ResearcherID",
    "Other URI",
)

GRAPH_LABELS = ("head", "assertion", "provenance", "pubinfo")
POSITIONS = ("subject", "predicate", "object")


def load_corpus(path: str | Path) -> list[Nanopublication]:
    """Read a directory of ``.trig`` files or one concatenated corpus file."""
    path = Path(path)
    files = sorted(path.glob("*.trig")) if path.is_dir() else [path]
    return [
        np for file in files for np in split_corpus(parse_trig(file.read_text(encoding="utf-8")))
    ]


# -- totals -------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusReport:
    nanopub_count: int
    head_triples: int
    assertion_triples: int
    provenance_triples: int
    pubinfo_triples: int

    @property
    def total_triples(self) -> int:
        return (
            self.head_triples
            + self.assertion_triples
            + self.provenance_triples
            + self.pubinfo_triples
        )

    @property
    def mean_triples(self) -> Optional[float]:
        # undefined on an empty corpus
        if self.nanopub_count == 0:
            return None
        return self.total_triples / self.nanopub_count

    @property
    def mean_provenance_triples(self) -> Optional[float]:
        if self.nanopub_count == 0:
            return None
        return self.provenance_triples / self.nanopub_count


def corpus_totals(corpus: Iterable[Nanopublication]) -> CorpusReport:
    count = head = assertion = provenance = pubinfo = 0
    for np in corpus:
        count += 1
        head += len(np.head)
        assertion += len(np.assertion)
        provenance += len(np.provenance)
        pubinfo += len(np.pubinfo)
    return CorpusReport(count, head, assertion, provenance, pubinfo)


# -- creators -----------------------------------------------------------------


def classify_creator(term: Term, tool_uris: frozenset[str] = DEFAULT_TOOL_URIS) -> str:
    """Put one creator mention into exactly one identifier-type row."""
    if term.is_literal:
        return "Literal string"
    value = term.value
    if value in tool_uris:
        return "Tool URI"
    if value.startswith("http://orcid.org/") or value.startswith("https://orcid.org/"):
        return "ORCID"
    if value.startswith("http://www.researcherid.com/rid/") or value.startswith(
        "https://www.researcherid.com/rid/"
    ):
        return "ResearcherID"
    host = urlsplit(value).netloc.lower()
    if host.startswith("scholar.google."):
        return "Google Scholar URI"
    return "Other URI"


@dataclass(frozen=True)
class CreatorRow:
    identifier_type: str
    total: int
    unique: int
    example: Optional[str]  # a most-frequent identifier of this row


@dataclass(frozen=True)
class CreatorReport:
    rows: tuple[CreatorRow, ...]
    total: int
    unique: int


def creator_stats(
    corpus: Iterable[Nanopublication], tool_uris: frozenset[str] = DEFAULT_TOOL_URIS
) -> CreatorReport:
    """Creator/author mentions in pubinfo graphs, by identifier type.

    Duplicate mentions within one nanopublication count separately.
    """
    counters: dict[str, Counter] = {t: Counter() for t in IDENTIFIER_TYPES}
    for np in corpus:
        for q in np.pubinfo.quads:
            if q.predicate.value in CREATOR_PREDICATES:
                row = classify_creator(q.object, tool_uris)
                key = q.object.value
                counters[row][key] += 1
    rows = []
    for identifier_type in IDENTIFIER_TYPES:
        counter = counters[identifier_type]
        total = sum(counter.values())
        if counter:
            top = max(counter.items(), key=lambda kv: (kv[1], kv[0]))
            best_count = top[1]
            example = min(k for k, v in counter.items() if v == best_count)
        else:
            example = None
        rows.append(CreatorRow(identifier_type, total, len(counter), example))
    return CreatorReport(
        rows=tuple(rows),
        total=sum(r.total for r in rows),
        unique=sum(r.unique for r in rows),
    )


# -- licenses -----------------------------------------------------------------


@dataclass(frozen=True)
class LicenseReport:
    rows: tuple[tuple[str, int], ...]  # (license IRI, nanopub count), count desc
    unspecified: int


def license_stats(corpus: Iterable[Nanopublication]) -> LicenseReport:
    """One count per distinct license IRI a nanopublication declares in
    its pubinfo; nanopublications declaring none are 'unspecified'."""
    counts: Counter = Counter()
    unspecified = 0
    for np in corpus:
        declared = {
            q.object.value
            for q in np.pubinfo.quads
            if q.predicate.value in LICENSE_PREDICATES and q.object.is_iri
        }
        if not declared:
            unspecified += 1
        for license_iri in declared:
            counts[license_iri] += 1
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return LicenseReport(tuple(rows), unspecified)


# -- namespace table ----------------------------------------------------------


def namespace_of(value: str) -> str:
    """Shared first part of an IRI: up to the last '#', else the last '/',
    else the whole IRI."""
    h = value.rfind("#")
    if h != -1:
        return value[: h + 1]
    s = value.rfind("/")
    if s != -1:
        return value[: s + 1]
    return value


@dataclass(frozen=True)
class NamespacePositionTable:
    nanopub_count: int
    # (graph, position) -> top-k (namespace, nanopub count, percentage)
    cells: dict[tuple[str, str], tuple[tuple[str, int, float], ...]] = field(hash=False)


def namespace_table(corpus: Iterable[Nanopublication], k: int) -> NamespacePositionTable:
    """Per (graph, position): the top-k namespaces by the share of
    nanopublications where the namespace occurs at least once there."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts: dict[tuple[str, str], Counter] = {
        (g, p): Counter() for g in GRAPH_LABELS for p in POSITIONS
    }
    n = 0
    for np in corpus:
        n += 1
        for label, part in zip(GRAPH_LABELS, np.parts()):
            seen: dict[str, set[str]] = {p: set() for p in POSITIONS}
            for q in part.quads:
                for position, term in (
                    ("subject", q.subject),
                    ("predicate", q.predicate),
                    ("object", q.object),
                ):
                    if term.is_iri:
                        seen[position].add(namespace_of(term.value))
            for position in POSITIONS:
                for namespace in seen[position]:
                    counts[(label, position)][namespace] += 1
    cells = {}
    for key, counter in counts.items():
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        cells[key] = tuple(
            (namespace, count, 100.0 * count / n) for namespace, count in ranked
        )
    return NamespacePositionTable(n, cells)


# -- type frequency -----------------------------------------------------------


@dataclass(frozen=True)
class TypeFrequency:
    total: int
    unique: int
    rows: tuple[tuple[str, int], ...]  # (type, count) count desc, then type asc

    def rank_counts(self) -> list[tuple[int, int]]:
        """(rank, count) pairs, the data behind a log-log frequency plot."""
        return [(rank + 1, count) for rank, (_, count) in enumerate(self.rows)]


def type_frequency(corpus: Iterable[Nanopublication]) -> TypeFrequency:
    """rdf:type statements (with IRI objects) in assertion graphs:
    individual-type assignments."""
    counter: Counter = Counter()
    for np in corpus:
        for q in np.assertion.quads:
            if q.predicate.value == ns.RDF_TYPE and q.object.is_iri:
                counter[q.object.value] += 1
    rows = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return TypeFrequency(sum(counter.values()), len(counter), tuple(rows))


# -- report files ---------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_reports(
    outdir: str | Path,
    corpus: list[Nanopublication],
    k: int = 10,
    tool_uris: frozenset[str] = DEFAULT_TOOL_URIS,
) -> dict[str, Path]:
    """Run all five analyses and write the tab-separated reports plus a
    machine-readable ``report.json``; returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    totals = corpus_totals(corpus)
    creators = creator_stats(corpus, tool_uris)
    licenses = license_stats(corpus)
    table = namespace_table(corpus, k)
    types = type_frequency(corpus)

    paths = {}

    lines = ["metric\tvalue"]
    lines.append(f"nanopub_count\t{totals.nanopub_count}")
    lines.append(f"head_triples\t{totals.head_triples}")
    lines.append(f"assertion_triples\t{totals.assertion_triples}")
    lines.append(f"provenance_triples\t{totals.provenance_triples}")
    lines.append(f"pubinfo_triples\t{totals.pubinfo_triples}")
    lines.append(f"total_triples\t{totals.total_triples}")
    lines.append(f"mean_triples\t{_fmt(totals.mean_triples)}")
    lines.append(f"mean_provenance_triples\t{_fmt(totals.mean_provenance_triples)}")
    paths["totals"] = outdir / "totals.tsv"
    paths["totals"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["type\ttotal\tunique\texample"]
    for row in creators.rows:
        lines.append(
            f"{row.identifier_type}\t{row.total}\t{row.unique}\t{row.example or ''}"
        )
    lines.append(f"Total\t{creators.total}\t{creators.unique}\t")
    paths["creators"] = outdir / "creators.tsv"
    paths["creators"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["license\tnanopubs"]
    for license_iri, count in licenses.rows:
        lines.append(f"{license_iri}\t{count}")
    lines.append(f"unspecified\t{licenses.unspecified}")
    paths["licenses"] = outdir / "licenses.tsv"
    paths["licenses"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["graph\tposition\trank\tnamespace\tnanopubs\tpercentage"]
    for graph in GRAPH_LABELS:
        for position in POSITIONS:
            for rank, (namespace, count, pct) in enumerate(table.cells[(graph, position)]):
                lines.append(
                    f"{graph}\t{position}\t{rank + 1}\t{namespace}\t{count}\t{_fmt(pct)}"
                )
    paths["namespaces"] = outdir / "namespaces.tsv"
    paths["namespaces"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["rank\ttype\tcount"]
    for rank, (type_key, count) in enumerate(types.rows):
        lines.append(f"{rank + 1}\t{type_key}\t{count}")
    paths["types"] = outdir / "types.tsv"
    paths["types"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    machine = {
        "totals": {
            "nanopub_count": totals.nanopub_count,
            "head_triples": totals.head_triples,
            "assertion_triples": totals.assertion_triples,
            "provenance_triples": totals.provenance_triples,
            "pubinfo_triples": totals.pubinfo_triples,
            "total_triples": totals.total_triples,
            "mean_triples": totals.mean_triples,
            "mean_provenance_triples": totals.mean_provenance_triples,
        },
        "creators": {
            "rows": [
                {
                    "type": r.identifier_type,
                    "total": r.total,
                    "unique": r.unique,
                    "example": r.example,
                }
                for r in creators.rows
            ],
            "total": creators.total,
            "unique": creators.unique,
        },
        "licenses": {
            "rows": [[license_iri, count] for license_iri, count in licenses.rows],
            "unspecified": licenses.unspecified,
        },
        "namespaces": {
            f"{graph}/{position}": [
                [namespace, count, pct]
                for namespace, count, pct in table.cells[(graph, position)]
            ]
            for graph in GRAPH_LABELS
            for position in POSITIONS
        },
        "types": {
            "total": types.total,
            "unique": types.unique,
            "rows": [[t, c] for t, c in types.rows],
        },
    }
    paths["json"] = outdir / "report.json"
    paths["json"].write_text(
        json.dumps(machine, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths
