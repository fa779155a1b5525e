"""Corpus statistics: totals, creators, licenses, namespaces, types.

All statistics are exact counts or exact ratios over a corpus of valid
nanopublications.  ``load_corpus`` yields the nanopublications of one
file at a time, so only the file being read is held in memory;
``analyze`` computes all five reports in one pass that visits each quad
once.  Creator and license counts look at pubinfo graphs only, type
counts at assertion graphs only, the namespace table at all four.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional
from urllib.parse import urlsplit

from . import namespaces as ns
from .nanopub import Nanopublication
from .rdf import Term
from .store import read_corpus

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


def load_corpus(path: str | Path) -> Iterator[Nanopublication]:
    """Yield the nanopublications of a directory of ``.trig`` files or of
    one concatenated corpus file, reading and splitting one file at a time.

    A parse, validation or split error names the file it comes from.
    """
    path = Path(path)
    files = sorted(path.glob("*.trig")) if path.is_dir() else [path]
    for file in files:
        yield from read_corpus(file)


# -- the five reports ---------------------------------------------------------


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


@dataclass(frozen=True)
class LicenseReport:
    rows: tuple[tuple[str, int], ...]  # (license IRI, nanopub count), count desc
    unspecified: int


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


@dataclass(frozen=True)
class TypeFrequency:
    total: int
    unique: int
    rows: tuple[tuple[str, int], ...]  # (type, count) count desc, then type asc


@dataclass(frozen=True)
class CorpusAnalysis:
    totals: CorpusReport
    creators: CreatorReport
    licenses: LicenseReport
    namespaces: NamespacePositionTable
    types: TypeFrequency


def _ranked(counter: Counter) -> list[tuple[str, int]]:
    return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))


def analyze(
    corpus: Iterable[Nanopublication],
    k: int = 10,
    tool_uris: frozenset[str] = DEFAULT_TOOL_URIS,
) -> CorpusAnalysis:
    """All five reports in one pass over ``corpus``.

    - totals: nanopublications and triples per graph;
    - creators: creator/author mentions in pubinfo graphs, by identifier
      type; duplicate mentions within one nanopublication count separately;
    - licenses: one count per distinct license IRI a nanopublication
      declares in its pubinfo; one declaring none is 'unspecified';
    - namespaces: per (graph, position), the top-k namespaces by the share
      of nanopublications where the namespace occurs at least once there;
    - types: rdf:type statements (with IRI objects) in assertion graphs,
      that is, individual-type assignments.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = 0
    triples = dict.fromkeys(GRAPH_LABELS, 0)
    creators: dict[str, Counter] = {t: Counter() for t in IDENTIFIER_TYPES}
    licenses: Counter = Counter()
    unspecified = 0
    namespaces: dict[tuple[str, str], Counter] = {
        (g, p): Counter() for g in GRAPH_LABELS for p in POSITIONS
    }
    types: Counter = Counter()
    for np in corpus:
        n += 1
        declared: set[str] = set()
        for label, part in zip(GRAPH_LABELS, np.parts()):
            triples[label] += len(part)
            seen = (set(), set(), set())  # namespaces per position
            for q in part.quads:
                for found, term in zip(seen, (q.subject, q.predicate, q.object)):
                    if term.is_iri:
                        found.add(namespace_of(term.value))
                predicate, obj = q.predicate.value, q.object
                if label == "pubinfo":
                    if predicate in CREATOR_PREDICATES:
                        creators[classify_creator(obj, tool_uris)][obj.value] += 1
                    elif predicate in LICENSE_PREDICATES and obj.is_iri:
                        declared.add(obj.value)
                elif label == "assertion" and predicate == ns.RDF_TYPE and obj.is_iri:
                    types[obj.value] += 1
            for position, found in zip(POSITIONS, seen):
                namespaces[(label, position)].update(found)
        licenses.update(declared)
        unspecified += not declared

    creator_rows = tuple(
        CreatorRow(t, sum(c.values()), len(c), _ranked(c)[0][0] if c else None)
        for t, c in creators.items()
    )
    return CorpusAnalysis(
        totals=CorpusReport(n, *triples.values()),
        creators=CreatorReport(
            creator_rows,
            total=sum(r.total for r in creator_rows),
            unique=sum(r.unique for r in creator_rows),
        ),
        licenses=LicenseReport(tuple(_ranked(licenses)), unspecified),
        namespaces=NamespacePositionTable(
            n,
            {
                key: tuple((nsv, count, 100.0 * count / n) for nsv, count in _ranked(c)[:k])
                for key, c in namespaces.items()
            },
        ),
        types=TypeFrequency(sum(types.values()), len(types), tuple(_ranked(types))),
    )


# -- report files ---------------------------------------------------------------

TOTALS_FIELDS = (
    "nanopub_count",
    "head_triples",
    "assertion_triples",
    "provenance_triples",
    "pubinfo_triples",
    "total_triples",
    "mean_triples",
    "mean_provenance_triples",
)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_reports(outdir: str | Path, report: CorpusAnalysis) -> dict[str, Path]:
    """Write the five tab-separated reports plus a machine-readable
    ``report.json``; returns the written paths.

    Each report's rows are built once: ``report.json`` holds them as they
    are, and each TSV file renders them one line per row.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = {
        "totals": {name: getattr(report.totals, name) for name in TOTALS_FIELDS},
        "creators": {
            "rows": [
                {"type": r.identifier_type, "total": r.total, "unique": r.unique, "example": r.example}
                for r in report.creators.rows
            ],
            "total": report.creators.total,
            "unique": report.creators.unique,
        },
        "licenses": {"rows": report.licenses.rows, "unspecified": report.licenses.unspecified},
        "namespaces": {
            f"{graph}/{position}": report.namespaces.cells[(graph, position)]
            for graph in GRAPH_LABELS
            for position in POSITIONS
        },
        "types": {"total": report.types.total, "unique": report.types.unique, "rows": report.types.rows},
    }
    creators, licenses = rows["creators"], rows["licenses"]
    tables = {
        "totals": [("metric", "value"), *rows["totals"].items()],
        "creators": [
            ("type", "total", "unique", "example"),
            *((r["type"], r["total"], r["unique"], r["example"] or "") for r in creators["rows"]),
            ("Total", creators["total"], creators["unique"], ""),
        ],
        "licenses": [("license", "nanopubs"), *licenses["rows"], ("unspecified", licenses["unspecified"])],
        "namespaces": [
            ("graph", "position", "rank", "namespace", "nanopubs", "percentage"),
            *(
                (*key.split("/"), rank, *cell)
                for key, cells in rows["namespaces"].items()
                for rank, cell in enumerate(cells, 1)
            ),
        ],
        "types": [
            ("rank", "type", "count"),
            *((rank, *row) for rank, row in enumerate(rows["types"]["rows"], 1)),
        ],
    }
    paths = {}
    for name, table in tables.items():
        paths[name] = outdir / f"{name}.tsv"
        text = "".join("\t".join(map(_fmt, row)) + "\n" for row in table)
        paths[name].write_text(text, encoding="utf-8")
    paths["json"] = outdir / "report.json"
    paths["json"].write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return paths
