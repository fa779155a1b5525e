"""In-memory + file-backed store of verified nanopublications.

A ``Nanopublication`` is valid by construction, so ``put`` checks only
what the container rules cannot: it verifies the content against the
artifact code on every call, and refuses a known code whose quads differ.

Layout on disk: one ``<code>.trig`` file per nanopublication in a flat
directory plus an append-only ``journal.log`` whose lines are
``<seq> <code>`` in ascending seq order.  The journal doubles as the
replication feed for the network module.  Reopening drops a torn last
line (an append cut short by a crash) and rejects any other bad line.
It re-parses and re-verifies every file; a missing, unparsable or
unverifiable one, or one holding another code than its journal line, is
a ``StoreError`` naming the file and its journal line.

Lookup contract is oracle equivalence, not complexity.  The store keeps
four postings, one per quad position (term -> codes).  A one-position
pattern is answered from its posting, a multi-position pattern
intersects them and confirms every candidate against its quads, and a
URI mention is the union of the four postings for that IRI.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Optional

from . import namespaces as ns
from .nanopub import HEAD_LINKS, Nanopublication
from .rdf import QuadPattern, Term, iri, parse_trig, serialize_trig
from .trusty import extract_artifact_code, is_artifact_code, verify_reason
from .util import parse_timestamp

JOURNAL_NAME = "journal.log"


class StoreError(ValueError):
    pass


class IntegrityError(StoreError):
    """Same artifact code, different content: the store refuses to choose."""


@dataclass(frozen=True)
class StoredNanopub:
    code: str
    nanopub: Nanopublication
    ingested_at: int
    latest_key: tuple = ()  # created desc, missing last, ties by code asc


def _latest_key(code: str, created: Optional[datetime]) -> tuple:
    if created is None:
        return (1, 0.0, code)
    return (0, -created.timestamp(), code)


def candidate_uris(doc) -> list[str]:
    """Distinct nanopublication URIs declared in ``doc``, in quad order."""
    seen = {}
    for q in doc.quads:
        if q.predicate.value == ns.NP_HAS_ASSERTION and q.object.is_iri:
            seen.setdefault(q.subject.value, None)
    return list(seen)


def sole_uri(doc) -> str:
    """The one nanopublication URI declared in ``doc``; StoreError otherwise."""
    uris = candidate_uris(doc)
    if len(uris) != 1:
        raise StoreError(f"expected exactly one nanopublication, found {len(uris)}")
    return uris[0]


def parse_nanopub(text: str) -> Nanopublication:
    """The one nanopublication in TriG ``text``; raises TrigSyntaxError,
    StoreError or NanopubValidationError."""
    doc = parse_trig(text)
    return Nanopublication(sole_uri(doc), doc.quads)


def split_corpus(doc) -> list[Nanopublication]:
    """Split a concatenated corpus document into its nanopublications.

    One pass groups the quads by graph.  Each nanopublication's head is
    the graph of its first ``np:hasAssertion`` quad; its quads are those
    of that graph and of the graphs the head links to.  Nanopublications come
    in ``candidate_uris`` order.  Every quad must belong to exactly one
    nanopublication; leftovers are an error.
    """
    graphs: dict[str, list] = {}
    heads: dict[str, str] = {}  # nanopub URI -> graph of its first hasAssertion quad
    for q in doc.quads:
        graphs.setdefault(q.graph.value, []).append(q)
        if q.predicate.value == ns.NP_HAS_ASSERTION:
            heads.setdefault(q.subject.value, q.graph.value)
    nanopubs = []
    claimed = set()
    for uri in candidate_uris(doc):
        head_iri = heads[uri]
        graph_iris = {head_iri: None}
        for q in graphs[head_iri]:
            if q.subject.value == uri and q.object.is_iri and q.predicate.value in HEAD_LINKS:
                graph_iris.setdefault(q.object.value, None)
        np = Nanopublication(uri, (q for g in graph_iris for q in graphs.get(g, ())))
        nanopubs.append(np)
        claimed.update(part.iri for part in np.parts())
    stray = [g for g in graphs if g not in claimed]
    if stray:
        count = sum(len(graphs[g]) for g in stray)
        raise StoreError(
            f"{count} quads belong to no nanopublication (first graph: <{stray[0]}>)"
        )
    return nanopubs


def _created_of(np: Nanopublication) -> Optional[datetime]:
    # recency := dct:created, falling back to pav:createdOn, in pubinfo
    for predicate in (ns.DCT_CREATED, ns.PAV_CREATED_ON):
        for q in np.pubinfo.quads:
            if (
                q.subject.value == np.uri
                and q.predicate.value == predicate
                and q.object.is_literal
            ):
                stamp = parse_timestamp(q.object.value)
                if stamp is not None:
                    return stamp
    return None


class NanopubStore:
    """Content-addressed nanopublication store with pattern/URI lookup."""

    def __init__(self, directory: str | Path | None = None):
        self._lock = threading.Lock()
        self._by_code: dict[str, StoredNanopub] = {}
        self._seq = 0
        # (seq, code) in ascending seq order; only ever appended to
        self._journal: list[tuple[int, str]] = []
        # per-position postings: Term -> set of codes
        self._pos_index: dict[str, dict[Term, set[str]]] = {
            "subject": {},
            "predicate": {},
            "object": {},
            "graph": {},
        }
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load()

    def __len__(self) -> int:
        return len(self._by_code)

    def codes(self) -> list[str]:
        """All stored codes in ingest order."""
        return [code for _, code in self._journal]

    def journal_entries(self, from_seq: int = 1, limit: int | None = None) -> list[tuple[int, str]]:
        """Journal page: (seq, code) with seq >= from_seq, at most ``limit``."""
        journal = self._journal
        start = bisect.bisect_left(journal, (from_seq,))
        return journal[start:] if limit is None else journal[start : start + max(limit, 0)]

    # -- ingest -----------------------------------------------------------

    def put(self, np: Nanopublication) -> str:
        """Store a trusty-verified nanopublication; idempotent by code."""
        code = extract_artifact_code(np.uri)
        if code is None:
            raise StoreError(f"nanopublication URI carries no artifact code: <{np.uri}>")
        reason = verify_reason(np, np.uri)
        if reason is not None:
            raise StoreError(f"verification failed for <{np.uri}>: {reason}")
        with self._lock:
            existing = self._by_code.get(code)
            if existing is not None:
                if frozenset(existing.nanopub.quads) != frozenset(np.quads):
                    raise IntegrityError(f"code {code} already stored with different content")
                return code
            self._seq += 1
            record = StoredNanopub(code, np, self._seq, _latest_key(code, _created_of(np)))
            if self.directory is not None:
                path = self.directory / f"{code}.trig"
                path.write_text(serialize_trig(np), encoding="utf-8")
                with (self.directory / JOURNAL_NAME).open("a", encoding="utf-8") as fh:
                    fh.write(f"{self._seq} {code}\n")
            self._register(record)
            return code

    def _register(self, record: StoredNanopub):
        code = record.code
        self._by_code[code] = record
        pos = self._pos_index
        subjects, predicates, objects, graphs = (
            pos["subject"], pos["predicate"], pos["object"], pos["graph"]
        )
        for q in record.nanopub.quads:
            for index, term in (
                (subjects, q.subject),
                (predicates, q.predicate),
                (objects, q.object),
                (graphs, q.graph),
            ):
                codes = index.get(term)
                if codes is None:
                    index[term] = {code}
                else:
                    codes.add(code)
        self._journal.append((record.ingested_at, code))

    def _load(self):
        journal = self.directory / JOURNAL_NAME
        if not journal.exists():
            return
        data = journal.read_bytes()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            # a crash mid-append left a torn last line: drop it
            with journal.open("r+b") as fh:
                fh.truncate(complete)
        # undecodable bytes become U+FFFD, which no valid entry contains
        lines = data[:complete].decode("utf-8", errors="replace").splitlines()
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            seq_text, _, code = line.partition(" ")
            if not (seq_text.isascii() and seq_text.isdigit() and is_artifact_code(code)):
                raise StoreError(f"{JOURNAL_NAME} line {number}: malformed entry {line!r}")
            seq = int(seq_text)
            if seq <= self._seq:
                raise StoreError(f"{JOURNAL_NAME} line {number}: seq {seq} after {self._seq}")
            if code in self._by_code:
                raise StoreError(f"{JOURNAL_NAME} line {number}: {code} listed twice")
            path = self.directory / f"{code}.trig"
            where = f"{JOURNAL_NAME} line {number}: {path.name}"
            try:
                np = parse_nanopub(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise StoreError(f"{where}: {exc}") from exc
            reason = verify_reason(np, np.uri)
            if reason is not None:
                raise StoreError(f"{where}: verification failed: {reason}")
            if extract_artifact_code(np.uri) != code:
                raise StoreError(f"{where}: holds <{np.uri}>, not code {code}")
            self._register(StoredNanopub(code, np, seq, _latest_key(code, _created_of(np))))
            self._seq = seq

    # -- retrieval --------------------------------------------------------

    def get(self, code: str) -> Optional[Nanopublication]:
        record = self._by_code.get(code)
        return record.nanopub if record is not None else None

    def get_record(self, code: str) -> Optional[StoredNanopub]:
        return self._by_code.get(code)

    def get_by_uri(self, uri: str) -> Nanopublication:
        # put files every nanopub under the code of its own URI
        record = self._by_code.get(extract_artifact_code(uri))
        if record is None or record.nanopub.uri != uri:
            raise KeyError(uri)
        return record.nanopub

    def find_by_pattern(self, pattern: QuadPattern, latest: bool = True) -> list[str]:
        """Codes of nanopublications holding at least one matching quad."""
        bound = self._bound_positions(pattern)
        if not bound:
            return self._ordered(list(self._by_code), latest)
        sets = [self._pos_index[position].get(term, set()) for position, term in bound]
        candidates = set(min(sets, key=len))
        for s in sets:
            candidates &= s
        if len(bound) == 1:
            # a position index is exact for single-position patterns
            return self._ordered(candidates, latest)
        hits = [
            code
            for code in candidates
            if any(pattern.matches(q) for q in self._by_code[code].nanopub.quads)
        ]
        return self._ordered(hits, latest)

    def find_by_uri(self, uri: str, latest: bool = True) -> list[str]:
        """Codes of nanopublications mentioning the IRI ``uri`` in any term
        position: the union of the four position postings."""
        try:
            term = iri(uri)
        except ValueError:  # not an IRI, so no quad mentions it
            return []
        hits = set().union(*(index.get(term, ()) for index in self._pos_index.values()))
        return self._ordered(hits, latest)

    @staticmethod
    def _bound_positions(pattern: QuadPattern) -> list[tuple[str, Term]]:
        return [
            (position, term)
            for position, term in (
                ("subject", pattern.subject),
                ("predicate", pattern.predicate),
                ("object", pattern.object),
                ("graph", pattern.graph),
            )
            if term is not None
        ]

    def _ordered(self, codes: Iterable[str], latest: bool) -> list[str]:
        if not latest:
            # unspecified but stable: ingest order
            return sorted(codes, key=lambda c: self._by_code[c].ingested_at)
        return sorted(codes, key=lambda c: self._by_code[c].latest_key)
