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

Lookups read postings: key -> codes in ingest order, appended to by
``put`` and never reordered.  There is one posting per quad position,
keyed by the IRI string (an object literal by its value, datatype and
language), and one per (predicate, object) pair.  A one-position or a
predicate+object pattern is one posting, and so is exact; the wildcard
is the journal.  Any other pattern confirms the codes of its smallest
posting against their quads.  A URI mention is the union of the four
position postings for that IRI.  Ingest order is the posting itself;
latest order sorts it per query, so ``put`` does no ordering work.
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
from .rdf import QuadPattern, Term, parse_trig, serialize_trig
from .trusty import extract_artifact_code, is_artifact_code, verify_reason
from .util import parse_timestamp

JOURNAL_NAME = "journal.log"
POSITIONS = ("subject", "predicate", "object", "graph")


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


def _object_key(term: Term):
    """Posting key of a term: an IRI by its string, a literal by
    (value, datatype, language), so the two kinds never compare equal."""
    if term.kind == "iri":
        return term.value
    return (term.value, term.datatype, term.language)


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
        # the journal: seqs ascending, codes in ingest order; only ever appended to
        self._seqs: list[int] = []
        self._codes: list[str] = []
        # posting name -> key -> codes in ingest order; only ever appended to
        self._postings: dict[str, dict] = {name: {} for name in (*POSITIONS, "pair")}
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load()

    def __len__(self) -> int:
        return len(self._by_code)

    def codes(self) -> list[str]:
        """All stored codes in ingest order."""
        return self._codes[:]

    def journal_entries(self, from_seq: int = 1, limit: int | None = None) -> list[tuple[int, str]]:
        """Journal page: (seq, code) with seq >= from_seq, at most ``limit``."""
        seqs = self._seqs
        start = bisect.bisect_left(seqs, from_seq)
        stop = len(seqs) if limit is None else start + max(limit, 0)
        # zip stops at the shorter list if a put lands between the slices
        return list(zip(seqs[start:stop], self._codes[start:stop]))

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
        subjects, predicates, objects, graphs, pairs = self._postings.values()
        for q in record.nanopub.quads:
            predicate = q.predicate.value
            obj = _object_key(q.object)
            for posting, key in (
                (subjects, q.subject.value),
                (predicates, predicate),
                (objects, obj),
                (graphs, q.graph.value),
                (pairs, (predicate, obj)),
            ):
                codes = posting.get(key)
                if codes is None:
                    posting[key] = [code]
                elif codes[-1] != code:
                    codes.append(code)
        self._seqs.append(record.ingested_at)
        self._codes.append(code)

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
        keys = {
            name: _object_key(term)
            for name in POSITIONS
            if (term := getattr(pattern, name)) is not None
        }
        if "predicate" in keys and "object" in keys:
            keys["pair"] = (keys.pop("predicate"), keys.pop("object"))
        postings = [self._postings[name].get(key) for name, key in keys.items()]
        if any(codes is None for codes in postings):
            return []
        codes = min(postings, key=len, default=self._codes)
        if len(postings) > 1:
            by_code = self._by_code
            codes = [
                code
                for code in codes
                if any(pattern.matches(q) for q in by_code[code].nanopub.quads)
            ]
        # a posting, and any filter of it, is already in ingest order
        return self._ordered(codes, True) if latest else codes[:]

    def find_by_uri(self, uri: str, latest: bool = True) -> list[str]:
        """Codes of nanopublications mentioning the IRI ``uri`` in any term
        position: the union of the four position postings."""
        found = [codes for name in POSITIONS if (codes := self._postings[name].get(uri))]
        if len(found) == 1:
            return self._ordered(found[0], True) if latest else found[0][:]
        return self._ordered(set().union(*found), latest)

    def _ordered(self, codes: Iterable[str], latest: bool) -> list[str]:
        if not latest:
            return sorted(codes, key=lambda c: self._by_code[c].ingested_at)
        return sorted(codes, key=lambda c: self._by_code[c].latest_key)
