"""In-memory + file-backed store of verified nanopublications.

A ``Nanopublication`` is valid by construction, so ``put_all`` checks
only what the container rules cannot: it verifies the content of each
nanopub against its artifact code on every call, all of a batch before
it stores any of it (``put`` is the one-element batch).  A code names
exactly one set of quads, so a verified nanopub whose code is stored
already is that one.

Layout on disk: one ``<code>.trig`` file per nanopublication in a flat
directory plus an append-only ``journal.log`` whose lines are
``<seq> <code>`` in ascending seq order.  The journal doubles as the
replication feed for the network module.  Reopening drops a torn last
line (an append cut short by a crash) and rejects any other bad line.
It re-parses and re-verifies every file; a missing, unparsable or
unverifiable one, or one holding another code than its journal line, is
a ``StoreError`` naming the file and its journal line.

The store keeps each nanopub once, in a dict by code.  ``put`` publishes
the nanopub, then its journal entry (the seq and code lists, indexed by
ingest position), then its index record if it has one, and nothing else:
storing and replicating never pay for the query index.

The query index is built on read.  ``find_by_pattern`` and
``find_by_uri`` first call ``catch_up``, which indexes the positions put
since the last query, in ingest order, under the store lock.
``ApiServer`` calls it once before it listens, so no request pays for a
whole store.  Per position it computes the ``latest_key`` and adds the
position to the postings: key -> ingest positions, ascending, never
reordered.  A key held by one position, as most are, keeps it as a bare
int; a second, different position replaces it with the list of both in
one dict store, and later ones are appended to that list.  Readers take
a posting through ``_posting``, which turns the int into a 1-tuple.
There are postings per quad position, keyed by the IRI string (an object
literal by its value, datatype and language), and pair postings: one
dict per predicate, keyed by the object.  A one-position or a
predicate+object pattern is one posting, and so is exact; the wildcard
is the journal.  Any other pattern confirms the positions of its
smallest posting against their quads.  A URI mention is the union of the four position postings for
that IRI.  Ingest order is the posting itself.  Latest order is one
store-wide list of the indexed positions in ``latest_key`` order; a
catch-up sorts the old list and the new positions into a new one, which
it publishes whole, so a reader holds one consistent list.  A latest
page walks it and stops at the page end when the hits are dense enough
that, spread evenly, they would fill the page within as many positions
as there are hits; it sorts only the hits when they are sparse, or when
the walk reads twice that many positions without filling the page (hits
bunched late in the order).

Index nanopublications are parsed once, by ``put``, into an index table:
a nanopub goes in when its assertion types itself an index
(``index.is_index``) and it parses as an ``IndexRecord`` (a malformed
one stays out).  The table is an append-only list in ingest order plus a
dict by URI, published after the journal entry; readers take a slice of
the list, as of the journal, and look records up in the dict.  Reopening
rebuilds it through the same path.  ``index.list_indexes`` keeps the
size of each head it lists in ``index_sizes`` once its expansion first
resolves: every link is content-addressed, so the size never changes.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from datetime import datetime
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import namespaces as ns
from .index import IndexError_, IndexRecord, is_index
from .nanopub import HEAD_LINKS, Nanopublication
from .rdf import QuadPattern, Term, parse_trig, serialize_trig
from .trusty import CODE_LENGTH, extract_artifact_code, is_artifact_code, verify_reason
from .util import parse_digits, parse_timestamp

JOURNAL_NAME = "journal.log"
POSITIONS = ("subject", "predicate", "object", "graph")


class StoreError(ValueError):
    pass


def _latest_key(code: str, created: Optional[datetime]) -> tuple:
    # created desc, missing last, ties by code asc
    if created is None:
        return (1, 0.0, code)
    return (0, -created.timestamp(), code)


def _object_key(term: Term):
    """Posting key of a term: an IRI by its string, a literal by
    (value, datatype, language), so the two kinds never compare equal."""
    if term.kind == "iri":
        return term.value
    return (term.value, term.datatype, term.language)


def _posting(index: dict, key) -> Optional[Sequence[int]]:
    """The ingest positions ``index`` holds for ``key``, ascending; None
    for none.  A key held by one position keeps it as a bare int."""
    positions = index.get(key)
    return (positions,) if type(positions) is int else positions


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

    One pass groups the quads by graph and finds the heads: a head is the
    graph of a nanopub's first ``np:hasAssertion`` link to an IRI, as in
    ``candidate_uris``, whose order they keep.  Its nanopub's quads are
    those of the head and of the graphs it links to.  Every quad must
    belong to exactly one nanopublication; leftovers are an error.
    """
    graphs: dict[str, list] = {}
    heads: dict[str, str] = {}  # nanopub URI -> graph of its first hasAssertion link
    for q in doc.quads:
        graphs.setdefault(q.graph.value, []).append(q)
        if q.predicate.value == ns.NP_HAS_ASSERTION and q.object.is_iri:
            heads.setdefault(q.subject.value, q.graph.value)
    nanopubs = []
    claimed = set()
    for uri, head_iri in heads.items():
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


def read_corpus(path: str | Path) -> list[Nanopublication]:
    """The nanopublications of one TriG file; a missing file, or a parse,
    validation or split error, is a ValueError naming the file."""
    try:
        return split_corpus(parse_trig(Path(path).read_text(encoding="utf-8")))
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
        self._by_code: dict[str, Nanopublication] = {}
        self._seq = 0
        # the journal: seqs ascending and codes in ingest order; only ever
        # appended to, by put
        self._seqs: list[int] = []
        self._codes: list[str] = []
        # the query index of the first _indexed positions, built by
        # catch_up: the latest_key of each position and the postings,
        # position name -> key -> ingest positions (one a bare int, more an
        # ascending list, only ever appended to), "pair" -> predicate -> object
        # key -> the same; and those positions in latest_key order, replaced whole
        self._indexed = 0
        self._keys: list[tuple] = []
        self._postings: dict[str, dict] = {name: {} for name in (*POSITIONS, "pair")}
        self._latest: list[int] = []
        # the index records, in ingest order and by URI; only ever appended to
        self._indexes: list[IndexRecord] = []
        self._index_by_uri: dict[str, IndexRecord] = {}
        self.index_sizes: dict[str, int] = {}  # head URI -> expansion size
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
        return self.put_all([np])[0]

    def put_all(self, nanopubs: Iterable[Nanopublication]) -> list[str]:
        """Store a batch of trusty-verified nanopublications and return
        their codes; idempotent by code.  Each is verified once, before any
        is stored, so one that fails stores none of the batch."""
        nanopubs = list(nanopubs)
        for np in nanopubs:
            reason = verify_reason(np, np.uri)
            if reason is not None:
                raise StoreError(f"verification failed for <{np.uri}>: {reason}")
        codes = [np.uri[-CODE_LENGTH:] for np in nanopubs]
        with self._lock:
            for code, np in zip(codes, nanopubs):
                if code in self._by_code:
                    continue
                self._seq += 1
                if self.directory is not None:
                    path = self.directory / f"{code}.trig"
                    path.write_text(serialize_trig(np), encoding="utf-8")
                    with (self.directory / JOURNAL_NAME).open("a", encoding="utf-8") as fh:
                        fh.write(f"{self._seq} {code}\n")
                self._register(code, np, self._seq)
        return codes

    def _register(self, code: str, np: Nanopublication, seq: int):
        # publish the nanopub, then the journal, then the index table: every
        # position a reader finds has a code and a nanopub.  The postings
        # and the latest order wait for the next query (catch_up).
        self._by_code[code] = np
        self._codes.append(code)
        self._seqs.append(seq)
        if is_index(np):
            try:
                index = IndexRecord.from_nanopub(np)
            except IndexError_:  # malformed: its resolution raises on demand
                return
            self._index_by_uri[index.uri] = index
            self._indexes.append(index)

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
            try:
                seq = parse_digits(seq_text)
            except ValueError:
                seq = None
            if seq is None or not is_artifact_code(code):
                raise StoreError(f"{JOURNAL_NAME} line {number}: malformed entry {line!r}")
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
            self._register(code, np, seq)
            self._seq = seq

    # -- query index ------------------------------------------------------

    def catch_up(self):
        """Index every position stored so far: its ``latest_key``, its
        postings and its place in the latest order.  Returns at once when
        no position is waiting."""
        if self._indexed == len(self._codes):
            return
        with self._lock:
            start = self._indexed
            new = list(range(start, len(self._codes)))  # one int object per position
            if not new:
                return  # another reader caught up first
            codes, by_code, keys = self._codes, self._by_code, self._keys
            subjects, predicates, objects, graphs, pairs = self._postings.values()
            # publish each key, then its postings: every position a reader
            # finds in a posting has a key; then the latest order, then _indexed
            for pos in new:
                code = codes[pos]
                np = by_code[code]
                keys.append(_latest_key(code, _created_of(np)))
                for q in np.quads:
                    predicate = q.predicate.value
                    obj = _object_key(q.object)
                    for index, key in (
                        (subjects, q.subject.value),
                        (predicates, predicate),
                        (objects, obj),
                        (graphs, q.graph.value),
                        (pairs.setdefault(predicate, {}), obj),
                    ):
                        positions = index.setdefault(key, pos)
                        if type(positions) is int:
                            if positions != pos:  # a second position: one store publishes both
                                index[key] = [positions, pos]
                        elif positions[-1] != pos:
                            positions.append(pos)
            # the old order is one sorted run: the sort merges the new ones in
            self._latest = sorted([*self._latest, *new], key=keys.__getitem__)
            self._indexed = start + len(new)

    # -- retrieval --------------------------------------------------------

    def get(self, code: str) -> Optional[Nanopublication]:
        return self._by_code.get(code)

    def missing(self, codes: Iterable[str]) -> list[str]:
        """The codes of ``codes`` this store does not hold, in their order."""
        by_code = self._by_code
        return [code for code in codes if code not in by_code]

    def index_records(self) -> list[IndexRecord]:
        """Every well-formed index record stored, in ingest order."""
        return self._indexes[:]

    def index_record(self, uri: str) -> Optional[IndexRecord]:
        """The stored index record of ``uri``; None if there is none."""
        return self._index_by_uri.get(uri)

    def get_by_uri(self, uri: str) -> Nanopublication:
        # put files every nanopub under the code of its own URI
        np = self._by_code.get(extract_artifact_code(uri))
        if np is None or np.uri != uri:
            raise KeyError(uri)
        return np

    def find_by_pattern(
        self, pattern: QuadPattern, latest: bool = True, stop: int | None = None
    ) -> list[str]:
        """Codes of nanopublications holding at least one matching quad,
        up to ``stop`` of them (all when ``None``)."""
        self.catch_up()
        keys = {
            name: _object_key(term)
            for name in POSITIONS
            if (term := getattr(pattern, name)) is not None
        }
        if not keys:
            if latest:
                return list(map(self._codes.__getitem__, self._latest[:stop]))
            return self._codes[:stop]
        indexes = self._postings
        if "predicate" in keys and "object" in keys:
            # the pair postings of the predicate, by object, stand in for both
            indexes = {**indexes, "object": indexes["pair"].get(keys.pop("predicate"), {})}
        postings = [_posting(indexes[name], key) for name, key in keys.items()]
        if any(positions is None for positions in postings):
            return []
        hits = min(postings, key=len)
        if len(postings) > 1:
            codes, by_code = self._codes, self._by_code
            hits = [
                pos
                for pos in hits
                if any(pattern.matches(q) for q in by_code[codes[pos]].quads)
            ]
        return self._page([hits], latest, stop)

    def find_by_uri(self, uri: str, latest: bool = True, stop: int | None = None) -> list[str]:
        """Codes of nanopublications mentioning the IRI ``uri`` in any term
        position, up to ``stop`` of them: the union of the four position
        postings."""
        self.catch_up()
        postings = self._postings
        found = [positions for name in POSITIONS if (positions := _posting(postings[name], uri))]
        return self._page(found, latest, stop)

    def _page(self, postings: list[Sequence[int]], latest: bool, stop: int | None) -> list[str]:
        """Codes of the positions that ``postings`` (each ascending) hold,
        in latest or ingest order, up to ``stop`` of them."""
        total = sum(map(len, postings))  # a URI union may count a position twice
        want = total if stop is None else min(stop, total)
        if want <= 0:
            return []
        if not latest:
            union = postings[0] if len(postings) == 1 else sorted(set().union(*postings))
            return list(map(self._codes.__getitem__, union[:stop]))
        # the walk pays when the hits are spread evenly over the latest
        # order: it then finds the page within want * n / total positions,
        # no more than the total hits a sort reads; it gives up after twice
        # that, so hits bunched at the tail (old or undated) cost at most
        # about two sorts
        latest = self._latest  # one catch-up's order, never changed in place
        n = len(latest)
        order = None
        if total * total >= want * n:
            order = self._walk(latest, postings, want, 2 * want * n // total)
        if order is None:
            union = postings[0] if len(postings) == 1 else set().union(*postings)
            order = sorted(union, key=self._keys.__getitem__)[:stop]
        return list(map(self._codes.__getitem__, order))

    def _walk(
        self, latest: list[int], postings: list[Sequence[int]], want: int, budget: int
    ) -> Optional[list[int]]:
        """The first ``want`` positions of ``latest`` that some posting
        holds, reading at most ``budget`` positions; None when the budget
        runs out first."""
        found: list[int] = []
        for pos in itertools.islice(latest, budget):
            for positions in postings:
                i = bisect.bisect_left(positions, pos)
                if i < len(positions) and positions[i] == pos:
                    found.append(pos)
                    if len(found) == want:
                        return found
                    break
        if budget < len(latest):
            return None
        return found
