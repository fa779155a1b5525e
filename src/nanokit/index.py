"""Nanopublication indexes: build, expand, version, and list.

An index is itself a nanopublication whose assertion defines a set:
direct elements, sub-indexes (whose expansions are unioned in), and an
``appends`` pointer chaining capacity-limited records together.  The
vocabulary lives under the npx namespace: the record is typed
npx:NanopubIndex in its assertion; membership uses npx:includesElement,
npx:includesSubindex, and npx:appendsIndex; non-final chain links carry
an npx:IncompleteIndex marker in their pubinfo.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timezone
from typing import Callable, Iterable, Optional

from . import namespaces as ns
from .build import mint_nanopub, placeholders
from .nanopub import Nanopublication
from .rdf import iri, literal
from .trusty import extract_artifact_code
from .util import content_tag, parse_timestamp

DEFAULT_CAPACITY = 1000

Resolver = Callable[[str], "IndexRecord"]


class IndexError_(ValueError):
    """Base for index failures (named to avoid the builtin)."""


class NotAnIndexError(IndexError_):
    pass


class UnresolvableIndexError(IndexError_):
    pass


class IndexCycleError(IndexError_):
    pass


@dataclass(frozen=True)
class IndexMetadata:
    title: Optional[str] = None
    created: Optional[str] = None
    creators: tuple[str, ...] = ()

    def is_empty(self) -> bool:
        return self.title is None and self.created is None and not self.creators


@dataclass(frozen=True)
class IndexRecord:
    """Parsed view of one index nanopublication."""

    uri: str
    nanopub: Nanopublication
    elements: tuple[str, ...]
    sub_indexes: tuple[str, ...]
    appends: Optional[str]
    is_incomplete: bool
    title: Optional[str] = None
    created: Optional[str] = None
    creators: tuple[str, ...] = ()

    @classmethod
    def from_nanopub(cls, np: Nanopublication) -> "IndexRecord":
        """Parse a nanopub the caller found ``is_index``; IndexError_ if malformed."""
        uri = np.uri
        elements: list[str] = []
        subs: list[str] = []
        appends: list[str] = []
        for q in np.assertion.quads:
            if q.subject.value != uri:
                continue
            pred = q.predicate.value
            if pred == ns.NPX_INCLUDES_ELEMENT and q.object.is_iri:
                elements.append(q.object.value)
            elif pred == ns.NPX_INCLUDES_SUBINDEX and q.object.is_iri:
                subs.append(q.object.value)
            elif pred == ns.NPX_APPENDS_INDEX and q.object.is_iri:
                appends.append(q.object.value)
        if len(appends) > 1:
            raise IndexError_(f"<{uri}> appends more than one index")
        if appends and appends[0] == uri:
            raise IndexCycleError(f"<{uri}> appends itself")

        incomplete = False
        title = created = None
        creators: list[str] = []
        for q in np.pubinfo.quads:
            if q.subject.value != uri:
                continue
            pred = q.predicate.value
            if pred == ns.RDF_TYPE and q.object.is_iri and q.object.value == ns.NPX_INCOMPLETE_INDEX:
                incomplete = True
            elif pred == ns.DCT_TITLE and q.object.is_literal:
                title = q.object.value
            elif pred == ns.DCT_CREATED and q.object.is_literal:
                created = q.object.value
            elif pred == ns.DCT_CREATOR:
                creators.append(q.object.value)

        return cls(
            uri=uri,
            nanopub=np,
            elements=tuple(dict.fromkeys(elements)),
            sub_indexes=tuple(dict.fromkeys(subs)),
            appends=appends[0] if appends else None,
            is_incomplete=incomplete,
            title=title,
            created=created,
            creators=tuple(creators),
        )


def is_index(np: Nanopublication) -> bool:
    """Whether the assertion types the nanopublication itself npx:NanopubIndex."""
    uri = np.uri
    return any(
        q.object.value == ns.NPX_NANOPUB_INDEX
        and q.predicate.value == ns.RDF_TYPE
        and q.subject.value == uri
        and q.object.is_iri
        for q in np.assertion.quads
    )


def store_resolver(store) -> Resolver:
    """Resolve index URIs against a store: from its index table, else by
    parsing the stored nanopublication, which raises KeyError for an
    unknown URI, NotAnIndexError for one that is not an index, and
    IndexError_ for a malformed index."""

    def resolve(uri: str) -> IndexRecord:
        record = store.index_record(uri)
        if record is None:
            np = store.get_by_uri(uri)
            if not is_index(np):
                raise NotAnIndexError(f"<{uri}> is not typed npx:NanopubIndex")
            record = IndexRecord.from_nanopub(np)
        return record

    return resolve


def _resolve(resolver: Resolver, uri: str) -> IndexRecord:
    try:
        return resolver(uri)
    except KeyError as exc:
        raise UnresolvableIndexError(f"cannot resolve index <{uri}>") from exc


def walk(head: IndexRecord, resolver: Resolver, subs: bool = True) -> list[IndexRecord]:
    """Every record reachable from ``head`` through ``appends`` and, when
    ``subs``, through sub-indexes, each once, depth first with the appends
    link first: with ``subs=False``, the chain, head first.  Iterative, so
    any chain length fits the recursion limit.  IndexCycleError for a link
    reached again while still on the path to it (shared sub-structure is
    fine), UnresolvableIndexError for a missing link, and NotAnIndexError
    for one that is not an index."""

    def links(record: IndexRecord):
        chained = (record.appends,) if record.appends else ()
        return iter(chained + record.sub_indexes if subs else chained)

    records, seen, path = [head], {head.uri}, {head.uri}
    stack = [(head, links(head))]
    while stack:
        record, todo = stack[-1]
        uri = next(todo, None)
        if uri is None:
            stack.pop()
            path.discard(record.uri)
        elif uri in path:
            raise IndexCycleError(f"cycle through <{uri}>")
        elif uri not in seen:
            link = _resolve(resolver, uri)
            records.append(link)
            seen.add(uri)
            path.add(uri)
            stack.append((link, links(link)))
    return records


@dataclass(frozen=True)
class IndexSummary:
    """One row of an index listing (the complete heads only)."""

    number: int
    uri: str
    title: Optional[str]
    date: Optional[str]
    sub_count: int
    size: int


def _check_request(elements: list[str], metadata: IndexMetadata, capacity: int):
    if capacity < 1:
        raise IndexError_(f"capacity must be >= 1, got {capacity}")
    seen = set()
    for e in elements:
        if e in seen:
            raise IndexError_(f"duplicate element <{e}>")
        seen.add(e)
        if extract_artifact_code(e) is None:
            raise IndexError_(f"element is not a trusty URI: <{e}>")
    if metadata.is_empty():
        raise IndexError_("index metadata must carry a title, created date, or creator")


def _mint_chain(
    base: str,
    elements: list[str],
    sub_indexes: list[str],
    appends: Optional[str],
    metadata: IndexMetadata,
    capacity: int,
) -> list[IndexRecord]:
    """Mint ``elements`` as a chain of links of at most ``capacity`` each.

    The first link appends ``appends``, each later one its predecessor.
    Non-final links are marked incomplete; the final link (last in the
    returned list) carries the title, the creators and the sub-indexes.
    Link ``i`` is minted under its own base ``base + "i/"``, so
    self-reference blanking cannot touch the membership URIs.
    """
    chunks = [elements[i : i + capacity] for i in range(0, len(elements), capacity)] or [[]]
    records: list[IndexRecord] = []
    for slot, chunk in enumerate(chunks):
        final = slot == len(chunks) - 1
        link_base = f"{base}{slot}/"
        ph = placeholders(link_base)
        me = iri(ph.uri)
        assertion = [(me, iri(ns.RDF_TYPE), iri(ns.NPX_NANOPUB_INDEX))]
        assertion += [(me, iri(ns.NPX_INCLUDES_ELEMENT), iri(e)) for e in chunk]
        if final:
            assertion += [(me, iri(ns.NPX_INCLUDES_SUBINDEX), iri(s)) for s in sub_indexes]
        if appends is not None:
            assertion.append((me, iri(ns.NPX_APPENDS_INDEX), iri(appends)))

        provenance = [(iri(ph.assertion), iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY))]

        pubinfo = []
        if not final:
            pubinfo.append((me, iri(ns.RDF_TYPE), iri(ns.NPX_INCOMPLETE_INDEX)))
        else:
            if metadata.title is not None:
                pubinfo.append((me, iri(ns.DCT_TITLE), literal(metadata.title)))
            for creator in metadata.creators:
                pubinfo.append((me, iri(ns.DCT_CREATOR), iri(creator)))
        if metadata.created is not None:
            pubinfo.append(
                (me, iri(ns.DCT_CREATED), literal(metadata.created, datatype=ns.XSD_DATETIME))
            )

        _, np = mint_nanopub(link_base, assertion, provenance, pubinfo)
        records.append(IndexRecord.from_nanopub(np))
        appends = records[-1].uri
    return records


def build_index(
    elements: Iterable[str],
    sub_indexes: Iterable[str] = (),
    metadata: IndexMetadata = IndexMetadata(),
    capacity: int = DEFAULT_CAPACITY,
    base: str = "http://example.org/index/",
) -> list[IndexRecord]:
    """Emit a chain of index records covering the given membership.

    Every link carries at most ``capacity`` elements (see ``_mint_chain``);
    the final link, last in the returned list, is the head.
    """
    elements = list(elements)
    sub_indexes = list(dict.fromkeys(sub_indexes))
    _check_request(elements, metadata, capacity)

    tag = content_tag(
        "build",
        str(capacity),
        metadata.title or "",
        metadata.created or "",
        *metadata.creators,
        *elements,
        *sub_indexes,
    )
    return _mint_chain(f"{base}{tag}/", elements, sub_indexes, None, metadata, capacity)


def expand(record: IndexRecord, resolver: Resolver) -> set[str]:
    """All nanopub URIs the index contains: the elements of every record
    ``walk`` reaches from it, deduplicated.  Raises as ``walk`` does."""
    return set().union(*[r.elements for r in walk(record, resolver)])


def build_incremental(
    previous: IndexRecord,
    added: Iterable[str],
    removed: set[str],
    metadata: IndexMetadata,
    resolver: Resolver,
    capacity: int = DEFAULT_CAPACITY,
    base: str = "http://example.org/index/",
) -> list[IndexRecord]:
    """New version of ``previous``: reuse what can be reused, re-emit the rest.

    Reused are the full-capacity, removal-free links of the previous
    chain (never the previous head itself, which stays listed as its own
    version) and every sub-index untouched by removals.  The expansion
    of the new head equals (expand(previous) - removed) | added.
    """
    added = list(dict.fromkeys(added))
    _check_request(added, metadata, capacity)

    previous_expansion = expand(previous, resolver)
    unknown = set(removed) - previous_expansion
    if unknown:
        sample = sorted(unknown)[0]
        raise IndexError_(f"removal of URI not in previous version: <{sample}>")

    chain = walk(previous, resolver, subs=False)[::-1]  # oldest first

    reused: list[IndexRecord] = []
    for link in chain[:-1]:  # the previous head is never reused
        if (
            len(link.elements) == capacity
            and not link.sub_indexes
            and not (set(link.elements) & removed)
        ):
            reused.append(link)
        else:
            break

    leftover: list[str] = []
    for link in chain[len(reused):]:
        leftover.extend(e for e in link.elements if e not in removed)

    all_subs = list(
        dict.fromkeys(s for link in chain[len(reused):] for s in link.sub_indexes)
    )
    kept_subs: list[str] = []
    for sub_uri in all_subs:
        sub_expansion = expand(_resolve(resolver, sub_uri), resolver)
        if sub_expansion & removed:
            leftover.extend(sorted(sub_expansion - removed))
        else:
            kept_subs.append(sub_uri)

    existing = set(leftover) | {e for link in reused for e in link.elements}
    remaining = list(dict.fromkeys(leftover)) + [e for e in added if e not in existing]

    tag = content_tag(
        "incremental",
        previous.uri,
        str(capacity),
        metadata.title or "",
        metadata.created or "",
        *metadata.creators,
        *remaining,
        *kept_subs,
        *sorted(removed),
    )
    appends = reused[-1].uri if reused else None
    return _mint_chain(f"{base}{tag}/", remaining, kept_subs, appends, metadata, capacity)


def _listing_key(record: IndexRecord):
    stamp = parse_timestamp(record.created) if record.created else None
    code = extract_artifact_code(record.uri) or ""
    if stamp is None:
        return (1, "", code)
    return (0, stamp.astimezone(timezone.utc).isoformat(), code)


def list_indexes(store) -> list[IndexSummary]:
    """One summary per complete index head, date order then code order.

    A record is listed when it is a well-formed index, carries no
    incomplete marker, no other stored record appends it, and its
    expansion resolves.  A head with a dangling or cyclic link is left
    out, as an incomplete link is, until the record it lacks is stored.
    A head's size is kept in ``store.index_sizes`` once it resolves, and
    never expanded again.
    """
    records = store.index_records()
    appended = {record.appends for record in records}
    heads = [r for r in records if not r.is_incomplete and r.uri not in appended]
    heads.sort(key=_listing_key)
    resolver = store_resolver(store)
    sizes = store.index_sizes
    rows: list[IndexSummary] = []
    for record in heads:
        size = sizes.get(record.uri)
        if size is None:
            try:
                size = sizes[record.uri] = len(expand(record, resolver))
            except IndexError_:  # a dangling or cyclic link: tried again next time
                continue
        number, subs = len(rows) + 1, len(record.sub_indexes)
        rows.append(IndexSummary(number, record.uri, record.title, record.created, subs, size))
    return rows
