"""Construct and mint a nanopublication in one step.

Content triples are written against placeholder IRIs derived from the
minting base; minting inserts the artifact code after the base in every
of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .nanopub import Nanopublication, head_quads
from .rdf import Quad, QuadDocument, Term, iri
from .trusty import TrustyUri, mint

HEAD_SUFFIX = "#head"
ASSERTION_SUFFIX = "#assertion"
PROVENANCE_SUFFIX = "#provenance"
PUBINFO_SUFFIX = "#pubinfo"

Triple = tuple[Term, Term, Term]


@dataclass(frozen=True)
class Placeholders:
    """Pre-mint self-IRIs of a nanopublication under construction."""

    uri: str
    head: str
    assertion: str
    provenance: str
    pubinfo: str


def placeholders(base: str) -> Placeholders:
    return Placeholders(
        uri=base,
        head=base + HEAD_SUFFIX,
        assertion=base + ASSERTION_SUFFIX,
        provenance=base + PROVENANCE_SUFFIX,
        pubinfo=base + PUBINFO_SUFFIX,
    )


def mint_nanopub(
    base: str,
    assertion: Iterable[Triple],
    provenance: Iterable[Triple],
    pubinfo: Iterable[Triple],
) -> tuple[TrustyUri, Nanopublication]:
    """Wrap content triples in the four-graph container and mint it.

    The triples may reference the placeholder IRIs (see
    :func:`placeholders`); provenance must say something about the
    assertion graph and pubinfo something about the nanopublication URI,
    or NanopubValidationError is raised.
    """
    ph = placeholders(base)
    quads = head_quads(ph.uri, ph.head, ph.assertion, ph.provenance, ph.pubinfo)
    for graph_iri, triples in (
        (ph.assertion, assertion),
        (ph.provenance, provenance),
        (ph.pubinfo, pubinfo),
    ):
        g = iri(graph_iri)
        for s, p, o in triples:
            quads.append(Quad(s, p, o, g))
    uri, minted = mint(QuadDocument(quads), base)
    return uri, Nanopublication(uri.uri, minted.quads)
