"""Nanopublication toolkit.

Four-graph containers over a TriG quad subset, content-hash identifiers,
set-defining indexes with incremental versions, a replicated publishing
network with a deterministic simulator, the seven-method query API, and
corpus statistics.
"""

from .nanopub import Nanopublication, ValidationReport, part_sizes, validate
from .rdf import Quad, QuadDocument, QuadPattern, Term, iri, literal, parse_trig, serialize_trig
from .store import NanopubStore
from .trusty import TrustyUri, canonical_form, extract_artifact_code, mint, verify

__all__ = [
    "Nanopublication",
    "NanopubStore",
    "Quad",
    "QuadDocument",
    "QuadPattern",
    "Term",
    "TrustyUri",
    "ValidationReport",
    "canonical_form",
    "extract_artifact_code",
    "iri",
    "literal",
    "mint",
    "parse_trig",
    "part_sizes",
    "serialize_trig",
    "validate",
    "verify",
]
