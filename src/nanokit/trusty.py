"""Content addressing: mint, verify, and extract artifact codes.

A code is "RA" followed by 43 characters that encode the SHA-256 digest
of the document's canonical form.  The canonical form blanks every
self-reference (any IRI or literal datatype under the minting base, with
the embedded code stripped), so a document hashes the same before and
after minting.  A literal's lexical form is never stripped.  When
verifying, only the claimed code is stripped, and a term under the base
without it fails, so each code names exactly one set of quads.

The canonical form is rendered from strings: one dict, local to the
call, maps each distinct IRI or datatype string to its stripped
``<...>`` text, and each line is an f-string over it; no ``Term`` is
hashed.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
import hashlib
import re
from typing import TYPE_CHECKING

from .rdf import Quad, QuadDocument, Term, escape_string, iri, literal

if TYPE_CHECKING:
    from .nanopub import Nanopublication

CODE_LENGTH = 45
CODE_PREFIX = "RA"
# "RA" plus 43 characters of the URL-safe base64 alphabet (A-Z a-z 0-9 - _),
# spelled out in ASCII so no other Unicode letter or digit matches
_CODE_RE = re.compile(r"RA[A-Za-z0-9_-]{43}")
_CODES_RE = re.compile(r"(?:RA[A-Za-z0-9_-]{43})*")
_BASE_ENDINGS = ("/", "#", ".")


class MintError(ValueError):
    pass


def is_artifact_code(text: str) -> bool:
    return _CODE_RE.fullmatch(text) is not None


@dataclass(frozen=True)
class TrustyUri:
    """A base IRI (ending in '/', '#', or '.') immediately followed by a code."""

    base: str
    code: str

    def __post_init__(self):
        if not self.base.endswith(_BASE_ENDINGS):
            raise ValueError(f"base must end in '/', '#' or '.': {self.base!r}")
        if not is_artifact_code(self.code):
            raise ValueError(f"malformed artifact code: {self.code!r}")

    @property
    def uri(self) -> str:
        return self.base + self.code


def extract_artifact_code(uri: str) -> str | None:
    """The trailing 45-character code of ``uri``, or None."""
    if len(uri) <= CODE_LENGTH:
        return None
    tail = uri[-CODE_LENGTH:]
    return tail if is_artifact_code(tail) else None


def _strip_codes(value: str, base: str, code: str | None = None) -> str:
    """Drop ``code``, or every artifact code if it is None, sitting
    directly after ``base``; a value under the base without ``code`` is a
    ValueError."""
    if not value.startswith(base):
        return value
    if code is not None:
        if not value.startswith(code, len(base)):
            raise ValueError(f"{value!r} is under the base but lacks code {code}")
        return base + value[len(base) + len(code):]
    end = _CODES_RE.match(value, len(base)).end()
    return value if end == len(base) else base + value[end:]


def canonical_form(doc: QuadDocument | Nanopublication, base: str, code: str | None = None) -> str:
    """Deterministic text the code is computed from.

    One ``S P O G .`` line per quad with self-references blanked to the
    bare base, sorted by byte order, newline-joined with a trailing
    newline.  Invariant under quad reordering and prefix-table changes.
    Without ``code``, any code after the base is stripped.  With it, only
    that code is, and a term under the base that lacks it is a ValueError:
    each distinct IRI or datatype string is stripped once, in quad order
    (subject, predicate, object or its datatype, graph), so the first one
    lacking ``code`` is the one named.  A literal's lexical form is never
    stripped.
    """
    rendered: dict[str, str] = {}  # IRI or datatype string -> "<...>"
    for q in doc.quads:
        obj = q.object
        obj_iri = obj.value if obj.kind == "iri" else obj.datatype
        for value in (q.subject.value, q.predicate.value, obj_iri, q.graph.value):
            if value is not None and value not in rendered:
                rendered[value] = f"<{_strip_codes(value, base, code)}>"
    lines = set()
    for q in doc.quads:
        obj = q.object
        if obj.kind == "iri":
            text = rendered[obj.value]
        else:
            text = f'"{escape_string(obj.value)}"'
            if obj.language is not None:
                text += f"@{obj.language}"
            elif obj.datatype is not None:
                text += f"^^{rendered[obj.datatype]}"
        lines.add(f"{rendered[q.subject.value]} {rendered[q.predicate.value]} {text} {rendered[q.graph.value]} .")
    # code point order is UTF-8 byte order
    return "".join(line + "\n" for line in sorted(lines))


def encode_digest(digest: bytes) -> str:
    # 256 bits left-padded with 2 zero bits -> 43 six-bit groups; six
    # trailing zero bits make it 33 bytes, i.e. 44 base64 characters
    padded = (int.from_bytes(digest, "big") << 6).to_bytes(33, "big")
    return base64.urlsafe_b64encode(padded)[:43].decode("ascii")


def compute_code(doc: QuadDocument | Nanopublication, base: str, code: str | None = None) -> str:
    digest = hashlib.sha256(canonical_form(doc, base, code).encode("utf-8")).digest()
    return CODE_PREFIX + encode_digest(digest)


def mint(doc: QuadDocument, base: str) -> tuple[TrustyUri, QuadDocument]:
    """Compute the document's code and rewrite its self-references.

    Every IRI under ``base`` is treated as a self-reference and has the
    code inserted directly after the base, so the input must not contain
    foreign trusty URIs under the same base (MintError otherwise, naming
    the first such IRI or datatype in quad order); give each mintable
    document its own base.  Each distinct IRI or datatype string is
    checked once, and each distinct term is rewritten once: the minted
    document holds one ``Term`` object per distinct term.
    """
    if not base.endswith(_BASE_ENDINGS):
        raise MintError(f"base must end in '/', '#' or '.': {base!r}")
    checked: set[str] = set()
    for q in doc.quads:
        for term in (q.subject, q.predicate, q.object, q.graph):
            value = term.value if term.is_iri else term.datatype
            if value is not None and value not in checked:
                if _strip_codes(value, base) != value:
                    raise MintError(
                        f"base {base!r} collides with embedded trusty URI {value!r}"
                    )
                checked.add(value)
    code = compute_code(doc, base)
    minted = base + code
    rewritten: dict[Term, Term] = {}  # each distinct term -> its minted term
    quads = []
    for q in doc.quads:
        terms = []
        for term in (q.subject, q.predicate, q.object, q.graph):
            new = rewritten.get(term)
            if new is None:
                new = term
                if term.is_iri:
                    if term.value.startswith(base):
                        new = iri(minted + term.value[len(base):])
                elif term.datatype is not None and term.datatype.startswith(base):
                    new = literal(term.value, datatype=minted + term.datatype[len(base):])
                rewritten[term] = new
            terms.append(new)
        quads.append(Quad(*terms))
    return TrustyUri(base, code), QuadDocument(quads, doc.prefixes)


def verify(doc: QuadDocument | Nanopublication, uri: TrustyUri | str) -> bool:
    """True iff re-deriving the code from ``doc`` reproduces ``uri``'s code."""
    reason = verify_reason(doc, uri)
    return reason is None


def verify_reason(doc: QuadDocument | Nanopublication, uri: TrustyUri | str) -> str | None:
    """None when verification passes, else a short failure reason."""
    try:
        if isinstance(uri, str):
            code = extract_artifact_code(uri)
            if code is None:
                return "IRI does not end in an artifact code"
            uri = TrustyUri(uri[:-CODE_LENGTH], code)
        recomputed = compute_code(doc, uri.base, uri.code)
    except ValueError as exc:
        return str(exc)
    if recomputed != uri.code:
        return f"content hashes to {recomputed}, identifier claims {uri.code}"
    return None
