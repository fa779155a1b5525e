"""Content addressing: mint, verify, and extract artifact codes.

A code is "RA" followed by 43 characters that encode the SHA-256 digest
of the document's canonical form.  The canonical form blanks every
self-reference (any IRI or literal datatype under the minting base, with
the embedded code stripped), so a document hashes the same before and
after minting.  A literal's lexical form is never stripped.  When
verifying, only the claimed code is stripped, and a term under the base
without it fails, so each code names exactly one set of quads.

The canonical form is rendered from strings in one pass over the quads:
each line is an f-string built as its quad is read, over one dict, local
to the call, that maps each distinct IRI or datatype string to its
stripped ``<...>`` text.  A string is stripped when it is first seen and
looked up once per later use; no ``Term`` is hashed.  ``mint`` checks for
embedded codes in that same pass, so it strips each string once.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
import hashlib
import re
from typing import TYPE_CHECKING, Callable

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


def _render(doc: QuadDocument | Nanopublication, base: str, strip: Callable[[str], str]) -> str:
    """The canonical form of ``doc``, with ``strip`` giving the text of
    each distinct IRI or datatype string under ``base``.  It is called
    once per such string, in quad order (subject, predicate, object or
    its datatype, graph), so the first string it raises on is the first
    in that order."""
    # each term's lookup is written out in the loop: a helper call per
    # term would cost more than the lookup it saves writing
    rendered: dict[str, str] = {}  # IRI or datatype string -> "<...>"
    get = rendered.get
    lines = set()  # stripping can make two quads one line
    for q in doc.quads:
        value = q.subject.value
        s = get(value)
        if s is None:
            s = rendered[value] = f"<{strip(value) if value.startswith(base) else value}>"
        value = q.predicate.value
        p = get(value)
        if p is None:
            p = rendered[value] = f"<{strip(value) if value.startswith(base) else value}>"
        obj = q.object
        if obj.kind == "iri":
            value = obj.value
            o = get(value)
            if o is None:
                o = rendered[value] = f"<{strip(value) if value.startswith(base) else value}>"
        else:
            o = f'"{escape_string(obj.value)}"'
            if obj.language is not None:
                o = f"{o}@{obj.language}"
            elif obj.datatype is not None:
                value = obj.datatype
                d = get(value)
                if d is None:
                    d = rendered[value] = f"<{strip(value) if value.startswith(base) else value}>"
                o = f"{o}^^{d}"
        value = q.graph.value
        g = get(value)
        if g is None:
            g = rendered[value] = f"<{strip(value) if value.startswith(base) else value}>"
        lines.add(f"{s} {p} {o} {g} .\n")
    # code point order is UTF-8 byte order
    return "".join(sorted(lines))


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

    One pass over the quads renders each line as it goes: one dict lookup
    per term, and only a string not seen before that starts with the base
    is stripped.
    """
    return _render(doc, base, lambda value: _strip_codes(value, base, code))


def encode_digest(digest: bytes) -> str:
    # 256 bits left-padded with 2 zero bits -> 43 six-bit groups: a zero
    # byte in front makes 264 bits, whose first base64 character is the
    # six extra zero bits
    return base64.urlsafe_b64encode(b"\0" + digest)[1:].decode("ascii")


def _code_of(canonical: str) -> str:
    return CODE_PREFIX + encode_digest(hashlib.sha256(canonical.encode("utf-8")).digest())


def compute_code(doc: QuadDocument | Nanopublication, base: str, code: str | None = None) -> str:
    return _code_of(canonical_form(doc, base, code))


def mint(doc: QuadDocument, base: str) -> tuple[TrustyUri, QuadDocument]:
    """Compute the document's code and rewrite its self-references.

    Every IRI under ``base`` is treated as a self-reference and has the
    code inserted directly after the base, so the input must not contain
    foreign trusty URIs under the same base (MintError otherwise, naming
    the first such IRI or datatype in quad order); give each mintable
    document its own base.  The check runs inside the render of the
    canonical form, so each distinct IRI or datatype string is checked
    once, and each distinct term is rewritten once: the minted document
    holds one ``Term`` object per distinct term.
    """
    if not base.endswith(_BASE_ENDINGS):
        raise MintError(f"base must end in '/', '#' or '.': {base!r}")

    def keep(value: str) -> str:
        # a value that stripping would change holds an embedded code
        if _strip_codes(value, base) != value:
            raise MintError(f"base {base!r} collides with embedded trusty URI {value!r}")
        return value

    code = _code_of(_render(doc, base, keep))
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
