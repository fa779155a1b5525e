"""Independent reference for content-hash codes, used to check nanokit.trusty.

Deliberately written against the rules themselves: it shares only the
package's value classes (``Term``, ``Quad``, ``QuadDocument``), used to
build documents, and none of its stripping, rendering or hashing logic:
regex-driven self-reference stripping, its own term rendering, its own
bit fiddling.  Keep it boring and obviously correct; the tests compare
the package against this byte-for-byte.
"""

import hashlib
import re

from nanokit.rdf import Quad, QuadDocument, Term

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

_CODE_RE = re.compile(r"^RA[A-Za-z0-9\-_]{43}")


def oracle_strip(iri_value: str, base: str) -> str:
    """base + code [+ suffix] -> base [+ suffix]; repeat while codes remain."""
    if not iri_value.startswith(base):
        return iri_value
    rest = iri_value[len(base):]
    while True:
        m = _CODE_RE.match(rest)
        if not m:
            break
        rest = rest[45:]
    return base + rest


def oracle_strip_trusty(doc, base: str) -> QuadDocument:
    """Undo minting: every IRI and literal datatype through ``oracle_strip``,
    into a new document with the same prefixes."""

    def strip(term):
        if term.is_iri:
            return Term("iri", oracle_strip(term.value, base))
        if term.datatype:
            return Term("literal", term.value, oracle_strip(term.datatype, base))
        return term

    return QuadDocument(
        (Quad(strip(q.subject), strip(q.predicate), strip(q.object), strip(q.graph)) for q in doc.quads),
        doc.prefixes,
    )


def oracle_strip_claimed(iri_value: str, base: str, code: str) -> str:
    """base + code [+ suffix] -> base [+ suffix], for the claimed code only."""
    if not iri_value.startswith(base + code):
        return iri_value
    return base + iri_value[len(base + code):]


def _render(term, strip) -> str:
    if term.is_iri:
        return "<" + strip(term.value) + ">"
    body = term.value
    for raw, esc in [
        ("\\", "\\\\"),
        ('"', '\\"'),
        ("\n", "\\n"),
        ("\r", "\\r"),
        ("\t", "\\t"),
        ("\b", "\\b"),
        ("\f", "\\f"),
    ]:
        body = body.replace(raw, esc)
    out = '"' + body + '"'
    if term.language:
        out += "@" + term.language
    elif term.datatype:
        out += "^^<" + strip(term.datatype) + ">"
    return out


def oracle_canonical_form(doc, base: str, code: str | None = None) -> str:
    """Self-references blanked: every code after the base is stripped, or
    only ``code`` when one is claimed."""
    if code is None:
        strip = lambda value: oracle_strip(value, base)
    else:
        strip = lambda value: oracle_strip_claimed(value, base, code)
    lines = set()
    for q in doc:
        lines.add(
            _render(q.subject, strip)
            + " "
            + _render(q.predicate, strip)
            + " "
            + _render(q.object, strip)
            + " "
            + _render(q.graph, strip)
            + " ."
        )
    return "".join(line + "\n" for line in sorted(lines, key=lambda s: s.encode("utf-8")))


def oracle_code(doc, base: str, code: str | None = None) -> str:
    digest = hashlib.sha256(oracle_canonical_form(doc, base, code).encode("utf-8")).digest()
    # 256-bit digest, left-padded by 2 zero bits, read as 43 six-bit groups
    bits = bin(int.from_bytes(digest, "big"))[2:].zfill(256)
    bits = "00" + bits
    chars = [ALPHABET[int(bits[i : i + 6], 2)] for i in range(0, 258, 6)]
    return "RA" + "".join(chars)


def oracle_verify(doc, uri: str) -> bool:
    """The URI is a base ending in '/', '#' or '.' and then a code, every
    IRI and datatype under the base goes on with that code, and the
    document hashes to it with only that code stripped after the base."""
    base, code = uri[:-45], uri[-45:]
    if not base.endswith(("/", "#", ".")) or not _CODE_RE.fullmatch(code):
        return False
    for q in doc:
        for term in (q.subject, q.predicate, q.object, q.graph):
            value = term.value if term.is_iri else term.datatype
            if value and value.startswith(base) and not value.startswith(base + code):
                return False
    return oracle_code(doc, base, code) == code
