"""Terms, quads, documents, and a TriG-subset parser/serializer.

The accepted TriG subset is exactly what nanopublications need: prefix
declarations and named-graph blocks containing IRI/literal triples.
Blank nodes, collections, quoted triples, and default-graph statements
are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional

from .namespaces import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)

if TYPE_CHECKING:
    from .nanopub import Nanopublication

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_LANG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")


class TrigSyntaxError(ValueError):
    """Raised on malformed input, with 1-based line/column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class BlankNodeError(TrigSyntaxError):
    """Blank nodes are not representable anywhere in this toolkit."""


_IRI_FORBIDDEN = set(' \t\r\n<>"{}|^`\\')


def _check_iri(value: str):
    if not _SCHEME_RE.match(value):
        raise ValueError(f"not an absolute IRI: {value!r}")
    if not _IRI_FORBIDDEN.isdisjoint(value):
        bad = next(c for c in value if c in _IRI_FORBIDDEN)  # the first, so the message is stable
        raise ValueError(f"IRI contains forbidden character {bad!r}: {value!r}")


@dataclass(frozen=True, slots=True)
class Term:
    """An RDF term: an absolute IRI or a literal.

    A literal carries at most one of ``datatype`` (an IRI) and
    ``language``.  Blank nodes are deliberately unrepresentable.
    """

    kind: str  # "iri" | "literal"
    value: str
    datatype: Optional[str] = None
    language: Optional[str] = None

    def __post_init__(self):
        if self.kind == "iri":
            if self.datatype is not None or self.language is not None:
                raise ValueError("IRI terms carry no datatype or language")
            _check_iri(self.value)
        elif self.kind == "literal":
            if self.datatype is not None and self.language is not None:
                raise ValueError("literal with both datatype and language")
            if self.datatype is not None:
                _check_iri(self.datatype)
            if self.language is not None and not _LANG_RE.match(self.language):
                raise ValueError(f"malformed language tag: {self.language!r}")
        else:
            raise ValueError(f"unknown term kind: {self.kind!r}")

    def __hash__(self) -> int:
        # equal terms have equal values; str caches its own hash
        return hash(self.value)

    @property
    def is_iri(self) -> bool:
        return self.kind == "iri"

    @property
    def is_literal(self) -> bool:
        return self.kind == "literal"


def iri(value: str) -> Term:
    return Term("iri", value)


def literal(value: str, datatype: str | None = None, language: str | None = None) -> Term:
    return Term("literal", value, datatype, language)


@dataclass(frozen=True, slots=True)
class Quad:
    """One statement placed in a named graph."""

    subject: Term
    predicate: Term
    object: Term
    graph: Term

    def __post_init__(self):
        for pos in ("subject", "predicate", "graph"):
            term = getattr(self, pos)
            if not term.is_iri:
                raise ValueError(f"quad {pos} must be an IRI, got {term.kind}")

    def __hash__(self) -> int:
        return hash((self.subject.value, self.predicate.value, self.object.value, self.graph.value))


class QuadDocument:
    """An ordered, duplicate-free collection of quads plus a prefix table.

    Prefixes are presentation only.  Two documents are equal iff their
    quad sets are equal, regardless of order and prefixes.
    """

    __slots__ = ("quads", "prefixes")

    def __init__(self, quads: Iterable[Quad] = (), prefixes: Mapping[str, str] | None = None):
        object.__setattr__(self, "quads", tuple(dict.fromkeys(quads)))
        object.__setattr__(self, "prefixes", dict(prefixes or {}))

    def __setattr__(self, name, value):
        raise AttributeError("QuadDocument is immutable")

    def quad_set(self) -> frozenset[Quad]:
        return frozenset(self.quads)

    def __len__(self) -> int:
        return len(self.quads)

    def __iter__(self) -> Iterator[Quad]:
        return iter(self.quads)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadDocument):
            return NotImplemented
        return self.quad_set() == other.quad_set()

    def __hash__(self) -> int:
        return hash(self.quad_set())

    def __repr__(self) -> str:
        return f"QuadDocument({len(self.quads)} quads, {len(self.prefixes)} prefixes)"


@dataclass(frozen=True)
class QuadPattern:
    """A quad template; ``None`` in a position is a wildcard."""

    subject: Optional[Term] = None
    predicate: Optional[Term] = None
    object: Optional[Term] = None
    graph: Optional[Term] = None

    def matches(self, q: Quad) -> bool:
        return (
            (self.subject is None or q.subject == self.subject)
            and (self.predicate is None or q.predicate == self.predicate)
            and (self.object is None or q.object == self.object)
            and (self.graph is None or q.graph == self.graph)
        )


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
#
# One compiled pattern matches a token at the current offset, after any
# whitespace.  A comment is a token of its own, which the loop drops.  When no
# token follows a whitespace run, the one failing match backtracks over the run
# one character at a time, and no alternative starts with whitespace, so that
# costs time linear in the run; the lexer raises on that failure.  A string
# matches only its opening quote, and ``_lex_string`` reads the rest.  A token
# is a ``(type, value, offset)`` tuple; line and column are computed from the
# offset only when an error is raised.
#
# An IRI is matched whole, escapes included.  The bare ``<`` alternative
# matches only where that fails, the unclosed or broken IRI, and leads to its
# error.  A plain ``@prefix label: <iri> .`` (only whitespace between the
# parts, a label that is empty or a letter followed by letters, digits, '_' and
# '-', and an IRI without escapes) is one PREFIX token whose value is
# ``(label, iri)`` where the parser expects a statement: at the start, or after
# another directive or a graph block.  There it means the same as the AT, NAME,
# IRI and DOT tokens it replaces.  Any other directive, and one where no
# statement may start, is lexed as those four, which the parser reads or
# rejects as before.

_PUNCT = {".": "DOT", ";": "SEMI", ",": "COMMA"}

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_Token = tuple[str, str, int]  # (type, value, offset); a PREFIX value is (label, iri)

_NAME_CHAR = r"""[^ \t\r\n{}();,"'<.]"""
_UCHAR = r"\\u[0-9A-Fa-f]{4}|\\U(?:000[0-9A-Fa-f]|0010)[0-9A-Fa-f]{4}"  # at most U+10FFFF
_ECHAR = r"""\\[tbnrf"'\\]"""
# an IRI body up to the first character that ends or breaks it
_IRI_BODY = rf"[^>\\ \t\r\n]*(?:(?:{_UCHAR})[^>\\ \t\r\n]*)*"

_SKIP_RE = re.compile(r"[ \t\r\n]*")  # to where an unexpected character is reported
_TOKEN_RE = re.compile(
    rf"""[ \t\r\n]*(?:
        (?P<IRI><(?P<iri>{_IRI_BODY})>)
      | (?P<PUNCT>[.;,])                         # so a leading '.' never starts a number
      | (?P<RBRACE>\}})
      | (?P<LBRACE>\{{)
      | (?P<STRING>["'])
      | (?P<PREFIX>@prefix[ \t\r\n]+(?P<label>(?:[A-Za-z][A-Za-z0-9_-]*)?):[ \t\r\n]*
            <(?P<target>[^>\\ \t\r\n]*)>[ \t\r\n]*\.)
      | (?P<COMMENT>\#[^\n]*)
      | (?P<LT><{_IRI_BODY})
      | (?P<BRACKET>\[)
      | (?P<BLANK>_:)
      | (?P<AT>@(?:[^\W_]|-)*)
      # a sign or an exponent without digits is taken here and rejected later
      | (?P<NUMBER>(?:[0-9]|[+-](?=[0-9.]))[0-9]*(?:\.[0-9]+)?(?:[eE](?=[0-9+-])[+-]?[0-9]*)?)
      | (?P<NAME>(?:{_NAME_CHAR}|\.(?={_NAME_CHAR}))+)
      | (?P<END>\Z)
    )""",
    re.VERBOSE,
)


def _string_body(quote: str, long_form: bool) -> re.Pattern:
    # a long string may hold newlines, and quotes that do not close it
    plain = rf"[^{quote}\\]*" if long_form else rf"[^{quote}\\\n]*"
    special = rf"{quote}(?!{quote}{quote})|{_ECHAR}|{_UCHAR}" if long_form else rf"{_ECHAR}|{_UCHAR}"
    return re.compile(rf"{plain}(?:(?:{special}){plain})*")


_STRING_BODY_RE = {(q, long_form): _string_body(q, long_form) for q in "\"'" for long_form in (False, True)}
_UNESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")


def _unescape_match(m: re.Match) -> str:
    if m.group(3) is not None:
        return _ESCAPES[m.group(3)]
    return chr(int(m.group(1) or m.group(2), 16))


def _unescape(body: str) -> str:
    return _UNESCAPE_RE.sub(_unescape_match, body) if "\\" in body else body


def _syntax_error(message: str, text: str, offset: int, cls=TrigSyntaxError) -> TrigSyntaxError:
    """The error for ``offset``, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return cls(message, line, offset - text.rfind("\n", 0, offset))


def _bad_escape(kind: str, text: str, off: int, backslash: int) -> TrigSyntaxError:
    esc = text[backslash + 1 : backslash + 2]
    if esc in "uU":  # also at the end of input, where esc is ""
        return _syntax_error(f"bad \\{esc} escape", text, off)
    return _syntax_error(f"invalid {kind} escape \\{esc}", text, off)


def _iri_error(text: str, off: int, end: int) -> TrigSyntaxError:
    """The error for the IRI at ``off`` whose body ends at ``end``
    without a closing ``>``."""
    c = text[end : end + 1]
    if c == "":
        return _syntax_error("unterminated IRI", text, off)
    if c != "\\":
        return _syntax_error("whitespace inside IRI", text, off)
    return _bad_escape("IRI", text, off, end)


def _lex_string(text: str, off: int) -> tuple[str, int]:
    """Value and end offset of the string whose opening quote is at ``off``."""
    quote = text[off]
    long_form = text.startswith(quote * 2, off + 1)
    close = quote * 3 if long_form else quote
    start = off + len(close)
    end = _STRING_BODY_RE[quote, long_form].match(text, start).end()
    if text.startswith(close, end):
        return _unescape(text[start:end]), end + len(close)
    c = text[end : end + 1]
    if c == "":
        raise _syntax_error("unterminated string", text, off)
    if c == "\n":
        raise _syntax_error("newline in single-quoted string", text, off)
    raise _bad_escape("string", text, off, end)


def _tokenize(text: str) -> list[_Token]:
    toks = []
    append = toks.append
    match = _TOKEN_RE.match
    pos = 0
    top = True  # no graph block is open
    while True:
        m = match(text, pos)
        if m is None:
            off = _SKIP_RE.match(text, pos).end()
            raise _syntax_error(f"unexpected character {text[off]!r}", text, off)
        kind = m.lastgroup
        off = m.start(kind)
        pos = m.end()
        if kind == "IRI":
            value = m.group("iri")
            append(("IRI", _unescape(value) if "\\" in value else value, off))
        elif kind == "PUNCT":
            append((_PUNCT[text[off]], text[off], off))
        elif kind == "PREFIX":
            if top and (not toks or toks[-1][0] in ("DOT", "RBRACE", "PREFIX")):
                append(("PREFIX", (m.group("label"), m.group("target")), off))
            else:  # not where a statement starts: the parser reads it in parts
                append(("AT", "prefix", off))
                append(("NAME", m.group("label") + ":", m.start("label")))
                append(("IRI", m.group("target"), m.start("target") - 1))
                append(("DOT", ".", pos - 1))
        elif kind == "RBRACE":
            append(("RBRACE", "}", off))
            top = True
        elif kind == "LBRACE":
            append(("LBRACE", "{", off))
            top = False
        elif kind == "STRING":
            value, pos = _lex_string(text, off)
            append(("STRING", value, off))
        elif kind == "NAME":
            append(("NAME", text[off:pos], off))
        elif kind == "AT":
            append(("AT", text[off + 1 : pos], off))
        elif kind == "NUMBER":
            number = text[off:pos]
            if number[-1] in "+-eE":
                raise _syntax_error(f"malformed numeric literal {number!r}", text, off)
            if "e" in number or "E" in number:
                append(("DOUBLE", number, off))
            else:
                append(("DECIMAL" if "." in number else "INTEGER", number, off))
        elif kind == "COMMENT":
            pass
        elif kind == "LT":
            raise _iri_error(text, off, pos)
        elif kind == "BRACKET":
            raise _syntax_error("blank nodes are not allowed", text, off)
        elif kind == "BLANK":
            raise _syntax_error("blank nodes are not allowed", text, off, BlankNodeError)
        else:  # END
            return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
#
# ``parse_trig`` reads the token list by index in one loop, with no put-back.
# The list ends with an END token at the last real token's offset, so running
# out of input is an ordinary token: it reports "unexpected end of input" at
# the last token, and no read checks for the end of the list.  No helper calls
# itself: a recursive closure is a reference cycle, which would keep the token
# list alive until the next full garbage collection.

_NUMBER_DATATYPES = {"INTEGER": XSD_INTEGER, "DECIMAL": XSD_DECIMAL, "DOUBLE": XSD_DOUBLE}
_IRI_POSITIONS = {"graph": "graph label", "subject": "subject", "predicate": "predicate"}


def parse_trig(text: str) -> QuadDocument:
    """Parse a TriG-subset document into quads with prefixes expanded.

    Raises :class:`TrigSyntaxError` (with line/column) on syntax errors,
    blank nodes, relative IRIs, or statements outside a graph block.
    """
    toks = _tokenize(text)
    toks.append(("END", "", toks[-1][2] if toks else 0))
    prefixes: dict[str, str] = {}
    quads: list[Quad] = []
    iris: dict[str, Term] = {}  # one Term per distinct IRI

    def fail(message: str, tok: _Token):
        raise _syntax_error(message, text, tok[2])

    def unexpected(wanted: str, tok: _Token):
        if tok[0] == "END":
            fail("unexpected end of input", tok)
        fail(f"expected {wanted}, got {tok[0]} {tok[1]!r}", tok)

    def make_iri(value: str, tok: _Token) -> Term:
        term = iris.get(value)
        if term is None:
            if not _SCHEME_RE.match(value):
                fail(f"relative IRI not allowed: <{value}>", tok)
            try:
                term = iris[value] = iri(value)
            except ValueError as exc:
                fail(str(exc), tok)
        return term

    def atom(tok: _Token, position: str) -> Term:
        """The term of one token that is not a string."""
        typ, value = tok[0], tok[1]
        if typ == "IRI":
            return make_iri(value, tok)
        if typ == "NAME":
            if value == "true" or value == "false":
                return literal(value, datatype=XSD_BOOLEAN)
            if value == "a" and position == "predicate":
                return make_iri(RDF_TYPE, tok)
            prefix, colon, local = value.partition(":")
            if not colon:
                fail(f"expected a term, got bare word {value!r}", tok)
            if prefix not in prefixes:
                fail(f"undeclared prefix {prefix!r}", tok)
            return make_iri(prefixes[prefix] + local, tok)
        if typ in _NUMBER_DATATYPES:
            return literal(value, datatype=_NUMBER_DATATYPES[typ])
        unexpected(f"a term in {position} position", tok)

    def read_term(i: int, position: str) -> tuple[Term, int]:
        """The term that starts at ``toks[i]``, and the index after it."""
        tok, i = toks[i], i + 1
        if tok[0] == "IRI":  # most terms; one seen before is checked already
            return iris.get(tok[1]) or make_iri(tok[1], tok), i
        if tok[0] != "STRING":
            term = atom(tok, position)
        else:
            value = tok[1]
            # A literal read as a datatype is an error at the '^^' before it,
            # once that literal is read; this loop reads the last of a chain.
            outer = None
            while toks[i][0] == "NAME" and toks[i][1] == "^^" and toks[i + 1][0] == "STRING":
                outer, value, i = toks[i], toks[i + 1][1], i + 2
            nxt = toks[i]
            if nxt[0] == "AT":
                if not _LANG_RE.match(nxt[1]):
                    fail(f"malformed language tag @{nxt[1]}", nxt)
                term, i = literal(value, language=nxt[1]), i + 1
            elif nxt[0] == "NAME" and nxt[1].startswith("^^"):
                if nxt[1] == "^^":  # the datatype is the next token
                    dt, i = atom(toks[i + 1], "datatype"), i + 2
                else:
                    dt, i = atom(("NAME", nxt[1][2:], nxt[2]), "datatype"), i + 1
                if not dt.is_iri:
                    fail("datatype must be an IRI", nxt)
                term = literal(value, datatype=dt.value)
            else:
                term = literal(value)
            if outer is not None:
                fail("datatype must be an IRI", outer)
        if position in _IRI_POSITIONS and not term.is_iri:
            fail(f"{_IRI_POSITIONS[position]} must be an IRI", tok)
        return term, i

    i = 0
    while (tok := toks[i])[0] != "END":
        typ = tok[0]
        if typ == "PREFIX":
            label, target = tok[1]
            prefixes[label] = target
            i += 1
            continue
        if typ == "AT":
            if tok[1] != "prefix":
                fail(f"unsupported directive @{tok[1]}", tok)
            for j, wanted in enumerate(("NAME", "IRI", "DOT"), i + 1):
                if toks[j][0] != wanted:
                    unexpected(wanted, toks[j])
                if wanted == "NAME" and not toks[j][1].endswith(":"):
                    fail("prefix label must end with ':'", toks[j])
            prefixes[toks[i + 1][1][:-1]] = toks[i + 2][1]
            i += 4
            continue
        if typ == "NAME" and tok[1].upper() in ("PREFIX", "BASE"):
            fail("SPARQL-style directives are not accepted; use @prefix", tok)
        if typ != "IRI" and typ != "NAME":
            unexpected("a graph block", tok)
        if typ == "NAME" and tok[1].upper() == "GRAPH":
            i += 1
        graph_tok = toks[i]
        graph, i = read_term(i, "graph")
        if toks[i][0] != "LBRACE":
            fail("statement outside a graph block (expected '{')", toks[i])
        i += 1
        while (typ := toks[i][0]) != "RBRACE":
            if typ == "END":
                fail("unterminated graph block", graph_tok)
            subject, i = read_term(i, "subject")
            predicate, i = read_term(i, "predicate")
            while True:
                obj, i = read_term(i, "object")
                quads.append(Quad(subject, predicate, obj, graph))
                sep = toks[i][0]
                if sep == "COMMA":
                    i += 1
                elif sep == "SEMI" and toks[i + 1][0] not in ("DOT", "RBRACE"):
                    predicate, i = read_term(i + 1, "predicate")
                else:
                    break
            if sep == "SEMI":  # '; .' and '; }' also end a statement
                i += 1
                sep = toks[i][0]
            if sep == "DOT":
                i += 1
            elif sep != "RBRACE":  # the final '.' inside a block is optional
                unexpected("'.', ';' or ','", toks[i])
        i += 1
        if toks[i][0] == "DOT":  # optional trailing dot after a graph block
            i += 1
    return QuadDocument(quads, prefixes)


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

_ESCAPE_OUT = str.maketrans(
    {
        "\\": "\\\\",
        '"': '\\"',
        "\n": "\\n",
        "\r": "\\r",
        "\t": "\\t",
        "\b": "\\b",
        "\f": "\\f",
    }
)


def escape_string(value: str) -> str:
    return value.translate(_ESCAPE_OUT)


def render_term(term: Term) -> str:
    """Long-form rendering, as the serializer writes it."""
    if term.is_iri:
        return f"<{term.value}>"
    out = f'"{escape_string(term.value)}"'
    if term.language is not None:
        return f"{out}@{term.language}"
    if term.datatype is not None:
        return f"{out}^^<{term.datatype}>"
    return out


def serialize_trig(doc: QuadDocument | Nanopublication) -> str:
    """Serialize with graphs in first-appearance order, quads in insertion
    order, and every term in long form (the prefix table is decorative)."""
    graphs: dict[str, list[Quad]] = {}
    for q in doc.quads:
        graphs.setdefault(q.graph.value, []).append(q)
    lines = []
    for label, target in doc.prefixes.items():
        lines.append(f"@prefix {label}: <{target}> .")
    if doc.prefixes:
        lines.append("")
    for graph_iri, quads in graphs.items():
        lines.append(f"<{graph_iri}> {{")
        for q in quads:
            lines.append(
                f"  {render_term(q.subject)} {render_term(q.predicate)} {render_term(q.object)} ."
            )
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")
