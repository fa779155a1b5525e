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
    bad = _IRI_FORBIDDEN.intersection(value)
    if bad:
        raise ValueError(f"IRI contains forbidden character {bad.pop()!r}: {value!r}")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def graph_names(self) -> tuple[str, ...]:
        """Graph IRIs in first-appearance order."""
        names = {}
        for q in self.quads:
            names.setdefault(q.graph.value, None)
        return tuple(names)


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


def match(doc: QuadDocument, pattern: QuadPattern) -> list[Quad]:
    """Quads of ``doc`` agreeing with every non-wildcard pattern position."""
    return [q for q in doc.quads if pattern.matches(q)]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
#
# One compiled pattern matches a token, after any whitespace and comments,
# at the current offset; for an IRI or a string it matches only the opening
# character, and ``_lex_iri``/``_lex_string`` read the rest.  A token is a
# ``(type, value, offset)`` tuple;
# line and column are computed from the offset only when an error is raised.

_PUNCT = {"{": "LBRACE", "}": "RBRACE", ".": "DOT", ";": "SEMI", ",": "COMMA"}

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

_Token = tuple[str, str, int]  # (type, value, offset)

_SKIP = r"(?:[ \t\r\n]+|\#[^\n]*)*"
_NAME_CHAR = r"""[^ \t\r\n{}();,"'<.]"""
_UCHAR = r"\\u[0-9A-Fa-f]{4}|\\U(?:000[0-9A-Fa-f]|0010)[0-9A-Fa-f]{4}"  # at most U+10FFFF
_ECHAR = r"""\\[tbnrf"'\\]"""

_SKIP_RE = re.compile(_SKIP)
# The skip is matched inside a lookahead and consumed by a backreference.  A
# lookahead is never re-entered, so when no token follows, the engine cannot
# backtrack into the skip (exponential over a whitespace run) or into a
# comment (and lex a token from inside it).  Python 3.10 has no atomic groups.
_TOKEN_RE = re.compile(
    rf"(?=(?P<SKIP>{_SKIP}))(?P=SKIP)"
    + rf"""(?:
        (?P<IRI><)
      | (?P<PUNCT>[{{}}.;,])                     # so a leading '.' never starts a number
      | (?P<STRING>["'])
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
# Bodies of IRIs and strings up to the first character that ends or breaks them.
_IRI_BODY_RE = re.compile(rf"[^>\\ \t\r\n]*(?:(?:{_UCHAR})[^>\\ \t\r\n]*)*")


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


def _lex_iri(text: str, off: int) -> tuple[str, int]:
    """Value and end offset of the IRI whose ``<`` is at ``off``."""
    end = _IRI_BODY_RE.match(text, off + 1).end()
    c = text[end : end + 1]
    if c == ">":
        return _unescape(text[off + 1 : end]), end + 1
    if c == "":
        raise _syntax_error("unterminated IRI", text, off)
    if c != "\\":
        raise _syntax_error("whitespace inside IRI", text, off)
    raise _bad_escape("IRI", text, off, end)


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
    while True:
        m = match(text, pos)
        if m is None:
            off = _SKIP_RE.match(text, pos).end()
            raise _syntax_error(f"unexpected character {text[off]!r}", text, off)
        kind = m.lastgroup
        off = m.start(kind)
        pos = m.end()
        if kind == "IRI":
            value, pos = _lex_iri(text, off)
            append(("IRI", value, off))
        elif kind == "PUNCT":
            append((_PUNCT[text[off]], text[off], off))
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
        elif kind == "BRACKET":
            raise _syntax_error("blank nodes are not allowed", text, off)
        elif kind == "BLANK":
            raise _syntax_error("blank nodes are not allowed", text, off, BlankNodeError)
        else:  # END
            return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}
        self.quads: list[Quad] = []
        self.iris: dict[str, Term] = {}  # one Term per distinct IRI

    def error(self, msg: str, tok: _Token):
        raise _syntax_error(msg, self.text, tok[2])

    def _peek(self) -> _Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            self.error("unexpected end of input", self.toks[-1])
        self.i += 1
        return tok

    def _expect(self, typ: str) -> _Token:
        tok = self._next()
        if tok[0] != typ:
            self.error(f"expected {typ}, got {tok[0]} {tok[1]!r}", tok)
        return tok

    def parse(self) -> QuadDocument:
        while (tok := self._peek()) is not None:
            typ, value = tok[0], tok[1]
            if typ == "AT":
                self._parse_directive()
            elif typ == "NAME" and value.upper() in ("PREFIX", "BASE"):
                self.error("SPARQL-style directives are not accepted; use @prefix", tok)
            elif typ == "NAME" and value.upper() == "GRAPH":
                self._next()
                self._parse_graph_block()
            elif typ in ("IRI", "NAME"):
                self._parse_graph_block()
            else:
                self.error(f"expected a graph block, got {typ} {value!r}", tok)
        return QuadDocument(self.quads, self.prefixes)

    def _parse_directive(self):
        tok = self._next()
        if tok[1] != "prefix":
            self.error(f"unsupported directive @{tok[1]}", tok)
        label_tok = self._expect("NAME")
        label = label_tok[1]
        if not label.endswith(":"):
            self.error("prefix label must end with ':'", label_tok)
        target = self._expect("IRI")
        self.prefixes[label[:-1]] = target[1]
        self._expect("DOT")

    def _parse_graph_block(self):
        graph_tok = self._next()
        graph = self._term_from(graph_tok, position="graph")
        if not graph.is_iri:
            self.error("graph label must be an IRI", graph_tok)
        nxt = self._peek()
        if nxt is None or nxt[0] != "LBRACE":
            self.error("statement outside a graph block (expected '{')", nxt or graph_tok)
        self._next()
        while True:
            tok = self._peek()
            if tok is None:
                self.error("unterminated graph block", graph_tok)
            if tok[0] == "RBRACE":
                self._next()
                break
            self._parse_triples(graph)
        # optional trailing dot after a graph block
        nxt = self._peek()
        if nxt is not None and nxt[0] == "DOT":
            self._next()

    def _parse_triples(self, graph: Term):
        subject_tok = self._next()
        subject = self._term_from(subject_tok, position="subject")
        if not subject.is_iri:
            self.error("subject must be an IRI", subject_tok)
        while True:
            predicate = self._parse_predicate()
            while True:
                obj = self._term_from(self._next(), position="object")
                self.quads.append(Quad(subject, predicate, obj, graph))
                tok = self._peek()
                if tok is not None and tok[0] == "COMMA":
                    self._next()
                    continue
                break
            tok = self._next()
            typ = tok[0]
            if typ == "SEMI":
                # allow '; .' and '; }' style endings
                nxt = self._peek()
                if nxt is not None and nxt[0] == "DOT":
                    self._next()
                    return
                if nxt is not None and nxt[0] == "RBRACE":
                    return
                continue
            if typ == "DOT":
                return
            if typ == "RBRACE":
                # final '.' inside a graph block is optional
                self.i -= 1
                return
            self.error(f"expected '.', ';' or ',', got {typ} {tok[1]!r}", tok)

    def _parse_predicate(self) -> Term:
        tok = self._next()
        if tok[0] == "NAME" and tok[1] == "a":
            return self._make_iri(RDF_TYPE, tok)
        term = self._term_from(tok, position="predicate")
        if not term.is_iri:
            self.error("predicate must be an IRI", tok)
        return term

    def _term_from(self, tok: _Token, position: str) -> Term:
        typ = tok[0]
        if typ == "IRI":
            return self._make_iri(tok[1], tok)
        if typ == "NAME":
            return self._expand_name(tok)
        if typ == "STRING":
            return self._finish_literal(tok)
        if typ == "INTEGER":
            return literal(tok[1], datatype=XSD_INTEGER)
        if typ == "DECIMAL":
            return literal(tok[1], datatype=XSD_DECIMAL)
        if typ == "DOUBLE":
            return literal(tok[1], datatype=XSD_DOUBLE)
        self.error(f"expected a term in {position} position, got {typ} {tok[1]!r}", tok)

    def _make_iri(self, value: str, tok: _Token) -> Term:
        term = self.iris.get(value)
        if term is None:
            if not _SCHEME_RE.match(value):
                self.error(f"relative IRI not allowed: <{value}>", tok)
            try:
                term = self.iris[value] = iri(value)
            except ValueError as exc:
                self.error(str(exc), tok)
        return term

    def _expand_name(self, tok: _Token) -> Term:
        name = tok[1]
        if name == "true" or name == "false":
            return literal(name, datatype=XSD_BOOLEAN)
        if ":" not in name:
            self.error(f"expected a term, got bare word {name!r}", tok)
        prefix, _, local = name.partition(":")
        if prefix not in self.prefixes:
            self.error(f"undeclared prefix {prefix!r}", tok)
        return self._make_iri(self.prefixes[prefix] + local, tok)

    def _finish_literal(self, tok: _Token) -> Term:
        nxt = self._peek()
        if nxt is not None and nxt[0] == "AT":
            self._next()
            lang = nxt[1]
            if not _LANG_RE.match(lang):
                self.error(f"malformed language tag @{lang}", nxt)
            return literal(tok[1], language=lang)
        if nxt is not None and nxt[0] == "NAME" and nxt[1].startswith("^^"):
            self._next()
            dt_name = nxt[1][2:]
            if dt_name:
                dt = self._expand_name(("NAME", dt_name, nxt[2]))
            else:
                dt = self._term_from(self._next(), position="datatype")
            if not dt.is_iri:
                self.error("datatype must be an IRI", nxt)
            return literal(tok[1], datatype=dt.value)
        return literal(tok[1])


def parse_trig(text: str) -> QuadDocument:
    """Parse a TriG-subset document into quads with prefixes expanded.

    Raises :class:`TrigSyntaxError` (with line/column) on syntax errors,
    blank nodes, relative IRIs, or statements outside a graph block.
    """
    return _Parser(text).parse()


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


def render_iri(value: str) -> str:
    return f"<{value}>"


def render_literal(value: str, datatype: str | None = None, language: str | None = None) -> str:
    out = f'"{escape_string(value)}"'
    if language is not None:
        return f"{out}@{language}"
    if datatype is not None:
        return f"{out}^^{render_iri(datatype)}"
    return out


def render_term(term: Term) -> str:
    """Long-form rendering, as the serializer writes it.  Content hashing
    renders through ``render_iri``/``render_literal`` with codes stripped."""
    if term.is_iri:
        return render_iri(term.value)
    return render_literal(term.value, term.datatype, term.language)


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
