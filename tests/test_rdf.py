import gc
import hashlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nanokit
from nanokit.rdf import (
    BlankNodeError,
    Quad,
    QuadDocument,
    QuadPattern,
    Term,
    TrigSyntaxError,
    escape_string,
    iri,
    literal,
    parse_trig,
    render_term,
    serialize_trig,
)
from nanokit import namespaces as ns

from oracles import graph_names, match
from strategies import documents, quads


def test_parse_single_quad():
    doc = parse_trig("@prefix ex: <http://ex.org/> . ex:g { ex:s ex:p ex:o . }")
    assert doc.quads == (
        Quad(iri("http://ex.org/s"), iri("http://ex.org/p"), iri("http://ex.org/o"), iri("http://ex.org/g")),
    )


def test_parse_empty_string():
    doc = parse_trig("")
    assert len(doc) == 0


def test_parse_birddiet_fixture(birddiet_doc):
    # hand-count: 4 head + 3 assertion + 2 provenance + 3 pubinfo
    assert len(birddiet_doc) == 12
    assert len(graph_names(birddiet_doc)) == 4


def test_parse_literals_and_keywords():
    text = """
    @prefix ex: <http://ex.org/> .
    ex:g {
      ex:s a ex:Thing ;
           ex:name "Ada"@en ;
           ex:count 42 ;
           ex:score 1.5 ;
           ex:flag true ;
           ex:note "multi\\nline"^^ex:dt .
    }
    """
    doc = parse_trig(text)
    objects = {q.predicate.value: q.object for q in doc.quads}
    assert objects["http://www.w3.org/1999/02/22-rdf-syntax-ns#type"] == iri("http://ex.org/Thing")
    assert objects["http://ex.org/name"] == literal("Ada", language="en")
    assert objects["http://ex.org/count"] == literal("42", datatype=ns.XSD_INTEGER)
    assert objects["http://ex.org/score"] == literal("1.5", datatype=ns.XSD_DECIMAL)
    assert objects["http://ex.org/flag"] == literal("true", datatype=ns.XSD_BOOLEAN)
    assert objects["http://ex.org/note"] == literal("multi\nline", datatype="http://ex.org/dt")


def test_syntax_error_carries_line_and_column():
    with pytest.raises(TrigSyntaxError) as err:
        parse_trig("<http://ex.org/g> {\n  <http://ex.org/s> <http://ex.org/p> }\n")
    assert err.value.line == 2


_G = "<http://ex.org/g> {\n  "
_SP = "<http://ex.org/s> <http://ex.org/p> "

# One malformed input per lexer and parser error branch, with the exact
# message, line and column each one reports.
GOLDEN_ERRORS = [
    pytest.param(_G + "<http://ex.org/s", TrigSyntaxError, "unterminated IRI", 2, 3, id="unterminated-iri"),
    pytest.param(_G + "<http://ex.org/s x> <http://ex.org/p> <http://ex.org/o> . }", TrigSyntaxError, "whitespace inside IRI", 2, 3, id="whitespace-in-iri"),
    pytest.param(_G + "<http://ex.org/s> <http://ex.org/\\x41> <http://ex.org/o> . }", TrigSyntaxError, "invalid IRI escape \\x", 2, 21, id="bad-iri-escape"),
    pytest.param(_G + _SP + "<http://ex.org/\\u12G4> . }", TrigSyntaxError, "bad \\u escape", 2, 39, id="bad-u-escape"),
    pytest.param(_G + _SP + '"x\\U0001F60" . }', TrigSyntaxError, "bad \\U escape", 2, 39, id="bad-U-escape-in-string"),
    pytest.param(_G + _SP + "<http://ex.org/a\\u0020b> . }", TrigSyntaxError, "IRI contains forbidden character ' ': 'http://ex.org/a b'", 2, 39, id="escaped-forbidden-iri-char"),
    pytest.param(_G + _SP + '"abc', TrigSyntaxError, "unterminated string", 2, 39, id="unterminated-string"),
    pytest.param(_G + _SP + '"""a\nb" .', TrigSyntaxError, "unterminated string", 2, 39, id="unterminated-long-string"),
    pytest.param(_G + _SP + "'ab\ncd' . }", TrigSyntaxError, "newline in single-quoted string", 2, 39, id="newline-in-short-string"),
    pytest.param(_G + _SP + '"a\\qb" . }', TrigSyntaxError, "invalid string escape \\q", 2, 39, id="bad-string-escape"),
    pytest.param("<http://ex.org/g> {\r\n\t" + _SP + '"a\\z" . }', TrigSyntaxError, "invalid string escape \\z", 2, 38, id="tab-and-crlf-columns"),
    pytest.param(_G + "[] <http://ex.org/p> <http://ex.org/o> . }", TrigSyntaxError, "blank nodes are not allowed", 2, 3, id="open-bracket"),
    pytest.param(_G + _SP + "_:b1 . }", BlankNodeError, "blank nodes are not allowed", 2, 39, id="blank-node-label"),
    pytest.param(_G + _SP + "( . }", TrigSyntaxError, "unexpected character '('", 2, 39, id="unexpected-character"),
    pytest.param(_G + _SP + '# see "\n( . }', TrigSyntaxError, "unexpected character '('", 3, 1, id="quote-ends-comment"),
    pytest.param(_G + _SP + "# see <\n( . }", TrigSyntaxError, "unexpected character '('", 3, 1, id="lt-ends-comment"),
    pytest.param(_G + _SP + "# see x\n( . }", TrigSyntaxError, "unexpected character '('", 3, 1, id="name-ends-comment"),
    pytest.param("@prefix ex: <http://ex.org/> .\nex:g {\n  ex:s foo:p ex:o . }", TrigSyntaxError, "undeclared prefix 'foo'", 3, 8, id="undeclared-prefix"),
    pytest.param(_G + "<http://ex.org/s> <p> <http://ex.org/o> . }", TrigSyntaxError, "relative IRI not allowed: <p>", 2, 21, id="relative-iri"),
    pytest.param("# header\nPREFIX ex: <http://ex.org/>\n", TrigSyntaxError, "SPARQL-style directives are not accepted; use @prefix", 2, 1, id="sparql-prefix"),
    pytest.param("\n  <http://ex.org/g> <http://ex.org/p> <http://ex.org/o> .", TrigSyntaxError, "statement outside a graph block (expected '{')", 2, 21, id="missing-lbrace"),
    pytest.param("\n  " + _G + "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n", TrigSyntaxError, "unterminated graph block", 2, 3, id="unterminated-graph-block"),
    pytest.param(_G + "<http://ex.org/s> <http://ex.org/p>", TrigSyntaxError, "unexpected end of input", 2, 21, id="unexpected-end-of-input"),
    pytest.param("\n @base <http://ex.org/> .", TrigSyntaxError, "unsupported directive @base", 2, 2, id="unsupported-directive"),
    pytest.param("@prefix ex <http://ex.org/> .", TrigSyntaxError, "prefix label must end with ':'", 1, 9, id="prefix-label"),
    pytest.param('@prefix ex: "x" .', TrigSyntaxError, "expected IRI, got STRING 'x'", 1, 13, id="expected-token"),
    pytest.param('"g" { <http://ex.org/s> <http://ex.org/p> <http://ex.org/o> . }', TrigSyntaxError, "expected a graph block, got STRING 'g'", 1, 1, id="graph-block-expected"),
    pytest.param("\n true { <http://ex.org/s> <http://ex.org/p> <http://ex.org/o> . }", TrigSyntaxError, "graph label must be an IRI", 2, 2, id="literal-graph-label"),
    pytest.param(_G + '"s" <http://ex.org/p> <http://ex.org/o> . }', TrigSyntaxError, "subject must be an IRI", 2, 3, id="literal-subject"),
    pytest.param(_G + "<http://ex.org/s> 42 <http://ex.org/o> . }", TrigSyntaxError, "predicate must be an IRI", 2, 21, id="literal-predicate"),
    pytest.param(_G + _SP + "; }", TrigSyntaxError, "expected a term in object position, got SEMI ';'", 2, 39, id="term-expected"),
    pytest.param(_G + _SP + "foo . }", TrigSyntaxError, "expected a term, got bare word 'foo'", 2, 39, id="bare-word"),
    pytest.param(_G + _SP + "<http://ex.org/o> <http://ex.org/x> }", TrigSyntaxError, "expected '.', ';' or ',', got IRI 'http://ex.org/x'", 2, 57, id="bad-statement-end"),
    pytest.param(_G + _SP + '"x"@en- . }', TrigSyntaxError, "malformed language tag @en-", 2, 42, id="malformed-language-tag"),
    pytest.param(_G + _SP + '"x"^^ "y" . }', TrigSyntaxError, "datatype must be an IRI", 2, 42, id="literal-datatype"),
    # a literal as datatype fails at the '^^' before the last literal of a chain
    pytest.param(_G + _SP + '"x"^^"y"^^"z" . }', TrigSyntaxError, "datatype must be an IRI", 2, 47, id="literal-datatype-chain"),
    pytest.param(_G + _SP + '"x"^^"y"^^<http://ex.org/d> . }', TrigSyntaxError, "datatype must be an IRI", 2, 42, id="typed-literal-datatype"),
    pytest.param(_G + _SP + '"x"^^"y"@en- . }', TrigSyntaxError, "malformed language tag @en-", 2, 47, id="literal-datatype-language-tag"),
    # the end of input is reported at the last token
    pytest.param("\n GRAPH", TrigSyntaxError, "unexpected end of input", 2, 2, id="end-after-graph-keyword"),
    pytest.param("@prefix ex:", TrigSyntaxError, "unexpected end of input", 1, 9, id="end-after-prefix-label"),
    pytest.param("\n  <http://ex.org/g>", TrigSyntaxError, "statement outside a graph block (expected '{')", 2, 3, id="end-after-graph-label"),
    pytest.param(_G + _SP + "<http://ex.org/o>", TrigSyntaxError, "unexpected end of input", 2, 39, id="end-after-object"),
    pytest.param(_G + _SP + "<http://ex.org/o> ;", TrigSyntaxError, "unexpected end of input", 2, 57, id="end-after-semicolon"),
    pytest.param(_G + _SP + '"x"^^', TrigSyntaxError, "unexpected end of input", 2, 42, id="end-after-datatype-marker"),
]


@pytest.mark.parametrize("text, error_class, message, line, column", GOLDEN_ERRORS)
def test_syntax_error_message_and_position(text, error_class, message, line, column):
    with pytest.raises(TrigSyntaxError) as err:
        parse_trig(text)
    assert type(err.value) is error_class
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_forbidden_iri_character_reported_is_the_first():
    # a set of the forbidden characters found would report one at random
    with pytest.raises(TrigSyntaxError, match=r"forbidden character '\^': 'http://ex.org/\^\|`\{\}'"):
        parse_trig(_G + _SP + "<http://ex.org/^|`{}> . }")


@pytest.mark.parametrize(
    "text, count",
    [
        pytest.param(_G + _SP + "<http://ex.org/o> ; . }", 1, id="semicolon-dot"),
        pytest.param(_G + _SP + "<http://ex.org/o> ; }", 1, id="semicolon-brace"),
        pytest.param(_G + _SP + "<http://ex.org/o> } . " + _G + "} .", 1, id="dot-after-blocks"),
        pytest.param("# nothing here\n  # but comments\n", 0, id="comments-only"),
    ],
)
def test_optional_statement_endings_are_accepted(text, count):
    assert len(parse_trig(text)) == count


@pytest.mark.parametrize("text", [_G + _SP + '"x"^^<http://ex.org/d> . }', _G + _SP + '"x"^^"y" . }'])
def test_parse_leaves_no_reference_cycle(text):
    # a cycle would hold the whole token list until a full collection
    gc.collect()
    try:
        parse_trig(text)
    except TrigSyntaxError:
        pass
    assert gc.collect() == 0


_MUTATION_SEEDS = [
    '@prefix ex: <http://ex.org/> .\nGRAPH ex:g { ex:s a ex:T ; ex:p "x"@en, "y"^^ex:dt, 1, 1.5, 1e3, true ; . } .\n',
    "<http://g> { <http://s> <http://p> 'a'^^<http://dt> ; <http://q> \"\"\"long\n\"\"\"@de-AT ; }\n# c\n",
    "@prefix : <http://e/> .\n:g { :s :p <http://e/\\u0041> , -4 , +.5e+7 . :s :q false }",
]
_MUTATION_PIECES = [
    "<", ">", "{", "}", ".", ";", ",", '"', "'", "@", "^^", "_:", "[", "(", "#", "\n", " ", "a",
    ":", "ex:", "GRAPH", "@prefix", "PREFIX", "<http://x/>", '"s"', "1", "1.", "e", "-", "\\", "\\u0041",
]


def _mutations(seeds, rng_seed, count):
    """``count`` seeded inputs, each a seed with one to three random cuts,
    insertions or overwrites."""
    rng = random.Random(rng_seed)
    for _ in range(count):
        text = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(0, len(text))
            b = min(len(text), a + rng.randint(0, 8))
            piece = rng.choice(_MUTATION_PIECES)
            text = rng.choice([text[:a] + text[b:], text[:a] + piece + text[a:], text[:a] + piece + text[b:], text[:a]])
        yield text


def test_mutated_input_raises_only_trig_syntax_error():
    for text in _mutations(_MUTATION_SEEDS, 20181001, 5000):
        try:
            parse_trig(text)
        except TrigSyntaxError:
            pass


# Prefix directives in every shape the lexer does not read as one plain
# directive, and directives where no directive may stand.
_DIRECTIVE_SEEDS = [
    "@prefix ex: # the label\n  <http://ex.org/> .\nex:g { ex:s ex:p ex:o . }\n",
    "@prefix ex: <http://ex.org/\\u0041/> .\nex:g { ex:s ex:p ex:o . }\n",
    "@prefix e.x: <http://ex.org/> .\ne.x:g { e.x:s e.x:p e.x:o . }\n",
    "@prefixes ex: <http://ex.org/> .\nex:g { ex:s ex:p ex:o . }\n",
    "@prefix ex: <http://ex.org/>\nex:g { ex:s ex:p ex:o . }\n",
    "@prefix ex: <http://ex.org/> .\r\n@prefix : <http://e/> .\r\nex:g {\r\n\t:s ex:p 'x'@en .\r\n}\r\n",
    "@prefix ex:<http://ex.org/>.@prefix:<http://e/>.ex:g{:s ex:p ex:o}.@prefix ex: <http://ex.org/2/> .\n",
    "@prefix\tex:\r\n<http://ex.org/>\t.\nex:g { ex:s ex:p ex:o . }\n",
    "@prefix 1a: <http://ex.org/> .\n",
    "@prefix _: <http://ex.org/> .\n",
    "@prefix ex:x <http://ex.org/> .\n",
    "@PREFIX ex: <http://ex.org/> .\n",
    "@prefix ex: @prefix ex: <http://ex.org/> .\n",
    "@prefix ex: <http://ex.org/> .\nGRAPH @prefix ex: <http://ex.org/> . { }\n",
    "<http://g> { <http://s> <http://p> \"x\"@prefix ex: <http://ex.org/> . }\n",
    "<http://g> { <http://s> <http://p> <http://o> . @prefix ex: <http://ex.org/> . }\n",
    "<http://g> @prefix ex: <http://ex.org/> . { }\n",
    "@prefix ex: <http://ex.org/> .5\n@prefix ex: <http://ex.org/> . # end\n",
]


def _outcome(text: str) -> str:
    """The prefix table and quads ``parse_trig`` returns, or its error."""
    try:
        doc = parse_trig(text)
    except TrigSyntaxError as exc:
        return repr((type(exc).__name__, str(exc), exc.line, exc.column))
    quads = [tuple(render_term(t) for t in (q.subject, q.predicate, q.object, q.graph)) for q in doc.quads]
    return repr((list(doc.prefixes.items()), quads))


def test_parse_outcomes_match_pinned_digest():
    # every input's outcome, down to each error's message and position
    inputs = [
        *_MUTATION_SEEDS,
        *_mutations(_MUTATION_SEEDS, 20181001, 5000),
        *_DIRECTIVE_SEEDS,
        *_mutations(_DIRECTIVE_SEEDS, 20181002, 3000),
    ]
    digest = hashlib.sha256()
    for text in inputs:
        digest.update(_outcome(text).encode("utf-8") + b"\n")
    assert digest.hexdigest() == "0593c59dc086b97892b4c2fb422bc10bf1bac543720892b638d76bb2b4237ab3"


# Statements written in long form, as serialize_trig writes them, and near
# misses that must keep taking the token-by-token path, each between two
# long-form statements.
_LONG_FORM_STATEMENTS = [
    '<http://s> <http://p> "x"@en- .',
    '<http://s> <http://p> "x"@en_US .',
    '<http://s> <http://p> "x"@en-US- .',
    '<http://s> <http://p> "x"@en1 .',
    '<http://s> <http://p> "x"@e\u00e9 .',
    '<http://s> <http://p> "x" @en .',
    '<s> <http://p> <http://o> .',
    '<http://s> <p> "x" .',
    '<http://s> <http://p> "x"^^<dt> .',
    '<http://s> <http://p> <o> .',
    '<http://s> <http://p> <http://o/a|b> .',
    '<http://s> <http://p> "x"^^<http://d/^> .',
    '<http://s/{}> <http://p> <http://o> .',
    '<http://s> <http://p> <http://o/\\u0041> .',
    '<http://s/\\u0020> <http://p> "x" .',
    '<http://s> <http://p> "x"^^<http://d/\\u0041> .',
    '<http://s> <http://p> """long\n""" .',
    "<http://s> <http://p> 'short' .",
    '<http://s> <http://p> "a\\"b" .',
    '<http://s> <http://p> "a\nb" .',
    "<http://s> # c\n <http://p> <http://o> .",
    '<http://s> <http://p> # c\n "x" .',
    '<http://s> <http://p> "x" # c\n .',
    '<http://s> <http://p> <http://o> ; <http://q> "y" , "z"@en .',
    "<http://s> a <http://T> .",
    "<http://s> <http://p> 1 .",
    '<http://s> <http://p> "x"^^ <http://d> .',
    "<http://s> <http://p> <http://o> . {",
    "<http://s> <http://p> <http://o> }",
]
_LONG_FORM_SEEDS = [
    "<http://ex.org/g> {\n  <http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n"
    '  <http://ex.org/s> <http://ex.org/p> "plain text" .\n'
    '  <http://ex.org/s> <http://ex.org/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    '  <http://ex.org/s> <http://ex.org/p> "tagged"@en-GB .\n}\n'
    '<http://ex.org/h> {<http://ex.org/s><http://ex.org/p>""@de.\t<http://ex.org/s>\r\n<http://ex.org/p>\n<http://ex.org/o>\n.}\n',
    # a whole statement where none may start
    '<http://g> <http://s> <http://p> "x" . {\n',
    '<http://g> { } <http://s> <http://p> <http://o> .\n',
    '<http://g> { <http://s> <http://p> <http://o> } . <http://s> <http://p> <http://o> .\n',
    *(f'<http://g> {{\n  <http://s> <http://p> <http://o> .\n  {s}\n  <http://s> <http://p> "z" .\n}}\n' for s in _LONG_FORM_STATEMENTS),
]


def test_long_form_parse_outcomes_match_pinned_digest():
    # computed before long-form statements were lexed whole
    inputs = [*_LONG_FORM_SEEDS, *_mutations(_LONG_FORM_SEEDS, 20181003, 4000)]
    digest = hashlib.sha256()
    for text in inputs:
        digest.update(_outcome(text).encode("utf-8") + b"\n")
    assert digest.hexdigest() == "36af32c17c0130ca6852d4aae9de7cb77ec34c46c0226e235233722698dea6f8"


def test_dump_parses_the_same_with_a_comment_after_every_subject():
    from nanokit.corpusgen import CorpusConfig, generate_corpus
    from nanokit.rdf import _tokenize

    nanopubs = generate_corpus(CorpusConfig(count=5, seed=3))
    text = "".join(serialize_trig(np.to_document()) for np in nanopubs)
    # a comment is not whitespace, so no statement is read in one piece
    commented = "\n".join(
        line.replace("> ", "> # subject\n    ", 1) if line.startswith("  <") else line
        for line in text.split("\n")
    )
    statements = sum(len(np.to_document()) for np in nanopubs)
    assert commented.count("# subject") == statements
    assert [kind for kind, _, _ in _tokenize(text)].count("STATEMENT") == statements
    assert "STATEMENT" not in [kind for kind, _, _ in _tokenize(commented)]
    doc, slow = parse_trig(text), parse_trig(commented)
    assert doc.quads == slow.quads and doc.prefixes == slow.prefixes


@pytest.mark.parametrize(
    "text, error",
    [
        pytest.param("'<http://ex.org/g> {\\n' + ' \\t\\r\\n' * 16 + '('", "(line 18, column 1)", id="whitespace"),
        pytest.param("'<http://ex.org/g> {\\n' + '  # c \\n' * 16 + '('", "(line 18, column 1)", id="comment-lines"),
        pytest.param("'@prefix ex:' + ' \\t\\r\\n' * 16 + '('", "(line 17, column 1)", id="inside-prefix-directive"),
    ],
)
def test_unexpected_character_after_long_whitespace_run_is_fast(text, error):
    # a lexer that backtracks over ways of splitting the run never returns
    code = (
        "from nanokit.rdf import parse_trig\n"
        "try:\n"
        f"    parse_trig({text})\n"
        "except Exception as e:\n"
        "    print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(nanokit.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert out.stdout == f"unexpected character '(' {error}\n"


@pytest.mark.parametrize("term", ['"\\U00110000"', "<http://ex.org/\\UFFFFFFFF>"])
def test_escape_beyond_last_code_point_rejected(term):
    with pytest.raises(TrigSyntaxError, match=r"bad \\U escape \(line 1, column 57\)"):
        parse_trig("<http://ex.org/g> { <http://ex.org/s> <http://ex.org/p> " + term + " . }")


@pytest.mark.parametrize("tail", ["+. }", "-. }", "1e+ . }", "1e+ }", "2.5e- . }", "+e5 }", "-1E }"])
def test_malformed_numeric_literal_rejected(tail):
    # a number needs digits in its mantissa and in any exponent
    with pytest.raises(TrigSyntaxError):
        parse_trig("<http://ex.org/g> { <http://ex.org/s> <http://ex.org/p> " + tail)


@pytest.mark.parametrize(
    "number, datatype",
    [
        ("42", ns.XSD_INTEGER),
        ("-7", ns.XSD_INTEGER),
        ("+0", ns.XSD_INTEGER),
        ("1.5", ns.XSD_DECIMAL),
        ("-.5", ns.XSD_DECIMAL),
        ("1e5", ns.XSD_DOUBLE),
        ("2.5E-3", ns.XSD_DOUBLE),
        ("+.5e+7", ns.XSD_DOUBLE),
    ],
)
def test_numeric_literal_datatypes(number, datatype):
    doc = parse_trig(f"<http://ex.org/g> {{ <http://ex.org/s> <http://ex.org/p> {number} . }}")
    assert [q.object for q in doc.quads] == [literal(number, datatype=datatype)]


def test_blank_node_rejected():
    with pytest.raises(TrigSyntaxError):
        parse_trig("<http://ex.org/g> { _:b <http://ex.org/p> <http://ex.org/o> . }")
    with pytest.raises(TrigSyntaxError):
        parse_trig("<http://ex.org/g> { [] <http://ex.org/p> <http://ex.org/o> . }")


def test_relative_iri_rejected():
    with pytest.raises(TrigSyntaxError, match="relative IRI"):
        parse_trig("<http://ex.org/g> { <s> <http://ex.org/p> <http://ex.org/o> . }")


def test_quad_outside_graph_block_rejected():
    with pytest.raises(TrigSyntaxError, match="outside a graph block"):
        parse_trig("<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .")


def test_undeclared_prefix_rejected():
    with pytest.raises(TrigSyntaxError, match="undeclared prefix"):
        parse_trig("ex:g { ex:s ex:p ex:o . }")


def test_term_invariants():
    with pytest.raises(ValueError):
        iri("no-scheme-here")
    with pytest.raises(ValueError):
        Term("literal", "x", datatype="http://ex.org/dt", language="en")
    with pytest.raises(ValueError):
        Quad(literal("s"), iri("http://e.x/p"), iri("http://e.x/o"), iri("http://e.x/g"))


def test_document_equality_is_quadset_based():
    q1 = Quad(iri("http://e.x/s"), iri("http://e.x/p"), iri("http://e.x/o"), iri("http://e.x/g"))
    q2 = Quad(iri("http://e.x/s2"), iri("http://e.x/p"), iri("http://e.x/o"), iri("http://e.x/g"))
    assert QuadDocument([q1, q2]) == QuadDocument([q2, q1], prefixes={"ex": "http://e.x/"})
    assert QuadDocument([q1]) != QuadDocument([q2])
    # duplicates collapse
    assert len(QuadDocument([q1, q1])) == 1


def test_serialize_empty_document():
    assert serialize_trig(QuadDocument()) == ""


def test_serialize_one_quad_roundtrip():
    doc = QuadDocument(
        [Quad(iri("http://e.x/s"), iri("http://e.x/p"), literal("\t\"tricky\"\n"), iri("http://e.x/g"))]
    )
    assert parse_trig(serialize_trig(doc)) == doc


@settings(max_examples=150)
@given(documents)
def test_roundtrip_property(doc):
    assert parse_trig(serialize_trig(doc)).quad_set() == doc.quad_set()


def test_roundtrip_large_seeded_document():
    rng_quads = []
    import random

    rng = random.Random(99)
    names = [f"http://alpha.example/{i}" for i in range(40)]
    for _ in range(1000):
        rng_quads.append(
            Quad(
                iri(rng.choice(names)),
                iri(rng.choice(names)),
                literal(str(rng.random())) if rng.random() < 0.3 else iri(rng.choice(names)),
                iri(rng.choice(names[:5])),
            )
        )
    doc = QuadDocument(rng_quads)
    assert parse_trig(serialize_trig(doc)).quad_set() == doc.quad_set()


def test_match_all_wildcards_returns_everything(birddiet_doc):
    assert len(match(birddiet_doc, QuadPattern())) == len(birddiet_doc)


def test_match_absent_predicate_is_empty():
    doc = parse_trig("@prefix ex: <http://ex.org/> . ex:g { ex:s ex:p ex:o . }")
    assert match(doc, QuadPattern(predicate=iri(ns.RDF_TYPE))) == []


def test_match_planted_license_quads():
    from conftest import FIXTURES

    doc = parse_trig((FIXTURES / "licensed.trig").read_text(encoding="utf-8"))
    # oracle: brute-force scan
    expected = [q for q in doc.quads if q.predicate.value == ns.DCT_LICENSE]
    assert len(expected) == 2
    got = match(doc, QuadPattern(predicate=iri(ns.DCT_LICENSE)))
    assert got == expected


def test_match_literal_comparison_includes_datatype_and_language():
    doc = QuadDocument(
        [
            Quad(iri("http://e.x/s"), iri("http://e.x/p"), literal("1"), iri("http://e.x/g")),
            Quad(iri("http://e.x/s"), iri("http://e.x/p"), literal("1", datatype=ns.XSD_INTEGER), iri("http://e.x/g")),
            Quad(iri("http://e.x/s"), iri("http://e.x/p"), literal("1", language="en"), iri("http://e.x/g")),
        ]
    )
    assert len(match(doc, QuadPattern(object=literal("1")))) == 1
    assert len(match(doc, QuadPattern(object=literal("1", datatype=ns.XSD_INTEGER)))) == 1


@settings(max_examples=100)
@given(documents, quads)
def test_match_constraint_monotonicity(doc, q):
    everything = match(doc, QuadPattern())
    assert len(everything) == len(doc)
    constrained = match(doc, QuadPattern(subject=q.subject))
    assert len(constrained) <= len(everything)
    more = match(doc, QuadPattern(subject=q.subject, predicate=q.predicate))
    assert len(more) <= len(constrained)


@settings(max_examples=60)
@given(documents, st.sampled_from(["b0", "x1", "label"]))
def test_blank_node_token_always_rejected(doc, label):
    text = serialize_trig(doc)
    # plant a blank-node statement into an existing or fresh graph block
    planted = text + f'\n<http://alpha.example/g> {{ _:{label} <http://alpha.example/p> "v" . }}\n'
    with pytest.raises(TrigSyntaxError):
        parse_trig(planted)


def test_escape_string_matches_per_character_join():
    old_table = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
    value = 'a\\b"c\nd\re\tf\bg\fh \u00e9\U0001f600 \'\x0b'
    assert escape_string(value) == "".join(old_table.get(c, c) for c in value)
    assert escape_string(value) == 'a\\\\b\\"c\\nd\\re\\tf\\bg\\fh \u00e9\U0001f600 \'\x0b'


def test_terms_with_equal_values_stay_distinct():
    value = "http://ex.org/a"
    terms = [
        iri(value),
        literal(value),
        literal(value, datatype=ns.XSD_INTEGER),
        literal(value, datatype=ns.XSD_DOUBLE),
        literal(value, language="en"),
        literal(value, language="de"),
    ]
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            assert (a == b) == (i == j)
    table = {term: i for i, term in enumerate(terms)}
    assert len(table) == len(terms)
    # fresh but equal objects find the same entries
    assert table[Term("literal", value, ns.XSD_INTEGER)] == 2
    assert table[Term("iri", value)] == 0
    graph = iri("http://ex.org/g")
    quads = {Quad(graph, graph, term, graph): i for i, term in enumerate(terms)}
    assert len(quads) == len(terms)
    assert quads[Quad(graph, graph, literal(value, language="de"), graph)] == 5
    assert hash(Quad(graph, graph, iri(value), graph)) == hash(Quad(graph, graph, iri(value), graph))
