import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanokit import namespaces as ns
from nanokit.build import mint_nanopub, placeholders
from nanokit.rdf import Quad, QuadDocument, iri, literal
from nanokit.trusty import (
    CODE_LENGTH,
    MintError,
    TrustyUri,
    _strip_codes,
    canonical_form,
    compute_code,
    extract_artifact_code,
    is_artifact_code,
    mint,
    verify,
    verify_reason,
)

from oracle_trusty import ALPHABET, oracle_canonical_form, oracle_code, oracle_strip, oracle_verify
from oracle_trusty import oracle_strip_trusty as strip_trusty
from oracles import graph_names
from strategies import documents

BASE = "http://example.org/np/birddiet."
# computed by the oracle script, frozen
BIRDDIET_CODE = "RAOUCV1Y0V-zazLk95FSe1TSGK8vif-Md4Ae5aiGWW7Hz"


def quad(s, p, o, g):
    return Quad(iri(s), iri(p), o if not isinstance(o, str) else iri(o), iri(g))


@pytest.fixture
def plain_doc():
    return QuadDocument(
        [
            quad("http://a.example/s", "http://a.example/p", "http://a.example/o", "http://a.example/g"),
            quad("http://a.example/s", "http://a.example/p", literal("v", language="en"), "http://a.example/g"),
        ]
    )


def test_canonical_form_invariant_under_quad_order(plain_doc):
    reordered = QuadDocument(tuple(reversed(plain_doc.quads)), {"x": "http://a.example/"})
    assert canonical_form(plain_doc, "http://b.example/") == canonical_form(
        reordered, "http://b.example/"
    )


def test_canonical_form_without_self_references_is_sorted_lines(plain_doc):
    text = canonical_form(plain_doc, "http://b.example/")
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert text.endswith("\n")
    assert '<http://a.example/s> <http://a.example/p> "v"@en <http://a.example/g> .' in lines


def test_fixture_canonical_form_matches_oracle_byte_for_byte(birddiet_doc):
    assert canonical_form(birddiet_doc, BASE) == oracle_canonical_form(birddiet_doc, BASE)


def test_fixture_code_matches_oracle(birddiet_doc):
    assert compute_code(birddiet_doc, BASE) == oracle_code(birddiet_doc, BASE) == BIRDDIET_CODE


def test_mint_is_deterministic(plain_doc):
    uri1, doc1 = mint(plain_doc, "http://b.example/")
    uri2, doc2 = mint(plain_doc, "http://b.example/")
    assert uri1 == uri2
    assert doc1 == doc2


def test_one_character_literal_difference_changes_code():
    base = "http://b.example/"
    docs = [
        QuadDocument([quad("http://a.example/s", "http://a.example/p", literal(text), "http://a.example/g")])
        for text in ("value", "valuf")
    ]
    codes = {compute_code(doc, base) for doc in docs}
    assert len(codes) == 2


def test_mint_rewrites_self_references():
    base = "http://b.example/item."
    doc = QuadDocument(
        [
            quad(base, "http://a.example/p", base + "#part", base + "#g"),
        ]
    )
    uri, minted = mint(doc, base)
    assert uri.uri == base + uri.code
    (q,) = minted.quads
    assert q.subject.value == base + uri.code
    assert q.object.value == base + uri.code + "#part"
    assert q.graph.value == base + uri.code + "#g"


def test_mint_requires_delimiter_ending_base(plain_doc):
    with pytest.raises(MintError):
        mint(plain_doc, "http://b.example/x")


def test_mint_rejects_base_colliding_with_foreign_code(plain_doc, birddiet_uri):
    doc = QuadDocument(
        list(plain_doc.quads)
        + [quad("http://a.example/s", "http://a.example/ref", birddiet_uri, "http://a.example/g")]
    )
    with pytest.raises(MintError, match="collides"):
        mint(doc, BASE)


_S, _P, _O, _G = (f"http://a.example/{name}" for name in "spog")
# IRIs under BASE that already carry a code: each collides with BASE
_F1, _F2, _F3 = BASE + BIRDDIET_CODE + "#x", BASE + "RA" + "B" * 43, BASE + BIRDDIET_CODE + "#unit"


@pytest.mark.parametrize(
    "quads, first",
    [
        # named at its first place, however often it repeats
        ([quad(_S, _P, _O, _G), quad(_S, _P, _F1, _G), quad(_F1, _F1, _F1, _F1), quad(_F2, _P, _O, _G)], _F1),
        ([quad(_F1, _P, _O, _G), quad(_F2, _P, _F1, _G), quad(_F1, _P, _F2, _G)], _F1),
        # subject, predicate, object, graph
        ([quad(_S, _F2, _F1, _F3)], _F2),
        ([quad(_S, _P, _F1, _F3)], _F1),
        ([quad(_S, _P, _O, _F3), quad(_F1, _P, _O, _G)], _F3),
        # a literal's datatype sits in the object's place
        ([quad(_S, _P, literal("3", datatype=_F3), _F1)], _F3),
        ([quad(_S, _P, literal("3", datatype=_F3), _G), quad(_S, _P, _F3, _G), quad(_F1, _P, _O, _G)], _F3),
        ([quad(_S, _P, literal("3", datatype=_F3), _G), quad(_S, _P, literal("4", datatype=_F3), _F1)], _F3),
    ],
)
def test_mint_names_first_colliding_value_in_quad_order(quads, first):
    with pytest.raises(MintError) as exc:
        mint(QuadDocument(quads), BASE)
    assert str(exc.value) == f"base {BASE!r} collides with embedded trusty URI {first!r}"


def test_mint_never_checks_a_lexical_form_for_collisions():
    uri, minted = mint(QuadDocument([quad(_S, _P, literal(_F1), BASE + "#g")]), BASE)
    assert minted.quads[0].object == literal(_F1)
    assert minted.quads[0].graph == iri(uri.uri + "#g")


def test_minted_nanopub_holds_one_term_per_distinct_value():
    base = "http://b.example/np/item."
    ph = placeholders(base)
    about, thing, unit = "http://a.example/about", base + "#thing", base + "#unit"
    # every occurrence is built as its own object
    assertion = [
        (iri(ph.uri), iri(about), iri(thing)),
        (iri(thing), iri(ns.RDF_TYPE), iri(ph.uri)),
        (iri(thing), iri(about), literal("3", datatype=unit)),
        (iri(_S), iri(about), literal("3", datatype=unit)),
    ]
    provenance = [(iri(ph.assertion), iri(ns.PROV_WAS_DERIVED_FROM), iri(ph.uri))]
    pubinfo = [
        (iri(ph.uri), iri(ns.DCT_CREATED), literal("2020-01-01T00:00:00Z", datatype=ns.XSD_DATETIME)),
        (iri(ph.uri), iri(about), iri(ph.provenance)),
    ]
    uri, np = mint_nanopub(base, assertion, provenance, pubinfo)
    terms = [t for q in np.quads for t in (q.subject, q.predicate, q.object, q.graph)]
    assert len({id(t) for t in terms}) == len(set(terms))
    minted = [t.value for t in terms if t.is_iri and t.value.startswith(uri.uri)]
    assert len({id(v) for v in minted}) == len(set(minted)) == 6
    # the fixed head IRIs are shared by every nanopub
    _, other = mint_nanopub(base, assertion[:1], provenance, pubinfo)
    for q, r in zip(np.head.quads, other.head.quads):
        assert q.predicate is r.predicate
    assert np.head.quads[0].object is other.head.quads[0].object


def test_verify_roundtrip(plain_doc):
    uri, minted = mint(plain_doc, "http://b.example/")
    assert verify(minted, uri)
    assert verify(minted, uri.uri)


def test_verify_against_different_code_fails(plain_doc, birddiet_doc):
    uri, minted = mint(plain_doc, "http://b.example/")
    assert not verify(birddiet_doc, uri)
    other = TrustyUri("http://b.example/", BIRDDIET_CODE)
    assert not verify(minted, other)


def test_verify_fixture(birddiet_doc, birddiet_uri):
    assert verify(birddiet_doc, birddiet_uri)


def _single_quad_mutations(doc):
    """Exhaustive per-quad mutations: delete, swap each term, add one."""
    foreign = iri("http://mutant.example/x")
    quads = list(doc.quads)
    for i, q in enumerate(quads):
        yield QuadDocument(quads[:i] + quads[i + 1 :], doc.prefixes)
        for position in ("subject", "predicate", "object", "graph"):
            fields = {
                "subject": q.subject,
                "predicate": q.predicate,
                "object": q.object,
                "graph": q.graph,
            }
            fields[position] = foreign
            mutated = Quad(fields["subject"], fields["predicate"], fields["object"], fields["graph"])
            yield QuadDocument(quads[:i] + [mutated] + quads[i + 1 :], doc.prefixes)
    for graph in graph_names(doc):
        extra = Quad(foreign, foreign, literal("planted"), iri(graph))
        yield QuadDocument(quads + [extra], doc.prefixes)


def test_exhaustive_single_quad_mutations_flip_verify(birddiet_doc, birddiet_uri):
    assert verify(birddiet_doc, birddiet_uri)
    count = 0
    for mutant in _single_quad_mutations(birddiet_doc):
        assert not verify(mutant, birddiet_uri)
        count += 1
    assert count == 12 * 5 + 4


def test_extract_artifact_code_from_index_style_uri():
    # the 45-character shape that codes carry in the wild
    code = "RAR7OfS-AqG9_XogObQZpWq6LaBsV95jeseJtscuwpwJo"
    assert len(code) == 45
    assert extract_artifact_code("http://np.inn.ac/" + code) == code


def test_extract_artifact_code_none_cases():
    assert extract_artifact_code("http://ex.org/page") is None
    assert extract_artifact_code("http://ex.org/" + "RA" + "+" * 43) is None
    assert extract_artifact_code("RA" + "A" * 43) is None  # no base before the code


CODE = "RA" + "Az09-_" * 7 + "q"


@pytest.mark.parametrize(
    "text",
    [
        CODE + "\n",  # a trailing newline
        "RA" + "\u0663" * 43,  # Arabic-Indic digit three
        "RA" + "\uff21" * 43,  # fullwidth A
        CODE[:-1],  # 44 characters
        CODE + "A",  # 46 characters
        "ra" + CODE[2:],  # lowercase prefix
        "RA" + "A" * 42 + "=",
        "",
    ],
)
def test_is_artifact_code_rejects(text):
    assert not is_artifact_code(text)


def test_is_artifact_code_accepts_exactly_the_alphabet():
    assert len(CODE) == CODE_LENGTH and is_artifact_code(CODE)
    for point in range(0x3000):
        char = chr(point)
        assert is_artifact_code("RA" + char * 43) == (char in ALPHABET), repr(char)


@pytest.mark.parametrize(
    "suffix, expected",
    [
        ("", ""),
        ("a.x", "a.x"),
        (CODE, ""),
        (CODE + "#assertion", "#assertion"),
        (CODE + CODE + "#head", "#head"),
        (CODE[:-1], CODE[:-1]),  # 44-character near-code
        (CODE[:-1] + "#head", CODE[:-1] + "#head"),
        (CODE + CODE[:-1], CODE[:-1]),
    ],
)
def test_strip_codes(suffix, expected):
    base = "http://example.org/np/"
    assert _strip_codes(base + suffix, base) == base + expected
    assert _strip_codes(base + suffix, base) == oracle_strip(base + suffix, base)
    assert _strip_codes("http://other.example/" + CODE, base) == "http://other.example/" + CODE


def test_strip_claimed_code_strips_it_once():
    base = "http://example.org/np/"
    other = "RA" + "B" * 43
    assert _strip_codes(base + CODE + "#head", base, CODE) == base + "#head"
    assert _strip_codes(base + CODE + CODE + "#head", base, CODE) == base + CODE + "#head"
    with pytest.raises(ValueError, match="lacks code"):
        _strip_codes(base + other + "#head", base, CODE)


def _recoded(doc, old, new):
    """``doc`` with the IRI prefix ``old`` replaced by ``new`` in IRIs and datatypes."""

    def swap(term):
        if term.is_iri and term.value.startswith(old):
            return iri(new + term.value[len(old) :])
        if term.is_literal and term.datatype and term.datatype.startswith(old):
            return literal(term.value, datatype=new + term.datatype[len(old) :])
        return term

    return QuadDocument(
        (Quad(swap(q.subject), swap(q.predicate), swap(q.object), swap(q.graph)) for q in doc.quads),
        doc.prefixes,
    )


def test_stacked_or_swapped_code_under_the_base_fails_verification(birddiet_doc):
    own = BASE + BIRDDIET_CODE
    assert verify(birddiet_doc, own) and oracle_verify(birddiet_doc, own)
    for code in (CODE, BIRDDIET_CODE + BIRDDIET_CODE, BIRDDIET_CODE + CODE, CODE + BIRDDIET_CODE):
        variant = _recoded(birddiet_doc, own, BASE + code)
        assert variant != birddiet_doc
        for claimed in {BIRDDIET_CODE, code[:45], code[-45:]}:
            assert not verify(variant, BASE + claimed), (code, claimed)
            assert not oracle_verify(variant, BASE + claimed), (code, claimed)


@pytest.mark.parametrize("where", ["iri", "datatype"])
@pytest.mark.parametrize("source", ["birddiet", "corpus"])
def test_bare_base_variant_fails_verification(request, source, where):
    if source == "birddiet":
        doc, uri = request.getfixturevalue("birddiet_doc"), request.getfixturevalue("birddiet_uri")
    else:
        np = request.getfixturevalue("corpus200")[0]
        doc, uri = np.to_document(), np.uri
    base, suffix = uri[:-CODE_LENGTH], "#assertion"  # an IRI
    if where == "datatype":  # re-mint with one literal typed under the base
        plain, suffix = strip_trusty(doc, base), "#unit"
        q = plain.quads[0]
        typed = Quad(q.subject, iri("http://a.example/size"), literal("3", datatype=base + suffix), q.graph)
        minted, doc = mint(QuadDocument(list(plain.quads) + [typed], plain.prefixes), base)
        uri = minted.uri
    assert verify(doc, uri) and oracle_verify(doc, uri)
    variant = _recoded(doc, uri + suffix, base + suffix)
    assert variant != doc
    assert not verify(variant, uri)
    assert not oracle_verify(variant, uri)


@settings(max_examples=100)
@given(
    documents,
    st.one_of(
        st.text(),
        st.tuples(
            st.one_of(
                st.text(),
                st.sampled_from(["http://alpha.example/", "http://alpha.example/a", "http://beta.example/ns"]),
            ),
            st.sampled_from([CODE, BIRDDIET_CODE]),
        ).map("".join),
    ),
)
def test_verify_reason_never_raises(doc, uri):
    reason = verify_reason(doc, uri)
    assert reason is None or isinstance(reason, str)


def test_idempotent_remint_after_stripping(birddiet_doc, birddiet_uri):
    stripped = strip_trusty(birddiet_doc, BASE)
    uri, minted = mint(stripped, BASE)
    assert uri.code == BIRDDIET_CODE
    assert minted == birddiet_doc


@settings(max_examples=80)
@given(documents)
def test_minted_codes_have_valid_shape(doc):
    uri, _ = mint(doc, "http://c.example/batch/")
    assert is_artifact_code(uri.code)
    assert len(uri.code) == 45
    assert uri.code.startswith("RA")


@settings(max_examples=60)
@given(documents)
def test_canonical_form_matches_oracle_everywhere(doc):
    base = "http://c.example/batch/"
    assert canonical_form(doc, base) == oracle_canonical_form(doc, base)
    assert compute_code(doc, base) == oracle_code(doc, base)


@settings(max_examples=60)
@given(documents, st.sampled_from(["http://alpha.example/", "http://beta.example/ns#", "http://c.example/batch/"]))
def test_claimed_code_canonical_form_matches_oracle(doc, base):
    uri, minted = mint(doc, base)
    assert canonical_form(minted, base, uri.code) == oracle_canonical_form(minted, base, uri.code)
    assert compute_code(minted, base, uri.code) == oracle_code(minted, base, uri.code) == uri.code


# SHA-256 over the claimed-code canonical forms of corpus200, in corpus order
CORPUS200_CANONICAL_SHA256 = "93f21fd51b32d7fdeafecd21103cab164f3ae652d5aef94038a7478a6bb5eebd"


def test_corpus_claimed_code_canonical_forms_golden(corpus200):
    digest = hashlib.sha256()
    for np in corpus200:
        base, code = np.uri[:-CODE_LENGTH], np.uri[-CODE_LENGTH:]
        digest.update(canonical_form(np, base, code).encode("utf-8"))
    assert digest.hexdigest() == CORPUS200_CANONICAL_SHA256


def test_literal_lexical_form_is_never_stripped():
    base = "http://example.org/np/"
    own = base + CODE
    doc = QuadDocument(
        [
            quad(own, "http://a.example/p", literal(own + "#head"), own + "#g"),
            quad(own, "http://a.example/p", literal(own, datatype=own + "#unit"), own + "#g"),
        ]
    )
    for code in (None, CODE):
        text = canonical_form(doc, base, code)
        assert text == oracle_canonical_form(doc, base, code)
        assert f'"{own}#head"' in text
        assert f'"{own}"^^<{base}#unit>' in text
        assert own not in text.replace(f'"{own}', "")


def test_iri_and_literal_with_one_string_render_apart():
    s, p, g = "http://a.example/s", "http://a.example/p", "http://a.example/g"
    doc = QuadDocument([quad(s, p, s, g), quad(s, p, literal(s), g)])
    text = canonical_form(doc, "http://example.org/np/", CODE)
    assert text == f'<{s}> <{p}> "{s}" <{g}> .\n<{s}> <{p}> <{s}> <{g}> .\n'
    assert compute_code(QuadDocument(doc.quads[:1]), "http://example.org/np/") != compute_code(
        QuadDocument(doc.quads[1:]), "http://example.org/np/"
    )


@pytest.mark.parametrize(
    "lacking, named",
    [
        (("subject", "predicate", "graph"), "subject"),
        (("predicate", "object", "graph"), "predicate"),
        (("object", "graph"), "object"),
        (("datatype", "graph"), "datatype"),
        (("graph",), "graph"),
    ],
)
def test_verify_reason_names_the_first_term_lacking_the_code(lacking, named):
    base = "http://example.org/np/"
    own = base + CODE

    def value(position):
        return base + "bare-" + position if position in lacking else own + "#" + position

    obj = literal("3", datatype=value("datatype")) if "datatype" in lacking else iri(value("object"))
    first = Quad(iri(value("subject")), iri(value("predicate")), obj, iri(value("graph")))
    later = quad(base + "bare-later", own + "#p", own + "#o", own + "#g")  # a later quad lacks it too
    reason = verify_reason(QuadDocument([first, later]), own)
    assert reason == f"{value(named)!r} is under the base but lacks code {CODE}"


@settings(max_examples=50)
@given(documents)
def test_mint_verify_roundtrip_property(doc):
    uri, minted = mint(doc, "http://c.example/batch/")
    assert verify(minted, uri)
    assert oracle_verify(minted, uri.uri)


@pytest.mark.parametrize("base", ["http://b.example/x", "http://b.example/x/"])
def test_verify_and_oracle_agree_on_the_base_ending(base):
    # one quad with no term under the base, claimed under base + its code
    doc = QuadDocument(
        [quad("http://a.example/s", "http://a.example/p", "http://a.example/o", "http://a.example/g")]
    )
    uri = base + oracle_code(doc, base)
    assert verify(doc, uri) == oracle_verify(doc, uri) == base.endswith("/")
