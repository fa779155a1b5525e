"""Seeded synthetic nanopublication corpora.

Generates minted nanopublications in a handful of life-science shapes
(biotic interactions, gene-disease associations, drug-drug interactions,
protein expression, pathway membership) with configurable creator,
license, and type mixtures.  Identical config means identical corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import namespaces as ns
from .build import mint_nanopub, placeholders
from .nanopub import Nanopublication
from .rdf import Term, iri, literal

OBO = "http://purl.obolibrary.org/obo/"
SIO = "http://semanticscience.org/resource/"
NCBIGENE = "http://identifiers.org/ncbigene/"
UMLS = "http://linkedlifedata.com/resource/umls/id/"
PUBMED = "http://identifiers.org/pubmed/"
ECO = "http://purl.obolibrary.org/obo/eco.owl#"
ITIS = "https://www.itis.gov/servlet/SingleRpt/SingleRpt?search_topic=TSN&search_value="
WP = "http://identifiers.org/wikipathways/"
DRUGBANK = "http://bio2rdf.org/drugbank:"
NEXTPROT = "http://www.nextprot.org/db/entry/"
CALOHA = "http://purl.obolibrary.org/obo/caloha.obo#"

LICENSE_CC_BY_3 = "http://creativecommons.org/licenses/by/3.0/"
LICENSE_CC_BY_4 = "http://creativecommons.org/licenses/by/4.0/"
LICENSE_ODBL = "http://opendatacommons.org/licenses/odbl/1.0/"
LICENSE_CC0 = "http://creativecommons.org/publicdomain/zero/1.0/"

TOOL_DOI = "https://doi.org/10.5281/zenodo.1212599"

SHAPES = (
    "biotic-interaction",
    "gene-disease",
    "drug-interaction",
    "protein-expression",
    "pathway-membership",
)

CREATORS_PER_NANOPUB = (1, 3)  # inclusive bounds
CREATED_YEARS = (2015, 2018)  # inclusive bounds of dct:created
MISSING_DATE_RATE = 0.05  # share of nanopubs with no dct:created


@dataclass(frozen=True)
class CorpusConfig:
    count: int = 100
    seed: int = 0
    base: str = "http://example.org/np/"
    creator_weights: dict = field(
        default_factory=lambda: {
            "orcid": 0.86,
            "literal": 0.12,
            "tool": 0.015,
            "scholar": 0.002,
            "researcherid": 0.002,
            "other": 0.001,
        }
    )
    license_weights: dict = field(
        default_factory=lambda: {
            LICENSE_CC_BY_3: 0.50,
            LICENSE_ODBL: 0.38,
            LICENSE_CC_BY_4: 0.06,
            LICENSE_CC0: 0.02,
            None: 0.04,
        }
    )
    type_pool: int = 40
    shape_cycle: bool = False  # cycle shapes round-robin instead of sampling


def _weighted(rng: random.Random, weights: dict):
    items = list(weights.items())
    return rng.choices([k for k, _ in items], weights=[w for _, w in items], k=1)[0]


class _IdentifierPools:
    """Small pools of reusable identifiers so uniqueness stats are interesting."""

    def __init__(self, rng: random.Random):
        self.orcids = [
            f"http://orcid.org/0000-000{rng.randint(1, 3)}-{rng.randint(1000, 9999)}-{i:04d}"
            for i in range(12)
        ]
        self.names = ["CALIPHO project", "BiGCaT group", "curation team"]
        self.tools = [TOOL_DOI, "https://doi.org/10.5281/zenodo.999999"]
        self.scholars = [
            "https://scholar.google.com/citations?user=aaa111",
            "https://scholar.google.it/citations?user=bbb222",
        ]
        self.rids = [f"http://www.researcherid.com/rid/B-{i}-2012" for i in (6035, 7001)]
        self.others = ["http://example.net/people/x1", "http://example.net/people/x2"]

    def pick(self, rng: random.Random, kind: str) -> Term:
        if kind == "literal":
            return literal(rng.choice(self.names))
        pool = {
            "orcid": self.orcids,
            "tool": self.tools,
            "scholar": self.scholars,
            "researcherid": self.rids,
            "other": self.others,
        }[kind]
        return iri(rng.choice(pool))


def _type_palette(rng: random.Random, size: int) -> list[str]:
    palette = [ECO + "ECO_0000218", ECO + "ECO_0000305"]
    while len(palette) < size:
        kind = rng.random()
        if kind < 0.5:
            palette.append(f"{OBO}GO_{rng.randint(10_000, 99_999):07d}")
        elif kind < 0.8:
            palette.append(f"{SIO}SIO_{rng.randint(100, 999):06d}")
        else:
            palette.append(f"https://www.inaturalist.org/taxa/{rng.randint(1000, 999999)}")
    return list(dict.fromkeys(palette))[:size]


def _assertion_triples(rng: random.Random, shape: str, serial: int, type_iri: str):
    a = iri  # brevity
    rdf_type = a(ns.RDF_TYPE)
    if shape == "biotic-interaction":
        interaction = a(f"http://example.org/data/interaction/{serial}")
        prey = a(f"http://example.org/data/organism/{serial}b")
        return [
            (interaction, rdf_type, a(OBO + "GO_0044419")),
            (interaction, rdf_type, a(type_iri)),
            (interaction, a(OBO + "RO_0001025"), a(OBO + "ENVO_01000240")),
            (prey, a(SIO + "SIO_000628"), a(ITIS + str(rng.randint(100000, 999999)))),
        ]
    if shape == "gene-disease":
        gda = a(f"http://example.org/data/gda/{serial}")
        return [
            (gda, rdf_type, a(type_iri)),
            (gda, a(SIO + "SIO_000628"), a(NCBIGENE + str(rng.randint(1, 90000)))),
            (gda, a(SIO + "SIO_000628"), a(UMLS + f"C{rng.randint(100000, 999999)}")),
        ]
    if shape == "drug-interaction":
        pair = a(f"http://example.org/data/ddi/{serial}")
        return [
            (pair, rdf_type, a(type_iri)),
            (pair, a(SIO + "SIO_000132"), a(DRUGBANK + f"DB{rng.randint(1, 9999):05d}")),
            (pair, a(SIO + "SIO_000132"), a(DRUGBANK + f"DB{rng.randint(1, 9999):05d}")),
            (pair, a(SIO + "SIO_000300"), literal(f"{rng.random():.3f}", datatype=ns.XSD_DECIMAL)),
        ]
    if shape == "protein-expression":
        expr = a(f"http://example.org/data/expression/{serial}")
        return [
            (expr, rdf_type, a(type_iri)),
            (expr, a(SIO + "SIO_010302"), a(NEXTPROT + f"NX_Q{rng.randint(10000, 99999)}")),
            (expr, a(SIO + "SIO_000255"), a(CALOHA + f"TS-{rng.randint(0, 2000):04d}")),
            (expr, a(SIO + "SIO_000300"), literal(rng.choice(["high", "medium", "low"]))),
        ]
    # pathway-membership
    part = a(f"http://example.org/data/participation/{serial}")
    return [
        (part, rdf_type, a(type_iri)),
        (part, a(ns.DCT + "isPartOf"), a(WP + f"WP{rng.randint(1, 5000)}")),
        (part, a(SIO + "SIO_000628"), a(NCBIGENE + str(rng.randint(1, 90000)))),
    ]


def generate_nanopub(
    rng: random.Random, config: CorpusConfig, serial: int, pools: _IdentifierPools, palette: list[str]
) -> Nanopublication:
    shape = SHAPES[serial % len(SHAPES)] if config.shape_cycle else rng.choice(SHAPES)
    weights = [1.0 / (rank + 1) for rank in range(len(palette))]
    type_iri = rng.choices(palette, weights=weights, k=1)[0]

    ph = placeholders(config.base)
    assertion = _assertion_triples(rng, shape, serial, type_iri)

    a_graph = iri(ph.assertion)
    provenance = [
        (a_graph, iri(ns.PROV_WAS_DERIVED_FROM), iri(PUBMED + str(rng.randint(1_000_000, 30_000_000)))),
    ]
    if rng.random() < 0.5:
        provenance.append((a_graph, iri(ns.RDF_TYPE), iri(ns.PROV_ENTITY)))

    me = iri(ph.uri)
    pubinfo = []
    n_creators = rng.randint(*CREATORS_PER_NANOPUB)
    creator_preds = (ns.DCT_CREATOR, ns.DCE_CREATOR, ns.PAV_CREATED_BY, ns.PAV_AUTHORED_BY, ns.PROV_WAS_ATTRIBUTED_TO)
    for _ in range(n_creators):
        kind = _weighted(rng, config.creator_weights)
        pred = rng.choice(creator_preds)
        pubinfo.append((me, iri(pred), pools.pick(rng, kind)))
    license_iri = _weighted(rng, config.license_weights)
    if license_iri is not None:
        pred = ns.DCT_LICENSE if rng.random() < 0.9 else ns.DCT_RIGHTS
        pubinfo.append((me, iri(pred), iri(license_iri)))
    if rng.random() >= MISSING_DATE_RATE:
        year = rng.randint(*CREATED_YEARS)
        month, day = rng.randint(1, 12), rng.randint(1, 28)
        hour, minute, second = rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)
        stamp = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}Z"
        pubinfo.append((me, iri(ns.DCT_CREATED), literal(stamp, datatype=ns.XSD_DATETIME)))
    if not pubinfo:
        pubinfo.append((me, iri(ns.PAV_CREATED_BY), pools.pick(rng, "orcid")))

    _, np = mint_nanopub(config.base, assertion, provenance, pubinfo)
    return np


def generate_corpus(config: CorpusConfig) -> list[Nanopublication]:
    """The full deterministic corpus for ``config``."""
    rng = random.Random(config.seed)
    pools = _IdentifierPools(rng)
    palette = _type_palette(rng, config.type_pool)
    return [
        generate_nanopub(rng, config, serial, pools, palette)
        for serial in range(config.count)
    ]

