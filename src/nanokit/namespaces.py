"""Vocabulary IRIs used across the toolkit."""

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"

# Nanopublication container schema
NP = "http://www.nanopub.org/nschema#"
# Extension vocabulary (index membership, markers)
NPX = "http://purl.org/nanopub/x/"

DCT = "http://purl.org/dc/terms/"
DCE = "http://purl.org/dc/elements/1.1/"
PAV = "http://purl.org/pav/"
PROV = "http://www.w3.org/ns/prov#"

ORCID = "http://orcid.org/"

RDF_TYPE = RDF + "type"

NP_NANOPUBLICATION = NP + "Nanopublication"
NP_HAS_ASSERTION = NP + "hasAssertion"
NP_HAS_PROVENANCE = NP + "hasProvenance"
NP_HAS_PUBINFO = NP + "hasPublicationInfo"

NPX_NANOPUB_INDEX = NPX + "NanopubIndex"
NPX_INCOMPLETE_INDEX = NPX + "IncompleteIndex"
NPX_INCLUDES_ELEMENT = NPX + "includesElement"
NPX_INCLUDES_SUBINDEX = NPX + "includesSubindex"
NPX_APPENDS_INDEX = NPX + "appendsIndex"

DCT_TITLE = DCT + "title"
DCT_CREATED = DCT + "created"
DCT_CREATOR = DCT + "creator"
DCT_LICENSE = DCT + "license"
DCT_RIGHTS = DCT + "rights"
DCE_CREATOR = DCE + "creator"
PAV_CREATED_BY = PAV + "createdBy"
PAV_AUTHORED_BY = PAV + "authoredBy"
PAV_CREATED_ON = PAV + "createdOn"
PROV_WAS_ATTRIBUTED_TO = PROV + "wasAttributedTo"
PROV_WAS_DERIVED_FROM = PROV + "wasDerivedFrom"
PROV_ENTITY = PROV + "Entity"

XSD_DATETIME = XSD + "dateTime"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"

# Presentation-only prefix table attached to serialized nanopublications.
STANDARD_PREFIXES = {
    "rdf": RDF,
    "rdfs": RDFS,
    "xsd": XSD,
    "np": NP,
    "npx": NPX,
    "dct": DCT,
    "dce": DCE,
    "pav": PAV,
    "prov": PROV,
    "orcid": ORCID,
}
