"""tifsem: TourInFrance dialect normalization into a Schema.org-aligned graph.

Pipeline: parse dialect XML into information objects (``ingest``), assert
them into a triple store (``graph``), materialize Schema.org alignments
(``mapping``), then query (``query``) or serialize (``serialize``).
"""

from tifsem.errors import TifsemError
from tifsem.graph import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    Triple,
    assert_io,
    mint_io_iri,
)
from tifsem.ingest import (
    DialectProfile,
    RawDocument,
    ValidationIssue,
    load_profile,
    normalize_tag,
    parse_tif,
    validate_io,
)
from tifsem.mapping import (
    MappingReport,
    MappingRule,
    Relation,
    builtin_rules,
    check_consistency,
    load_rules,
    materialize,
)
from tifsem.ontology import (
    ConceptDescriptor,
    GeoPoint,
    Granule,
    GranuleKind,
    InformationObject,
    OntologySnapshot,
    class_of,
    load_core_ontology,
)
from tifsem.query import (
    Query,
    SolutionTable,
    evaluate,
    geo_distance,
    parse_query,
)
from tifsem.serialize import (
    JsonLdDocument,
    from_ntriples,
    to_jsonld,
    to_ntriples,
    to_turtle,
)

__version__ = "0.1.0"

__all__ = [
    "BlankNode",
    "ConceptDescriptor",
    "DialectProfile",
    "GeoPoint",
    "Granule",
    "GranuleKind",
    "Graph",
    "IRI",
    "InformationObject",
    "JsonLdDocument",
    "Literal",
    "MappingReport",
    "MappingRule",
    "OntologySnapshot",
    "Query",
    "RawDocument",
    "Relation",
    "SolutionTable",
    "TifsemError",
    "Triple",
    "ValidationIssue",
    "assert_io",
    "builtin_rules",
    "check_consistency",
    "class_of",
    "evaluate",
    "from_ntriples",
    "geo_distance",
    "load_core_ontology",
    "load_profile",
    "load_rules",
    "materialize",
    "mint_io_iri",
    "normalize_tag",
    "parse_query",
    "parse_tif",
    "to_jsonld",
    "to_ntriples",
    "to_turtle",
    "validate_io",
]
