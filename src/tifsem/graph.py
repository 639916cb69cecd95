"""In-memory triple store with subject/predicate/object indexes.

A ``Graph`` keeps each triple in three indexes and nowhere else:

* subject -> predicate -> bucket.  A bucket holds the triples of one
  (subject, predicate) pair.  Most pairs have one triple, which is stored
  bare; the second insert turns the bucket into a dict from object to
  triple.  ``match(s, p)`` is a direct lookup, ``match(s, p, o)`` and
  membership are a lookup in one bucket, and iteration walks this index.
* predicate -> set of triples, for patterns with only the predicate bound.
* object -> set of triples, for patterns with the object bound and the
  subject free.

``len`` is a counter.  ``scan_size`` is the size of the set ``match`` reads
from, and is exact when the subject is bound.

Build phase (insert, assert) requires exclusive access; once built, a graph
can be read concurrently without restriction.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from decimal import Decimal
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Optional, Union
from urllib.parse import quote

from tifsem import ontology
from tifsem.errors import IoAssertionError
from tifsem.ontology import (
    GeoPoint,
    GranuleKind,
    InformationObject,
    IoRef,
    class_of,
    decimal_lexical,
    load_core_ontology,
)

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF_NS + "type"
RDF_LANG_STRING = RDF_NS + "langString"
XSD_STRING = XSD_NS + "string"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_INTEGER = XSD_NS + "integer"
XSD_DATE = XSD_NS + "date"

DEFAULT_BASE_IRI = "http://example.org/tifsem"

# Term syntax of W3C RDF 1.1 N-Triples (2014), defined once here and used by
# the term constructors, the N-Triples reader and writer and the query
# tokenizer.  Each is a regex fragment: the surrogate code points, which no
# term may hold because UTF-8 cannot encode them, and the characters an IRI
# may never contain (character-class bodies), a blank-node label and a
# language tag.
SURROGATES = r"\ud800-\udfff"
IRI_FORBIDDEN = r'\x00-\x20<>"{}|^`\\' + SURROGATES
BLANK_LABEL = r"[A-Za-z0-9_]+"
LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"

_SURROGATE_RE = re.compile(f"[{SURROGATES}]")
_IRI_FORBIDDEN_RE = re.compile(f"[{IRI_FORBIDDEN}]")
_BLANK_LABEL_RE = re.compile(BLANK_LABEL)
_LANGTAG_RE = re.compile(LANGTAG)


def _check_iri(value: str) -> None:
    if not value:
        raise ValueError("IRI must be non-empty")
    bad = _IRI_FORBIDDEN_RE.search(value)
    if bad:
        raise ValueError(f"IRI contains forbidden character {bad.group()!r}: {value!r}")


# Terms and triples compute their hash once, at the end of construction,
# and ``__hash__`` returns it: a frozen dataclass would rehash its fields on
# every set or dict lookup, and the indexes look every term up many times.
# String hashes differ from process to process, so a stored hash must never
# travel: ``__reduce__`` pickles and copies a term as its constructor call,
# which recomputes the hash (and re-runs the checks) where it is loaded.
class _CachedHash:
    __slots__ = ("_hash",)


@dataclass(frozen=True, slots=True)
class IRI(_CachedHash):
    value: str

    def __post_init__(self) -> None:
        _check_iri(self.value)
        object.__setattr__(self, "_hash", hash(self.value))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return IRI, (self.value,)


@dataclass(frozen=True, slots=True)
class BlankNode(_CachedHash):
    label: str

    def __post_init__(self) -> None:
        if not _BLANK_LABEL_RE.fullmatch(self.label):
            raise ValueError(f"blank node label must be {BLANK_LABEL}: {self.label!r}")
        object.__setattr__(self, "_hash", hash(("_:", self.label)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return BlankNode, (self.label,)


@dataclass(frozen=True, slots=True)
class Literal(_CachedHash):
    lexical: str
    datatype: str = XSD_STRING
    language: Optional[str] = None

    def __post_init__(self) -> None:
        if _SURROGATE_RE.search(self.lexical):
            raise ValueError(f"literal contains a surrogate code point: {self.lexical!r}")
        if self.language is not None:
            if not _LANGTAG_RE.fullmatch(self.language):
                raise ValueError(f"malformed language tag: {self.language!r}")
            if self.datatype == XSD_STRING:
                object.__setattr__(self, "datatype", RDF_LANG_STRING)
            elif self.datatype != RDF_LANG_STRING:
                raise ValueError("language tag requires the language-string datatype")
        elif self.datatype == RDF_LANG_STRING:
            raise ValueError("language-string literal requires a language tag")
        elif self.datatype != XSD_STRING:
            _check_iri(self.datatype)
        object.__setattr__(self, "_hash", hash((self.lexical, self.datatype, self.language)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Literal, (self.lexical, self.datatype, self.language)


Term = Union[IRI, BlankNode, Literal]
Subject = Union[IRI, BlankNode]


@dataclass(frozen=True, slots=True)
class Triple(_CachedHash):
    subject: Subject
    predicate: IRI
    object: Term

    def __post_init__(self) -> None:
        if not isinstance(self.subject, (IRI, BlankNode)):
            raise TypeError("subject must be an IRI or blank node")
        if not isinstance(self.predicate, IRI):
            raise TypeError("predicate must be an IRI")
        if not isinstance(self.object, (IRI, BlankNode, Literal)):
            raise TypeError("object must be a term")
        object.__setattr__(self, "_hash", hash((self.subject, self.predicate, self.object)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Triple, (self.subject, self.predicate, self.object)


class Graph:
    """A set of triples, indexed by subject then predicate, by predicate and
    by object."""

    def __init__(self, triples: Iterable[Triple] = ()):
        self._len = 0
        self._by_subject: dict[Subject, dict[IRI, _Bucket]] = {}
        self._by_predicate: dict[IRI, set[Triple]] = {}
        self._by_object: dict[Term, set[Triple]] = {}
        for t in triples:
            self.insert(t)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, t: object) -> bool:
        if not isinstance(t, Triple):
            return False
        bucket = self._by_subject.get(t.subject, _NO_BUCKETS).get(t.predicate)
        return bucket is not None and bool(_in_bucket(bucket, t.object))

    def __iter__(self) -> Iterator[Triple]:
        for buckets in self._by_subject.values():
            for bucket in buckets.values():
                yield from _in_bucket(bucket, None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # A bucket is bare exactly when it holds one triple, so equal graphs
        # have equal subject indexes.
        return self._by_subject == other._by_subject

    @property
    def triples(self) -> frozenset[Triple]:
        return frozenset(self)

    def copy(self) -> "Graph":
        return Graph(self)

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns True only if it was not already present."""
        buckets = self._by_subject.get(t.subject)
        if buckets is None:
            buckets = self._by_subject[t.subject] = {}
        bucket = buckets.get(t.predicate)
        if bucket is None:
            buckets[t.predicate] = t
        elif type(bucket) is Triple:
            if bucket.object == t.object:
                return False
            buckets[t.predicate] = {bucket.object: bucket, t.object: t}
        elif t.object in bucket:
            return False
        else:
            bucket[t.object] = t
        self._len += 1
        for index, key in ((self._by_predicate, t.predicate), (self._by_object, t.object)):
            other = index.get(key)
            if other is None:
                index[key] = {t}
            else:
                other.add(t)
        return True

    def match(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield triples agreeing with every bound position."""
        if subject is not None:
            for bucket in self._buckets(subject, predicate):
                yield from _in_bucket(bucket, object)
        elif object is not None:
            # The object's set already agrees on the object.
            for t in self._by_object.get(object, ()):
                if predicate is None or t.predicate == predicate:
                    yield t
        elif predicate is not None:
            yield from self._by_predicate.get(predicate, ())
        else:
            yield from self

    def scan_size(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> int:
        """How many triples ``match`` examines for these bound positions:
        exactly the triples it yields when the subject is bound."""
        if subject is not None:
            return sum(len(_in_bucket(b, object)) for b in self._buckets(subject, predicate))
        if object is not None:
            return len(self._by_object.get(object, ()))
        if predicate is not None:
            return len(self._by_predicate.get(predicate, ()))
        return self._len

    def _buckets(self, subject: Subject, predicate: Optional[IRI]) -> Collection[_Bucket]:
        """The subject's bucket for the predicate, or all its buckets."""
        buckets = self._by_subject.get(subject, _NO_BUCKETS)
        if predicate is None:
            return buckets.values()
        bucket = buckets.get(predicate)
        return () if bucket is None else (bucket,)


# The triples of one (subject, predicate) pair.  Most pairs have one, which
# is stored bare; a second promotes the bucket to a dict keyed by object.
_Bucket = Union[Triple, dict[Term, Triple]]
_NO_BUCKETS: Mapping[IRI, _Bucket] = MappingProxyType({})


def _in_bucket(bucket: _Bucket, object: Optional[Term]) -> Collection[Triple]:
    """The bucket's triples, or only the one with this object."""
    if type(bucket) is Triple:
        return (bucket,) if object is None or bucket.object == object else ()
    if object is None:
        return bucket.values()
    t = bucket.get(object)
    return () if t is None else (t,)


# One IRI object per class and property the core ontology fixes, and rdf:type.
# ``assert_io`` and ``materialize`` take their vocabulary from here, so every
# triple they write shares these terms and no triple rebuilds them.
_SNAPSHOT = load_core_ontology()
_VOCABULARY: Mapping[str, IRI] = MappingProxyType(
    {iri: IRI(iri) for iri in (RDF_TYPE, *_SNAPSHOT.concepts, *_SNAPSHOT.properties)}
)
_RDF_TYPE = _VOCABULARY[RDF_TYPE]
_IO_CLASS = _VOCABULARY[ontology.IO_CLASS]
_HAS_GRANULE = _VOCABULARY[ontology.HAS_GRANULE]
_LATITUDE = _VOCABULARY[ontology.LATITUDE_PROP]
_LONGITUDE = _VOCABULARY[ontology.LONGITUDE_PROP]
_GRANULE_CLASSES = {kind: _VOCABULARY[class_of(kind)] for kind in GranuleKind}
_FIELD_PREDICATES = {
    path: _VOCABULARY[_SNAPSHOT.predicate_for(path)]
    for path in _SNAPSHOT.canonical_paths()
    if _SNAPSHOT.predicate_for(path) in _VOCABULARY  # not the geopoint Position
}


def vocabulary_iri(value: str) -> IRI:
    """The shared IRI object of a core-ontology class or property (or
    rdf:type), else a new IRI."""
    return _VOCABULARY.get(value) or IRI(value)


def mint_io_iri(base: str, io_id: str) -> IRI:
    return IRI(f"{base.rstrip('/')}/io/{quote(io_id, safe='')}")


def _escape_label_part(text: str) -> str:
    # Injective: alphanumerics map to themselves, everything else to _hh.
    return "".join(c if c.isalnum() and c.isascii() else f"_{ord(c):02x}" for c in text)


def granule_node(io_id: str, kind: GranuleKind, ordinal: int) -> BlankNode:
    """Deterministic blank node for one granule instance."""
    return BlankNode(f"{_escape_label_part(io_id)}_{kind.value}_{ordinal}")


def _field_object(value, base: str) -> Literal | IRI:
    if isinstance(value, str):
        return Literal(value)
    if isinstance(value, Decimal):
        return Literal(decimal_lexical(value), XSD_DECIMAL)
    if isinstance(value, datetime.date):
        return Literal(value.isoformat(), XSD_DATE)
    if isinstance(value, IoRef):
        return mint_io_iri(base, value.io_id)
    raise TypeError(f"unsupported field value: {value!r}")


def assert_io(g: Graph, io: InformationObject, base: str = DEFAULT_BASE_IRI) -> int:
    """Integrate one information object into the graph.

    Emits the IO type triple, one blank node per granule instance (typed with
    the granule class and linked via ``tifsem:hasGranule``), one triple per
    field, and the latitude/longitude pair for geopoint fields.  Blank node
    labels depend only on (io id, kind, ordinal), so re-asserting the same IO
    adds nothing.

    Raises :class:`IoAssertionError` if the IO carries error-level validation
    issues.
    """
    from tifsem.ingest import validate_io  # deferred: ingest imports this module

    errors = [i for i in validate_io(io) if i.severity == "error"]
    if errors:
        detail = "; ".join(f"{i.field_path}: {i.message}" for i in errors)
        raise IoAssertionError(f"IO {io.id!r} failed validation: {detail}")
    return _insert_io(g, io, base)


def _insert_io(g: Graph, io: InformationObject, base: str) -> int:
    """``assert_io`` for an IO already validated free of errors."""
    added = 0
    io_iri = mint_io_iri(base, io.id)
    added += g.insert(Triple(io_iri, _RDF_TYPE, _IO_CLASS))

    for kind, instances in io.granules.items():
        granule_class = _GRANULE_CLASSES[kind]
        for ordinal, granule in enumerate(instances):
            node = granule_node(io.id, kind, ordinal)
            added += g.insert(Triple(io_iri, _HAS_GRANULE, node))
            added += g.insert(Triple(node, _RDF_TYPE, granule_class))
            for path, value in granule.fields.items():
                if isinstance(value, GeoPoint):
                    lat = Literal(decimal_lexical(value.latitude), XSD_DECIMAL)
                    lon = Literal(decimal_lexical(value.longitude), XSD_DECIMAL)
                    added += g.insert(Triple(node, _LATITUDE, lat))
                    added += g.insert(Triple(node, _LONGITUDE, lon))
                    continue
                # an extension field is keyed by its own IRI
                predicate = _FIELD_PREDICATES.get(path) or IRI(path)
                added += g.insert(Triple(node, predicate, _field_object(value, base)))

    for ext_iri, text in io.extensions.items():
        added += g.insert(Triple(io_iri, IRI(ext_iri), Literal(text)))
    return added
