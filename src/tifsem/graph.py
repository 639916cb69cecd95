"""RDF terms and an in-memory triple store with two indexes of one shape.

A term (``IRI``, ``BlankNode``, ``Literal``) is a ``str`` whose value is its
canonical N-Triples text, so terms compare, hash and sort as their text.

A ``Graph`` keeps each triple in two indexes and nowhere else: subject ->
predicate -> bucket, for patterns with the subject bound, and predicate ->
object -> bucket, for the rest.  A bucket holds the triples that share the
index's first two positions.  Most hold one, which is stored bare; the
second insert promotes the bucket to a dict keyed by the third position
(the object in the subject index, the subject in the predicate index).
The subject index decides whether a triple is new, and iteration walks it.
A pattern with only the object bound looks it up under every predicate.

``len`` and the triples per predicate are counters.  ``scan_size`` is
exactly the number of triples ``match`` yields, and O(1) when only the
predicate is bound.  With two positions bound, the keys of a promoted
bucket are the values of the third (Weiss, Karras & Bernstein, "Hexastore",
VLDB 2008): ``objects`` and ``subjects`` return them without building a
triple.

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
    GranuleKind,
    InformationObject,
    IoRef,
    class_of,
    decimal_lexical,
    expand_geopoints,
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
# may never contain (character-class bodies), a blank-node label, a language
# tag and the body of a quoted string.  The string body takes any escape;
# `unescape` and the term constructors then refuse what the grammar does not
# allow.  It is an unrolled loop, `[^F]*(?:\\.[^F]*)*`, which the regex engine
# scans several times faster than the alternation `(?:[^F]|\\.)*`, and it
# never holds a line break.
SURROGATES = r"\ud800-\udfff"
IRI_FORBIDDEN = r'\x00-\x20<>"{}|^`\\' + SURROGATES
BLANK_LABEL = r"[A-Za-z0-9_]+"
LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_LEXICAL = r'[^"\\\n]*(?:\\.[^"\\\n]*)*'

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


# String escapes, written and read.  A literal's text escapes the five
# characters with a short form and every other control character as \uXXXX.
_ESCAPES = str.maketrans({
    **{chr(cp): f"\\u{cp:04X}" for cp in range(0x20)},
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t",
})
_UNESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.DOTALL)
_UNESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def unescape(text: str) -> str:
    r"""Resolve the string escapes ``\t \b \n \r \f \" \' \\ \uXXXX
    \UXXXXXXXX``.  Raises ValueError on any other escape and on an escape
    naming a surrogate or a code point above U+10FFFF."""

    def repl(m: re.Match) -> str:
        digits = m.group(1) or m.group(2)
        if digits:
            cp = int(digits, 16)
            if cp > 0x10FFFF or 0xD800 <= cp <= 0xDFFF:
                raise ValueError(f"escape names no Unicode scalar value: {m.group()}")
            return chr(cp)
        if m.group(3) not in _UNESCAPES:
            raise ValueError(f"invalid escape {m.group()}")
        return _UNESCAPES[m.group(3)]

    return _UNESCAPE_RE.sub(repl, text) if "\\" in text else text


# A term is a ``str`` whose value is its canonical N-Triples text: `<iri>`,
# `_:label`, `"escaped"`, `"escaped"@lang` or `"escaped"^^<datatype>`.  That
# text is injective and its first character tells the kinds apart, so terms
# compare, hash and sort as ``str`` does, and the writers emit them as they
# are.  The constructors check the parts and build the text; the properties
# read the parts back.  ``__reduce__`` pickles and copies a term as its
# constructor call: ``str``'s own would pass the constructor the text, which
# it would wrap a second time.  ``repr`` shows that call, never the text.
class _Term(str):
    __slots__ = ()

    def __repr__(self) -> str:
        make, parts = self.__reduce__()
        return f"{make.__name__}({', '.join(map(repr, parts))})"


class IRI(_Term):
    __slots__ = ()

    def __new__(cls, value: str) -> IRI:
        _check_iri(value)
        return str.__new__(cls, f"<{value}>")

    @property
    def value(self) -> str:
        return self[1:-1]

    def __reduce__(self):
        return IRI, (self.value,)


class BlankNode(_Term):
    __slots__ = ()

    def __new__(cls, label: str) -> BlankNode:
        if not _BLANK_LABEL_RE.fullmatch(label):
            raise ValueError(f"blank node label must be {BLANK_LABEL}: {label!r}")
        return str.__new__(cls, f"_:{label}")

    @property
    def label(self) -> str:
        return self[2:]

    def __reduce__(self):
        return BlankNode, (self.label,)


# A literal's body ends at its last `"`: neither a datatype IRI nor a
# language tag can hold one.
class Literal(_Term):
    __slots__ = ()

    def __new__(cls, lexical: str, datatype: str = XSD_STRING, language: Optional[str] = None) -> Literal:
        if _SURROGATE_RE.search(lexical):
            raise ValueError(f"literal contains a surrogate code point: {lexical!r}")
        body = f'"{lexical.translate(_ESCAPES)}"'
        if language is not None:
            if not _LANGTAG_RE.fullmatch(language):
                raise ValueError(f"malformed language tag: {language!r}")
            if datatype not in (XSD_STRING, RDF_LANG_STRING):
                raise ValueError("language tag requires the language-string datatype")
            return str.__new__(cls, f"{body}@{language}")
        if datatype == RDF_LANG_STRING:
            raise ValueError("language-string literal requires a language tag")
        if datatype == XSD_STRING:
            return str.__new__(cls, body)
        _check_iri(datatype)
        return str.__new__(cls, f"{body}^^<{datatype}>")

    @property
    def lexical(self) -> str:
        return unescape(self[1 : self.rindex('"')])

    @property
    def datatype(self) -> str:
        suffix = self[self.rindex('"') + 1 :]  # empty, @tag or ^^<datatype>
        return suffix[3:-1] if suffix[:1] == "^" else RDF_LANG_STRING if suffix else XSD_STRING

    @property
    def language(self) -> Optional[str]:
        suffix = self[self.rindex('"') + 1 :]
        return suffix[1:] if suffix[:1] == "@" else None

    def __reduce__(self):
        return Literal, (self.lexical, self.datatype, self.language)


Term = Union[IRI, BlankNode, Literal]
Subject = Union[IRI, BlankNode]


# ``init=False``: the hand-written ``__init__`` makes the three checks a
# generated one would leave to ``__post_init__``, and fills the slots through
# their descriptors, which the frozen ``__setattr__`` does not guard.  The
# type checks also keep out a plain ``str`` equal to a term's text.
@dataclass(frozen=True, slots=True, init=False)
class Triple:
    subject: Subject
    predicate: IRI
    object: Term

    def __init__(self, subject: Subject, predicate: IRI, object: Term) -> None:
        if not isinstance(subject, (IRI, BlankNode)):
            raise TypeError("subject must be an IRI or blank node")
        if not isinstance(predicate, IRI):
            raise TypeError("predicate must be an IRI")
        if not isinstance(object, (IRI, BlankNode, Literal)):
            raise TypeError("object must be a term")
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)

    def __reduce__(self):
        return Triple, (self.subject, self.predicate, self.object)


_set_subject = Triple.subject.__set__
_set_predicate = Triple.predicate.__set__
_set_object = Triple.object.__set__


class Graph:
    """A set of triples, indexed by subject then predicate and by predicate."""

    def __init__(self, triples: Iterable[Triple] = ()):
        self._len = 0
        self._by_subject: dict[Subject, dict[IRI, _Bucket]] = {}
        self._by_predicate: dict[IRI, dict[Term, _Bucket]] = {}
        self._counts: dict[IRI, int] = {}  # triples per predicate
        for t in triples:
            self.insert(t)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, t: object) -> bool:
        return isinstance(t, Triple) and self.scan_size(t.subject, t.predicate, t.object) == 1

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

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns True only if it was not already present."""
        s, p, o = t.subject, t.predicate, t.object
        # The subject index decides whether the triple is new.
        buckets = self._by_subject.get(s)
        if buckets is None:
            self._by_subject[s] = {p: t}
        else:
            bucket = buckets.get(p)
            if bucket is None:
                buckets[p] = t
            elif type(bucket) is Triple:
                if bucket.object == o:
                    return False
                buckets[p] = {bucket.object: bucket, o: t}
            elif o in bucket:
                return False
            else:
                bucket[o] = t
        buckets = self._by_predicate.get(p)
        if buckets is None:
            self._by_predicate[p] = {o: t}
        else:
            bucket = buckets.get(o)
            if bucket is None:
                buckets[o] = t
            elif type(bucket) is Triple:
                buckets[o] = {bucket.subject: bucket, s: t}
            else:
                bucket[s] = t
        self._len += 1
        self._counts[p] = self._counts.get(p, 0) + 1
        return True

    def match(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield triples agreeing with every bound position."""
        if subject is not None:
            for bucket in _buckets(self._by_subject, subject, predicate):
                yield from _in_bucket(bucket, object)
        else:
            for p in self._by_predicate if predicate is None else (predicate,):
                for bucket in _buckets(self._by_predicate, p, object):
                    yield from _in_bucket(bucket, None)

    def objects(self, subject: Term, predicate: Term) -> Collection[Term]:
        """The objects of the triples with this subject and predicate, in
        the order ``match`` yields them; empty for a literal subject or a
        predicate that is not an IRI.  The result may be a view on the
        subject index: read-only, and valid until the next insert."""
        bucket = self._by_subject.get(subject, _NO_BUCKETS).get(predicate)
        if bucket is None:
            return ()
        return (bucket.object,) if type(bucket) is Triple else bucket.keys()

    def subjects(self, predicate: Term, object: Term) -> Collection[Subject]:
        """The subjects of the triples with this predicate and object, in
        the order ``match`` yields them; empty for a predicate that is not
        an IRI.  The result may be a view on the predicate index: read-only,
        and valid until the next insert."""
        bucket = self._by_predicate.get(predicate, _NO_BUCKETS).get(object)
        if bucket is None:
            return ()
        return (bucket.subject,) if type(bucket) is Triple else bucket.keys()

    def scan_size(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> int:
        """How many triples ``match`` yields for these bound positions."""
        if subject is not None:
            return sum(len(_in_bucket(b, object)) for b in _buckets(self._by_subject, subject, predicate))
        if object is None:
            return self._len if predicate is None else self._counts.get(predicate, 0)
        predicates = self._by_predicate if predicate is None else (predicate,)
        return sum(len(_in_bucket(b, None)) for p in predicates for b in _buckets(self._by_predicate, p, object))


# One bare triple, or a dict keyed by the index's third position.
_Bucket = Union[Triple, dict[Term, Triple]]
_NO_BUCKETS: Mapping[Term, _Bucket] = MappingProxyType({})


def _buckets(index: dict, first: Term, second: Optional[Term]) -> Collection[_Bucket]:
    """The bucket under (first, second), or every bucket under ``first``."""
    buckets = index.get(first, _NO_BUCKETS)
    if second is None:
        return buckets.values()
    bucket = buckets.get(second)
    return () if bucket is None else (bucket,)


def _in_bucket(bucket: _Bucket, object: Optional[Term]) -> Collection[Triple]:
    """The bucket's triples, or only the one with this object (subject index)."""
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
_GRANULE_CLASSES = {kind: _VOCABULARY[class_of(kind)] for kind in GranuleKind}
_FIELD_PREDICATES = {
    path: _VOCABULARY[predicate]
    for path, (_, _, predicate) in _SNAPSHOT.fields.items()
    if predicate is not None  # a geopoint is written as its latitude and longitude
}


def vocabulary_iri(value: str) -> IRI:
    """The shared IRI object of a core-ontology class or property (or
    rdf:type), else a new IRI."""
    return _VOCABULARY.get(value) or IRI(value)


def mint_io_iri(base: str, io_id: str) -> IRI:
    return IRI(f"{base.rstrip('/')}/io/{quote(io_id, safe='')}")


def _escape_label_part(text: str) -> str:
    # Injective: ASCII alphanumerics map to themselves, a code point below
    # U+0100 to _hh and any other to _u and six hex digits; "u" is not a hex
    # digit, so no _u form reads as an _hh one.
    return "".join(c if c.isalnum() and c.isascii() else f"_{ord(c):02x}" if c < "\u0100" else f"_u{ord(c):06x}"
                   for c in text)


def _granule_node(escaped_id: str, kind: GranuleKind, ordinal: int) -> BlankNode:
    return BlankNode(f"{escaped_id}_{kind.value}_{ordinal}")


def granule_node(io_id: str, kind: GranuleKind, ordinal: int) -> BlankNode:
    """Deterministic blank node for one granule instance."""
    return _granule_node(_escape_label_part(io_id), kind, ordinal)


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
    return _insert_ios(g, (io,), base)


def _insert_ios(g: Graph, ios: Iterable[InformationObject], base: str) -> int:
    """``assert_io`` for IOs already validated free of errors, one
    ``Graph.insert`` per triple.  Within the call each IO id is escaped once,
    and each extension-key IRI and each field object is built once."""
    predicates = dict(_FIELD_PREDICATES)
    objects: dict = {}

    def field_terms(path: str, value) -> tuple[IRI, Literal | IRI]:
        predicate = predicates.get(path)
        if predicate is None:  # an extension field is keyed by its own IRI
            predicate = predicates[path] = IRI(path)
        # A decimal is keyed by its exact text: 1.0 and 1.00, or 0 and -0,
        # are equal and hash alike, yet write different lexical forms.
        key = (Decimal, str(value)) if isinstance(value, Decimal) else value
        obj = objects.get(key)
        if obj is None:
            obj = objects[key] = _field_object(value, base)
        return predicate, obj

    added = 0
    for io in ios:
        io_iri = mint_io_iri(base, io.id)
        added += g.insert(Triple(io_iri, _RDF_TYPE, _IO_CLASS))
        escaped_id = _escape_label_part(io.id)
        for kind, instances in io.granules.items():
            granule_class = _GRANULE_CLASSES[kind]
            for ordinal, granule in enumerate(instances):
                node = _granule_node(escaped_id, kind, ordinal)
                added += g.insert(Triple(io_iri, _HAS_GRANULE, node))
                added += g.insert(Triple(node, _RDF_TYPE, granule_class))
                for path, value in expand_geopoints(granule.fields):
                    added += g.insert(Triple(node, *field_terms(path, value)))
        for ext_iri, text in io.extensions:
            added += g.insert(Triple(io_iri, *field_terms(ext_iri, text)))
    return added
