"""RDF terms and an in-memory triple store with two indexes of one shape.

A term (``IRI``, ``BlankNode``, ``Literal``) is a ``str`` whose value is its
canonical N-Triples text, so terms compare, hash and sort as their text.

A ``Graph`` keeps each triple as terms in one index, subject -> predicate
-> bucket, and derives a second from it, predicate -> object -> bucket, for
the patterns with the subject free.  A bucket holds the third terms
(objects, or subjects) of the triples that share the first two.  Most hold
one, stored bare; the second insert promotes the bucket to a dict keyed by
the terms (Weiss, Karras & Bernstein, "Hexastore", VLDB 2008).  Only
``match`` and iteration build ``Triple``s; the other readers return terms,
and ``_match`` is ``match`` as term tuples.

An insert writes only the subject index and the length: the subject index
decides whether a triple is new, and iteration walks it.  The predicate
index and the triples per predicate are one snapshot, built in one pass
over the subject index (Neumann & Weikum, "RDF-3X", VLDB 2008) and never
changed after.  It records the length it was built at; a graph only grows,
so a read that needs it and finds another length builds it again.  A graph
that is only written, materialized and serialized never builds it; a
caller that interleaves inserts with such reads pays one build per read.
A pattern with only the object bound looks it up under every predicate.
``scan_size`` is exactly the number of triples ``match`` yields.  ``match``
yields a snapshot whether or not the subject is bound: the triples it
yields are those the graph held when iteration started, so an insert made
while iterating it changes nothing it yields.

Build phase (insert, assert) requires exclusive access; once built, a graph
can be read concurrently without restriction.  Two readers that start at
once may both build the snapshot; each collects it in dicts of its own and
publishes it by one assignment, and the two are equal.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from decimal import Decimal
from itertools import starmap
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Union
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


class _Memo(dict):
    """Key -> ``make(key)``, made on first lookup.  A reader builds each
    distinct term text once, so every triple naming it shares that one
    object; Turtle renders each distinct term once per call; a query
    resolves each node's coordinates once per graph."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


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


# The type checks also keep out a plain ``str`` equal to a term's text.
# ``__reduce__`` pickles a triple as its constructor call, which a frozen,
# slotted dataclass needs before Python 3.11.
@dataclass(frozen=True, slots=True)
class Triple:
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

    def __reduce__(self):
        return Triple, (self.subject, self.predicate, self.object)


class Graph:
    """A set of triples, indexed by subject then predicate and by predicate."""

    def __init__(self, triples: Iterable[Triple] = ()):
        self._len = 0
        self._by_subject: dict[Subject, dict[IRI, _Bucket]] = {}
        self._predicate_view: _PredicateView = (0, {}, {})
        for t in triples:
            self.insert(t)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, t: object) -> bool:
        return isinstance(t, Triple) and self.scan_size(t.subject, t.predicate, t.object) == 1

    def __iter__(self) -> Iterator[Triple]:
        return starmap(Triple, self.subject_predicate_objects())

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
        return self._add(t.subject, t.predicate, t.object)

    def _add(self, s: Subject, p: IRI, o: Term) -> bool:
        """``insert`` of three terms of the kinds a ``Triple`` takes."""
        # The subject index decides whether the triple is new.
        buckets = self._by_subject.get(s)
        if buckets is None:
            self._by_subject[s] = {p: o}
        else:
            bucket = buckets.get(p)
            if bucket is None:
                buckets[p] = o
            elif type(bucket) is dict:
                if o in bucket:
                    return False
                bucket[o] = None
            elif bucket == o:
                return False
            else:
                buckets[p] = {bucket: None, o: None}
        self._len += 1
        return True

    def _build_predicate_index(self) -> _PredicateView:
        """The predicate view, built from the subject index in one pass and
        published by one assignment."""
        index: dict[IRI, dict[Term, _Bucket]] = {}
        for s, buckets in self._by_subject.items():
            for p, terms in buckets.items():
                by_object = index.get(p)
                if by_object is None:
                    by_object = index[p] = {}
                if type(terms) is dict:
                    for o in terms:
                        _file(by_object, o, s)
                else:
                    _file(by_object, terms, s)
        # Summed per predicate from its buckets, fewer than the subject
        # index's.
        counts = {
            p: sum(len(bucket) if type(bucket) is dict else 1 for bucket in by_object.values())
            for p, by_object in index.items()
        }
        view = self._predicate_view = (self._len, index, counts)
        return view

    def _predicate_index(self) -> _PredicateView:
        """The predicate view, rebuilt first if the graph has grown since
        it was built."""
        view = self._predicate_view
        return view if view[0] == self._len else self._build_predicate_index()

    def match(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield triples agreeing with every bound position."""
        return starmap(Triple, self._match(subject, predicate, object))

    def _match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> Iterator[tuple[Subject, IRI, Term]]:
        """``match`` as the terms of each triple, with no ``Triple``."""
        if subject is not None:
            # Collected when iteration starts, so an insert made meanwhile
            # changes nothing this yields (the subject index is live).
            buckets = self._by_subject.get(subject, _NO_BUCKETS)
            predicates = buckets if predicate is None else (predicate,)
            for p, terms in [(p, tuple(_terms(buckets.get(p), object))) for p in predicates]:
                for o in terms:
                    yield subject, p, o
        else:
            index = self._predicate_index()[1]
            for p in index if predicate is None else (predicate,):
                buckets = index.get(p, _NO_BUCKETS)
                for o in buckets if object is None else (object,):
                    for s in _terms(buckets.get(o)):
                        yield s, p, o

    def objects(self, subject: Term, predicate: Term) -> Collection[Term]:
        """The objects of the triples with this subject and predicate, in
        the order ``match`` yields them; empty for a literal subject or a
        predicate that is not an IRI.  The result may be a view on the
        subject index: read-only, and valid until the next insert."""
        bucket = self._by_subject.get(subject, _NO_BUCKETS).get(predicate)
        return () if bucket is None else bucket.keys() if type(bucket) is dict else (bucket,)

    def subjects(self, predicate: Term, object: Term) -> Collection[Subject]:
        """The subjects of the triples with this predicate and object, in
        the order ``match`` yields them; empty for a predicate that is not
        an IRI.  The result may be a view on a snapshot of the predicate
        index, which no insert changes: read-only."""
        bucket = self._predicate_index()[1].get(predicate, _NO_BUCKETS).get(object)
        return () if bucket is None else bucket.keys() if type(bucket) is dict else (bucket,)

    def subject_predicate_objects(self) -> Iterator[tuple[Subject, IRI, Term]]:
        """The terms of every triple, in iteration order."""
        for s, buckets in self._by_subject.items():
            for p, bucket in buckets.items():
                for o in bucket if type(bucket) is dict else (bucket,):
                    yield s, p, o

    def scan_size(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> int:
        """How many triples ``match`` yields for these bound positions."""
        if subject is not None:
            buckets = self._by_subject.get(subject, _NO_BUCKETS)
            return sum(len(_terms(buckets.get(p), object)) for p in (buckets if predicate is None else (predicate,)))
        if object is None and predicate is None:
            return self._len
        _, index, counts = self._predicate_index()
        if object is None:
            return counts.get(predicate, 0)
        predicates = index if predicate is None else (predicate,)
        return sum(len(_terms(index.get(p, _NO_BUCKETS).get(object))) for p in predicates)


# The third term of the one triple under the index's first two positions,
# or a dict whose keys are the third terms of two or more.
_Bucket = Union[Term, dict[Term, None]]
_NO_BUCKETS: Mapping[Term, _Bucket] = MappingProxyType({})
# The predicate index and the triples per predicate, as of a graph length.
_PredicateView = tuple[int, dict[IRI, dict[Term, _Bucket]], dict[IRI, int]]


def _file(by_first: dict[Term, _Bucket], second: Term, third: Term) -> None:
    """File ``third``, which is not there yet, in the bucket under
    ``second``, promoting a bare one."""
    bucket = by_first.get(second)
    if bucket is None:
        by_first[second] = third
    elif type(bucket) is dict:
        bucket[third] = None
    else:
        by_first[second] = {bucket: None, third: None}


def _terms(bucket: Optional[_Bucket], third: Optional[Term] = None) -> Collection[Term]:
    """The terms a bucket holds, or only ``third`` if bound and held."""
    terms = () if bucket is None else bucket.keys() if type(bucket) is dict else (bucket,)
    return terms if third is None else (third,) if third in terms else ()


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
# Each kind's tag, read once here: ``kind.value`` is a Python-level property.
_GRANULE_TAGS = {kind: kind.value for kind in GranuleKind}
_FIELD_PREDICATES = {
    path: _VOCABULARY[predicate]
    for path, (_, _, predicate) in _SNAPSHOT.fields.items()
    if predicate is not None  # a geopoint is written as its latitude and longitude
}
# Validation keeps a geopoint at these paths and nowhere else.
_GEOPOINT_PATHS = frozenset(_SNAPSHOT.fields.keys() - _FIELD_PREDICATES.keys())


def vocabulary_iri(value: str) -> IRI:
    """The shared IRI object of a core-ontology class or property (or
    rdf:type), else a new IRI."""
    return _VOCABULARY.get(value) or IRI(value)


def mint_io_iri(base: str, io_id: str) -> IRI:
    return IRI(f"{base.rstrip('/')}/io/{quote(io_id, safe='')}")


# Injective: ASCII alphanumerics map to themselves, a code point below
# U+0100 to _hh and any other to _u and six hex digits; "u" is not a hex
# digit, so no _u form reads as an _hh one.  The table covers the code points
# below U+0100 (``str.translate`` leaves the others as they are), and the
# output is ASCII unless the text held a wider one.
_LABEL_ESCAPES = [chr(cp) if chr(cp).isascii() and chr(cp).isalnum() else f"_{cp:02x}" for cp in range(0x100)]
_WIDE_RE = re.compile(r"[^\x00-\xff]")


def _escape_wide(m: re.Match) -> str:
    return f"_u{ord(m.group()):06x}"


def _escape_label_part(text: str) -> str:
    escaped = text.translate(_LABEL_ESCAPES)
    return escaped if escaped.isascii() else _WIDE_RE.sub(_escape_wide, escaped)


def _granule_node(escaped_id: str, tag: str, ordinal: int) -> BlankNode:
    # Always a valid label: an escaped id, a granule tag and an ordinal
    # hold only ASCII letters, digits and "_".
    return str.__new__(BlankNode, f"_:{escaped_id}_{tag}_{ordinal}")


def granule_node(io_id: str, kind: GranuleKind, ordinal: int) -> BlankNode:
    """Deterministic blank node for one granule instance."""
    return _granule_node(_escape_label_part(io_id), _GRANULE_TAGS[kind], ordinal)


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
    """``assert_io`` for IOs already validated free of errors.  It adds each
    triple as the terms it builds, of the right kinds, with no ``Triple``.
    Within the call each IO id is escaped once, and each extension-key IRI
    and each field object is built once."""
    predicates = dict(_FIELD_PREDICATES)
    # A decimal is keyed by its exact text: 1.0 and 1.00, or 0 and -0, are
    # equal and hash alike, yet write different lexical forms.  Terms are
    # non-empty strings, so a hit is never false.
    objects: dict = {}
    add, added = g._add, 0
    for io in ios:
        io_iri = mint_io_iri(base, io.id)
        added += add(io_iri, _RDF_TYPE, _IO_CLASS)
        escaped_id = _escape_label_part(io.id)
        for kind, instances in io.granules.items():
            granule_class, tag = _GRANULE_CLASSES[kind], _GRANULE_TAGS[kind]
            for ordinal, granule in enumerate(instances):
                node = _granule_node(escaped_id, tag, ordinal)
                added += add(io_iri, _HAS_GRANULE, node)
                added += add(node, _RDF_TYPE, granule_class)
                fields = granule.fields
                for path, value in fields.items() if _GEOPOINT_PATHS.isdisjoint(fields) else expand_geopoints(fields):
                    # An extension field is keyed by its own IRI.
                    predicate = predicates.get(path) or predicates.setdefault(path, IRI(path))
                    key = (Decimal, str(value)) if isinstance(value, Decimal) else value
                    obj = objects.get(key) or objects.setdefault(key, _field_object(value, base))
                    added += add(node, predicate, obj)
        for ext_iri, text in io.extensions:
            predicate = predicates.get(ext_iri) or predicates.setdefault(ext_iri, IRI(ext_iri))
            added += add(io_iri, predicate, objects.get(text) or objects.setdefault(text, Literal(text)))
    return added
