"""TIFSem domain model.

The model has one root entity, the information object (IO), composed of 18
typed granules.  Each granule kind is declared once, as one
``GRANULE_SCHEMAS`` entry holding its tag, its description and the fields
it admits.  This module also holds the concept forest (TIFSem classes plus
the Schema.org subset the toolkit aligns against), built from those
entries, and the value types granule fields carry.

The ontology snapshot built by :func:`load_core_ontology` is immutable and
may be shared freely across threads.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Union

TIFSEM_NS = "http://example.org/tifsem/ns#"
SCHEMA_NS = "https://schema.org/"

IO_CLASS = TIFSEM_NS + "InformationObject"
HAS_GRANULE = TIFSEM_NS + "hasGranule"
LATITUDE_PROP = TIFSEM_NS + "latitude"
LONGITUDE_PROP = TIFSEM_NS + "longitude"

SCHEMA_ADDRESS = SCHEMA_NS + "address"
SCHEMA_LATITUDE = SCHEMA_NS + "latitude"
SCHEMA_LONGITUDE = SCHEMA_NS + "longitude"


class GranuleKind(str, Enum):
    """The 18 semantic units an information object is composed of."""

    DUBLIN_CORE = "DublinCore"
    UPDATE = "Update"
    MULTIMEDIA = "Multimedia"
    CONTACTS = "Contacts"
    LEGAL_INFORMATION = "LegalInformation"
    CLASSIFICATIONS = "Classifications"
    RELATED_SERVICES = "RelatedServices"
    GEOLOCATIONS = "Geolocations"
    PERIODS = "Periods"
    CUSTOMERS = "Customers"
    LANGUAGES = "Languages"
    RESERVATION_MODES = "ReservationModes"
    PRICES = "Prices"
    CAPACITY = "Capacity"
    OFFERS_SERVICES = "OffersServices"
    ADDITIONAL_DESCRIPTION = "AdditionalDescription"
    ITINERARIES = "Itineraries"
    SCHEDULES = "Schedules"


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate pair; ranges are enforced at construction."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        lat, lon = float(self.latitude), float(self.longitude)
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ValueError("coordinates must be finite")
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude {lat} outside [-90, 90]")
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"longitude {lon} outside [-180, 180]")
        object.__setattr__(self, "latitude", lat)
        object.__setattr__(self, "longitude", lon)


@dataclass(frozen=True)
class IoRef:
    """A reference from one information object to another, by id."""

    io_id: str


FieldValue = Union[str, Decimal, datetime.date, GeoPoint, IoRef]


class FieldType(str, Enum):
    TEXT = "text"
    DECIMAL = "decimal"
    DATE = "date"
    GEOPOINT = "geopoint"
    REF = "ref"


_PYTHON_TYPES: Mapping[FieldType, type | tuple[type, ...]] = {
    FieldType.TEXT: str,
    FieldType.DECIMAL: Decimal,
    FieldType.DATE: datetime.date,
    FieldType.GEOPOINT: GeoPoint,
    FieldType.REF: IoRef,
}


@dataclass(frozen=True)
class FieldSpec:
    """Declared type of one granule field, with optional numeric bounds."""

    type: FieldType
    minimum: Optional[Decimal] = None
    maximum: Optional[Decimal] = None

    def check(self, value: FieldValue) -> None:
        """Raise ValueError unless ``value`` has the declared type (a date,
        not a datetime).  A decimal must also be finite, within the bounds
        and short enough in plain form (``check_plain_length``)."""
        if not isinstance(value, _PYTHON_TYPES[self.type]) or (
                self.type is FieldType.DATE and isinstance(value, datetime.datetime)):
            raise ValueError(f"expected {self.type.value} value, got {type(value).__name__}")
        if not isinstance(value, Decimal):
            return
        if not value.is_finite():
            raise ValueError(f"not a finite decimal: {value}")
        if (self.minimum is not None and value < self.minimum) or (
                self.maximum is not None and value > self.maximum):
            raise ValueError(f"value {value} outside [{self.minimum}, {self.maximum}]")
        check_plain_length(value)


def _camel(field_name: str) -> str:
    return field_name[0].lower() + field_name[1:]


@dataclass(frozen=True)
class GranuleSchema:
    """One granule kind's declaration: its canonical tag (the first segment
    of every canonical field path for the kind), its one-line functional
    description (the description of the kind's class in the concept forest)
    and the fields it admits."""

    tag: str
    description: str
    fields: Mapping[str, FieldSpec]

    def path(self, field_name: str) -> str:
        return f"{self.tag}/{field_name}"

    def predicate(self, field_name: str) -> str:
        return TIFSEM_NS + _camel(field_name)


def _schema(kind: GranuleKind, description: str, tag: Optional[str] = None,
            **fields: FieldSpec) -> tuple[GranuleKind, GranuleSchema]:
    return kind, GranuleSchema(tag or kind.value, description, MappingProxyType(fields))


_T = FieldSpec(FieldType.TEXT)
_D = FieldSpec(FieldType.DECIMAL)
_DATE = FieldSpec(FieldType.DATE)

# Each granule kind declared once, in kind order.  Tags equal the granule
# kind name except for Geolocations, whose canonical element (and every path
# built on it) is the singular "Geolocation"; see docs/granule-schema.md.
GRANULE_SCHEMAS: Mapping[GranuleKind, GranuleSchema] = MappingProxyType(dict((
    _schema(GranuleKind.DUBLIN_CORE, "Core descriptive metadata: identifier, title, description, resource type.",
        Identifier=_T, Title=_T, Description=_T, Type=_T, Creator=_T, Date=_DATE,
    ),
    _schema(GranuleKind.UPDATE, "Revision history of the record: when and by whom it last changed.",
        LastModified=_DATE, UpdatedBy=_T,
    ),
    _schema(GranuleKind.MULTIMEDIA, "Media attached to the resource, such as photos and videos.",
        Url=_T, Kind=_T, Caption=_T,
    ),
    _schema(GranuleKind.CONTACTS, "How to reach the resource and who answers for it.",
        ContactName=_T, Phone=_T, Email=_T, Website=_T,
    ),
    _schema(GranuleKind.LEGAL_INFORMATION, "Formal identity and registration data of the operating entity.",
        LegalName=_T, Siret=_T, LegalStatus=_T,
    ),
    _schema(GranuleKind.CLASSIFICATIONS, "Official ratings and quality labels awarded to the resource.",
        Scheme=_T, RatingValue=_D, Label=_T,
    ),
    _schema(GranuleKind.RELATED_SERVICES, "Links from this resource to other resources.",
        Reference=FieldSpec(FieldType.REF), Relation=_T,
    ),
    _schema(GranuleKind.GEOLOCATIONS, "Where the resource is: address, coordinates, surroundings.",
        tag="Geolocation", AddressLine1=_T, AddressLine2=_T, City=_T, PostalCode=_T, Country=_T,
        Latitude=FieldSpec(FieldType.DECIMAL, Decimal(-90), Decimal(90)),
        Longitude=FieldSpec(FieldType.DECIMAL, Decimal(-180), Decimal(180)),
        Position=FieldSpec(FieldType.GEOPOINT),
        Environment=_T,
    ),
    _schema(GranuleKind.PERIODS, "Opening, closing and booking periods.",
        Start=_DATE, End=_DATE, Kind=_T,
    ),
    _schema(GranuleKind.CUSTOMERS, "Who the resource is aimed at: audience and visitor profile.",
        Audience=_T, Profile=_T,
    ),
    _schema(GranuleKind.LANGUAGES, "Which languages visitors can expect staff to speak.",
        Language=_T,
    ),
    _schema(GranuleKind.RESERVATION_MODES, "How to book: whether booking is required and whom to contact.",
        Required=_T, Contact=_T,
    ),
    _schema(GranuleKind.PRICES, "Service prices and accepted payment methods.",
        Amount=_D, Currency=_T, PaymentMeans=_T, Service=_T,
    ),
    _schema(GranuleKind.CAPACITY, "How many people or units the resource can host.",
        Value=_D, Unit=_T,
    ),
    _schema(GranuleKind.OFFERS_SERVICES, "What the resource offers its visitors, on site or close by.",
        Service=_T, Nearby=_T,
    ),
    _schema(GranuleKind.ADDITIONAL_DESCRIPTION, "Free-text notes that fit no other granule.",
        Text=_T,
    ),
    _schema(GranuleKind.ITINERARIES, "Routes and outdoor activities arranged around the resource.",
        Activity=_T, Length=_D,
    ),
    _schema(GranuleKind.SCHEDULES, "Which services are open or bookable in which time windows.",
        Status=_T, Detail=_T,
    ),
)))

IDENTIFIER_PATH = GRANULE_SCHEMAS[GranuleKind.DUBLIN_CORE].path("Identifier")
_LATITUDE_PATH = GRANULE_SCHEMAS[GranuleKind.GEOLOCATIONS].path("Latitude")
_LONGITUDE_PATH = GRANULE_SCHEMAS[GranuleKind.GEOLOCATIONS].path("Longitude")


@dataclass
class Granule:
    """One granule instance: a kind plus normalized field/value pairs.

    Keys are canonical field paths (``Prices/Amount``) or, for fields
    preserved from unrecognized dialect tags, full extension IRIs.
    """

    kind: GranuleKind
    fields: dict[str, FieldValue] = field(default_factory=dict)


def expand_geopoints(fields: Mapping[str, FieldValue]) -> Iterator[tuple[str, FieldValue]]:
    """A granule's (path, value) pairs, each geopoint given as the
    ``Geolocation/Latitude`` and ``Geolocation/Longitude`` decimals it stands
    for.  ``Decimal(repr(x))`` keeps the float's shortest form, the one
    ``decimal_lexical`` writes for the float itself."""
    for path, value in fields.items():
        if isinstance(value, GeoPoint):
            yield _LATITUDE_PATH, Decimal(repr(value.latitude))
            yield _LONGITUDE_PATH, Decimal(repr(value.longitude))
        else:
            yield path, value


@dataclass
class InformationObject:
    """One tourism resource (hotel, event, restaurant) assembled from granules.

    ``extensions`` holds resource-level fields preserved from unrecognized
    dialect subtrees, as (extension IRI, text) pairs in document order; an
    IRI repeats when its tag does.
    """

    id: str
    granules: dict[GranuleKind, list[Granule]] = field(default_factory=dict)
    extensions: list[tuple[str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class ConceptDescriptor:
    """One class in the concept forest, filed under its IRI."""

    parent: Optional[str]
    description: str = ""


def class_of(kind: GranuleKind) -> str:
    """Class IRI for a granule kind.  Total and injective."""
    return TIFSEM_NS + kind.value


# Schema.org subset: (name, parent name).  Thing roots the forest; the
# Hotel, Event, ReviewAction and Reservation chains are the ones queries
# and mappings rely on, the rest are alignment targets.
_SCHEMA_TREE: tuple[tuple[str, Optional[str]], ...] = (
    ("Thing", None),
    ("Place", "Thing"),
    ("LocalBusiness", "Place"),
    ("LodgingBusiness", "LocalBusiness"),
    ("Hostel", "LodgingBusiness"),
    ("Hotel", "LodgingBusiness"),
    ("Motel", "LodgingBusiness"),
    ("Event", "Thing"),
    ("MusicEvent", "Event"),
    ("SocialEvent", "Event"),
    ("SportsEvent", "Event"),
    ("Action", "Thing"),
    ("AssessAction", "Action"),
    ("ReviewAction", "AssessAction"),
    ("Intangible", "Thing"),
    ("Reservation", "Intangible"),
    ("EventReservation", "Reservation"),
    ("FoodEstablishmentReservation", "Reservation"),
    ("LodgingReservation", "Reservation"),
    ("CreativeWork", "Thing"),
    ("MediaObject", "CreativeWork"),
    ("Rating", "Intangible"),
    ("StructuredValue", "Intangible"),
    ("ContactPoint", "StructuredValue"),
    ("Organization", "Thing"),
    ("Language", "Intangible"),
    ("Offer", "Intangible"),
    ("PriceSpecification", "StructuredValue"),
)


@dataclass(frozen=True)
class OntologySnapshot:
    """Immutable view of the concept forest, the known properties and the
    field table.

    ``fields`` maps each canonical field path to its granule kind, its spec
    and its predicate.  The predicate is ``None`` for a geopoint: XML text
    cannot fill one and no single triple holds it (``expand_geopoints``
    gives the fields it stands for)."""

    concepts: Mapping[str, ConceptDescriptor]
    properties: frozenset[str]
    fields: Mapping[str, tuple[GranuleKind, FieldSpec, Optional[str]]] = field(repr=False)
    _tags: Mapping[str, GranuleKind] = field(repr=False, default_factory=dict)

    def kind_for_tag(self, tag: str) -> Optional[GranuleKind]:
        return self._tags.get(tag)


@lru_cache(maxsize=1)
def load_core_ontology() -> OntologySnapshot:
    """Build the embedded ontology snapshot.

    The TIFSem side counts 19 concepts: the information-object root plus the
    18 granule classes, each a direct child of the root.  The Schema.org side
    carries the subset of the vocabulary this toolkit maps onto.
    """
    concepts: dict[str, ConceptDescriptor] = {
        IO_CLASS: ConceptDescriptor(
            parent=None,
            description="A modular, reusable description of one tourism resource.",
        )
    }
    properties = {HAS_GRANULE, SCHEMA_ADDRESS, SCHEMA_LATITUDE, SCHEMA_LONGITUDE}
    fields: dict[str, tuple[GranuleKind, FieldSpec, Optional[str]]] = {}
    tags: dict[str, GranuleKind] = {}
    for kind, schema in GRANULE_SCHEMAS.items():
        concepts[class_of(kind)] = ConceptDescriptor(parent=IO_CLASS, description=schema.description)
        tags[schema.tag] = kind
        for name, spec in schema.fields.items():
            predicate = None if spec.type is FieldType.GEOPOINT else schema.predicate(name)
            fields[schema.path(name)] = (kind, spec, predicate)
            if predicate is not None:
                properties.add(predicate)
    for name, parent in _SCHEMA_TREE:
        concepts[SCHEMA_NS + name] = ConceptDescriptor(
            parent=None if parent is None else SCHEMA_NS + parent,
        )

    return OntologySnapshot(
        concepts=MappingProxyType(concepts),
        properties=frozenset(properties),
        fields=MappingProxyType(fields),
        _tags=MappingProxyType(tags),
    )


# The longest plain form ``decimal_lexical`` writes.  A plain form has a
# digit for every power of ten a value spans, so its length follows the
# exponent, not the text the value came from: the 11 characters 1E+10000000
# would make a literal of ten million.  Every float fits; the longest,
# -5e-324, takes 327 characters.
MAX_DECIMAL_LENGTH = 1000


def check_plain_length(d: Decimal) -> None:
    """Raise ValueError when the plain form of the finite decimal ``d``
    would be longer than ``MAX_DECIMAL_LENGTH`` characters.  The length is
    worked out from the digits and the exponent, without writing the form."""
    sign, digits, exponent = d.as_tuple()
    if exponent >= 0:
        length = 1 if d.is_zero() else len(digits) + exponent
    else:  # the digits with a point among them, or "0." and zeros before them
        length = max(len(digits), 1 - exponent) + 1
    if sign + length > MAX_DECIMAL_LENGTH:
        raise ValueError(f"decimal longer than {MAX_DECIMAL_LENGTH} characters in plain notation")


def decimal_lexical(value: Decimal | float | int) -> str:
    """Plain-notation lexical form for a decimal literal (never scientific).

    Raises ValueError for NaN and infinities, which xsd:decimal cannot spell,
    and for a value whose plain form ``check_plain_length`` refuses.
    """
    d = value if isinstance(value, Decimal) else Decimal(repr(float(value)))
    if not d.is_finite():
        raise ValueError(f"not a finite decimal: {value!r}")
    check_plain_length(d)
    return format(d, "f")
