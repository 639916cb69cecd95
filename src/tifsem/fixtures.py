"""Deterministic synthetic La Rochelle dataset.

Stands in for the departmental tourist-office feeds the toolkit targets:
hotels, restaurants, bars and events with coordinates, emitted both as
in-memory information objects and as XML under three tag dialects (the
canonical vocabulary, a renamed French-tag dialect, and a dialect that
renames one granule and adds tags of its own).  Each dialect is one path
table, canonical field path -> dialect path, that one XML builder writes;
the dialect profiles that read the XML back are derived from the same
tables.  Everything is a pure function of the seed.
"""

from __future__ import annotations

import datetime
import random
import xml.etree.ElementTree as ET
from decimal import Decimal
from pathlib import Path

from tifsem.ingest import IDENTITY_PROFILE, DialectProfile, save_profile
from tifsem.ontology import (
    GRANULE_SCHEMAS,
    GeoPoint,
    Granule,
    GranuleKind,
    InformationObject,
    IoRef,
    decimal_lexical,
    expand_geopoints,
)

DEFAULT_SEED = 17000

EXTENSION_NS = "http://example.org/tifsem/ext#"

_CENTER = (46.1591, -1.1520)  # La Rochelle old harbour
_RURAL = (46.0820, -0.9050)  # countryside east of town

_HOTELS = [
    "Hôtel de la Plage",
    "Hôtel du Port",
    "Grand Hôtel des Voyageurs",
    "Hôtel Les Tamaris",
    "Auberge de l'Océan",
    "Hôtel du Marais",
]
_RESTAURANTS = [
    "La Boussole",
    "Le Phare Gourmand",
    "Chez Mathilde",
    "L'Écailler",
    "Bistrot des Halles",
    "La Criée",
    "Le Quai des Saveurs",
    "Ferme du Littoral",
]
_BARS = [
    "Bar de la Marine",
    "Le Comptoir Rochelais",
    "Café du Port",
    "La Taverne des Remparts",
    "Le Zinc",
]
_EVENTS = [
    ("Festival des Embruns", "urban", "city visitors and cruise passengers"),
    ("Marché Fermier de l'Aunis", "rural", "village families and farm producers"),
    ("Nuits du Jazz", "urban", "students and night owls"),
    ("Fête des Moissons", "rural", "farming community and local schools"),
    ("Régates de l'Atlantique", "families", "sailing families and club members"),
    ("Foire aux Bestiaux", "rural", "livestock breeders of the plain"),
]

_STREETS = [
    "quai Valin",
    "rue du Palais",
    "rue Saint-Jean-du-Pérot",
    "avenue des Minimes",
    "rue des Merciers",
    "cours des Dames",
]


def _granule(kind: GranuleKind, **fields) -> Granule:
    tag = GRANULE_SCHEMAS[kind].tag
    return Granule(kind=kind, fields={f"{tag}/{name}": value for name, value in fields.items()})


def _jitter(rng: random.Random, center: tuple[float, float], spread: float) -> GeoPoint:
    lat = round(center[0] + rng.uniform(-spread, spread), 5)
    lon = round(center[1] + rng.uniform(-spread, spread), 5)
    return GeoPoint(lat, lon)


def la_rochelle(seed: int = DEFAULT_SEED) -> list[InformationObject]:
    """The synthetic dataset: 6 hotels and 19 amenities, coordinates seeded.

    One hotel sits far outside town (no amenity within walking reach) and
    three of the six events are rural, held out in the countryside.
    """
    rng = random.Random(seed)
    ios: list[InformationObject] = []

    for i, name in enumerate(_HOTELS, start=1):
        far = i == len(_HOTELS)
        if far:
            position = _jitter(rng, (46.2310, -1.3020), 0.002)
        else:
            # progressively farther from the harbour so proximity counts differ
            offset = (i - 1) * 0.0028
            position = GeoPoint(
                round(_CENTER[0] + offset * rng.choice([-1, 1]), 5),
                round(_CENTER[1] + (i - 1) * 0.0019 * rng.choice([-1, 1]), 5),
            )
        street = _STREETS[(i - 1) % len(_STREETS)]
        io = InformationObject(id=f"HOT-{i:03d}")
        io.granules = {
            GranuleKind.DUBLIN_CORE: [_granule(
                GranuleKind.DUBLIN_CORE,
                Identifier=io.id, Title=name, Type="hotel",
                Description=f"{name}, a hotel in the La Rochelle area.",
            )],
            GranuleKind.UPDATE: [_granule(
                GranuleKind.UPDATE,
                LastModified=datetime.date(2016, 5, min(28, i)), UpdatedBy="cdt17-sync",
            )],
            GranuleKind.GEOLOCATIONS: [_granule(
                GranuleKind.GEOLOCATIONS,
                AddressLine1=f"{10 + i} {street}",
                City="La Rochelle" if not far else "Marsilly",
                PostalCode="17000" if not far else "17137",
                Position=position,
            )],
            GranuleKind.CONTACTS: [_granule(
                GranuleKind.CONTACTS,
                ContactName="Réception", Phone=f"+33 5 46 00 0{i}0{i}",
                Email=f"contact@hotel{i}.example.fr",
            )],
            GranuleKind.LEGAL_INFORMATION: [_granule(
                GranuleKind.LEGAL_INFORMATION,
                LegalName=f"SARL {name}", Siret=f"4920000{i:05d}",
            )],
            GranuleKind.CLASSIFICATIONS: [_granule(
                GranuleKind.CLASSIFICATIONS,
                Scheme="stars", RatingValue=Decimal(rng.randint(1, 5)), Label="tourisme",
            )],
            GranuleKind.MULTIMEDIA: [_granule(
                GranuleKind.MULTIMEDIA,
                Url=f"https://media.example.fr/hotels/{i}.jpg", Kind="photo",
                Caption=f"Façade de {name}",
            )],
            GranuleKind.LANGUAGES: [
                _granule(GranuleKind.LANGUAGES, Language="fr"),
                _granule(GranuleKind.LANGUAGES, Language="en"),
            ],
            GranuleKind.RESERVATION_MODES: [_granule(
                GranuleKind.RESERVATION_MODES,
                Required="recommended", Contact="Réception",
            )],
            GranuleKind.PRICES: [_granule(
                GranuleKind.PRICES,
                Amount=Decimal(rng.randint(55, 180)), Currency="EUR",
                PaymentMeans="card, cash", Service="double room",
            )],
            GranuleKind.CAPACITY: [_granule(
                GranuleKind.CAPACITY, Value=Decimal(rng.randint(12, 80)), Unit="rooms",
            )],
            GranuleKind.OFFERS_SERVICES: [_granule(
                GranuleKind.OFFERS_SERVICES, Service="wifi", Nearby="old harbour",
            )],
            GranuleKind.ADDITIONAL_DESCRIPTION: [_granule(
                GranuleKind.ADDITIONAL_DESCRIPTION,
                Text="Walking distance from the towers." if not far else "Quiet countryside setting.",
            )],
        }
        ios.append(io)

    for i, name in enumerate(_RESTAURANTS, start=1):
        io = InformationObject(id=f"RES-{i:03d}")
        io.granules = {
            GranuleKind.DUBLIN_CORE: [_granule(
                GranuleKind.DUBLIN_CORE, Identifier=io.id, Title=name, Type="restaurant",
            )],
            GranuleKind.GEOLOCATIONS: [_granule(
                GranuleKind.GEOLOCATIONS,
                AddressLine1=f"{i} {_STREETS[i % len(_STREETS)]}",
                City="La Rochelle", PostalCode="17000",
                Position=_jitter(rng, _CENTER, 0.008),
            )],
            GranuleKind.CONTACTS: [_granule(
                GranuleKind.CONTACTS, Phone=f"+33 5 46 11 1{i}1{i}",
            )],
            GranuleKind.PRICES: [_granule(
                GranuleKind.PRICES, Amount=Decimal(rng.randint(15, 45)), Currency="EUR",
                Service="menu",
            )],
            GranuleKind.SCHEDULES: [_granule(
                GranuleKind.SCHEDULES, Status="open", Detail="closed on Mondays",
            )],
            GranuleKind.LANGUAGES: [_granule(GranuleKind.LANGUAGES, Language="fr")],
        }
        ios.append(io)

    for i, name in enumerate(_BARS, start=1):
        io = InformationObject(id=f"BAR-{i:03d}")
        io.granules = {
            GranuleKind.DUBLIN_CORE: [_granule(
                GranuleKind.DUBLIN_CORE, Identifier=io.id, Title=name, Type="bar",
            )],
            GranuleKind.GEOLOCATIONS: [_granule(
                GranuleKind.GEOLOCATIONS,
                AddressLine1=f"{20 + i} {_STREETS[(i + 2) % len(_STREETS)]}",
                City="La Rochelle", PostalCode="17000",
                Position=_jitter(rng, _CENTER, 0.008),
            )],
            GranuleKind.CONTACTS: [_granule(
                GranuleKind.CONTACTS, Phone=f"+33 5 46 22 2{i}2{i}",
            )],
            GranuleKind.RELATED_SERVICES: [_granule(
                GranuleKind.RELATED_SERVICES,
                Reference=IoRef(f"HOT-{1 + (i % 3):03d}"), Relation="nearby accommodation",
            )],
        }
        ios.append(io)

    for i, (name, audience, profile) in enumerate(_EVENTS, start=1):
        rural = audience == "rural"
        io = InformationObject(id=f"EVT-{i:03d}")
        io.granules = {
            GranuleKind.DUBLIN_CORE: [_granule(
                GranuleKind.DUBLIN_CORE, Identifier=io.id, Title=name, Type="event",
            )],
            GranuleKind.GEOLOCATIONS: [_granule(
                GranuleKind.GEOLOCATIONS,
                City="Aunis countryside" if rural else "La Rochelle",
                PostalCode="17290" if rural else "17000",
                Position=_jitter(rng, _RURAL if rural else _CENTER, 0.006),
                Environment="countryside" if rural else "harbour district",
            )],
            GranuleKind.PERIODS: [_granule(
                GranuleKind.PERIODS,
                Start=datetime.date(2016, 6, i), End=datetime.date(2016, 6, i + 2),
                Kind="opening",
            )],
            GranuleKind.CUSTOMERS: [_granule(
                GranuleKind.CUSTOMERS, Audience=audience, Profile=profile,
            )],
            GranuleKind.UPDATE: [_granule(
                GranuleKind.UPDATE, LastModified=datetime.date(2016, 5, 2 + i),
            )],
        }
        if rural:
            io.granules[GranuleKind.ITINERARIES] = [_granule(
                GranuleKind.ITINERARIES, Activity="country walk", Length=Decimal(5 + i),
            )]
        ios.append(io)

    return ios


# ---------------------------------------------------------------------------
# XML emission under three dialects

# Dialect path tables, canonical field path -> dialect path.  A path a
# table lacks is written as is; a one-segment dialect path is a leaf of the
# resource itself.
_DIALECT_A_PATHS = {
    "DublinCore/Identifier": "Fiche/Identifiant",
    "DublinCore/Title": "Fiche/Titre",
    "DublinCore/Type": "Fiche/TypeRessource",
    "DublinCore/Description": "Fiche/Description",
    "DublinCore/Creator": "Fiche/Auteur",
    "DublinCore/Date": "Fiche/DateCreation",
    "Update/LastModified": "Maj/Date",
    "Update/UpdatedBy": "Maj/Auteur",
    "Multimedia/Url": "Medias/Url",
    "Multimedia/Kind": "Medias/TypeMedia",
    "Multimedia/Caption": "Medias/Legende",
    "Contacts/ContactName": "Coordonnees/Nom",
    "Contacts/Phone": "Coordonnees/Tel",
    "Contacts/Email": "Coordonnees/Email",
    "Contacts/Website": "Coordonnees/Site",
    "LegalInformation/LegalName": "Juridique/RaisonSociale",
    "LegalInformation/Siret": "Juridique/Siret",
    "LegalInformation/LegalStatus": "Juridique/Statut",
    "Classifications/Scheme": "Classement/Bareme",
    "Classifications/RatingValue": "Classement/Note",
    "Classifications/Label": "Classement/Libelle",
    "RelatedServices/Reference": "Lien/Ref",
    "RelatedServices/Relation": "Lien/NatureLien",
    "Geolocation/AddressLine1": "Adresse1",
    "Geolocation/AddressLine2": "Adresse2",
    "Geolocation/City": "Ville",
    "Geolocation/PostalCode": "CodePostal",
    "Geolocation/Country": "Pays",
    "Geolocation/Latitude": "Latitude",
    "Geolocation/Longitude": "Longitude",
    "Geolocation/Environment": "Cadre",
    "Periods/Start": "Periode/Debut",
    "Periods/End": "Periode/Fin",
    "Periods/Kind": "Periode/Nature",
    "Customers/Audience": "Clientele/Public",
    "Customers/Profile": "Clientele/Description",
    "Languages/Language": "Langues/Code",
    "ReservationModes/Required": "Reservation/Obligatoire",
    "ReservationModes/Contact": "Reservation/Contact",
    "Prices/Amount": "Tarifs/Montant",
    "Prices/Currency": "Tarifs/Devise",
    "Prices/PaymentMeans": "Tarifs/Paiement",
    "Prices/Service": "Tarifs/Prestation",
    "Capacity/Value": "Capacite/Valeur",
    "Capacity/Unit": "Capacite/Unite",
    "OffersServices/Service": "Services/Offre",
    "OffersServices/Nearby": "Services/Proximite",
    "AdditionalDescription/Text": "Complement/Texte",
    "Itineraries/Activity": "Circuits/Activite",
    "Itineraries/Length": "Circuits/Distance",
    "Schedules/Status": "Horaires/Etat",
    "Schedules/Detail": "Horaires/Precision",
}

_GEOLOCATION = GRANULE_SCHEMAS[GranuleKind.GEOLOCATIONS]
_DIALECT_B_PATHS = {_GEOLOCATION.path(name): f"GeoLoc/{name}" for name in _GEOLOCATION.fields}


def _dialect_renames(paths: dict[str, str]) -> dict[str, str]:
    """The tag renames that read a dialect's paths back: each dialect first
    segment renamed, as a prefix, to its canonical granule tag, and an exact
    rename for each path that the prefix composition does not already map
    to its canonical path."""
    prefixes: dict[str, str] = {}
    for canonical, dialect in paths.items():
        head, sep, _ = dialect.partition("/")
        if sep:
            prefixes.setdefault(head, canonical.partition("/")[0])
    renames = dict(prefixes)
    for canonical, dialect in paths.items():
        head, sep, rest = dialect.partition("/")
        if prefixes.get(head, head) + sep + rest != canonical:
            renames[dialect] = canonical
    return renames


def profile_v3() -> DialectProfile:
    """Identity profile for documents already in the canonical vocabulary."""
    return IDENTITY_PROFILE


def profile_dialect_a() -> DialectProfile:
    return DialectProfile(
        name="dialect-a",
        tag_renames=_dialect_renames(_DIALECT_A_PATHS),
        dropped_tags=frozenset({"Interne"}),
    )


def profile_dialect_b() -> DialectProfile:
    return DialectProfile(
        name="dialect-b",
        tag_renames=_dialect_renames(_DIALECT_B_PATHS),
        extension_namespace=EXTENSION_NS,
    )


def _value_text(value) -> str:
    if isinstance(value, Decimal):
        return decimal_lexical(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, IoRef):
        return value.io_id
    return str(value)


def _build(
    ios: list[InformationObject], root: ET.Element, resource_tag: str, paths: dict[str, str], trailer: dict[str, str],
) -> ET.Element:
    """Write each IO under ``root`` as one ``resource_tag`` element: its
    granules in kind order, each leaf at its dialect path in ``paths``, then
    the ``trailer`` leaves.  The leaves of one granule instance that share a
    first segment go into one element of that name; geopoints are written
    as their latitude and longitude."""
    for io in ios:
        resource = ET.SubElement(root, resource_tag)
        for kind in GranuleKind:
            for granule in io.granules.get(kind, ()):
                containers: dict[str, ET.Element] = {}
                for path, value in expand_geopoints(granule.fields):
                    head, _, rest = paths.get(path, path).partition("/")
                    if rest and head not in containers:
                        containers[head] = ET.SubElement(resource, head)
                    leaf = ET.SubElement(containers[head], rest) if rest else ET.SubElement(resource, head)
                    leaf.text = _value_text(value)
        for tag, text in trailer.items():
            ET.SubElement(resource, tag).text = text
    return root


def emit_v3(ios: list[InformationObject]) -> str:
    return _to_text(_build(ios, ET.Element("TIF", version="V3"), "Resource", {}, {}))


def emit_dialect_a(ios: list[InformationObject]) -> str:
    trailer = {"Interne": "usage interne uniquement"}
    return _to_text(_build(ios, ET.Element("Export"), "Objet", _DIALECT_A_PATHS, trailer))


def emit_dialect_b(ios: list[InformationObject]) -> str:
    """Dialect B: ``Geolocation`` renamed ``GeoLoc``, and two tags of its
    own, a ``Skype`` contact and a ``ClasseInterne`` leaf."""
    trailer = {"ClasseInterne": "niveau 2"}
    root = _build(ios, ET.Element("TIF", version="V3-derived"), "Resource", _DIALECT_B_PATHS, trailer)
    for io, resource in zip(ios, root):
        for contacts in resource.iterfind("Contacts"):
            ET.SubElement(contacts, "Skype").text = f"skype-{io.id.lower()}"
    return _to_text(root)


def _to_text(root: ET.Element) -> str:
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


# ---------------------------------------------------------------------------
# Scenario queries

EXAMPLE1_QUERY = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX tifsem: <http://example.org/tifsem/ns#>

SELECT ?hotel (GROUP-COUNT(?amenity) AS ?nearby)
WHERE {
  ?hotel rdf:type tifsem:InformationObject .
  ?hotel tifsem:hasGranule ?hd .
  ?hd tifsem:type "hotel" .
  ?hotel tifsem:hasGranule ?hgeo .
  ?hgeo rdf:type tifsem:Geolocations .
  ?amenity tifsem:hasGranule ?ad .
  ?ad tifsem:type ?kind .
  ?amenity tifsem:hasGranule ?ageo .
  ?ageo rdf:type tifsem:Geolocations .
  FILTER(?kind != "hotel")
  FILTER(geo:distance(?hgeo, ?ageo) < 1000)
}
ORDER BY DESC(?nearby)
"""

EXAMPLE2_QUERY = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX tifsem: <http://example.org/tifsem/ns#>

SELECT ?event ?audience ?profile
WHERE {
  ?event tifsem:hasGranule ?d .
  ?d tifsem:type "event" .
  ?event tifsem:hasGranule ?c .
  ?c rdf:type tifsem:Customers .
  ?c tifsem:audience ?audience .
  ?c tifsem:profile ?profile .
  FILTER(?audience = "rural")
}
"""


def generate(out_dir: str | Path, seed: int = DEFAULT_SEED) -> list[Path]:
    """Write the dataset, dialect profiles and scenario queries to a
    directory; returns the created paths."""
    out = Path(out_dir)
    ios = la_rochelle(seed)
    files = {
        out / "la_rochelle_v3.xml": emit_v3(ios),
        out / "la_rochelle_dialect_a.xml": emit_dialect_a(ios),
        out / "la_rochelle_dialect_b.xml": emit_dialect_b(ios),
        out / "profiles" / "tif_v3.json": save_profile(profile_v3()),
        out / "profiles" / "dialect_a.json": save_profile(profile_dialect_a()),
        out / "profiles" / "dialect_b.json": save_profile(profile_dialect_b()),
        out / "queries" / "example1.rq": EXAMPLE1_QUERY,
        out / "queries" / "example2.rq": EXAMPLE2_QUERY,
    }
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return sorted(files)
