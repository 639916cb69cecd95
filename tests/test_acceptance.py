"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check runs at its stated tolerance and wall-clock budget.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import functools
import math
import random
import string
import time

from oracles import (
    blank_closure,
    brute_force_evaluate,
    expand_jsonld,
    haversine_reference,
    naive_materialize,
    structural_form,
)
from strategies import random_case
from tifsem import fixtures
from tifsem.graph import (
    RDF_TYPE,
    XSD_NS,
    BlankNode,
    Graph,
    IRI,
    Literal,
    Triple,
    assert_io,
    mint_io_iri,
)
from tifsem.ingest import RawDocument, parse_tif
from tifsem.mapping import builtin_rules, materialize
from tifsem.ontology import (
    GeoPoint,
    GranuleKind,
    SCHEMA_NS,
    TIFSEM_NS,
    class_of,
    load_core_ontology,
)
from tifsem.query import evaluate, geo_distance, parse_query
from tifsem.serialize import from_ntriples, to_jsonld, to_ntriples

BASE = "http://example.org/tifsem"


def criterion(number: int, name: str, limit_s: float):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            ok = elapsed < limit_s
            verdict = "PASS" if ok else "FAIL (over time budget)"
            print(f"criterion {number} ({name}): {verdict} [{elapsed:.2f}s < {limit_s:g}s]")
            assert ok, f"criterion {number} exceeded its budget: {elapsed:.2f}s >= {limit_s}s"
        return run
    return wrap


@criterion(1, "ontology census", 1.0)
def test_criterion_1_ontology_census():
    snapshot = load_core_ontology()
    assert sum(iri.startswith(TIFSEM_NS) for iri in snapshot.concepts) == 19

    chains = [
        ["Hotel", "LodgingBusiness", "LocalBusiness", "Place", "Thing"],
        ["Hostel", "LodgingBusiness"],
        ["Motel", "LodgingBusiness"],
        ["MusicEvent", "Event", "Thing"],
        ["SocialEvent", "Event"],
        ["SportsEvent", "Event"],
        ["ReviewAction", "AssessAction", "Action", "Thing"],
        ["EventReservation", "Reservation", "Intangible", "Thing"],
        ["FoodEstablishmentReservation", "Reservation"],
        ["LodgingReservation", "Reservation"],
    ]
    for chain in chains:
        for child, parent in zip(chain, chain[1:]):
            assert snapshot.concepts[SCHEMA_NS + child].parent == SCHEMA_NS + parent, (child, parent)
        ancestors = [SCHEMA_NS + chain[0]]
        while ancestors[-1] is not None:
            ancestors.append(snapshot.concepts[ancestors[-1]].parent)
        assert ancestors[-2] == SCHEMA_NS + "Thing", chain[0]


@criterion(2, "alignment-table fidelity", 1.0)
def test_criterion_2_alignment_table_fidelity():
    expected = {
        "Multimedia": {"MediaObject"},
        "Classifications": {"Rating"},
        "Contacts": {"ContactPoint"},
        "LegalInformation": {"Organization"},
        "Languages": {"Language"},
        "Geolocations": {"Place"},
        "ReservationModes": {"Reservation", "LodgingReservation"},
        "Prices": {"Offer", "PriceSpecification"},
    }
    for name, targets in expected.items():
        source = TIFSEM_NS + name
        g = Graph()
        node = IRI("http://e/n")
        g.insert(Triple(node, IRI(RDF_TYPE), IRI(source)))
        materialize(g)
        types = {t.object.value for t in g.match(subject=node, predicate=IRI(RDF_TYPE))}
        assert types == {source} | {SCHEMA_NS + t for t in targets}, name


@criterion(3, "dialect equivalence", 1.0)
def test_criterion_3_dialect_equivalence(la_rochelle_ios):
    texts = {}
    for name, emit, profile in [
        ("v3", fixtures.emit_v3, fixtures.profile_v3()),
        ("dialect-a", fixtures.emit_dialect_a, fixtures.profile_dialect_a()),
    ]:
        doc = RawDocument(source_uri=name, data=emit(la_rochelle_ios).encode())
        ios, issues = parse_tif(doc, profile)
        assert issues == [], name
        g = Graph()
        for io in ios:
            assert_io(g, io, BASE)
        texts[name] = to_ntriples(g)
    assert texts["v3"] == texts["dialect-a"]
    assert len(texts["v3"]) > 0


@criterion(4, "query oracle equivalence", 60.0)
def test_criterion_4_query_oracle_equivalence():
    rng = random.Random(170_000)
    for case in range(500):
        g, q = random_case(rng, max_triples=200)
        assert len(g) <= 200
        assert 1 <= len(q.patterns) <= 3 and len(q.filters) <= 1
        engine = evaluate(q, g).rows
        oracle = brute_force_evaluate(q, list(g))
        assert engine == oracle, f"case {case}"


@criterion(5, "geodistance", 5.0)
def test_criterion_5_geodistance():
    antipodal = geo_distance(GeoPoint(0, 0), GeoPoint(0, 180))
    assert math.isclose(antipodal, math.pi * 6_371_000, rel_tol=1e-6)

    rng = random.Random(63710)
    for _ in range(10_000):
        a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        d = geo_distance(a, b)
        assert d == geo_distance(b, a)
        assert geo_distance(a, a) == 0.0
        reference = haversine_reference(a.latitude, a.longitude, b.latitude, b.longitude)
        assert math.isclose(d, reference, rel_tol=1e-9), (a, b)


@criterion(6, "proximity-ranking scenario", 1.0)
def test_criterion_6_proximity_ranking(la_rochelle_ios, materialized_graph):
    def kind_of(io):
        return io.granules[GranuleKind.DUBLIN_CORE][0].fields["DublinCore/Type"]

    def position(io):
        return io.granules[GranuleKind.GEOLOCATIONS][0].fields["Geolocation/Position"]

    hotels = [io for io in la_rochelle_ios if kind_of(io) == "hotel"]
    amenities = [io for io in la_rochelle_ios if kind_of(io) != "hotel"]
    assert len(hotels) >= 5 and len(amenities) >= 15

    expected = []
    for hotel in hotels:
        hp = position(hotel)
        count = sum(
            1 for a in amenities
            if haversine_reference(hp.latitude, hp.longitude,
                                   position(a).latitude, position(a).longitude) < 1000.0
        )
        if count:
            expected.append((mint_io_iri(BASE, hotel.id), Literal(str(count), XSD_NS + "integer")))
    expected.sort(key=lambda row: row[0].value)
    expected.sort(key=lambda row: int(row[1].lexical), reverse=True)

    table = evaluate(parse_query(fixtures.EXAMPLE1_QUERY), materialized_graph)
    assert table.rows == expected


@criterion(7, "rural-events scenario", 1.0)
def test_criterion_7_rural_events(la_rochelle_ios, materialized_graph):
    expected = {}
    for io in la_rochelle_ios:
        customers = io.granules.get(GranuleKind.CUSTOMERS, [None])[0]
        if customers is not None and customers.fields.get("Customers/Audience") == "rural":
            expected[mint_io_iri(BASE, io.id)] = customers.fields["Customers/Profile"]
    assert expected, "fixture must contain rural events"

    table = evaluate(parse_query(fixtures.EXAMPLE2_QUERY), materialized_graph)
    assert {row[0] for row in table.rows} == set(expected)
    for event, audience, profile in table.rows:
        assert audience == Literal("rural")
        assert profile == Literal(expected[event])


def _random_graph(rng: random.Random, size: int) -> Graph:
    pool = string.ascii_letters + string.digits + " \t\näéœ \"\\'<>{}"
    g = Graph()
    for _ in range(size):
        subject = (
            IRI(f"http://r/s{rng.randrange(8)}")
            if rng.random() < 0.7
            else BlankNode(f"b{rng.randrange(6)}")
        )
        predicate = IRI(f"http://r/p{rng.randrange(5)}")
        roll = rng.random()
        if roll < 0.4:
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(12)))
            obj = Literal(text)
        elif roll < 0.55:
            obj = Literal(f"{rng.uniform(-50, 50):.4f}", XSD_NS + "decimal")
        elif roll < 0.7:
            obj = Literal("".join(rng.choice(pool) for _ in range(6)), language=rng.choice(["fr", "en-GB"]))
        elif roll < 0.85:
            obj = IRI(f"http://r/o{rng.randrange(8)}")
        else:
            obj = BlankNode(f"b{rng.randrange(6)}")
        g.insert(Triple(subject, predicate, obj))
    return g


@criterion(8, "round trips", 30.0)
def test_criterion_8_round_trips(la_rochelle_ios, materialized_graph):
    rng = random.Random(8_000)
    for _ in range(1000):
        g = _random_graph(rng, rng.randrange(0, 25))
        assert from_ntriples(to_ntriples(g)) == g

    for io in la_rochelle_ios:
        root = mint_io_iri(BASE, io.id)
        doc = to_jsonld(materialized_graph, root)
        expanded = expand_jsonld(doc.to_json())
        closure = blank_closure(list(materialized_graph), root)
        assert structural_form(expanded, root) == structural_form(closure, root), io.id


@criterion(9, "materialization laws", 10.0)
def test_criterion_9_materialization_laws(la_rochelle_graph):
    rules = builtin_rules()
    granule_classes = [class_of(k) for k in GranuleKind]

    def check(g: Graph) -> None:
        before = g.triples
        materialize(g, rules)
        assert before <= g.triples  # monotone
        assert g.triples == naive_materialize(before, rules)
        assert materialize(g, rules).inferred_triples == 0  # idempotent

    check(Graph(la_rochelle_graph))

    rng = random.Random(9_000)
    for _ in range(100):
        g = _random_graph(rng, rng.randrange(0, 20))
        for _ in range(rng.randrange(0, 6)):
            g.insert(Triple(
                IRI(f"http://r/s{rng.randrange(8)}"),
                IRI(RDF_TYPE),
                IRI(rng.choice(granule_classes + [SCHEMA_NS + "MediaObject", SCHEMA_NS + "Offer"])),
            ))
        for _ in range(rng.randrange(0, 4)):
            g.insert(Triple(
                IRI(f"http://r/s{rng.randrange(8)}"),
                IRI(rng.choice([TIFSEM_NS + "latitude", TIFSEM_NS + "addressLine1"])),
                Literal(str(rng.randrange(90))),
            ))
        check(g)
