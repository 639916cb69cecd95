from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings

import strategies as own
from oracles import naive_materialize
from test_graph import count_builds
from tifsem.errors import RuleError
from tifsem.graph import RDF_TYPE, RDFS_NS, XSD_NS, Graph, IRI, Triple
from tifsem.mapping import (
    MappingRule,
    Relation,
    builtin_rules,
    check_consistency,
    load_rules,
    materialize,
)
from tifsem.ontology import (
    GRANULE_SCHEMAS,
    GranuleKind,
    SCHEMA_ADDRESS,
    SCHEMA_LATITUDE,
    SCHEMA_LONGITUDE,
    SCHEMA_NS,
    TIFSEM_NS,
    class_of,
)
from tifsem.serialize import from_ntriples, to_ntriples, to_turtle

LACKING = [
    "DublinCore", "Update", "RelatedServices", "Periods", "Customers",
    "Capacity", "OffersServices", "AdditionalDescription", "Itineraries", "Schedules",
]

TABLE2 = {
    "Multimedia": {"MediaObject"},
    "Classifications": {"Rating"},
    "Contacts": {"ContactPoint"},
    "LegalInformation": {"Organization"},
    "Languages": {"Language"},
    "Geolocations": {"Place"},
    "ReservationModes": {"Reservation", "LodgingReservation"},
    "Prices": {"Offer", "PriceSpecification"},
}


def typed_node(class_iri: str) -> Graph:
    g = Graph()
    g.insert(Triple(IRI("http://e/n"), IRI(RDF_TYPE), IRI(class_iri)))
    return g


def inferred_classes(class_iri: str) -> set[str]:
    """The classes the builtin rules add to a node typed ``class_iri``."""
    g = typed_node(class_iri)
    materialize(g)
    return {t.object.value for t in g.match(predicate=IRI(RDF_TYPE))} - {class_iri}


class TestBuiltinRules:
    def test_multimedia_targets(self):
        assert inferred_classes(TIFSEM_NS + "Multimedia") == {SCHEMA_NS + "MediaObject"}

    def test_prices_targets(self):
        assert inferred_classes(TIFSEM_NS + "Prices") == {
            SCHEMA_NS + "Offer", SCHEMA_NS + "PriceSpecification",
        }

    def test_itineraries_has_no_targets(self):
        assert inferred_classes(TIFSEM_NS + "Itineraries") == set()

    def test_all_eight_aligned_granules(self):
        class_rules: dict[str, set[str]] = {}
        for r in builtin_rules():
            if r.relation in (Relation.EQUIVALENT_CLASS, Relation.SUB_CLASS_OF):
                class_rules.setdefault(r.source, set()).add(r.target)
        assert class_rules == {
            TIFSEM_NS + name: {SCHEMA_NS + t for t in targets} for name, targets in TABLE2.items()
        }

    def test_two_target_rows_use_both_relations(self):
        rules = {(r.source, r.target): r.relation for r in builtin_rules()}
        assert rules[(TIFSEM_NS + "Prices", SCHEMA_NS + "Offer")] is Relation.EQUIVALENT_CLASS
        assert rules[(TIFSEM_NS + "Prices", SCHEMA_NS + "PriceSpecification")] is Relation.SUB_CLASS_OF
        assert rules[(TIFSEM_NS + "ReservationModes", SCHEMA_NS + "Reservation")] is Relation.EQUIVALENT_CLASS
        assert rules[(TIFSEM_NS + "ReservationModes", SCHEMA_NS + "LodgingReservation")] is Relation.SUB_CLASS_OF

    def test_geolocation_property_rules_present(self):
        props = {(r.source, r.target) for r in builtin_rules()
                 if r.relation in (Relation.EQUIVALENT_PROPERTY, Relation.SUB_PROPERTY_OF)}
        assert (TIFSEM_NS + "addressLine1", SCHEMA_ADDRESS) in props
        assert (TIFSEM_NS + "latitude", SCHEMA_NS + "latitude") in props
        assert (TIFSEM_NS + "longitude", SCHEMA_NS + "longitude") in props


class TestLoadRules:
    def test_empty_array(self):
        assert load_rules("[]") == []

    def test_builtin_rules_round_trip(self):
        def curie(iri: str) -> str:
            return iri.replace(TIFSEM_NS, "tifsem:").replace(SCHEMA_NS, "schema:")

        document = json.dumps([
            {"source": curie(r.source), "target": curie(r.target), "relation": r.relation.value}
            for r in builtin_rules()
        ])
        assert "tifsem:Multimedia" in document
        assert load_rules(document) == builtin_rules()

    @pytest.mark.parametrize("name, iri", [("rdfs:label", RDFS_NS + "label"), ("xsd:decimal", XSD_NS + "decimal")])
    def test_rdfs_and_xsd_names_expand_to_unknown_terms(self, name, iri):
        doc = f'[{{"source": "{name}", "target": "schema:MediaObject", "relation": "EquivalentClass"}}]'
        with pytest.raises(RuleError) as err:
            load_rules(doc)
        assert str(err.value) == f"rule #0: unknown term {iri}"

    def test_wrong_case_relation_rejected(self):
        doc = '[{"source": "tifsem:Multimedia", "target": "schema:MediaObject", "relation": "equivalentclass"}]'
        with pytest.raises(RuleError):
            load_rules(doc)

    def test_unknown_iri_rejected(self):
        doc = '[{"source": "tifsem:Nope", "target": "schema:MediaObject", "relation": "EquivalentClass"}]'
        with pytest.raises(RuleError):
            load_rules(doc)

    def test_duplicate_rejected(self):
        entry = '{"source": "tifsem:Multimedia", "target": "schema:MediaObject", "relation": "EquivalentClass"}'
        with pytest.raises(RuleError):
            load_rules(f"[{entry}, {entry}]")

    @pytest.mark.parametrize("doc", own.MISTYPED_RULES)
    def test_non_string_source_or_target_rejected(self, doc):
        with pytest.raises(RuleError, match="^rule #0: source and target must be strings$"):
            load_rules(doc)

    def test_deeply_nested_document_rejected(self):
        with pytest.raises(RuleError, match="nested too deeply"):
            load_rules(own.DEEP_JSON)

    @pytest.mark.parametrize("doc", ["{}", '"x"'])
    def test_document_that_is_not_an_array_rejected(self, doc):
        with pytest.raises(RuleError, match="^rules document must be a JSON array$"):
            load_rules(doc)

    @pytest.mark.parametrize("entry", [
        '"tifsem:Multimedia"',
        '["tifsem:Multimedia", "schema:MediaObject", "EquivalentClass"]',
        '{"source": "tifsem:Multimedia", "target": "schema:MediaObject"}',
        '{"source": "tifsem:Multimedia", "target": "schema:MediaObject", "relation": "EquivalentClass",'
        ' "note": "x"}',
    ])
    def test_entry_without_exactly_the_three_keys_rejected(self, entry):
        with pytest.raises(RuleError, match="^rule #0: expected keys source, target, relation$"):
            load_rules(f"[{entry}]")

    def test_class_property_mix_rejected(self):
        doc = '[{"source": "tifsem:Multimedia", "target": "schema:address", "relation": "EquivalentClass"}]'
        with pytest.raises(RuleError):
            load_rules(doc)


class TestMaterialize:
    def test_empty_graph(self):
        report = materialize(Graph())
        assert report.inferred_triples == 0

    def test_multimedia_node_gains_mediaobject(self):
        g = typed_node(TIFSEM_NS + "Multimedia")
        report = materialize(g)
        assert report.inferred_triples == 1
        assert Triple(IRI("http://e/n"), IRI(RDF_TYPE), IRI(SCHEMA_NS + "MediaObject")) in g

    def test_each_granule_class_gains_exactly_its_targets(self):
        for kind in GranuleKind:
            g = typed_node(class_of(kind))
            materialize(g)
            types = {t.object.value for t in g.match(predicate=IRI(RDF_TYPE))}
            assert types == {class_of(kind)} | {SCHEMA_NS + t for t in TABLE2.get(kind.value, ())}, kind

    def test_equivalence_is_bidirectional(self):
        g = typed_node(SCHEMA_NS + "MediaObject")
        materialize(g)
        types = {t.object.value for t in g.match(predicate=IRI(RDF_TYPE))}
        assert TIFSEM_NS + "Multimedia" in types

    def test_subclass_is_one_directional(self):
        g = typed_node(SCHEMA_NS + "PriceSpecification")
        materialize(g)
        types = {t.object.value for t in g.match(predicate=IRI(RDF_TYPE))}
        assert TIFSEM_NS + "Prices" not in types

    def test_property_rule_mirrors_statement(self):
        g = Graph()
        t = Triple(IRI("http://e/n"), IRI(TIFSEM_NS + "latitude"), IRI("http://e/v"))
        g.insert(t)
        materialize(g)
        assert Triple(t.subject, IRI(SCHEMA_NS + "latitude"), t.object) in g

    def test_rule_chain_reaches_fixed_point(self):
        chain = [
            MappingRule(TIFSEM_NS + "Multimedia", SCHEMA_NS + "MediaObject", Relation.SUB_CLASS_OF),
            MappingRule(SCHEMA_NS + "MediaObject", SCHEMA_NS + "CreativeWork", Relation.SUB_CLASS_OF),
        ]
        g = typed_node(TIFSEM_NS + "Multimedia")
        materialize(g, chain)
        types = {t.object.value for t in g.match(predicate=IRI(RDF_TYPE))}
        assert SCHEMA_NS + "CreativeWork" in types

    def test_idempotent_on_fixture(self, la_rochelle_graph):
        g = Graph(la_rochelle_graph)
        materialize(g)
        assert materialize(g).inferred_triples == 0

    def test_monotone_on_fixture(self, la_rochelle_graph):
        g = Graph(la_rochelle_graph)
        before = g.triples
        materialize(g)
        assert before <= g.triples

    def test_fixture_matches_naive_closure(self, la_rochelle_graph):
        g = Graph(la_rochelle_graph)
        report = materialize(g)
        expected = naive_materialize(la_rochelle_graph.triples, builtin_rules())
        assert g.triples == expected
        assert report.inferred_triples == len(expected) - len(la_rochelle_graph)

    @pytest.mark.parametrize("relation", [Relation.EQUIVALENT_PROPERTY, Relation.SUB_PROPERTY_OF])
    def test_property_rule_naming_rdf_type_raises(self, relation):
        g = typed_node(TIFSEM_NS + "Multimedia")
        for rule in (MappingRule(RDF_TYPE, SCHEMA_ADDRESS, relation),
                     MappingRule(SCHEMA_ADDRESS, RDF_TYPE, relation)):
            with pytest.raises(RuleError):
                materialize(g, [rule])
        assert len(g) == 1

    @given(own.graphs(max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_idempotent_and_monotone(self, g):
        before = g.triples
        materialize(g)
        assert before <= g.triples
        after = g.triples
        assert materialize(g).inferred_triples == 0
        assert g.triples == after


class TestOnePass:
    """``materialize`` walks the subject index once and reads no predicate
    view, so the graph's view, built or stale, takes no part in it."""

    def test_map_path_never_builds_the_predicate_view(self, la_rochelle_graph):
        g = from_ntriples(to_ntriples(la_rochelle_graph))
        builds = count_builds(g)
        assert materialize(g).inferred_triples > 0
        to_ntriples(g)
        to_turtle(g)
        assert builds == []

    def test_a_stale_view_changes_nothing(self, la_rochelle_graph):
        g = Graph(la_rochelle_graph)
        assert g.scan_size(predicate=IRI(RDF_TYPE)) > 0  # builds the view
        extra = Triple(IRI("http://e/n"), IRI(RDF_TYPE), IRI(TIFSEM_NS + "Multimedia"))
        g.insert(extra)  # the view is stale from here on
        builds = count_builds(g)
        materialize(g)
        assert builds == []
        assert g.triples == naive_materialize(la_rochelle_graph.triples | {extra}, builtin_rules())
        assert Triple(extra.subject, extra.predicate, IRI(SCHEMA_NS + "MediaObject")) in g

    def test_a_promoted_type_bucket_with_several_ruled_classes(self):
        node, other, rdf_type = IRI("http://e/n"), IRI("http://e/m"), IRI(RDF_TYPE)
        classes = ["Prices", "Multimedia", "ReservationModes", "Periods"]  # Periods has no rule
        g = Graph([Triple(node, rdf_type, IRI(TIFSEM_NS + name)) for name in classes]
                  + [Triple(other, rdf_type, IRI(SCHEMA_NS + "Offer"))])
        assert type(g._by_subject[node][rdf_type]) is dict
        before, expected = g.triples, naive_materialize(g.triples, builtin_rules())
        report = materialize(g)
        assert g.triples == expected
        assert report.inferred_triples == len(expected) - len(before) == 7

    def test_chained_subproperties_on_a_subject_holding_two_links(self):
        geo = GRANULE_SCHEMAS[GranuleKind.GEOLOCATIONS]
        a, b, c = (IRI(iri) for iri in (geo.predicate("AddressLine1"), geo.predicate("AddressLine2"),
                                        SCHEMA_ADDRESS))
        rules = [MappingRule(a.value, b.value, Relation.SUB_PROPERTY_OF),
                 MappingRule(b.value, c.value, Relation.SUB_PROPERTY_OF)]
        both, only_a = IRI("http://e/both"), IRI("http://e/a")
        x, y = IRI("http://e/x"), IRI("http://e/y")
        g = Graph([Triple(both, a, x), Triple(both, a, y), Triple(both, b, x), Triple(only_a, a, y)])
        before, expected = g.triples, naive_materialize(g.triples, rules)
        report = materialize(g, rules)
        assert g.triples == expected
        assert Triple(only_a, c, y) in g and Triple(both, b, y) in g
        assert report.inferred_triples == len(expected) - len(before) == 5


class TestCheckConsistency:
    def test_builtin_lacking_report(self):
        report = check_consistency(builtin_rules())
        for name in LACKING:
            assert any(name in line for line in report), name
        mapped = set(TABLE2) - {"Geolocations"}
        for line in report:
            assert not any(f"granule {name} has" in line for name in mapped)

    def test_empty_rule_set_lacks_all_18(self):
        report = check_consistency([])
        assert sum("has no Schema.org mapping" in line for line in report) == 18

    def test_class_to_property_rule_is_mismatch(self):
        rule = MappingRule(TIFSEM_NS + "Multimedia", SCHEMA_ADDRESS, Relation.EQUIVALENT_CLASS)
        report = check_consistency([rule])
        assert sum("kind mismatch" in line for line in report) == 1


class TestRandomizedClosure:
    def test_agreement_with_oracle_on_random_rule_sets(self):
        rng = random.Random(2024)
        class_iris = [class_of(k) for k in GranuleKind] + [
            SCHEMA_NS + n for n in ("MediaObject", "Rating", "Offer", "Place", "Thing")
        ]
        geo = GRANULE_SCHEMAS[GranuleKind.GEOLOCATIONS]
        prop_iris = [
            geo.predicate(n) for n in ("AddressLine1", "AddressLine2", "City", "Latitude", "Longitude")
        ] + [SCHEMA_ADDRESS, SCHEMA_LATITUDE, SCHEMA_LONGITUDE]
        for _ in range(40):
            rules = []
            for _ in range(rng.randint(0, 12)):
                if rng.random() < 0.5:
                    source, target = rng.sample(class_iris, 2)
                    relation = rng.choice([Relation.EQUIVALENT_CLASS, Relation.SUB_CLASS_OF])
                else:
                    source, target = rng.sample(prop_iris, 2)
                    relation = rng.choice([Relation.EQUIVALENT_PROPERTY, Relation.SUB_PROPERTY_OF])
                rules.append(MappingRule(source, target, relation))
            g = Graph()
            for i in range(rng.randint(0, 40)):
                subject = IRI(f"http://e/n{rng.randrange(10)}")
                if rng.random() < 0.5:
                    g.insert(Triple(subject, IRI(RDF_TYPE), IRI(rng.choice(class_iris))))
                else:
                    value = IRI(f"http://e/v{rng.randrange(5)}")
                    g.insert(Triple(subject, IRI(rng.choice(prop_iris)), value))
            expected = naive_materialize(g.triples, rules)
            before = len(g)
            report = materialize(g, rules)
            assert g.triples == expected
            assert report.inferred_triples == len(expected) - before
