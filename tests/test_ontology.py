from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tifsem.mapping import builtin_rules
from tifsem.ontology import (
    GRANULE_SCHEMAS,
    GeoPoint,
    GranuleKind,
    IO_CLASS,
    MAX_DECIMAL_LENGTH,
    SCHEMA_NS,
    TIFSEM_NS,
    class_of,
    decimal_lexical,
    load_core_ontology,
)


class TestCensus:
    def test_exactly_19_tifsem_concepts(self, snapshot):
        assert sum(iri.startswith(TIFSEM_NS) for iri in snapshot.concepts) == 19

    def test_18_granule_kinds(self):
        assert len(GranuleKind) == 18

    def test_every_kind_has_one_concept(self, snapshot):
        for kind in GranuleKind:
            descriptor = snapshot.concepts[class_of(kind)]
            assert descriptor.parent == IO_CLASS
            assert descriptor.description.strip()
            assert "\n" not in descriptor.description

    def test_granule_parent_is_io_root(self, snapshot):
        assert snapshot.concepts[class_of(GranuleKind.GEOLOCATIONS)].parent == IO_CLASS

    def test_hotel_parent_chain(self, snapshot):
        chain = []
        node = SCHEMA_NS + "Hotel"
        while node is not None:
            chain.append(node)
            node = snapshot.concepts[node].parent
        assert chain == [
            SCHEMA_NS + "Hotel",
            SCHEMA_NS + "LodgingBusiness",
            SCHEMA_NS + "LocalBusiness",
            SCHEMA_NS + "Place",
            SCHEMA_NS + "Thing",
        ]

    def test_forest_is_acyclic(self, snapshot):
        for iri in snapshot.concepts:
            seen = set()
            node = iri
            while node is not None:
                assert node not in seen
                seen.add(node)
                node = snapshot.concepts[node].parent

    def test_every_parent_is_a_concept(self, snapshot):
        for iri, descriptor in snapshot.concepts.items():
            assert descriptor.parent is None or descriptor.parent in snapshot.concepts, iri

    def test_roots_are_the_io_class_and_thing(self, snapshot):
        roots = {iri for iri, descriptor in snapshot.concepts.items() if descriptor.parent is None}
        assert roots == {IO_CLASS, SCHEMA_NS + "Thing"}

    def test_table2_targets_exist(self, snapshot):
        for rule in builtin_rules():
            if rule.target.startswith(SCHEMA_NS) and rule.target in snapshot.concepts:
                continue
            assert rule.target in snapshot.properties


class TestClassOf:
    def test_naming_convention(self):
        assert class_of(GranuleKind.MULTIMEDIA) == TIFSEM_NS + "Multimedia"
        assert class_of(GranuleKind.PRICES) == TIFSEM_NS + "Prices"

    def test_injective(self):
        iris = {class_of(k) for k in GranuleKind}
        assert len(iris) == len(GranuleKind)


class TestGeoPoint:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            GeoPoint(90.0001, 0)
        with pytest.raises(ValueError):
            GeoPoint(0, -180.5)
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0)

    @given(st.floats(-90, 90), st.floats(-180, 180))
    def test_valid_ranges_accepted(self, lat, lon):
        p = GeoPoint(lat, lon)
        assert p.latitude == lat and p.longitude == lon


class TestSchemas:
    def test_geolocation_tag_is_singular(self):
        assert GRANULE_SCHEMAS[GranuleKind.GEOLOCATIONS].tag == "Geolocation"

    def test_all_other_tags_match_kind_names(self):
        for kind, schema in GRANULE_SCHEMAS.items():
            if kind is not GranuleKind.GEOLOCATIONS:
                assert schema.tag == kind.value

    def test_field_predicates_are_registered(self, snapshot):
        assert len(snapshot.fields) == sum(len(schema.fields) for schema in GRANULE_SCHEMAS.values())
        for path, (kind, spec, predicate) in snapshot.fields.items():
            schema = GRANULE_SCHEMAS[kind]
            name = path.removeprefix(schema.tag + "/")
            assert schema.fields[name] is spec
            if spec.type.value == "geopoint":
                assert predicate is None
            else:
                assert predicate == schema.predicate(name) and predicate in snapshot.properties


class TestDecimalLexical:
    @pytest.mark.parametrize("value, expected", [
        (0.1, "0.1"),
        (-1.152, "-1.152"),
        (46.1591, "46.1591"),
        (1e-05, "0.00001"),
        (100.0, "100.0"),
    ])
    def test_never_scientific(self, value, expected):
        assert decimal_lexical(value) == expected

    @pytest.mark.parametrize("value", [Decimal("NaN"), Decimal("-Infinity"), float("inf"), float("nan")])
    def test_non_finite_refused(self, value):
        with pytest.raises(ValueError):
            decimal_lexical(value)

    @pytest.mark.parametrize("value", [Decimal("1E+999999999"), Decimal("-1E-999999999"), Decimal("1" * 1001)])
    def test_huge_plain_form_refused(self, value):
        with pytest.raises(ValueError, match="longer than"):
            decimal_lexical(value)

    @pytest.mark.parametrize("value", [-5e-324, -1.7976931348623157e308, Decimal("0E+999999999")])
    def test_longest_floats_and_zeros_fit(self, value):
        assert len(decimal_lexical(value)) <= MAX_DECIMAL_LENGTH

    @given(st.integers(0, 1), st.lists(st.integers(0, 9), min_size=1, max_size=MAX_DECIMAL_LENGTH + 5),
           st.integers(-MAX_DECIMAL_LENGTH - 5, MAX_DECIMAL_LENGTH + 5))
    def test_length_limit_is_exact(self, sign, digits, exponent):
        value = Decimal((sign, tuple(digits), exponent))
        fits = len(format(value, "f")) <= MAX_DECIMAL_LENGTH
        if fits:
            assert decimal_lexical(value) == format(value, "f")
        else:
            with pytest.raises(ValueError):
                decimal_lexical(value)
