from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import strategies as own
from oracles import dom_leaves, is_dropped_by
from tifsem import fixtures
from tifsem.errors import IoAssertionError, ProfileError, TifsemError, XmlParseError
from tifsem.graph import Graph, assert_io
from tifsem.ingest import (
    DialectProfile,
    IDENTITY_PROFILE,
    RawDocument,
    TagDisposition,
    format_issues,
    load_profile,
    normalize_tag,
    parse_tif,
    save_profile,
    validate_io,
)
from tifsem.ontology import Granule, GranuleKind, InformationObject
from tifsem.serialize import from_ntriples, to_ntriples


def doc(path) -> RawDocument:
    return RawDocument.from_path(path)


def doc_bytes(data: bytes, encoding: str | None = None) -> RawDocument:
    return RawDocument(source_uri="inline", data=data, declared_encoding=encoding)


FIXTURE_PROFILES = [IDENTITY_PROFILE, fixtures.profile_dialect_a(), fixtures.profile_dialect_b()]


def leaf_accounting(data: bytes, profile: DialectProfile) -> tuple[int, int]:
    """(DOM leaves, leaves accounted for): each is kept as a field, in a
    granule or on the resource, reported by one issue, or dropped by the
    profile.  Attribute warnings and duplicate-identifier errors concern no
    leaf."""
    ios, issues = parse_tif(doc_bytes(data), profile)
    leaves = dom_leaves(data)
    dropped = sum(1 for path, _ in leaves if is_dropped_by(path, profile.dropped_tags))
    kept = sum(
        len(granule.fields) for io in ios for instances in io.granules.values() for granule in instances
    ) + sum(len(io.extensions) for io in ios)
    reported = sum(
        1 for i in issues if "/@" not in i.field_path and not i.message.startswith("duplicate identifier")
    )
    return len(leaves), kept + reported + dropped


class TestNormalizeTag:
    def test_identity_on_canonical_path(self):
        result = normalize_tag("Geolocation/City", IDENTITY_PROFILE)
        assert result.disposition is TagDisposition.MAPPED
        assert result.path == "Geolocation/City"

    def test_exact_rename(self):
        profile = DialectProfile(name="p", tag_renames={"Adresse1": "Geolocation/AddressLine1"})
        assert normalize_tag("Adresse1", profile).path == "Geolocation/AddressLine1"

    def test_dropped(self):
        profile = DialectProfile(name="p", dropped_tags=frozenset({"Interne"}))
        assert normalize_tag("Interne", profile).disposition is TagDisposition.DROPPED

    def test_drop_covers_subtree(self):
        profile = DialectProfile(name="p", dropped_tags=frozenset({"Interne"}))
        assert normalize_tag("Interne/Note", profile).disposition is TagDisposition.DROPPED

    def test_prefix_rename_composes(self):
        profile = DialectProfile(name="p", tag_renames={"Coordonnees": "Contacts"})
        assert normalize_tag("Coordonnees/Email", profile).path == "Contacts/Email"

    def test_exact_beats_prefix(self):
        profile = DialectProfile(
            name="p",
            tag_renames={"Coordonnees": "Contacts", "Coordonnees/Tel": "Contacts/Phone"},
        )
        assert normalize_tag("Coordonnees/Tel", profile).path == "Contacts/Phone"

    def test_failed_composition_falls_to_extension(self):
        profile = DialectProfile(name="p", tag_renames={"Coordonnees": "Contacts"})
        assert normalize_tag("Coordonnees/Skype", profile).disposition is TagDisposition.EXTENSION

    def test_unknown_path_is_extension(self):
        assert normalize_tag("Mystery/Tag", IDENTITY_PROFILE).disposition is TagDisposition.EXTENSION

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            normalize_tag("", IDENTITY_PROFILE)


class TestProfile:
    def test_rename_to_nonexistent_path_rejected(self):
        with pytest.raises(ProfileError):
            DialectProfile(name="bad", tag_renames={"X": "Geolocation/Nowhere"})

    def test_rename_and_drop_overlap_rejected(self):
        with pytest.raises(ProfileError):
            DialectProfile(
                name="bad",
                tag_renames={"X": "Geolocation/City"},
                dropped_tags=frozenset({"X"}),
            )

    def test_geopoint_target_rejected(self):
        with pytest.raises(ProfileError):
            DialectProfile(name="bad", tag_renames={"Pos": "Geolocation/Position"})

    def test_json_round_trip(self):
        profile = fixtures.profile_dialect_a()
        loaded = load_profile(save_profile(profile))
        assert loaded == profile

    def test_unknown_key_rejected(self):
        with pytest.raises(ProfileError):
            load_profile('{"name": "x", "renames": {}}')

    @pytest.mark.parametrize("text", own.MISTYPED_PROFILES)
    def test_mistyped_profile_json_rejected(self, text):
        with pytest.raises(ProfileError):
            load_profile(text)

    @pytest.mark.parametrize("fields", [
        {"name": 5},
        {"tag_renames": {"Adresse1": 1}},
        {"tag_renames": {"": "Contacts"}},
        {"tag_renames": [("Coordonnees", "Contacts")]},
        {"dropped_tags": "Interne"},
        {"dropped_tags": [None]},
        {"extension_namespace": 5},
        {"extension_namespace": "urn:tif:"},
        {"extension_namespace": "http://e/a b#"},
    ])
    def test_mistyped_profile_fields_rejected(self, fields):
        with pytest.raises(ProfileError):
            DialectProfile(**{"name": "p", **fields})


class TestParseTif:
    def test_empty_document(self):
        ios, issues = parse_tif(doc_bytes(b"<TIF/>"))
        assert ios == [] and issues == []

    def test_malformed_xml_reports_position(self):
        with pytest.raises(XmlParseError) as err:
            parse_tif(doc_bytes(b"<TIF><Resource></TIF>"))
        assert err.value.line is not None

    def test_v3_fixture_clean(self, data_dir):
        ios, issues = parse_tif(doc(data_dir / "fixture_v3.xml"))
        assert issues == []
        assert len(ios) == 1
        io = ios[0]
        assert io.id == "HOT-042"
        geo = io.first(GranuleKind.GEOLOCATIONS)
        assert geo.fields["Geolocation/AddressLine1"] == "3 rue des Augustins"
        assert geo.fields["Geolocation/City"] == "La Rochelle"
        assert geo.fields["Geolocation/Latitude"] == Decimal("46.1585")

    def test_v3_fixture_leaf_count_matches_dom_walk(self, data_dir):
        data = (data_dir / "fixture_v3.xml").read_bytes()
        ios, issues = parse_tif(doc_bytes(data))
        field_count = sum(
            len(granule.fields)
            for io in ios
            for instances in io.granules.values()
            for granule in instances
        )
        assert field_count == len(dom_leaves(data))
        assert issues == []

    def test_dialect_b_equals_v3_modulo_extensions(self, data_dir):
        v3_ios, _ = parse_tif(doc(data_dir / "fixture_v3.xml"))
        b_ios, _ = parse_tif(doc(data_dir / "fixture_dialect_b.xml"), fixtures.profile_dialect_b())

        gv3, gb = Graph(), Graph()
        for io in v3_ios:
            assert_io(gv3, io)
        for io in b_ios:
            assert_io(gb, io)
        ext_free = Graph(t for t in gb if fixtures.EXTENSION_NS not in t.predicate.value)
        assert to_ntriples(ext_free) == to_ntriples(gv3)
        # the extra tags survive as extension fields
        extras = {t.predicate.value for t in gb} - {t.predicate.value for t in gv3}
        assert extras == {
            fixtures.EXTENSION_NS + "Contacts/Skype",
            fixtures.EXTENSION_NS + "ClasseInterne",
        }

    def test_dialect_a_byte_identical_to_v3(self, data_dir):
        v3_ios, v3_issues = parse_tif(doc(data_dir / "fixture_v3.xml"))
        a_ios, a_issues = parse_tif(doc(data_dir / "fixture_dialect_a.xml"), fixtures.profile_dialect_a())
        assert v3_issues == [] and a_issues == []

        gv3, ga = Graph(), Graph()
        for io in v3_ios:
            assert_io(gv3, io)
        for io in a_ios:
            assert_io(ga, io)
        assert to_ntriples(ga) == to_ntriples(gv3)

    def test_determinism(self, data_dir):
        data = (data_dir / "fixture_dialect_b.xml").read_bytes()
        profile = fixtures.profile_dialect_b()
        first = parse_tif(doc_bytes(data), profile)
        second = parse_tif(doc_bytes(data), profile)
        assert first == second

    def test_totality_accounting(self, data_dir):
        # every dom leaf is mapped, preserved, reported, or explicitly dropped
        for name, profile in zip(["fixture_v3.xml", "fixture_dialect_a.xml", "fixture_dialect_b.xml"],
                                 FIXTURE_PROFILES):
            leaves, accounted = leaf_accounting((data_dir / name).read_bytes(), profile)
            assert leaves == accounted, name

    @given(own.tif_documents, st.sampled_from(FIXTURE_PROFILES))
    @example(b"<TIF><Resource><DublinCore></DublinCore><Identifier>0</Identifier>"
             b"<Identifier>46.1</Identifier></Resource></TIF>", fixtures.profile_dialect_b())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_leaf_is_accounted_for(self, data, profile):
        try:
            leaves, accounted = leaf_accounting(data, profile)
        except TifsemError:
            return
        assert leaves == accounted

    def test_repeated_field_keeps_first_value(self):
        # canonical and extension fields alike, in a granule or on the resource
        data = (b"<TIF><Resource><DublinCore><Identifier>S-1</Identifier></DublinCore>"
                b"<Geolocation><City>Niort</City><City>Royan</City></Geolocation>"
                b"<Contacts><Skype>first</Skype><Skype>second</Skype></Contacts>"
                b"<Mystery>one</Mystery><Mystery>two</Mystery></Resource></TIF>")
        ios, issues = parse_tif(doc_bytes(data), fixtures.profile_dialect_b())
        skype, mystery = fixtures.EXTENSION_NS + "Contacts/Skype", fixtures.EXTENSION_NS + "Mystery"
        assert ios[0].first(GranuleKind.GEOLOCATIONS).fields == {"Geolocation/City": "Niort"}
        assert ios[0].first(GranuleKind.CONTACTS).fields == {skype: "first"}
        assert ios[0].extensions == {mystery: "one"}
        assert [(i.severity, i.field_path, i.message) for i in issues] == [
            ("warning", "Geolocation/City", "duplicate field from tag 'Geolocation/City'; first value kept"),
            ("warning", skype, "duplicate field from tag 'Contacts/Skype'; first value kept"),
            ("warning", mystery, "duplicate field from tag 'Mystery'; first value kept"),
        ]

    def test_unknown_tag_without_namespace_warns(self):
        data = b"<TIF><Resource><Mystery>x</Mystery></Resource></TIF>"
        ios, issues = parse_tif(doc_bytes(data))
        assert len(issues) == 1
        assert issues[0].severity == "warning"
        assert issues[0].field_path == "Mystery"

    def test_identifier_fallback_is_content_hash(self):
        data = b"<TIF><Resource><Geolocation><City>Niort</City></Geolocation></Resource></TIF>"
        ios, _ = parse_tif(doc_bytes(data))
        other, _ = parse_tif(doc_bytes(data))
        assert ios[0].id == other[0].id
        assert len(ios[0].id) == 16

    def test_duplicate_identifiers_flagged(self):
        data = (
            b"<TIF>"
            b"<Resource><DublinCore><Identifier>A</Identifier></DublinCore></Resource>"
            b"<Resource><DublinCore><Identifier>A</Identifier></DublinCore></Resource>"
            b"</TIF>"
        )
        _, issues = parse_tif(doc_bytes(data))
        assert any(i.severity == "error" and "duplicate" in i.message for i in issues)

    def test_latin1_declared_encoding(self):
        text = "<TIF><Resource><DublinCore><Title>Hôtel</Title></DublinCore></Resource></TIF>"
        ios, _ = parse_tif(doc_bytes(text.encode("latin-1"), encoding="latin-1"))
        assert ios[0].granules[GranuleKind.DUBLIN_CORE][0].fields["DublinCore/Title"] == "Hôtel"

    def test_latin1_xml_declaration(self):
        text = "<?xml version='1.0' encoding='iso-8859-1'?><TIF><Resource><DublinCore><Title>Hôtel</Title></DublinCore></Resource></TIF>"
        ios, _ = parse_tif(doc_bytes(text.encode("latin-1")))
        assert ios[0].granules[GranuleKind.DUBLIN_CORE][0].fields["DublinCore/Title"] == "Hôtel"

    def test_bad_decimal_is_error_issue(self):
        data = b"<TIF><Resource><Geolocation><Latitude>north</Latitude></Geolocation></Resource></TIF>"
        ios, issues = parse_tif(doc_bytes(data))
        assert any(i.severity == "error" and i.field_path == "Geolocation/Latitude" for i in issues)

    def test_non_finite_decimal_is_error_issue(self):
        data = (b"<TIF><Resource><DublinCore><Identifier>N-1</Identifier></DublinCore>"
                b"<Geolocation><Latitude>NaN</Latitude></Geolocation>"
                b"<Prices><Amount>Infinity</Amount></Prices></Resource></TIF>")
        ios, issues = parse_tif(doc_bytes(data))
        assert [(i.severity, i.field_path) for i in issues] == [
            ("error", "Geolocation/Latitude"), ("error", "Prices/Amount"),
        ]
        assert GranuleKind.GEOLOCATIONS not in ios[0].granules
        assert GranuleKind.PRICES not in ios[0].granules

    def test_decimal_with_huge_plain_form_is_error_issue(self):
        data = (b"<TIF><Resource><DublinCore><Identifier>N-1</Identifier></DublinCore>"
                b"<Prices><Amount>1E+999999999</Amount></Prices></Resource></TIF>")
        ios, issues = parse_tif(doc_bytes(data))
        assert [(i.severity, i.field_path) for i in issues] == [("error", "Prices/Amount")]
        assert GranuleKind.PRICES not in ios[0].granules

    def test_attribute_warnings_precede_leaf_issues_in_document_order(self):
        data = (b'<TIF><Resource kind="x"><DublinCore lang="fr"><Identifier>A-1</Identifier>'
                b'<Title a="1" b="2" xmlns:q="urn:q" q:ok="y">T</Title></DublinCore>'
                b'<Mystery z="q"><Deep y="1">lost</Deep></Mystery>'
                b'<Geolocation><Latitude>north</Latitude></Geolocation></Resource></TIF>')
        _, issues = parse_tif(doc_bytes(data))
        assert [(i.severity, i.field_path) for i in issues] == [
            ("warning", "Resource/@kind"),
            ("warning", "Resource/DublinCore/@lang"),
            ("warning", "Resource/DublinCore/Title/@a"),
            ("warning", "Resource/DublinCore/Title/@b"),
            ("warning", "Resource/Mystery/@z"),
            ("warning", "Resource/Mystery/Deep/@y"),
            ("warning", "Mystery/Deep"),
            ("error", "Geolocation/Latitude"),
        ]

    def test_namespaced_tag_cannot_form_extension_iri(self):
        data = (b'<TIF xmlns:q="urn:q"><Resource><DublinCore><Identifier>A-1</Identifier>'
                b"<q:Note>x</q:Note></DublinCore><q:Note>y</q:Note></Resource></TIF>")
        ios, issues = parse_tif(doc_bytes(data), fixtures.profile_dialect_b())
        assert [(i.severity, i.field_path) for i in issues] == [
            ("warning", "DublinCore/{urn:q}Note"), ("warning", "{urn:q}Note"),
        ]
        assert validate_io(ios[0]) == []
        assert assert_io(Graph(), ios[0]) == 4

    @given(own.tif_documents, st.sampled_from(FIXTURE_PROFILES))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_leaves_raise_only_tifsem_errors(self, data, profile):
        # Every IO free of error issues must also assert, and as valid RDF.
        try:
            ios, issues = parse_tif(doc_bytes(data), profile)
        except TifsemError:
            return
        blocked = {i.io_id for i in issues if i.severity == "error"}
        for io in ios:
            if any(i.severity == "error" for i in validate_io(io)) or io.id in blocked:
                continue
            g = Graph()
            assert_io(g, io)
            assert from_ntriples(to_ntriples(g)) == g

    def test_repeated_granule_elements_make_instances(self, data_dir):
        ios, _ = parse_tif(doc(data_dir / "fixture_v3.xml"))
        languages = ios[0].granules[GranuleKind.LANGUAGES]
        assert [g.fields["Languages/Language"] for g in languages] == ["fr", "en"]


class TestValidateIo:
    def test_latitude_out_of_range(self):
        io = InformationObject(id="X", granules={
            GranuleKind.GEOLOCATIONS: [Granule(
                kind=GranuleKind.GEOLOCATIONS,
                fields={"Geolocation/Latitude": Decimal("91")},
            )],
        })
        issues = validate_io(io)
        assert [i for i in issues if i.severity == "error"] != []
        assert issues[0].field_path == "Geolocation/Latitude"

    def test_valid_fixture_clean(self, la_rochelle_ios):
        for io in la_rochelle_ios:
            assert validate_io(io) == []

    def test_empty_granule_warns(self):
        io = InformationObject(id="X", granules={
            GranuleKind.PRICES: [Granule(kind=GranuleKind.PRICES)],
        })
        issues = validate_io(io)
        assert [i.severity for i in issues] == ["warning"]

    def test_foreign_field_path_is_error(self):
        io = InformationObject(id="X", granules={
            GranuleKind.PRICES: [Granule(kind=GranuleKind.PRICES, fields={"Capacity/Value": Decimal(1)})],
        })
        assert any(i.severity == "error" for i in validate_io(io))

    @pytest.mark.parametrize("kind, path, value", [
        (GranuleKind.GEOLOCATIONS, "Geolocation/Latitude", "NaN"),
        (GranuleKind.PRICES, "Prices/Amount", "sNaN"),
        (GranuleKind.PRICES, "Prices/Amount", "Infinity"),
        (GranuleKind.PRICES, "Prices/Amount", "-Infinity"),
    ])
    def test_non_finite_decimal_is_error(self, kind, path, value):
        io = InformationObject(id="X", granules={kind: [Granule(kind=kind, fields={path: Decimal(value)})]})
        assert [(i.severity, i.field_path) for i in validate_io(io)] == [("error", path)]

    @pytest.mark.parametrize("kind, path, value", [
        (GranuleKind.PRICES, "Prices/Amount", Decimal("1E+10000000")),
        (GranuleKind.GEOLOCATIONS, "Geolocation/Latitude", Decimal("1E-999999999")),
    ])
    def test_decimal_with_huge_plain_form_is_error(self, kind, path, value):
        io = InformationObject(id="X", granules={kind: [Granule(kind=kind, fields={path: value})]})
        assert [(i.severity, i.field_path) for i in validate_io(io)] == [("error", path)]
        with pytest.raises(IoAssertionError):
            assert_io(Graph(), io)

    def test_extension_key_must_be_an_iri(self):
        io = InformationObject(id="X", granules={
            GranuleKind.CONTACTS: [Granule(kind=GranuleKind.CONTACTS, fields={"http://e/{q}Skype": "s"})],
        }, extensions={"http://e/a b": "t"})
        assert [(i.severity, i.field_path) for i in validate_io(io)] == [
            ("error", "http://e/{q}Skype"), ("error", "http://e/a b"),
        ]

    def test_type_mismatch_is_error(self):
        io = InformationObject(id="X", granules={
            GranuleKind.PRICES: [Granule(kind=GranuleKind.PRICES, fields={"Prices/Amount": "cheap"})],
        })
        assert any(i.severity == "error" for i in validate_io(io))


class TestIssueReport:
    def test_tsv_shape(self):
        from tifsem.ingest import ValidationIssue

        text = format_issues([
            ValidationIssue("error", "IO-1", "Geolocation/Latitude", "out of range"),
            ValidationIssue("warning", None, "Mystery", "unrecognized tag"),
        ])
        lines = text.splitlines()
        assert lines[0] == "ERROR\tIO-1\tGeolocation/Latitude\tout of range"
        assert lines[1] == "WARNING\t\tMystery\tunrecognized tag"
