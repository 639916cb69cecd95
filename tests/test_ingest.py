from __future__ import annotations

import copy
import datetime
import re
import timeit
import tracemalloc
import xml.etree.ElementTree as ET
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import strategies as own
from oracles import dom_leaves, is_dropped_by
from tifsem import fixtures, ingest
from tifsem.errors import IoAssertionError, ProfileError, TifsemError, XmlParseError
from tifsem.graph import Graph, IRI, assert_io
from tifsem.ingest import (
    DialectProfile,
    IDENTITY_PROFILE,
    RawDocument,
    TagDisposition,
    ValidationIssue,
    _walk_resource,
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


def doc_bytes(data: bytes) -> RawDocument:
    return RawDocument(source_uri="inline", data=data)


FIXTURE_PROFILES = [IDENTITY_PROFILE, fixtures.profile_dialect_a(), fixtures.profile_dialect_b()]
NO_CANONICAL_FIELD = "no canonical field mapped; check the profile"
NOT_ABOUT_A_LEAF = ("duplicate identifier", NO_CANONICAL_FIELD)


def leaf_accounting(data: bytes, profile: DialectProfile) -> tuple[int, int]:
    """(DOM leaves, leaves accounted for): each is kept as a field, in a
    granule or on the resource, reported by one issue, or dropped by the
    profile.  Attribute warnings, duplicate-identifier errors and the
    warning for a resource that maps no canonical field concern no leaf."""
    ios, issues = parse_tif(doc_bytes(data), profile)
    leaves = dom_leaves(data)
    dropped = sum(1 for path, _ in leaves if is_dropped_by(path, profile.dropped_tags))
    kept = sum(
        len(granule.fields) for io in ios for instances in io.granules.values() for granule in instances
    ) + sum(len(io.extensions) for io in ios)
    reported = sum(
        1 for i in issues if "/@" not in i.field_path and not i.message.startswith(NOT_ABOUT_A_LEAF)
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


IDENTIFIED = b"<DublinCore><Identifier>R-1</Identifier></DublinCore>"


class TestResolutionBranches:
    """Branches of tag resolution, each seen through ``normalize_tag`` and
    through what ``parse_tif`` keeps and reports."""

    def test_identity_geopoint_path_is_not_a_field(self):
        data = b"<TIF><Resource><Geolocation><Position>1</Position></Geolocation></Resource></TIF>"
        ios, issues = parse_tif(doc_bytes(data))
        assert ios[0].granules == {} and ios[0].extensions == []
        assert [(i.severity, i.message) for i in issues if i.field_path == "Geolocation/Position"] == [
            ("warning", "unrecognized tag; no extension namespace configured"),
        ]
        assert normalize_tag("Geolocation/Position", IDENTITY_PROFILE).disposition is TagDisposition.EXTENSION

    def test_prefix_rename_onto_geopoint_is_an_extension(self):
        data = b"<TIF><Resource>" + IDENTIFIED + b"<GeoLoc><Position>1</Position></GeoLoc></Resource></TIF>"
        profile = fixtures.profile_dialect_b()
        ios, issues = parse_tif(doc_bytes(data), profile)
        assert ios[0].granules[GranuleKind.GEOLOCATIONS][0].fields == {fixtures.EXTENSION_NS + "GeoLoc/Position": "1"}
        assert issues == []
        assert normalize_tag("GeoLoc/Position", profile).disposition is TagDisposition.EXTENSION

    def test_exact_rename_to_granule_tag_is_an_extension(self):
        ns = "http://example.org/ns#"
        profile = DialectProfile(name="p", tag_renames={"Coordonnees": "Contacts"}, extension_namespace=ns)
        data = b"<TIF><Resource>" + IDENTIFIED + b"<Coordonnees>x</Coordonnees></Resource></TIF>"
        ios, issues = parse_tif(doc_bytes(data), profile)
        assert ios[0].granules[GranuleKind.CONTACTS][0].fields == {ns + "Coordonnees": "x"}
        assert issues == []
        assert normalize_tag("Coordonnees", profile).disposition is TagDisposition.EXTENSION


class TestProfile:
    def test_rename_to_nonexistent_path_rejected(self):
        with pytest.raises(ProfileError):
            DialectProfile(name="bad", tag_renames={"X": "Geolocation/Nowhere"})

    @pytest.mark.parametrize("renames, dropped", [
        pytest.param({"X": "Geolocation/City"}, {"X"}, id="same-tag"),
        pytest.param({"Interne/Note": "Contacts/Phone"}, {"Interne"}, id="under-dropped-prefix"),
    ])
    def test_rename_and_drop_overlap_rejected(self, renames, dropped):
        with pytest.raises(ProfileError, match="dropped"):
            DialectProfile(name="bad", tag_renames=renames, dropped_tags=frozenset(dropped))

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

    def test_deeply_nested_profile_rejected(self):
        with pytest.raises(ProfileError, match="nested too deeply"):
            load_profile(own.DEEP_JSON)

    @pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
    def test_profile_document_that_is_not_an_object_rejected(self, text):
        with pytest.raises(ProfileError, match="^profile document must be a JSON object$"):
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

    def test_each_parse_places_paths_under_its_own_profile(self, data_dir):
        # parse_tif places each tag path once per call; no placement may
        # carry over to a later call under another profile.
        doc = RawDocument.from_path(data_dir / "fixture_dialect_a.xml")
        v3 = parse_tif(RawDocument.from_path(data_dir / "fixture_v3.xml"))
        bare = parse_tif(doc, IDENTITY_PROFILE)
        profiled = parse_tif(doc, fixtures.profile_dialect_a())
        again = parse_tif(doc, IDENTITY_PROFILE)
        assert profiled == v3 and v3[1] == []
        assert again == bare and bare != profiled and bare[1]

    def test_deep_leaf_joins_only_prefixes_that_can_be_keys(self):
        # All the prefixes of this leaf's 20,000-segment path take about 400 MB together.
        depth = 20_000
        data = (b"<TIF><Resource>" + IDENTIFIED + b"<a>" * depth + b"1" + b"</a>" * depth
                + b"</Resource></TIF>")
        tracemalloc.start()
        try:
            ios, issues = parse_tif(doc_bytes(data), fixtures.profile_dialect_b())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(io.extensions) for io in ios] == [1] and issues == []
        assert peak < 50_000_000

    def test_deep_path_keeps_its_remainder(self):
        # Placement splits off only the segments a profile key can span; the
        # rest of a path over 1,000 segments deep must come through whole.
        ns = "http://example.org/ns#"
        key = "/".join(["Coordonnees"] + ["Bloc"] * 1_000)
        renamed = DialectProfile(name="p", tag_renames={"Coordonnees": "Contacts", key: "Contacts"},
                                 extension_namespace=ns)
        tail = "/".join(["Bloc"] * 200 + ["Note"])
        data = (b"<TIF><Resource>" + IDENTIFIED + b"<Coordonnees>" + b"<Bloc>" * 1_000
                + b"<Email>a@example.org</Email>" + b"<Bloc>" * 200 + b"<Note>n</Note>" + b"</Bloc>" * 1_200
                + b"</Coordonnees></Resource></TIF>")
        ios, issues = parse_tif(doc_bytes(data), renamed)
        assert issues == []
        assert ios[0].granules[GranuleKind.CONTACTS][0].fields == {
            "Contacts/Email": "a@example.org", f"{ns}{key}/{tail}": "n"}
        assert normalize_tag(key + "/Email", renamed).path == "Contacts/Email"
        assert normalize_tag(f"{key}/{tail}", renamed).disposition is TagDisposition.EXTENSION
        # With no key at all, only the first segment is split off: it
        # gives the extension its kind.
        bare = DialectProfile(name="p", extension_namespace=ns)
        deep = "/".join(["Contacts"] + ["Bloc"] * 1_200 + ["Note"])
        data = (b"<TIF><Resource>" + IDENTIFIED + b"<Contacts>" + b"<Bloc>" * 1_200 + b"<Note>n</Note>"
                + b"</Bloc>" * 1_200 + b"</Contacts></Resource></TIF>")
        ios, issues = parse_tif(doc_bytes(data), bare)
        assert issues == [] and ios[0].granules[GranuleKind.CONTACTS][0].fields == {ns + deep: "n"}

    def test_walk_is_linear_in_depth(self):
        # Building each element's full tag path costs the square of the
        # depth: with 10-character tags, depth 40,000 then takes about 30
        # times as long as depth 5,000, where a linear walk takes 8 times.
        def chain(depth: int) -> ET.Element:
            return ET.fromstring("<Resource>" + "<Descriptor>" * depth + "1" + "</Descriptor>" * depth + "</Resource>")

        def seconds(resource: ET.Element) -> float:
            return min(timeit.repeat(lambda: _walk_resource(resource), number=1, repeat=5))

        shallow, deep = chain(5_000), chain(40_000)
        assert _walk_resource(deep) == ([("/".join(["Descriptor"] * 40_000), "1", 0)], [])
        assert seconds(deep) / seconds(shallow) < 20

    def test_malformed_xml_reports_position(self):
        with pytest.raises(XmlParseError) as err:
            parse_tif(doc_bytes(b"<TIF><Resource></TIF>"))
        assert err.value.line is not None

    @pytest.mark.parametrize("encoding", ["bogus", "shift_jis", "euc-jp", "big5", "utf-32"])
    def test_unreadable_declared_encoding_is_a_parse_error(self, encoding):
        # expat knows no `bogus` and reads no multi-byte encoding; both
        # are faults of the document, not of the program
        data = f'<?xml version="1.0" encoding="{encoding}"?><TIF/>'.encode("ascii")
        with pytest.raises(XmlParseError) as err:
            parse_tif(doc_bytes(data))
        assert str(err.value).startswith("inline: ")

    def test_v3_fixture_clean(self, data_dir):
        ios, issues = parse_tif(doc(data_dir / "fixture_v3.xml"))
        assert issues == []
        assert len(ios) == 1
        io = ios[0]
        assert io.id == "HOT-042"
        geo = io.granules[GranuleKind.GEOLOCATIONS][0]
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
        # in a granule, canonical and extension fields alike; on the resource
        # every extension value is kept
        data = (b"<TIF><Resource><DublinCore><Identifier>S-1</Identifier></DublinCore>"
                b"<Geolocation><City>Niort</City><City>Royan</City></Geolocation>"
                b"<Contacts><Skype>first</Skype><Skype>second</Skype></Contacts>"
                b"<Mystery>one</Mystery><Mystery>two</Mystery></Resource></TIF>")
        ios, issues = parse_tif(doc_bytes(data), fixtures.profile_dialect_b())
        skype, mystery = fixtures.EXTENSION_NS + "Contacts/Skype", fixtures.EXTENSION_NS + "Mystery"
        assert ios[0].granules[GranuleKind.GEOLOCATIONS][0].fields == {"Geolocation/City": "Niort"}
        assert ios[0].granules[GranuleKind.CONTACTS][0].fields == {skype: "first"}
        assert ios[0].extensions == [(mystery, "one"), (mystery, "two")]
        assert [(i.severity, i.field_path, i.message) for i in issues] == [
            ("warning", "Geolocation/City", "duplicate field from tag 'Geolocation/City'; first value kept"),
            ("warning", skype, "duplicate field from tag 'Contacts/Skype'; first value kept"),
        ]

    def test_repeated_top_level_extension_group_keeps_every_value(self, data_dir):
        ios, issues = parse_tif(doc(data_dir / "fixture_dialect_a.xml"), fixtures.profile_dialect_b())
        code = fixtures.EXTENSION_NS + "Langues/Code"
        assert [value for key, value in ios[0].extensions if key == code] == ["fr", "en"]
        assert [i.message for i in issues] == [NO_CANONICAL_FIELD]
        g = Graph()
        assert_io(g, ios[0])
        assert len(list(g.match(predicate=IRI(code)))) == 2

    def test_identity_digests_granule_extension_fields(self):
        data = (b"<TIF><Resource><Contacts><Phone>1</Phone><Skype>a</Skype></Contacts></Resource>"
                b"<Resource><Contacts><Phone>1</Phone><Skype>b</Skype></Contacts></Resource></TIF>")
        ios, issues = parse_tif(doc_bytes(data), fixtures.profile_dialect_b())
        assert ios[0].id != ios[1].id
        assert issues == []

    def test_unknown_tag_without_namespace_warns(self):
        data = b"<TIF><Resource><Mystery>x</Mystery></Resource></TIF>"
        ios, issues = parse_tif(doc_bytes(data))
        leaf_issues = [i for i in issues if i.message != NO_CANONICAL_FIELD]
        assert len(leaf_issues) == 1
        assert leaf_issues[0].severity == "warning"
        assert leaf_issues[0].field_path == "Mystery"

    def test_identifier_fallback_is_content_hash(self):
        data = b"<TIF><Resource><Geolocation><City>Niort</City></Geolocation></Resource></TIF>"
        ios, _ = parse_tif(doc_bytes(data))
        other, _ = parse_tif(doc_bytes(data))
        assert ios[0].id == other[0].id
        assert len(ios[0].id) == 16

    def test_content_hash_of_resources_without_refused_leaves_is_pinned(self):
        data = b"<TIF><Resource><Geolocation><City>Niort</City></Geolocation></Resource></TIF>"
        assert parse_tif(doc_bytes(data))[0][0].id == "ba9bbc1a871c0644"
        data = b"<TIF><Resource><Geolocation><City>Niort</City></Geolocation><Mystery>m</Mystery></Resource></TIF>"
        assert parse_tif(doc_bytes(data), fixtures.profile_dialect_b())[0][0].id == "82985f8c9fb0c1ea"

    def test_refused_leaves_count_toward_the_content_hash(self):
        data = (b"<TIF><Resource><Prices><Amount>NaN</Amount></Prices></Resource>"
                b"<Resource><Geolocation><Latitude>1E+10000000</Latitude></Geolocation></Resource></TIF>")
        ios, issues = parse_tif(doc_bytes(data))
        assert ios[0].id != ios[1].id
        assert not any("duplicate" in i.message for i in issues)

    def test_same_refused_content_shares_an_id(self):
        resource = b"<Resource><Prices><Amount>NaN</Amount></Prices></Resource>"
        ios, issues = parse_tif(doc_bytes(b"<TIF>" + resource + resource + b"</TIF>"))
        assert ios[0].id == ios[1].id
        assert [(i.severity, i.message) for i in issues if "duplicate" in i.message] == [
            ("error", f"duplicate identifier {ios[0].id!r} in document"),
        ]

    def test_refused_leaf_digest_is_dialect_independent(self):
        v3, _ = parse_tif(doc_bytes(b"<TIF><Resource><Prices><Amount>NaN</Amount></Prices></Resource></TIF>"))
        a, _ = parse_tif(doc_bytes(b"<TIF><Resource><Tarifs><Montant>NaN</Montant></Tarifs></Resource></TIF>"),
                         fixtures.profile_dialect_a())
        assert v3[0].id == a[0].id

    @pytest.mark.parametrize("text", ["20160501", "2016-W18-7", "\uff12016-05-01", "2016-02-30"])
    def test_dates_are_read_only_in_the_yyyy_mm_dd_form(self, text):
        periods = f"<Periods><Start>{text}</Start></Periods>".encode()
        data = b"<TIF><Resource>" + IDENTIFIED + periods + b"</Resource></TIF>"
        _, issues = parse_tif(doc_bytes(data))
        assert [(i.severity, i.field_path, i.message) for i in issues] == [
            ("error", "Periods/Start", f"not an ISO date: {text!r}"),
        ]
        data = data.replace(text.encode(), b"2016-05-01")
        assert parse_tif(doc_bytes(data))[0][0].granules[GranuleKind.PERIODS][0].fields == {
            "Periods/Start": datetime.date(2016, 5, 1),
        }

    def test_duplicate_identifiers_flagged(self):
        data = (
            b"<TIF>"
            b"<Resource><DublinCore><Identifier>A</Identifier></DublinCore></Resource>"
            b"<Resource><DublinCore><Identifier>A</Identifier></DublinCore></Resource>"
            b"</TIF>"
        )
        _, issues = parse_tif(doc_bytes(data))
        assert any(i.severity == "error" and "duplicate" in i.message for i in issues)

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
    @example(b"<TIF><Resource><Geolocation><Latitude>95</Latitude></Geolocation></Resource></TIF>",
             IDENTITY_PROFILE)
    @example(b"<TIF><Resource><Geolocation><Longitude>-181</Longitude></Geolocation></Resource></TIF>",
             IDENTITY_PROFILE)
    @example(b"<TIF><Resource><Prices><Amount>NaN</Amount></Prices></Resource></TIF>", IDENTITY_PROFILE)
    @example(b"<TIF><Resource><Geolocation><Latitude>1E+10000000</Latitude></Geolocation></Resource></TIF>",
             IDENTITY_PROFILE)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_leaves_raise_only_tifsem_errors(self, data, profile):
        # parse_tif refuses every value validate_io would, and every IO free
        # of error issues must also assert, and as valid RDF.
        try:
            ios, issues = parse_tif(doc_bytes(data), profile)
        except TifsemError:
            return
        blocked = {i.io_id for i in issues if i.severity == "error"}
        for io in ios:
            assert validate_io(io) == []
            if io.id in blocked:
                continue
            g = Graph()
            assert_io(g, io)
            assert from_ntriples(to_ntriples(g)) == g

    def test_repeated_granule_elements_make_instances(self, data_dir):
        ios, _ = parse_tif(doc(data_dir / "fixture_v3.xml"))
        languages = ios[0].granules[GranuleKind.LANGUAGES]
        assert [g.fields["Languages/Language"] for g in languages] == ["fr", "en"]


# ---------------------------------------------------------------------------
# Streaming parse against the whole-tree parse it replaced, and the
# per-document coercion memo.

CHUNK = 16 * 1024  # ET.iterparse reads its source this many bytes at a time
_NS = "http://example.org/ns"
_EMITTERS = {
    "v3": (fixtures.emit_v3, IDENTITY_PROFILE),
    "a": (fixtures.emit_dialect_a, fixtures.profile_dialect_a()),
    "b": (fixtures.emit_dialect_b, fixtures.profile_dialect_b()),
}


def _stack_walk(resource: ET.Element) -> tuple[list, list]:
    """The whole-tree walk of each resource: one stack of (element, depth,
    repeat) entries, each path joined from the tags above the element."""
    leaves, warnings, segments, tag_counts, stack = [], [], [], {}, []
    for top in resource:
        repeat = tag_counts.get(top.tag, 0)
        tag_counts[top.tag] = repeat + 1
        stack.append((top, 1, repeat))
    stack = [*reversed(stack), (resource, 0, 0)]
    while stack:
        element, depth, repeat = stack.pop()
        del segments[depth:]
        segments.append(element.tag)
        names = [name for name in element.attrib if not name.startswith("{")]
        warnings.extend(("warning", "/".join(segments) + f"/@{name}",
                         "attribute ignored: not part of the tag vocabulary") for name in names)
        if depth == 0:
            continue
        children = list(element)
        if not children:
            text = (element.text or "").strip()
            if text:
                leaves.append(("/".join(segments[1:]), text, repeat))
            continue
        stack.extend((child, depth + 1, repeat) for child in reversed(children))
    return leaves, warnings


def whole_tree_parse(data: bytes, profile: DialectProfile):
    """``parse_tif`` with the document read whole by ``ET.fromstring`` and
    each resource walked by ``_stack_walk``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_resources", lambda doc: iter(ET.fromstring(doc.data)))
        patch.setattr(ingest, "_walk_resource", _stack_walk)
        return parse_tif(doc_bytes(data), profile)


def decorated_feed(emit) -> bytes:
    """The La Rochelle fixture twice over (so every identifier repeats) in
    one dialect, more than two read chunks long, with plain and namespaced attributes at every depth, namespaced
    tags, repeated granules, resource-level leaves, a subtree deeper than
    any granule and refused decimal and date values."""
    root = ET.fromstring(emit(fixtures.la_rochelle() + fixtures.la_rochelle(2)).encode("utf-8"))
    root.set("producer", "x")
    for i, resource in enumerate(root):
        if i % 3 == 0:
            for element in resource.iter():
                element.set("note", str(i))
                element.set(f"{{{_NS}}}id", str(i))
        if i % 4 == 1:
            ET.SubElement(resource, f"{{{_NS}}}Tag").text = f"tag {i}"
            ET.SubElement(resource[1], f"{{{_NS}}}Inner").text = f"inner {i}"
        if i % 5 == 2:
            resource.append(copy.deepcopy(resource[1]))
            resource.append(copy.deepcopy(resource[2]))
        if i % 2 == 0:
            ET.SubElement(resource, "Note").text = f"note {i}"
            ET.SubElement(resource, "Note").text = f"note {i}"
        if i % 3 == 1:
            deep = ET.SubElement(ET.SubElement(resource[2], "Extra", plain="1"), "Deeper", {f"{{{_NS}}}q": "2"})
            ET.SubElement(deep, "Deepest", level="3").text = "deep"
        for leaf in resource.iter():
            if len(leaf) or not leaf.text:
                continue
            if i % 6 == 3 and re.fullmatch(r"-?[0-9]+\.[0-9]+", leaf.text):
                leaf.text = "north"
            if i % 7 == 4 and re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", leaf.text):
                leaf.text = leaf.text[:5] + "13" + leaf.text[7:]
    return ET.tostring(root, encoding="utf-8")


class TestStreamingParse:
    @pytest.mark.parametrize("dialect", sorted(_EMITTERS))
    def test_streaming_parse_equals_whole_tree_parse(self, dialect):
        emit, profile = _EMITTERS[dialect]
        data = decorated_feed(emit)
        assert len(data) > 2 * CHUNK
        ios, issues = parse_tif(doc_bytes(data), profile)
        assert (ios, issues) == whole_tree_parse(data, profile)
        messages = [(i.severity, i.message) for i in issues]
        assert ("warning", "attribute ignored: not part of the tag vocabulary") in messages
        assert ("error", "not a decimal: 'north'") in messages
        assert any(severity == "error" and message.startswith("not an ISO date") for severity, message in messages)
        assert any(len(instances) > 1 for io in ios for instances in io.granules.values())
        if profile.extension_namespace:
            assert any(io.extensions for io in ios)

    @pytest.mark.parametrize("cut", [CHUNK + 1, 2 * CHUNK - 7, 2 * CHUNK + 100, -40, -1])
    def test_truncated_document_reports_the_whole_tree_position(self, cut):
        data = decorated_feed(fixtures.emit_v3)[:cut]
        assert len(data) > CHUNK
        with pytest.raises(ET.ParseError) as whole:
            ET.fromstring(data)
        with pytest.raises(XmlParseError) as streamed:
            parse_tif(doc_bytes(data))
        assert (streamed.value.line, streamed.value.column) == whole.value.position
        assert str(streamed.value) == f"inline: {whole.value.msg}"

    def test_fault_after_the_first_chunk_returns_nothing(self):
        data = decorated_feed(fixtures.emit_v3)
        data = data[: 2 * CHUNK] + b"<&>" + data[2 * CHUNK :]
        with pytest.raises(XmlParseError) as err:
            parse_tif(doc_bytes(data))
        assert err.value.line > 1


def _resource(identifier: str, body: bytes) -> bytes:
    return b"<Resource><DublinCore><Identifier>" + identifier.encode() + b"</Identifier></DublinCore>" + body + b"</Resource>"


class TestCoercionMemo:
    def test_one_refused_text_under_three_leaves_gives_three_errors(self, monkeypatch):
        calls = []
        coerce = ingest._coerce
        monkeypatch.setattr(ingest, "_coerce", lambda text, spec: calls.append(text) or coerce(text, spec))
        north = b"<Geolocation><Latitude>north</Latitude></Geolocation>"
        data = b"<TIF>" + _resource("R-1", north + north) + _resource("R-2", north) + b"</TIF>"
        ios, issues = parse_tif(doc_bytes(data))
        assert [(i.severity, i.io_id, i.field_path, i.message) for i in issues] == [
            ("error", "R-1", "Geolocation/Latitude", "not a decimal: 'north'"),
            ("error", "R-1", "Geolocation/Latitude", "not a decimal: 'north'"),
            ("error", "R-2", "Geolocation/Latitude", "not a decimal: 'north'"),
        ]
        assert calls == ["R-1", "north", "R-2"]  # one call per distinct (field, text), in document order
        assert all(GranuleKind.GEOLOCATIONS not in io.granules for io in ios)

    def test_same_text_is_coerced_per_field(self):
        body = (b"<DublinCore><Title>12.50</Title><Type>north</Type></DublinCore>"
                b"<Prices><Amount>12.50</Amount></Prices><Geolocation><Latitude>north</Latitude></Geolocation>")
        ios, issues = parse_tif(doc_bytes(b"<TIF>" + _resource("R-1", body) + b"</TIF>"))
        fields = {path: value for granules in ios[0].granules.values() for granule in granules
                  for path, value in granule.fields.items()}
        assert fields["DublinCore/Title"] == "12.50" and type(fields["DublinCore/Title"]) is str
        assert fields["Prices/Amount"] == Decimal("12.50")
        assert fields["DublinCore/Type"] == "north"
        assert [(i.field_path, i.message) for i in issues] == [("Geolocation/Latitude", "not a decimal: 'north'")]


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
        }, extensions=[("http://e/a b", "t")])
        assert [(i.severity, i.field_path) for i in validate_io(io)] == [
            ("error", "http://e/{q}Skype"), ("error", "http://e/a b"),
        ]

    def test_type_mismatch_is_error(self):
        io = InformationObject(id="X", granules={
            GranuleKind.PRICES: [Granule(kind=GranuleKind.PRICES, fields={"Prices/Amount": "cheap"})],
        })
        assert any(i.severity == "error" for i in validate_io(io))

    @pytest.mark.parametrize("io, expected", [
        pytest.param(InformationObject(id=""), [("error", "")], id="empty-id"),
        pytest.param(InformationObject(id="X", granules={"Prices": [Granule(kind=GranuleKind.PRICES)]}),
                     [("error", "Prices")], id="key-not-a-granule-kind"),
        pytest.param(InformationObject(id="X", granules={GranuleKind.PRICES: []}),
                     [("error", "Prices")], id="empty-instance-list"),
        pytest.param(InformationObject(id="X", granules={GranuleKind.GEOLOCATIONS: [Granule(
            kind=GranuleKind.PRICES, fields={"Geolocation/City": "La Rochelle"})]}),
                     [("error", "Geolocation")], id="granule-under-another-kind"),
        pytest.param(InformationObject(id="X", granules={GranuleKind.PRICES: [Granule(
            kind=GranuleKind.PRICES, fields={"Geolocation/City": "La Rochelle"})]}),
                     [("error", "Geolocation/City")], id="field-of-another-kind"),
        pytest.param(InformationObject(id="X", granules={GranuleKind.PRICES: [Granule(
            kind=GranuleKind.PRICES, fields={"Prices/Discount": "none"})]}),
                     [("error", "Prices/Discount")], id="path-in-no-schema"),
        pytest.param(InformationObject(id="X", granules={GranuleKind.CONTACTS: [Granule(
            kind=GranuleKind.CONTACTS, fields={"http://e/ext#Skype": Decimal(1)})]}),
                     [("error", "http://e/ext#Skype")], id="granule-extension-not-text"),
        pytest.param(InformationObject(id="X", extensions=[("http://e/ext#Note", Decimal(1))]),
                     [("error", "http://e/ext#Note")], id="resource-extension-not-text"),
    ])
    def test_structural_faults(self, io, expected):
        assert [(i.severity, i.field_path) for i in validate_io(io)] == expected


class TestIssueReport:
    def test_fields_escape_backslash_tab_and_line_breaks(self):
        text = format_issues([ValidationIssue("error", "A\tB\nC\rD\\E", "P\\Q", "m\tn")])
        assert text == "ERROR\tA\\tB\\nC\\rD\\\\E\tP\\\\Q\tm\\tn\n"

    def test_tsv_shape(self):
        text = format_issues([
            ValidationIssue("error", "IO-1", "Geolocation/Latitude", "out of range"),
            ValidationIssue("warning", None, "Mystery", "unrecognized tag"),
        ])
        lines = text.splitlines()
        assert lines[0] == "ERROR\tIO-1\tGeolocation/Latitude\tout of range"
        assert lines[1] == "WARNING\t\tMystery\tunrecognized tag"
