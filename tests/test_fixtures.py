from __future__ import annotations

from tifsem import fixtures
from tifsem.graph import Graph, assert_io
from tifsem.ingest import RawDocument, parse_tif, validate_io
from tifsem.ontology import GranuleKind
from tifsem.serialize import to_ntriples


class TestDataset:
    def test_sizes(self, la_rochelle_ios):
        kinds = {}
        for io in la_rochelle_ios:
            kind = io.granules[GranuleKind.DUBLIN_CORE][0].fields["DublinCore/Type"]
            kinds.setdefault(kind, []).append(io)
        assert len(kinds["hotel"]) >= 5
        amenities = sum(len(v) for k, v in kinds.items() if k != "hotel")
        assert amenities >= 15

    def test_deterministic_for_fixed_seed(self):
        first = fixtures.la_rochelle(seed=99)
        second = fixtures.la_rochelle(seed=99)
        assert first == second
        assert fixtures.emit_v3(first) == fixtures.emit_v3(second)

    def test_different_seed_changes_coordinates(self):
        assert fixtures.la_rochelle(seed=1) != fixtures.la_rochelle(seed=2)

    def test_all_ios_validate_clean(self, la_rochelle_ios):
        for io in la_rochelle_ios:
            assert validate_io(io) == []

    def test_every_granule_kind_appears(self, la_rochelle_ios):
        present = {kind for io in la_rochelle_ios for kind in io.granules}
        assert present == set(GranuleKind)

    def test_rural_events_exist(self, la_rochelle_ios):
        audiences = [
            io.granules[GranuleKind.CUSTOMERS][0].fields["Customers/Audience"]
            for io in la_rochelle_ios
            if GranuleKind.CUSTOMERS in io.granules
        ]
        assert audiences.count("rural") == 3


class TestEmission:
    def test_xml_ingest_reproduces_in_memory_graph(self, la_rochelle_ios, la_rochelle_graph):
        doc = RawDocument(source_uri="v3", data=fixtures.emit_v3(la_rochelle_ios).encode())
        ios, issues = parse_tif(doc, fixtures.profile_v3())
        assert issues == []
        g = Graph()
        for io in ios:
            assert_io(g, io)
        assert to_ntriples(g) == to_ntriples(la_rochelle_graph)

    def test_dialect_a_round_trips_identically(self, la_rochelle_ios, la_rochelle_graph):
        doc = RawDocument(source_uri="a", data=fixtures.emit_dialect_a(la_rochelle_ios).encode())
        ios, issues = parse_tif(doc, fixtures.profile_dialect_a())
        assert issues == []
        g = Graph()
        for io in ios:
            assert_io(g, io)
        assert to_ntriples(g) == to_ntriples(la_rochelle_graph)

    def test_dialect_b_adds_only_extension_triples(self, la_rochelle_ios, la_rochelle_graph):
        doc = RawDocument(source_uri="b", data=fixtures.emit_dialect_b(la_rochelle_ios).encode())
        ios, issues = parse_tif(doc, fixtures.profile_dialect_b())
        assert issues == []
        g = Graph()
        for io in ios:
            assert_io(g, io)
        kept = Graph(t for t in g if fixtures.EXTENSION_NS not in t.predicate.value)
        assert to_ntriples(kept) == to_ntriples(la_rochelle_graph)
        assert len(g) > len(kept)


class TestGenerate:
    def test_writes_expected_files(self, tmp_path):
        paths = fixtures.generate(tmp_path)
        names = {p.relative_to(tmp_path).as_posix() for p in paths}
        assert names == {
            "la_rochelle_v3.xml",
            "la_rochelle_dialect_a.xml",
            "la_rochelle_dialect_b.xml",
            "profiles/tif_v3.json",
            "profiles/dialect_a.json",
            "profiles/dialect_b.json",
            "queries/example1.rq",
            "queries/example2.rq",
        }
        for p in paths:
            assert p.read_text(encoding="utf-8").strip()
