from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from tifsem import fixtures
from tifsem.graph import Graph, assert_io
from tifsem.ingest import RawDocument, TagDisposition, normalize_tag, parse_tif, save_profile, validate_io
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
        # One ClasseInterne per resource and one Skype per contacts granule.
        extra = Counter(t.predicate.value for t in g if fixtures.EXTENSION_NS in t.predicate.value)
        assert extra == {
            fixtures.EXTENSION_NS + "ClasseInterne": len(la_rochelle_ios),
            fixtures.EXTENSION_NS + "Contacts/Skype": sum(
                len(io.granules.get(GranuleKind.CONTACTS, ())) for io in la_rochelle_ios
            ),
        }
        assert len(g) == len(kept) + sum(extra.values())

    def test_dialect_a_profile_maps_every_path_by_both_strategies(self):
        profile = fixtures.profile_dialect_a()
        for canonical, dialect in fixtures._DIALECT_A_PATHS.items():
            result = normalize_tag(dialect, profile)
            assert (result.disposition, result.path) == (TagDisposition.MAPPED, canonical), dialect
        # A path the profile does not name maps by its renamed prefix alone.
        exact = [d for d in fixtures._DIALECT_A_PATHS.values() if d in profile.tag_renames]
        composed = [d for d in fixtures._DIALECT_A_PATHS.values() if d not in profile.tag_renames]
        assert exact and composed


# sha256 of each emitted document and saved profile; the emitters and the
# profiles derived from the dialect path tables must reproduce them byte
# for byte.
_XML_SHA256 = {
    fixtures.DEFAULT_SEED: {
        "emit_v3": "a27232cacf893fa3c285d0acd601eb73b6de4fe56998e7d4f4ffba84527e9a5d",
        "emit_dialect_a": "873237d5240ac59fb2379d863a29954982abbaeb13f4f92e79b73f2e46c250c0",
        "emit_dialect_b": "d83b7ca316dc19ad8481d6c2fef1c9ab90ea36353da2f4a0afb80a8080d90d9a",
    },
    1: {
        "emit_v3": "11207c34f4f08012d9c716b0cf33eb78508304b945ee4b62f5e1e70ba010162b",
        "emit_dialect_a": "86fd83532692be669cf08e9e00d43dd7b098a0aa1df99e059a2da6bc1a79a833",
        "emit_dialect_b": "cffd20e7dfae7d5e45ef2c5907d472ffa58dfe86ab0bfa9f57c5450a9f44a424",
    },
}
_PROFILE_SHA256 = {
    "profile_v3": "51e4f7bbbb7c8fe40842389bf125eeb2c7b5d7d6f323398ff489d2a6e2804c09",
    "profile_dialect_a": "2c1d26d7aab20c855b57f4aa9a1895e7a00b84e4b95f9c4d90a5b93644baadc5",
    "profile_dialect_b": "4377933752efb2b702461d527a4a0ec35bb0416a9f414af286561bb9b18c0cb5",
}


# sha256 of each seed's in-memory dataset as ``_dataset_text`` lists it.  The
# XML pins cannot see the order of an IO's granule kinds (the emitters walk
# ``GranuleKind`` order, and ``InformationObject.__eq__`` compares dicts
# without order), yet ``assert_io`` inserts an IO's granules in that order.
_DATASET_SHA256 = {
    fixtures.DEFAULT_SEED: "b84fb93cec7d27785631b36bfeb7c6dedb5721b24b03a566d312ea9d0127a011",
    1: "903cdd1cb0d9c57bfeefcf6a8db85dd2c9a27c6f3e0a6ef7d35b736e4496a7ad",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dataset_text(ios) -> str:
    """Each IO's id and granule kinds in dict order, then the ``repr`` of
    each of its granule instances, one a line."""
    lines = []
    for io in ios:
        lines.append(f"{io.id} {[kind.name for kind in io.granules]}")
        for granules in io.granules.values():
            lines.extend(f"  {granule!r}" for granule in granules)
    return "\n".join(lines) + "\n"


class TestPinnedOutput:
    @pytest.mark.parametrize("seed", sorted(_XML_SHA256))
    def test_emitted_xml(self, seed):
        ios = fixtures.la_rochelle(seed)
        assert {name: _sha256(getattr(fixtures, name)(ios)) for name in _XML_SHA256[seed]} == _XML_SHA256[seed]

    @pytest.mark.parametrize("seed", sorted(_DATASET_SHA256))
    def test_in_memory_dataset(self, seed):
        assert _sha256(_dataset_text(fixtures.la_rochelle(seed))) == _DATASET_SHA256[seed]

    def test_saved_profiles(self):
        assert {name: _sha256(save_profile(getattr(fixtures, name)())) for name in _PROFILE_SHA256} == _PROFILE_SHA256


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
