"""Seeded input generator: suffixed La Rochelle copies laid out on a grid.

Copy ``j`` is ``fixtures.la_rochelle(seed + j)`` with every id suffixed (the
IO id, ``DublinCore/Identifier`` and each ``RelatedServices/Reference``) and
every coordinate moved onto tile ``j`` of a grid.  Tiles are spaced wider
than one copy's extent (about 0.15 deg of latitude, 0.4 deg of longitude)
plus the largest distance threshold (2 km), so no query relates two copies
and per-copy results compose by union.
"""

from __future__ import annotations

from dataclasses import dataclass

from oracles import naive_materialize
from tifsem import fixtures
from tifsem.graph import (
    DEFAULT_BASE_IRI,
    Graph,
    IRI,
    Literal,
    Triple,
    assert_io,
    granule_node,
    mint_io_iri,
)
from tifsem.mapping import builtin_rules
from tifsem.ontology import IDENTIFIER_PATH, GeoPoint, Granule, GranuleKind, InformationObject, IoRef

TILE_LAT = 0.25
TILE_LON = 0.5
TILE_COLUMNS = 8

EMITTERS = {
    "v3": (fixtures.emit_v3, fixtures.profile_v3),
    "a": (fixtures.emit_dialect_a, fixtures.profile_dialect_a),
    "b": (fixtures.emit_dialect_b, fixtures.profile_dialect_b),
}


@dataclass
class Tile:
    """One suffixed, relocated copy of the fixture."""

    index: int
    ios: list[InformationObject]

    def iris(self) -> list[IRI]:
        return [mint_io_iri(DEFAULT_BASE_IRI, io.id) for io in self.ios]


def _moved(path: str, value, suffix: str, shift: tuple[float, float]):
    if path == IDENTIFIER_PATH and isinstance(value, str):
        return value + suffix
    if isinstance(value, IoRef):
        return IoRef(value.io_id + suffix)
    if isinstance(value, GeoPoint):
        return GeoPoint(round(value.latitude + shift[0], 5), round(value.longitude + shift[1], 5))
    return value


def make_tile(seed: int, index: int) -> Tile:
    suffix = f"-c{index:02d}"
    row, column = divmod(index, TILE_COLUMNS)
    shift = (row * TILE_LAT, column * TILE_LON)
    ios = []
    for io in fixtures.la_rochelle(seed + index):
        granules = {
            kind: [Granule(kind, {p: _moved(p, v, suffix, shift) for p, v in g.fields.items()})
                   for g in instances]
            for kind, instances in io.granules.items()
        }
        ios.append(InformationObject(io.id + suffix, granules, dict(io.extensions)))
    return Tile(index, ios)


def make_tiles(seed: int, first: int, count: int) -> list[Tile]:
    return [make_tile(seed, i) for i in range(first, first + count)]


def asserted_triples(tiles: list[Tile]) -> set[Triple]:
    """``assert_io`` applied directly to the generator's in-memory IOs."""
    g = Graph()
    for tile in tiles:
        for io in tile.ios:
            assert_io(g, io)
    return set(g)


def mapped_triples(tiles: list[Tile]) -> set[Triple]:
    """The asserted triples closed under the builtin rules by the oracle."""
    return naive_materialize(asserted_triples(tiles), builtin_rules())


def dialect_b_extensions(tiles: list[Tile]) -> set[Triple]:
    """What dialect B adds to the canonical graph: each resource's
    ``ClasseInterne`` leaf and the ``Skype`` leaf of its contacts granule,
    both kept under the extension namespace."""
    out = set()
    for tile in tiles:
        for io in tile.ios:
            iri = mint_io_iri(DEFAULT_BASE_IRI, io.id)
            out.add(Triple(iri, IRI(fixtures.EXTENSION_NS + "ClasseInterne"), Literal("niveau 2")))
            if io.granules.get(GranuleKind.CONTACTS):
                node = granule_node(io.id, GranuleKind.CONTACTS, 0)
                out.add(Triple(node, IRI(fixtures.EXTENSION_NS + "Contacts/Skype"),
                               Literal(f"skype-{io.id.lower()}")))
    return out
