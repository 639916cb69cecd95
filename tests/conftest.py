from __future__ import annotations

from pathlib import Path

import pytest

from tifsem import fixtures
from tifsem.graph import Graph, assert_io
from tifsem.mapping import materialize
from tifsem.ontology import load_core_ontology

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def snapshot():
    return load_core_ontology()


@pytest.fixture(scope="session")
def la_rochelle_ios():
    return fixtures.la_rochelle()


@pytest.fixture(scope="session")
def la_rochelle_graph(la_rochelle_ios) -> Graph:
    g = Graph()
    for io in la_rochelle_ios:
        assert_io(g, io)
    return g


@pytest.fixture(scope="session")
def materialized_graph(la_rochelle_graph) -> Graph:
    g = Graph(la_rochelle_graph)
    materialize(g)
    return g
