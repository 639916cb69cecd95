#!/usr/bin/env python3
"""Regenerate the one generated golden file, tests/data/example1_results.csv.

The example-1 result CSV is produced by the brute-force evaluator from
tests/oracles.py, not by the query engine, so the golden stays an
independent reference.  The three ``fixture_*.xml`` files beside it are
hand-written one-resource inputs that nothing regenerates.  Run after
changing the fixture generator, then review the diff.
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import brute_force_evaluate  # noqa: E402
from tifsem import fixtures  # noqa: E402
from tifsem.graph import Graph, assert_io  # noqa: E402
from tifsem.mapping import materialize  # noqa: E402
from tifsem.query import parse_query  # noqa: E402
from tifsem.serialize import term_to_ntriples  # noqa: E402


def example1_csv() -> str:
    g = Graph()
    for obj in fixtures.la_rochelle():
        assert_io(g, obj)
    materialize(g)
    q = parse_query(fixtures.EXAMPLE1_QUERY)
    rows = brute_force_evaluate(q, list(g))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(q.output_variables)
    for row in rows:
        writer.writerow([term_to_ntriples(t) for t in row])
    return buffer.getvalue()


def main() -> None:
    target = ROOT / "tests" / "data" / "example1_results.csv"
    target.write_text(example1_csv(), encoding="utf-8")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
