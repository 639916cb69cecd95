#!/usr/bin/env python3
"""End-to-end demonstration on the synthetic La Rochelle dataset.

Generates the dataset, ingests all three tag dialects, checks they collapse
to the same canonical graph, materializes the Schema.org alignment, runs the
two scenario queries, and exports the best-ranked hotel as JSON-LD.
Exits 1, before materializing, when the v3 and dialect-A graphs differ.

Usage: python scripts/run_la_rochelle_pipeline.py [OUT_DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

from tifsem import fixtures  # noqa: E402
from tifsem.cli import _parse_and_validate  # noqa: E402
from tifsem.graph import Graph, IRI, assert_io  # noqa: E402
from tifsem.mapping import builtin_rules, check_consistency, materialize  # noqa: E402
from tifsem.query import evaluate, parse_query, to_text_table  # noqa: E402
from tifsem.serialize import save_graph, to_jsonld  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="pipeline_out")
    args = parser.parse_args()
    out = Path(args.out_dir)

    print(f"== generating dataset (seed {fixtures.DEFAULT_SEED}) -> {out / 'data'}")
    fixtures.generate(out / "data", fixtures.DEFAULT_SEED)

    graphs: dict[str, Graph] = {}
    for dialect, xml_name, profile_name in [
        ("v3", "la_rochelle_v3.xml", "tif_v3.json"),
        ("a", "la_rochelle_dialect_a.xml", "dialect_a.json"),
        ("b", "la_rochelle_dialect_b.xml", "dialect_b.json"),
    ]:
        # `tifsem ingest`'s own reading: an error issue blocks every IO with
        # its id, so two resources sharing an identifier never merge.
        ios, issues = _parse_and_validate((str(out / "data" / xml_name),),
                                          str(out / "data" / "profiles" / profile_name))
        g = Graph()
        for io in ios:
            assert_io(g, io)
        graphs[dialect] = g
        print(f"== ingested dialect {dialect}: {len(ios)} clean resources, "
              f"{len(g)} triples, {len(issues)} issues")

    same = graphs["v3"] == graphs["a"]
    print(f"== v3 and dialect-a collapse to the same graph: {same}")
    if not same:
        print("error: the v3 and dialect-a graphs differ", file=sys.stderr)
        return 1
    extras = len(graphs["b"]) - len(graphs["v3"])
    print(f"== dialect-b carries {extras} extension triples on top")

    g = graphs["v3"]
    report = materialize(g)
    print(f"== materialized {report.inferred_triples} Schema.org triples")
    lacking = [line for line in check_consistency(builtin_rules()) if "no Schema.org" in line]
    print(f"== granules still without alignment: {len(lacking)}")
    save_graph(g, out / "la_rochelle.nt")

    for name, text in [("example1", fixtures.EXAMPLE1_QUERY), ("example2", fixtures.EXAMPLE2_QUERY)]:
        table = evaluate(parse_query(text), g)
        print(f"\n== {name}: {len(table.rows)} solutions")
        print(to_text_table(table))

    top = evaluate(parse_query(fixtures.EXAMPLE1_QUERY), g).rows[0][0]
    assert isinstance(top, IRI)
    document = to_jsonld(g, top)
    target = out / "top_hotel.jsonld"
    target.write_text(document.to_text(), encoding="utf-8")
    print(f"== exported best-ranked hotel to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
