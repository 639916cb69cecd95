#!/usr/bin/env python3
"""Time each pipeline stage at several dataset sizes.

For each k in ``COPIES`` (1, 4, 16, 64), builds k suffixed and relocated
copies of the La Rochelle fixture, seeded with ``SEED``, with
``perfbench/gen.make_tiles`` and times every stage, best of ``--repeat``
runs with ``time.perf_counter``:

- ``parse_tif`` of the copies emitted in each dialect (v3, A, B), each under
  its own profile;
- ``assert_io`` of the parsed v3 IOs into an empty graph, one IO at a
  time, each validated first;
- ``insert_io``: the same IOs inserted into an empty graph in one call, as
  ``tifsem ingest`` does once ``parse_tif`` has checked every value;
- ``materialize`` of that graph under the builtin rules;
- ``to_ntriples``, ``from_ntriples`` and ``to_turtle`` of the materialized
  graph, and ``to_jsonld`` of every resource in it;
- ``parse_query`` of each scenario query's text, and ``evaluate`` of the
  parsed query on the materialized graph.

Writes one JSON document to OUT: the machine, the Python version, and for
each k the resource and triple counts, the seconds per stage, and the
sha256 of the canonical N-Triples, of the Turtle, of the JSON-LD exports and
of each query's rows.  The hashes let two checkouts show that they produce
the same outputs.  Uses the standard library and the repository's modules.

Usage (from the repository root):

    python scripts/bench_stages.py OUT.json [--repeat N]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from tifsem import fixtures  # noqa: E402
from tifsem.graph import DEFAULT_BASE_IRI, Graph, _insert_ios, assert_io, mint_io_iri  # noqa: E402
from tifsem.ingest import RawDocument, parse_tif  # noqa: E402
from tifsem.mapping import materialize  # noqa: E402
from tifsem.query import evaluate, parse_query  # noqa: E402
from tifsem.serialize import from_ntriples, term_to_ntriples, to_jsonld, to_ntriples, to_turtle  # noqa: E402

SEED = 1
COPIES = (1, 4, 16, 64)
QUERIES = {"example1": fixtures.EXAMPLE1_QUERY, "example2": fixtures.EXAMPLE2_QUERY}


def best_of(repeat: int, run, prepare=lambda: ()):
    """The fastest of ``repeat`` timed calls of ``run(*prepare())``, with the
    last call's result; ``prepare`` runs outside the timed region."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        args = prepare()
        gc.collect()
        start = time.perf_counter()
        result = run(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_all(ios) -> Graph:
    g = Graph()
    for io in ios:
        assert_io(g, io)
    return g


def insert_all(ios) -> Graph:
    g = Graph()
    _insert_ios(g, ios, DEFAULT_BASE_IRI)
    return g


def materialized(g: Graph) -> Graph:
    materialize(g)
    return g


def stages(k: int, repeat: int) -> dict:
    """Seconds per stage, sizes and output hashes for k copies."""
    ios = [io for tile in gen.make_tiles(SEED, 0, k) for io in tile.ios]
    seconds: dict[str, float] = {}
    parsed = {}
    for dialect, (emit, profile) in gen.EMITTERS.items():
        doc = RawDocument(f"{dialect}.xml", emit(ios).encode("utf-8"))
        seconds[f"parse_tif.{dialect}"], (parsed[dialect], issues) = best_of(
            repeat, parse_tif, lambda: (doc, profile()))
        if issues:
            raise SystemExit(f"bench_stages: parse_tif reported {len(issues)} issue(s) on dialect {dialect}")

    seconds["assert_io"], asserted = best_of(repeat, assert_all, lambda: (parsed["v3"],))
    seconds["insert_io"], inserted = best_of(repeat, insert_all, lambda: (parsed["v3"],))
    if inserted != asserted:
        raise SystemExit("bench_stages: inserting the IOs in one call gave another graph than assert_io")
    seconds["materialize"], g = best_of(repeat, materialized, lambda: (Graph(asserted),))
    seconds["to_ntriples"], nt = best_of(repeat, to_ntriples, lambda: (g,))
    seconds["from_ntriples"], reread = best_of(repeat, from_ntriples, lambda: (nt,))
    if reread != g:
        raise SystemExit("bench_stages: from_ntriples did not give back the graph")
    seconds["to_turtle"], ttl = best_of(repeat, to_turtle, lambda: (g,))
    roots = [mint_io_iri(DEFAULT_BASE_IRI, io.id) for io in parsed["v3"]]
    seconds["to_jsonld"], exports = best_of(repeat, lambda: [to_jsonld(g, root).to_text() for root in roots])
    rows = {}
    for name, text in QUERIES.items():
        seconds[f"parse_query.{name}"], q = best_of(repeat, parse_query, lambda: (text,))
        seconds[f"evaluate.{name}"], table = best_of(repeat, evaluate, lambda: (q, g))
        rows[name] = "".join("\t".join(map(term_to_ntriples, row)) + "\n" for row in table.rows)

    return {
        "k": k,
        "resources": len(ios),
        "triples": {"asserted": len(asserted), "materialized": len(g)},
        "seconds": seconds,
        "sha256": {
            "ntriples": sha256(nt),
            "turtle": sha256(ttl),
            "jsonld": sha256("".join(exports)),
            **{f"rows.{name}": sha256(text) for name, text in rows.items()},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path)
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per stage; the best counts")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    sizes = []
    for k in COPIES:
        sizes.append(stages(k, args.repeat))
        print(f"k={k}: " + ", ".join(f"{name} {s * 1e3:.1f} ms" for name, s in sizes[-1]["seconds"].items()),
              file=sys.stderr)
    document = {
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpu_count": os.cpu_count(),
        },
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "seed": SEED,
        "repeat": args.repeat,
        "timer": "time.perf_counter, best of repeat",
        "sizes": sizes,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
