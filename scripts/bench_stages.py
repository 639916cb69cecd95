#!/usr/bin/env python3
"""Time each pipeline stage at several dataset sizes.

For each k in ``COPIES`` (1, 4, 16, 64), builds k suffixed and relocated
copies of the La Rochelle fixture, seeded with ``SEED``, with
``perfbench/gen.make_tiles`` and times every stage, best of ``--repeat``
runs.  The runs go round-robin: each run times every stage once, in the
order below, and every run must give the same outputs.  Each stage call is
timed with ``perfbench/clock.Calibration.timed``, which samples a fixed
reference loop just before and just after it.  Each stage's best raw
seconds are kept, and scaled to the reference speed by the median of all
the reference samples taken at that size, so runs on a machine whose speed
drifts can be compared and no one slow sample picks the best:

- ``parse_tif`` of the copies emitted in each dialect (v3, A, B), each under
  its own profile;
- ``assert_io`` of the parsed v3 IOs into an empty graph, one IO at a
  time, each validated first;
- ``insert_io``: the same IOs inserted into an empty graph in one call, as
  ``tifsem ingest`` does once ``parse_tif`` has checked every value;
- ``materialize`` of that graph under the builtin rules;
- ``to_ntriples``, ``from_ntriples`` and ``to_turtle`` of the materialized
  graph, and ``to_jsonld`` of every resource in it;
- ``predicate_index``: the build of the predicate index of a graph
  ``from_ntriples`` gave, from its subject index, which the graph's first
  read without a subject makes;
- ``parse_query`` of each scenario query's text, and ``evaluate`` of the
  parsed query on the materialized graph, read back from its N-Triples
  before each run, so that every run starts with no coordinates cached,
  and with its predicate index built outside the timed region.

Writes one JSON document to OUT: the machine, the Python version, and for
each k the resource and triple counts, the raw (``seconds``) and scaled
(``scaled_seconds``) seconds per stage, the median reference sample
(``reference_ms``), and the sha256 of the canonical
N-Triples, of the Turtle, of the JSON-LD exports and of each query's rows.
The hashes let two checkouts show that they produce the same outputs.  Uses
the standard library and the repository's modules.

With ``--compare OLD.json`` it times nothing: it reads OUT, written by an
earlier run, and prints each stage's scaled time as a ratio to OLD's (new /
old) at each size, with the ratio of the median reference samples when
both files hold them (a machine slowed by other work reads above 1 there),
then every ``sha256`` and triple count that differs between the two.  It
exits 1 if any differs; the ratios are never gated.

Usage (from the repository root):

    python scripts/bench_stages.py OUT.json [--repeat N]
    python scripts/bench_stages.py OUT.json --compare OLD.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import clock  # noqa: E402
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


class Timer:
    """The best raw seconds of each stage over the runs, and the reference
    samples taken around each run."""

    def __init__(self):
        self.calibration = clock.Calibration()
        self.seconds: dict[str, float] = {}

    def time(self, stage: str, run, prepare=lambda: ()):
        """Time one call of ``run(*prepare())`` as ``stage`` and return its
        result; ``prepare`` runs outside the timed region."""
        args = prepare()
        gc.collect()
        results = []
        _, raw = self.calibration.timed(lambda: results.append(run(*args)))
        self.seconds[stage] = min(raw, self.seconds.get(stage, raw))
        return results[0]

    def reference_ms(self) -> float:
        """The median of all reference samples."""
        return statistics.median(self.calibration.refs)

    def scaled_seconds(self) -> dict[str, float]:
        """Each stage's best raw seconds at the reference speed, read from
        the median of all reference samples."""
        factor = clock.REFERENCE_MS / self.reference_ms()
        return {stage: seconds * factor for stage, seconds in self.seconds.items()}


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


def indexed(g: Graph) -> Graph:
    """``g`` with its predicate index built."""
    g._build_predicate_index()
    return g


def run_stages(ios, timer: Timer) -> dict:
    """One timed run of every stage, in pipeline order; returns the triple
    counts and the output hashes."""
    time = timer.time
    parsed = {}
    for dialect, (emit, profile) in gen.EMITTERS.items():
        doc = RawDocument(f"{dialect}.xml", emit(ios).encode("utf-8"))
        parsed[dialect], issues = time(f"parse_tif.{dialect}", parse_tif, lambda: (doc, profile()))
        if issues:
            raise SystemExit(f"bench_stages: parse_tif reported {len(issues)} issue(s) on dialect {dialect}")

    asserted = time("assert_io", assert_all, lambda: (parsed["v3"],))
    inserted = time("insert_io", insert_all, lambda: (parsed["v3"],))
    if inserted != asserted:
        raise SystemExit("bench_stages: inserting the IOs in one call gave another graph than assert_io")
    g = time("materialize", materialized, lambda: (Graph(asserted),))
    nt = time("to_ntriples", to_ntriples, lambda: (g,))
    reread = time("from_ntriples", from_ntriples, lambda: (nt,))
    if reread != g:
        raise SystemExit("bench_stages: from_ntriples did not give back the graph")
    time("predicate_index", Graph._build_predicate_index, lambda: (from_ntriples(nt),))
    ttl = time("to_turtle", to_turtle, lambda: (g,))
    roots = [mint_io_iri(DEFAULT_BASE_IRI, io.id) for io in parsed["v3"]]
    exports = time("to_jsonld", lambda: [to_jsonld(g, root).to_text() for root in roots])
    rows = {}
    for name, text in QUERIES.items():
        q = time(f"parse_query.{name}", parse_query, lambda: (text,))
        # A graph of its own for each run: `evaluate` caches coordinates on
        # the graph, and every run should resolve them as the first does.
        # Its predicate index is built here, as `predicate_index` times.
        table = time(f"evaluate.{name}", evaluate, lambda: (q, indexed(from_ntriples(nt))))
        rows[name] = "".join("\t".join(map(term_to_ntriples, row)) + "\n" for row in table.rows)
    return {
        "triples": {"asserted": len(asserted), "materialized": len(g)},
        "sha256": {
            "ntriples": sha256(nt),
            "turtle": sha256(ttl),
            "jsonld": sha256("".join(exports)),
            **{f"rows.{name}": sha256(text) for name, text in rows.items()},
        },
    }


def stages(k: int, repeat: int) -> dict:
    """Seconds per stage, sizes and output hashes for k copies.  The runs
    go round-robin: each one times every stage in turn, so a slow spell of
    the machine falls on all stages alike, and the best run of each counts."""
    ios = [io for tile in gen.make_tiles(SEED, 0, k) for io in tile.ios]
    timer = Timer()
    outputs = [run_stages(ios, timer) for _ in range(repeat)]
    if any(out != outputs[0] for out in outputs):
        raise SystemExit(f"bench_stages: k={k}: the runs gave different outputs")
    return {
        "k": k,
        "resources": len(ios),
        "triples": outputs[0]["triples"],
        "seconds": timer.seconds,
        "scaled_seconds": timer.scaled_seconds(),
        "reference_ms": timer.reference_ms(),
        "sha256": outputs[0]["sha256"],
    }


def compare(old: dict, new: dict) -> int:
    """Print the scaled-time ratios of ``new`` to ``old`` and every output
    hash or triple count that differs; 1 if any differs, else 0."""
    olds, news = ({size["k"]: size for size in doc["sizes"]} for doc in (old, new))
    differ = []
    for k in sorted(olds.keys() | news.keys()):
        was, now = olds.get(k, {}), news.get(k, {})
        for field in ("triples", "sha256"):
            a, b = was.get(field, {}), now.get(field, {})
            differ += [f"k={k} {field} {name}: {a.get(name)} -> {b.get(name)}"
                       for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
        before, after = was.get("scaled_seconds", {}), now.get("scaled_seconds", {})
        ratios = [f"{stage} {after[stage] / before[stage]:.2f}" for stage in after if stage in before]
        if "reference_ms" in was and "reference_ms" in now:
            ratios.insert(0, f"reference {now['reference_ms'] / was['reference_ms']:.2f}")
        print(f"k={k}: " + ", ".join(ratios))
    for line in differ:
        print(f"differs: {line}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path)
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per stage; the best counts")
    parser.add_argument("--compare", type=Path, metavar="OLD", help="compare OUT with OLD instead of timing")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.compare:
        return compare(*(json.loads(path.read_text(encoding="utf-8")) for path in (args.compare, args.out)))

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
        "timer": "time.perf_counter, best of repeat round-robin runs; scaled_seconds by perfbench/clock.py to a "
                 f"{clock.REFERENCE_MS} ms reference loop, from the median reference sample of each size",
        "sizes": sizes,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
