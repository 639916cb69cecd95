#!/usr/bin/env python3
"""tifsem benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_batch|proximity|serve \
        --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, times the set-up and a
closed loop of requests for about S seconds of request time, checks every
output outside the timed region, and prints two JSON lines on stdout: the
run's details (sizes, seed, per-kind latencies with their tails, raw
timings), then the result with the end-to-end metrics (``--trace 0``) or the
per-layer metrics from a traced run (``--trace 1``).  Timings are reported
at a reference machine speed (see ``clock.py``).  Exits 1 if any output
check fails and 2 if the tifsem sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def _bootstrap() -> None:
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "tifsem" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        print("perfbench: src/tifsem and tests/oracles.py must sit beside perfbench/", file=sys.stderr)
        sys.exit(2)
    sys.path[1:1] = [str(src), str(tests)]
    import tifsem

    if Path(tifsem.__file__).resolve().parent != src / "tifsem":
        print(f"perfbench: imported tifsem from {tifsem.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def tail(samples: list[float]) -> dict | None:
    """The highest ladder percentile with at least ten samples beyond it
    (nearest rank), with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return {"percentile": p, "ms": ordered[math.ceil(p / 100.0 * n) - 1] * 1e3, "samples": n}
    return None


class Record(NamedTuple):
    round: int
    op: tuple
    raw_s: float
    seconds: float  # raw_s at the reference machine speed
    output: object  # what ``capture`` kept, or the exception raised


def run_loop(wl, seed: int, seconds: float, tracer, calib, limit: int | None = None) -> list[Record]:
    """Closed loop over whole rounds of the seeded schedule until the summed
    request time reaches ``seconds`` (or ``limit`` requests are done)."""
    ops = wl.schedule(random.Random(seed))
    raw: list[tuple] = []
    busy = 0.0
    rounds = 0
    gc.collect()
    while (busy < seconds) if limit is None else (len(raw) < limit):
        for _ in range(wl.round_size):
            op = next(ops)
            calib.sample_if_due()
            tracer.begin_request(len(raw))
            start = time.perf_counter()
            try:
                with tracer.span("bench.request"):
                    out = wl.request(op, tracer)
            except Exception as exc:  # a failed request is counted, not fatal
                out = exc
            elapsed = time.perf_counter() - start
            busy += elapsed
            raw.append((rounds, op, start, elapsed, out if isinstance(out, Exception) else wl.capture(op, out)))
        rounds += 1
    calib.sample()
    return [Record(r, op, elapsed, elapsed * calib.scale(start, start + elapsed), out)
            for r, op, start, elapsed, out in raw]


def round_throughputs(wl, records: list[Record], field: str) -> list[float]:
    """Items per second of request time, per round."""
    items: dict[int, int] = {}
    busy: dict[int, float] = {}
    for rec in records:
        items[rec.round] = items.get(rec.round, 0) + wl.items(rec.op)
        busy[rec.round] = busy.get(rec.round, 0.0) + getattr(rec, field)
    return [items[r] / busy[r] for r in sorted(items)]


def check(wl, records: list[Record]) -> list[str]:
    failures = {i: f"{rec.op}: raised {rec.output!r}" for i, rec in enumerate(records)
                if isinstance(rec.output, Exception)}
    kept = [i for i in range(len(records)) if i not in failures]
    try:
        found = wl.check([(records[i].op, records[i].output) for i in kept])
    except Exception as exc:  # a crashing check fails every request it judged
        return [f"check raised {exc!r}"] * len(records)
    failures.update({kept[j]: message for j, message in found.items()})
    return [failures[i] for i in sorted(failures)]


def graph_bytes_per_triple(wl) -> float:
    """tracemalloc bytes still held after building the workload's final
    graph, divided by its triples."""
    gc.collect()
    tracemalloc.start()
    try:
        g = wl.final_graph()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / len(g)


def request_stats(records: list[Record]) -> dict:
    by_kind: dict[str, list[float]] = {}
    for rec in records:
        by_kind.setdefault(rec.op[0], []).append(rec.seconds)
    return {
        kind: {"count": len(s), "p50_ms": statistics.median(s) * 1e3, "tail": tail(s)}
        for kind, s in by_kind.items()
    }


def timed_setup(wl, calib) -> list[tuple[float, float]]:
    """(scaled, raw) seconds of each set-up repetition."""
    times = []
    for _ in range(wl.setup_reps):
        gc.collect()
        times.append(calib.timed(wl.setup))
    return times


def end_to_end(wl, args, tracing, clock) -> tuple[dict, dict, int, list[str]]:
    calib = clock.Calibration()
    setup_times = timed_setup(wl, calib)
    problems = wl.check_setup()
    null = tracing.NullTracer()
    wl.warm_up(null)
    records = run_loop(wl, args.seed, args.seconds, null, calib)
    failures = problems + check(wl, records)
    attempted = len(records) + 1
    stats = request_stats(records)
    rounds = round_throughputs(wl, records, "seconds")
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setup_times), "s"),
        "throughput_per_s": (statistics.median(rounds), "1/s"),
        "p50_ms": (statistics.median(rec.seconds for rec in records) * 1e3, "ms"),
        "graph_bytes_per_triple": (graph_bytes_per_triple(wl), "B"),
    }
    # the same figures under the names of the workload table in README.md
    named = {"failed_ratio": len(failures) / attempted}
    unit = "ingest_resources_per_s" if wl.name == "ingest_batch" else "requests_per_s"
    named[unit] = metrics["throughput_per_s"][0]
    for kind, s in stats.items():
        if kind != "feed":
            named[f"{kind}_p50_ms"] = s["p50_ms"]
            named[f"{kind}_tail_ms"] = s["tail"]
    details = {
        "raw": {
            "setup_s": statistics.median(raw for _, raw in setup_times),
            "throughput_per_s": statistics.median(round_throughputs(wl, records, "raw_s")),
            "p50_ms": statistics.median(rec.raw_s for rec in records) * 1e3,
        },
        "reference_ms": {"median": statistics.median(calib.refs), "min": min(calib.refs),
                         "max": max(calib.refs), "samples": len(calib.refs)},
        "setup_s_reps": [t for t, _ in setup_times],
        "requests": stats,
        "round_throughputs": rounds,
        "named": named,
    }
    return metrics, details, attempted, failures


def per_layer(wl, args, tracing, clock) -> tuple[dict, dict, int, list[str]]:
    """An untraced loop, then the same requests traced; the per-layer
    figures come from the traced pass, the overhead from the difference."""
    calib = clock.Calibration()
    wl.setup()
    problems = wl.check_setup()
    null = tracing.NullTracer()
    wl.warm_up(null)
    plain = run_loop(wl, args.seed, args.seconds, null, calib)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_request("setup")

        def traced_setup():
            with tracer.span("bench.setup"):
                wl.setup()

        setup_scaled, setup_raw = calib.timed(traced_setup)
        setup_spans = list(tracer.spans)
        setup_counts = dict(tracer.counts)
        tracer.counts.clear()
        traced = run_loop(wl, args.seed, args.seconds, tracer, calib, limit=len(plain))
    finally:
        tracer.uninstall()
    failures = problems + wl.check_setup() + check(wl, plain + traced)

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    scale = {i: rec.seconds / rec.raw_s for i, rec in enumerate(traced)}
    scale["setup"] = setup_scaled / setup_raw
    metrics = layer_metrics(tracer, tracer.spans[len(setup_spans):], setup_spans, traced, scale,
                            sum(rec.seconds for rec in plain))
    details = {
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "setup_counts": setup_counts,
        "requests_untraced": request_stats(plain),
        "requests_traced": request_stats(traced),
    }
    attempted = len(plain) + len(traced) + 2
    return metrics, details, attempted, failures


# Layers that own spans ("bench" is the client's own time around them); the
# ontology layer has no hot boundary of its own and is only counted.
LAYERS = ("bench", "cli", "ingest", "graph", "mapping", "query", "serialize")
SETUP_LAYERS = ("bench", "ingest", "graph", "mapping", "serialize")


def layer_metrics(tracer, loop_spans, setup_spans, records, scale, plain_s) -> dict:
    """Span times are scaled to the reference machine speed by the factor
    of the request (or set-up) they belong to."""
    ops = len(records)
    kind_of = {i: rec.op[0] for i, rec in enumerate(records)}

    def mean_s(name: str, kind: str | None = None) -> float:
        d = [(s.end - s.start) * scale[s.request] for s in loop_spans
             if s.name == name and (kind is None or kind_of.get(s.request) == kind)]
        return sum(d) / len(d) if d else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    count = tracer.count
    evaluations = sum(1 for s in loop_spans if s.name == "query.evaluate")
    inserts = count("graph.insert.calls")
    materialize_inserts = count("graph.insert.calls", "mapping.materialize")
    own = tracer.self_by_span(loop_spans)
    by_name: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    for s in loop_spans:
        by_name[s.name] = by_name.get(s.name, 0.0) + own[s.id] * scale[s.request]
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + own[s.id] * scale[s.request]
    setup_own = tracer.self_by_span(setup_spans)
    setup_layer: dict[str, float] = {}
    for s in setup_spans:
        setup_layer[s.layer] = setup_layer.get(s.layer, 0.0) + setup_own[s.id] * scale["setup"]

    m = {
        "cli.ingest.self_s": (ratio(by_name.get("cli.ingest", 0.0), ops), "s/op"),
        "cli.map.self_s": (ratio(by_name.get("cli.map", 0.0), ops), "s/op"),
        "ingest.parse_tif.s": (mean_s("ingest.parse_tif"), "s/call"),
        "ingest.validate_io.s": (mean_s("ingest.validate_io"), "s/call"),
        "ingest.resources": (ratio(count("ingest.resources"), ops), "1/op"),
        "ingest.fields": (ratio(count("ingest.fields"), ops), "1/op"),
        "ingest.extension_fields": (ratio(count("ingest.extension_fields"), ops), "1/op"),
        "ingest.issues.error": (ratio(count("ingest.issues.error"), ops), "1/op"),
        "ingest.issues.warning": (ratio(count("ingest.issues.warning"), ops), "1/op"),
        "ontology.load_core_ontology.calls": (ratio(count("ontology.load_core_ontology.calls"), ops), "1/op"),
        "graph.assert_io.s": (mean_s("graph.assert_io"), "s/call"),
        "graph.assert_io.triples_added": (ratio(count("graph.assert_io.triples_added"), ops), "1/op"),
        "graph.insert.calls": (ratio(inserts, ops), "1/op"),
        "graph.insert.new_ratio": (ratio(count("graph.insert.new"), inserts), "ratio"),
        "graph.match.calls": (ratio(count("graph.match.calls"), ops), "1/op"),
        "graph.match.yielded": (ratio(count("graph.match.yielded"), ops), "1/op"),
        "mapping.materialize.s": (mean_s("mapping.materialize"), "s/call"),
        "mapping.materialize.inferred": (ratio(count("mapping.materialize.inferred"), ops), "1/op"),
        "mapping.materialize.insert_new_ratio": (
            ratio(count("graph.insert.new", "mapping.materialize"), materialize_inserts), "ratio"),
        "query.parse_query.s": (mean_s("query.parse_query"), "s/call"),
        "query.evaluate.rank.s": (mean_s("query.evaluate", "rank"), "s/call"),
        "query.evaluate.lookup.s": (mean_s("query.evaluate", "lookup"), "s/call"),
        "query.match_calls_per_query": (
            ratio(count("graph.match.calls", "query.evaluate"), evaluations), "1/query"),
        "query.examined_per_row": (
            ratio(count("graph.match.yielded", "query.evaluate"), count("query.evaluate.rows")), "ratio"),
        "query.resolve_point.calls_per_query": (
            ratio(count("query.resolve_point.calls"), evaluations), "1/query"),
        "query.geo_distance.calls_per_query": (
            ratio(count("query.geo_distance.calls"), evaluations), "1/query"),
        "serialize.to_ntriples.s": (mean_s("serialize.to_ntriples"), "s/call"),
        "serialize.from_ntriples.s": (mean_s("serialize.from_ntriples"), "s/call"),
        "serialize.to_turtle.s": (mean_s("serialize.to_turtle"), "s/call"),
        "serialize.to_jsonld.s": (mean_s("serialize.to_jsonld"), "s/call"),
        "serialize.nt_bytes": (ratio(count("serialize.nt_bytes"), ops), "B/op"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (ratio(by_layer.get(layer, 0.0), ops), "s/op")
    for layer in SETUP_LAYERS:
        m[f"setup.layer.{layer}.self_s"] = (setup_layer.get(layer, 0.0), "s")
    traced_s = sum(rec.seconds for rec in records)
    m["trace.overhead_ratio"] = (ratio(traced_s - plain_s, plain_s), "ratio")
    m["trace.spans_per_op"] = (ratio(len(loop_spans), ops), "1/op")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _bootstrap()
    import clock
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        started = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        generated_s = time.perf_counter() - started
        measure = per_layer if args.trace else end_to_end
        metrics, details, attempted, failures = measure(wl, args, tracing, clock)
        details = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "sizes": wl.sizes(), "generate_s": generated_s, **details, "failures": failures[:10],
            "wall_s": time.perf_counter() - started,
        }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
