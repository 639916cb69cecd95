"""The three workloads: their inputs, set-up, requests and output checks.

A workload is built from the seed (inputs generated, expected outputs
computed, all untimed), then ``setup`` is timed, then requests drawn from
``schedule`` are timed one at a time by a single client that sends the next
request only when the previous one has returned (a closed loop).  Requests
come in seeded rounds that each hold the whole parameter mix once, so every
run sends the same mix in a different order.  ``capture`` keeps what a
request returned, outside the timed region, and ``check`` judges all of it
after the loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Iterator

from click.testing import CliRunner

import gen
from oracles import (
    blank_closure,
    brute_force_evaluate,
    expand_jsonld,
    naive_materialize,
    structural_form,
)
from tifsem import cli, ontology
from tifsem.graph import Graph, IRI, Triple, assert_io
from tifsem.ingest import load_profile, save_profile
from tifsem.mapping import builtin_rules, materialize
from tifsem.ontology import LATITUDE_PROP, LONGITUDE_PROP, SCHEMA_LATITUDE, SCHEMA_LONGITUDE
from tifsem.query import Var, evaluate, parse_query
from tifsem.serialize import from_ntriples, to_jsonld, to_ntriples, to_turtle

# Held as a bound method, which tracing does not rebind.
_clear_ontology_cache = ontology.load_core_ontology.cache_clear

_COORDINATE_PROPS = {IRI(p) for p in (LATITUDE_PROP, LONGITUDE_PROP, SCHEMA_LATITUDE, SCHEMA_LONGITUDE)}

_PREFIXES = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX tifsem: <http://example.org/tifsem/ns#>
"""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def oracle_rows(query_text: str, order: tuple[int, ...], triples) -> list[tuple]:
    """``brute_force_evaluate`` on one copy's triples.

    The oracle gets the query's patterns in the given order and only the
    triples that some pattern's constants admit or that carry coordinates.
    Neither changes the answer; both keep the brute-force join affordable.
    """
    q = parse_query(query_text)
    if sorted(order) != list(range(len(q.patterns))):
        raise AssertionError("oracle pattern order is not a permutation of the query's patterns")

    def admitted(t: Triple) -> bool:
        if t.predicate in _COORDINATE_PROPS:
            return True
        return any(
            all(isinstance(term, Var) or term == value
                for term, value in zip((p.subject, p.predicate, p.object), (t.subject, t.predicate, t.object)))
            for p in q.patterns
        )

    reordered = dataclasses.replace(q, patterns=[q.patterns[i] for i in order])
    return brute_force_evaluate(reordered, [t for t in triples if admitted(t)])


def _split_by_tile(rows: list[tuple], tile_of: dict[IRI, int]) -> dict[int, list[tuple]]:
    """Rows grouped by the tile of their first column, order kept; raises
    if a row names no known resource."""
    out: dict[int, list[tuple]] = {}
    for row in rows:
        tile = tile_of.get(row[0])
        if tile is None:
            raise AssertionError(f"row for unknown resource {row[0]!r}")
        out.setdefault(tile, []).append(row)
    return out


class Workload:
    name = ""
    setup_reps = 5

    def items(self, op) -> int:
        """Units of work one request completes (requests, or resources)."""
        return 1

    def capture(self, op, output):
        return output

    def check_setup(self) -> list[str]:
        return []

    def warm_up(self, tracer) -> None:
        """Untimed requests, one of each kind, so lazy set-up finishes
        before timing."""
        seen = set()
        for op in self.schedule(random.Random(0)):
            if op[0] not in seen:
                seen.add(op[0])
                self.request(op, tracer)
            if len(seen) == len(self.request_kinds):
                return


# ---------------------------------------------------------------------------
# ingest_batch: three feeds through `tifsem ingest` and `tifsem map`


@dataclasses.dataclass
class Feed:
    xml: list[str]
    profile: str
    nt: str
    ttl: str
    resources: int
    nt_text: str
    expected_nt: str
    expected_ttl: str
    xml_bytes: int
    triples: int
    mapped_triples: int


class IngestBatch(Workload):
    """Three tourist-office feeds, one per dialect, each two XML files of
    four copies (200 resources); one request is one feed through both
    CLI commands, one round is the three feeds."""

    name = "ingest_batch"
    request_kinds = ("feed",)
    round_size = 3
    copies_per_file = 4
    setup_reps = 9
    setup_repeat = 100

    def __init__(self, seed: int, workdir: Path):
        self.runner = CliRunner()
        self.feeds: dict[str, Feed] = {}
        self.profile_texts = []
        for k, (dialect, (emit, profile)) in enumerate(gen.EMITTERS.items()):
            tiles = gen.make_tiles(seed, 2 * k * self.copies_per_file, 2 * self.copies_per_file)
            feed_dir = workdir / dialect
            feed_dir.mkdir(parents=True)
            xml = []
            xml_bytes = 0
            for i, part in enumerate((tiles[: self.copies_per_file], tiles[self.copies_per_file :])):
                path = feed_dir / f"feed-{i}.xml"
                data = emit([io for tile in part for io in tile.ios]).encode("utf-8")
                path.write_bytes(data)
                xml.append(str(path))
                xml_bytes += len(data)
            profile_text = save_profile(profile())
            self.profile_texts.append(profile_text)
            (feed_dir / "profile.json").write_text(profile_text, encoding="utf-8")
            triples = gen.asserted_triples(tiles)
            if dialect == "b":
                triples |= gen.dialect_b_extensions(tiles)
            nt_text = to_ntriples(Graph(triples))
            mapped = naive_materialize(triples, builtin_rules())
            self.feeds[dialect] = Feed(
                xml=xml, profile=str(feed_dir / "profile.json"),
                nt=str(feed_dir / "out.nt"), ttl=str(feed_dir / "out.ttl"),
                resources=sum(len(t.ios) for t in tiles), nt_text=nt_text,
                expected_nt=_digest(nt_text.encode("utf-8")),
                expected_ttl=_digest(to_turtle(Graph(mapped)).encode("utf-8")),
                xml_bytes=xml_bytes, triples=len(triples), mapped_triples=len(mapped),
            )

    def sizes(self) -> dict:
        return {
            "resources_per_round": sum(f.resources for f in self.feeds.values()),
            "xml_bytes_per_round": sum(f.xml_bytes for f in self.feeds.values()),
            "nt_bytes_per_round": sum(len(f.nt_text.encode("utf-8")) for f in self.feeds.values()),
            "triples_per_round": sum(f.triples for f in self.feeds.values()),
            "mapped_triples_per_round": sum(f.mapped_triples for f in self.feeds.values()),
        }

    def setup(self) -> None:
        """What the program builds before it can take a feed: the ontology
        snapshot (cold), the three dialect profiles and the builtin rules."""
        for _ in range(self.setup_repeat):
            _clear_ontology_cache()
            ontology.load_core_ontology()
            for text in self.profile_texts:
                load_profile(text)
            builtin_rules()

    def schedule(self, rng: random.Random) -> Iterator[tuple]:
        while True:
            dialects = list(self.feeds)
            rng.shuffle(dialects)
            yield from (("feed", d) for d in dialects)

    def items(self, op) -> int:
        return self.feeds[op[1]].resources

    def request(self, op, tracer):
        feed = self.feeds[op[1]]
        with tracer.span("cli.ingest"):
            ingested = self.runner.invoke(
                cli.main, ["ingest", *feed.xml, "--profile", feed.profile, "--out", feed.nt])
        with tracer.span("cli.map"):
            mapped = self.runner.invoke(cli.main, ["map", "--graph", feed.nt, "--out", feed.ttl])
        return ingested, mapped

    def capture(self, op, output):
        ingested, mapped = output
        feed = self.feeds[op[1]]
        outputs = {}
        for key, path in (("nt", feed.nt), ("ttl", feed.ttl), ("issues", feed.nt[:-3] + ".issues.tsv")):
            try:
                outputs[key] = _digest(Path(path).read_bytes())
            except OSError as exc:
                outputs[key] = repr(exc)
        return {
            "exit": (ingested.exit_code, mapped.exit_code),
            "stdout": ingested.stdout,
            "errors": [repr(r.exception) for r in (ingested, mapped)
                       if r.exception is not None and not isinstance(r.exception, SystemExit)],
            **outputs,
        }

    def check(self, records) -> dict[int, str]:
        failures = {}
        empty = _digest(b"")
        for i, (op, out) in enumerate(records):
            feed = self.feeds[op[1]]
            summary = f"ingested 2 file(s): {feed.triples} triples, 0 error(s), 0 warning(s)\n"
            if out["errors"] or out["exit"] != (0, 0):
                failures[i] = f"{op}: exit codes {out['exit']} {out['errors']}"
            elif out["stdout"] != summary:
                failures[i] = f"{op}: summary {out['stdout']!r}"
            elif out["nt"] != feed.expected_nt:
                failures[i] = f"{op}: N-Triples differ from assert_io on the generated IOs"
            elif out["ttl"] != feed.expected_ttl:
                failures[i] = f"{op}: Turtle differs from the oracle closure"
            elif out["issues"] != empty:
                failures[i] = f"{op}: issue report not empty"
        return failures

    def final_graph(self) -> Graph:
        g = from_ntriples(self.feeds["v3"].nt_text)
        materialize(g)
        return g


# ---------------------------------------------------------------------------
# proximity: example1-shaped rankings on a small materialized graph

RANK_QUERY = _PREFIXES + """
SELECT ?hotel (GROUP-COUNT(?amenity) AS ?nearby)
WHERE {{
  ?hotel rdf:type tifsem:InformationObject .
  ?hotel tifsem:hasGranule ?hd .
  ?hd tifsem:type "hotel" .
  ?hotel tifsem:hasGranule ?hgeo .
  ?hgeo rdf:type tifsem:Geolocations .
  ?amenity tifsem:hasGranule ?ad .
  ?ad tifsem:type {kind} .
  ?amenity tifsem:hasGranule ?ageo .
  ?ageo rdf:type tifsem:Geolocations .
{kind_filter}  FILTER(geo:distance(?hgeo, ?ageo) < {threshold})
}}
ORDER BY DESC(?nearby)
"""

# The same patterns in the order the oracle joins them, by index.
RANK_ORACLE_ORDER = (2, 1, 0, 3, 4, 6, 5, 7, 8)

THRESHOLDS_M = (300, 500, 1000, 2000)
AMENITY_KINDS = (None, "restaurant", "bar", "event")


def rank_text(threshold: int, kind) -> str:
    if kind is None:
        return RANK_QUERY.format(kind="?kind", kind_filter='  FILTER(?kind != "hotel")\n', threshold=threshold)
    return RANK_QUERY.format(kind=f'"{kind}"', kind_filter="", threshold=threshold)


class _TiledQueries(Workload):
    """Shared by the read workloads: a graph of ``tile_count`` copies and
    per-copy expected triples computed by the oracle."""

    tile_count = 0

    def __init__(self, seed: int, workdir: Path):
        self.tiles = gen.make_tiles(seed, 0, self.tile_count)
        self.tile_triples = [gen.mapped_triples([t]) for t in self.tiles]
        self.tile_lists = [list(ts) for ts in self.tile_triples]
        self.tile_of = {iri: tile.index for tile in self.tiles for iri in tile.iris()}
        self.expected = set().union(*self.tile_triples)
        self.graph: Graph | None = None

    def check_setup(self) -> list[str]:
        if set(self.graph) != self.expected:
            return ["set-up graph differs from the union of the per-copy oracle closures"]
        return []

    def check(self, records) -> dict[int, str]:
        """Each distinct request is judged once; repeats must return the
        first answer."""
        failures: dict[int, str] = {}
        first: dict[tuple, object] = {}
        for i, (op, out) in enumerate(records):
            if op in first:
                if out != first[op]:
                    failures[i] = f"{op}: differs from the first answer to the same request"
                continue
            first[op] = out
            problem = self.check_first(op, out, len(first) - 1)
            if problem:
                failures[i] = problem
        return failures

    def final_graph(self) -> Graph:
        self.setup()
        return self.graph

    def check_query(self, key, rows, query_text, order, ordinal, ordered) -> str | None:
        """One distinct query: its rows split by copy must match the oracle
        on one copy (a different copy for each distinct query)."""
        if len(set(rows)) != len(rows):
            return f"{key}: duplicate rows"
        if ordered and any(int(a[-1].lexical) < int(b[-1].lexical) for a, b in zip(rows, rows[1:])):
            return f"{key}: ORDER BY DESC key increases"
        try:
            by_tile = _split_by_tile(rows, self.tile_of)
        except AssertionError as exc:
            return f"{key}: {exc}"
        tile = ordinal % self.tile_count
        expected = oracle_rows(query_text, order, self.tile_lists[tile])
        if by_tile.get(tile, []) != expected:
            return f"{key}: rows on copy {tile} differ from brute_force_evaluate"
        return None

    def sizes(self) -> dict:
        return {"resources": sum(len(t.ios) for t in self.tiles), "triples": len(self.expected)}


class Proximity(_TiledQueries):
    """Example1-shaped rankings: every threshold with the amenity type free
    or bound to each of three types, one of each per round."""

    name = "proximity"
    request_kinds = ("rank",)
    tile_count = 4
    round_size = len(THRESHOLDS_M) * len(AMENITY_KINDS)

    def setup(self) -> None:
        g = Graph()
        for tile in self.tiles:
            for io in tile.ios:
                assert_io(g, io)
        materialize(g)
        self.graph = g

    def schedule(self, rng: random.Random) -> Iterator[tuple]:
        while True:
            combos = [(t, k) for t in THRESHOLDS_M for k in AMENITY_KINDS]
            rng.shuffle(combos)
            yield from (("rank", t, k) for t, k in combos)

    def request(self, op, tracer):
        _, threshold, kind = op
        return evaluate(parse_query(rank_text(threshold, kind)), self.graph).rows

    def check_first(self, op, rows, ordinal: int) -> str | None:
        _, threshold, kind = op
        return self.check_query(op, rows, rank_text(threshold, kind), RANK_ORACLE_ORDER, ordinal, ordered=True)


# ---------------------------------------------------------------------------
# serve: JSON-LD exports and selective lookups on a large published graph

LOOKUP_QUERY = _PREFIXES + """
SELECT ?event ?audience ?profile
WHERE {{
  ?event tifsem:hasGranule ?d .
  ?d tifsem:type "{kind}" .
  ?event tifsem:hasGranule ?c .
  ?c rdf:type tifsem:Customers .
  ?c tifsem:audience ?audience .
  ?c tifsem:profile ?profile .
  FILTER(?audience = "{audience}")
}}
"""

LOOKUP_ORACLE_ORDER = (1, 0, 2, 3, 4, 5)

LOOKUP_KINDS = ("event", "hotel", "restaurant", "bar")
AUDIENCES = ("urban", "rural", "families")
EXPORTS_PER_LOOKUP = 4


class Serve(_TiledQueries):
    """A published, already-mapped graph loaded through ``from_ntriples``;
    each round holds every lookup once and four JSON-LD exports of random
    resources per lookup."""

    name = "serve"
    request_kinds = ("export", "lookup")
    tile_count = 32
    setup_reps = 3
    round_size = len(LOOKUP_KINDS) * len(AUDIENCES) * (1 + EXPORTS_PER_LOOKUP)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.published = workdir / "published.nt"
        self.published.write_text(to_ntriples(Graph(self.expected)), encoding="utf-8")
        self.roots = sorted(self.tile_of, key=lambda iri: iri.value)

    def sizes(self) -> dict:
        return {**super().sizes(), "nt_bytes": self.published.stat().st_size}

    def setup(self) -> None:
        self.graph = from_ntriples(self.published.read_text(encoding="utf-8"))

    def schedule(self, rng: random.Random) -> Iterator[tuple]:
        while True:
            ops = [("lookup", k, a) for k in LOOKUP_KINDS for a in AUDIENCES]
            ops += [("export", rng.choice(self.roots))
                    for _ in range(len(ops) * EXPORTS_PER_LOOKUP)]
            rng.shuffle(ops)
            yield from ops

    def request(self, op, tracer):
        if op[0] == "export":
            return to_jsonld(self.graph, op[1]).to_text()
        _, kind, audience = op
        return evaluate(parse_query(LOOKUP_QUERY.format(kind=kind, audience=audience)), self.graph).rows

    def check_first(self, op, out, ordinal: int) -> str | None:
        if op[0] == "export":
            return self.check_export(op[1], out)
        _, kind, audience = op
        return self.check_query(op, out, LOOKUP_QUERY.format(kind=kind, audience=audience),
                                LOOKUP_ORACLE_ORDER, ordinal, ordered=False)

    def check_export(self, root: IRI, text: str) -> str | None:
        try:
            expanded = expand_jsonld(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            return f"export {root.value}: unreadable JSON-LD ({exc})"
        closure = blank_closure(self.tile_lists[self.tile_of[root]], root)
        if structural_form(expanded, root) != structural_form(closure, root):
            return f"export {root.value}: does not expand to the root's blank-node closure"
        return None


WORKLOADS = {w.name: w for w in (IngestBatch, Proximity, Serve)}
