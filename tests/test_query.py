from __future__ import annotations

import collections
import itertools
import math
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_evaluate, haversine_reference
from strategies import bind_check_chains, hostile_text, planner_cases, random_case
from tifsem import fixtures, query
from tifsem.errors import QuerySyntaxError, QueryTypeError
from tifsem.graph import IRI_FORBIDDEN, LANGTAG, RDF_TYPE, BlankNode, Graph, IRI, Literal, Triple, XSD_NS, mint_io_iri
from tifsem.ontology import LATITUDE_PROP, LONGITUDE_PROP, GeoPoint, GranuleKind
from tifsem.query import (
    MAX_PATTERNS,
    Compare,
    DistanceWithin,
    GroupCount,
    OrderSpec,
    Query,
    TriplePattern,
    Var,
    evaluate,
    geo_distance,
    parse_query,
    to_csv,
    to_text_table,
)
from tifsem.serialize import from_ntriples, term_to_ntriples

PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX tifsem: <http://example.org/tifsem/ns#>\n"
)


class TestParse:
    def test_minimal_query(self):
        q = parse_query(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
            "PREFIX schema: <https://schema.org/>\n"
            "SELECT ?x WHERE { ?x rdf:type schema:Hotel }"
        )
        assert len(q.patterns) == 1
        assert q.filters == []
        assert [v.name for v in q.projection] == ["x"]

    def test_example1_matches_golden_ast(self):
        tifsem, rdf_type = "http://example.org/tifsem/ns#", IRI(RDF_TYPE)
        has_granule, kind_of = IRI(tifsem + "hasGranule"), IRI(tifsem + "type")
        geolocations = IRI(tifsem + "Geolocations")
        hotel, hd, hgeo, amenity, ad, ageo, kind = (
            Var(name) for name in ("hotel", "hd", "hgeo", "amenity", "ad", "ageo", "kind"))
        assert parse_query(fixtures.EXAMPLE1_QUERY) == Query(
            projection=[hotel],
            patterns=[
                TriplePattern(hotel, rdf_type, IRI(tifsem + "InformationObject")),
                TriplePattern(hotel, has_granule, hd),
                TriplePattern(hd, kind_of, Literal("hotel")),
                TriplePattern(hotel, has_granule, hgeo),
                TriplePattern(hgeo, rdf_type, geolocations),
                TriplePattern(amenity, has_granule, ad),
                TriplePattern(ad, kind_of, kind),
                TriplePattern(amenity, has_granule, ageo),
                TriplePattern(ageo, rdf_type, geolocations),
            ],
            filters=[Compare(kind, "!=", Literal("hotel")), DistanceWithin(hgeo, ageo, 1000.0)],
            group_count=GroupCount(amenity, Var("nearby")),
            order_by=OrderSpec(Var("nearby"), ascending=False),
        )

    def test_example1_shape(self):
        q = parse_query(fixtures.EXAMPLE1_QUERY)
        assert len(q.patterns) >= 3
        distance_filters = [f for f in q.filters if isinstance(f, DistanceWithin)]
        assert len(distance_filters) == 1
        assert distance_filters[0].threshold == 1000.0

    def test_unbound_projection_rejected(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("SELECT ?y WHERE { ?x ?p ?z }")
        assert "?y" in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?o", "ordering variable ?o is not an output variable"),
        ("SELECT ?s (GROUP-COUNT(?o) AS ?n) WHERE { ?s ?p ?o } ORDER BY DESC(?o)",
         "ordering variable ?o is not an output variable"),
        ("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?z", "ordering variable ?z is unbound"),
    ])
    def test_ordering_variable_must_be_an_output_variable(self, text, message):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text)
        assert (str(err.value), err.value.position) == (f"at offset 0: {message}", 0)

    def test_unknown_prefix_rejected(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("SELECT ?x WHERE { ?x rdf:type ?y }")
        assert "prefix" in str(err.value)

    def test_syntax_error_carries_position(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("SELECT ?x WHERE ?x")
        assert err.value.position > 0

    def test_a_keyword_expands_to_rdf_type(self):
        q = parse_query("SELECT ?x WHERE { ?x a <http://e/C> }")
        assert q.patterns[0].predicate == IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

    def test_literal_forms(self):
        q = parse_query(
            'PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n'
            'SELECT ?x WHERE { ?x <http://e/p> "chat"@fr . ?x <http://e/q> "5"^^xsd:decimal . '
            "?x <http://e/r> 7 }"
        )
        objects = [p.object for p in q.patterns]
        assert objects[0].language == "fr"
        assert objects[1].datatype == XSD_NS + "decimal"
        assert objects[2] == Literal("7", XSD_NS + "integer")

    def test_distance_requires_strict_less(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT ?a WHERE { ?a ?p ?b FILTER(geo:distance(?a, ?b) > 10) }")

    @pytest.mark.parametrize("text, position", [
        ("SELECT ?x WHERE { ?x <http://e/p> \u0663 }", 34),
        ("SELECT ?x WHERE { ?x <http://e/p> ?y } LIMIT \u0665", 45),
        ("SELECT ?x WHERE { ?x <http://e/p> 1\u0663 }", 35),
    ])
    def test_numbers_take_only_ascii_digits(self, text, position):
        with pytest.raises(QuerySyntaxError, match="unexpected character") as err:
            parse_query(text)
        assert err.value.position == position

    def test_limit_zero_allowed(self):
        q = parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT 0")
        assert q.limit == 0

    def test_unbound_filter_variable_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT ?x WHERE { ?x ?p ?o FILTER(?loose = 1) }")

    def test_boolean_combinators_parse(self):
        q = parse_query(
            "SELECT ?x WHERE { ?x <http://e/p> ?v "
            'FILTER(!(?v = "a") && (?v != "b" || ?v = "c")) }'
        )
        assert len(q.filters) == 1

    @pytest.mark.parametrize("text", [
        'SELECT ?x WHERE { ?x <http://e/p> ?y . ?y <http://e/q> "x" . FILTER(?x != <http://e/b>) . }',
        "SELECT ?x WHERE { FILTER(?x != <http://e/b>) . ?x <http://e/p> ?y }",
        "SELECT ?x WHERE { ?x <http://e/p> ?y FILTER(?y = 1) . FILTER(?y = 2) . ?y <http://e/q> ?x . }",
    ])
    def test_dot_after_filter_is_allowed(self, text):
        assert parse_query(text) == parse_query(text.replace(") .", ")"))

    @pytest.mark.parametrize("text", [
        "SELECT ?x WHERE { ?x <http://e/p> ?y FILTER(?y = 1) . . }",
        "SELECT ?x WHERE { ?x <http://e/p> ?y . . }",
    ])
    def test_two_dots_are_refused_at_the_second(self, text):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text)
        assert err.value.position == text.rindex(".")


class TestParseErrors:
    @pytest.mark.parametrize("escape", ["\\U00110000", "\\u12", "\\uD800", "\\q"])
    def test_bad_string_escape_is_a_syntax_error(self, escape):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(f'SELECT ?s WHERE {{ ?s ?p "{escape}" }}')
        assert err.value.position == 24

    def test_raw_surrogate_in_string_is_a_syntax_error(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query('SELECT ?s WHERE { ?s ?p "\ud800" }')
        assert err.value.position == 24

    def test_string_escapes_resolve(self):
        q = parse_query('SELECT ?s WHERE { ?s ?p "\\t\\"\\u00e9\\U0001F3E8" }')
        assert q.patterns[0].object == Literal('\t"é🏨')

    @pytest.mark.parametrize("text", [
        "SELECT ?s WHERE { ?s <> ?o }",
        "PREFIX p: <> SELECT ?s WHERE { ?s p: ?o }",
        'SELECT ?s WHERE { ?s ?p "x"^^<> }',
        'PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> SELECT ?s WHERE { ?s ?p "x"^^rdf:langString }',
        "SELECT ?s WHERE { ?s ?p ?o } LIMIT " + "9" * 5000,
        "SELECT ?s WHERE { ?s ?p ?o FILTER(" + "!" * 5000 + "?o = 1) }",
    ], ids=["empty-iri", "empty-prefixed-name", "empty-datatype", "langstring-datatype", "huge-limit",
            "deep-nesting"])
    def test_bad_terms_and_sizes_are_syntax_errors(self, text):
        with pytest.raises(QuerySyntaxError):
            parse_query(text)

    @pytest.mark.parametrize("count", [MAX_PATTERNS, MAX_PATTERNS + 1], ids=["at-limit", "one-over"])
    @pytest.mark.parametrize("separator", [" . ", " ", " FILTER(?o0 = 1) "], ids=["dot", "blank", "filter"])
    def test_patterns_past_the_limit_are_refused_at_the_first_over(self, count, separator):
        patterns = [f"?s <http://e/p> ?o{i}" for i in range(count)]
        text = "SELECT ?s WHERE { " + separator.join(patterns) + " }"
        if count == MAX_PATTERNS:
            assert len(parse_query(text).patterns) == MAX_PATTERNS
            return
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text)
        position = text.index(patterns[MAX_PATTERNS])
        assert str(err.value) == f"at offset {position}: more than {MAX_PATTERNS} triple patterns"
        assert err.value.position == position

    @given(st.one_of(hostile_text, hostile_text.map(lambda t: "SELECT ?s WHERE { ?s ?p " + t)))
    @settings(max_examples=500, deadline=None)
    def test_hostile_text_raises_only_syntax_errors(self, text):
        try:
            parse_query(text)
        except QuerySyntaxError:
            pass

    @pytest.mark.parametrize("text, message, position", [
        ('SELECT ?s WHERE { ?s ?p "a\\\nb" }', "unexpected character '\"'", 24),
        ("SELECT ?s # note\n$ WHERE { ?s ?p ?o }", "unexpected character '$'", 17),
        ("SELECT ?s WHERE { ?s ?p ?o } #\n\u00a7", "unexpected character '\u00a7'", 31),
    ], ids=["backslash-line-break-in-string", "after-comment", "after-empty-comment"])
    def test_unexpected_character_names_its_offset(self, text, message, position):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text)
        assert message in str(err.value)
        assert err.value.position == position

    @pytest.mark.parametrize("blank", ["\u3000", "\u00a0", "\u2028"], ids=["ideographic", "no-break", "line-sep"])
    def test_only_sparql_whitespace_separates_tokens(self, blank):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(f"SELECT{blank}?x WHERE {{ ?x <http://e/p> ?y }}")
        assert (err.value.position, f"unexpected character {blank!r}" in str(err.value)) == (6, True)

    @pytest.mark.parametrize("blank", [" ", "\t", "\r", "\n", "\r\n", " # a comment\n\t"])
    def test_sparql_whitespace_and_comments_separate_tokens(self, blank):
        text = "SELECT ?x WHERE { ?x <http://e/p> ?y }"
        assert parse_query(text.replace(" ", blank)) == parse_query(text)

    @pytest.mark.parametrize("tail", [" ", " \t\n ", "# a comment", "\n# a comment\n  "])
    @pytest.mark.parametrize("text", [fixtures.EXAMPLE1_QUERY, fixtures.EXAMPLE2_QUERY, "SELECT ?s WHERE { ?s ?p ?o }"])
    def test_trailing_blanks_and_comments_change_nothing(self, text, tail):
        assert parse_query(text.rstrip() + tail) == parse_query(text.rstrip())


# Reference tokenizer: one anchored match per token or run of blanks, and a
# string body written as its own alternation, not the shared fragment.
_REF_TOKEN_RE = re.compile(
    rf"""
      (?P<WS>[ \t\r\n]+|\#[^\n]*)
    | (?P<IRIREF><[^{IRI_FORBIDDEN}]*>)
    | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<STRING>"(?:[^"\\\n]|\\.)*")
    | (?P<NUMBER>[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<PNAME>[A-Za-z][A-Za-z0-9_-]*:[A-Za-z0-9_.-]*)
    | (?P<NAME>[A-Za-z][A-Za-z0-9_-]*)
    | (?P<LANGTAG>@{LANGTAG})
    | (?P<OP>\^\^|&&|\|\||<=|>=|!=|[{{}}().,=<>!])
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


def _token_outcome(tokenize, text: str):
    try:
        return "tokens", [tuple(tok) for tok in tokenize(text)]
    except QuerySyntaxError as exc:
        return "error", exc.position, str(exc)


@st.composite
def spliced_queries(draw) -> str:
    """A scenario query with a stretch cut out and hostile text put in."""
    text = draw(st.sampled_from([fixtures.EXAMPLE1_QUERY, fixtures.EXAMPLE2_QUERY]))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 8)))
    return text[:start] + draw(hostile_text) + text[end:]


class TestTokenizer:
    @given(st.one_of(spliced_queries(), hostile_text))
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_per_token_reference(self, text):
        assert _token_outcome(query._tokenize, text) == _token_outcome(reference_tokenize, text)


class TestNonFiniteAgainstOracle:
    """NaN and infinite decimals are non-numeric to the engine and to the
    brute-force oracle alike."""

    @pytest.fixture()
    def graph(self) -> Graph:
        decimal, place, amount = XSD_NS + "decimal", IRI("http://e/Place"), IRI("http://e/amount")
        a, b, c = IRI("http://e/a"), IRI("http://e/b"), IRI("http://e/c")
        g = Graph()
        for node, lat, lon, value in ((a, "NaN", "-1.1", "Infinity"), (b, "46.1004", "-1.1", "7"),
                                      (c, "46.1", "-1.1", "-Infinity")):
            g.insert(Triple(node, IRI(RDF_TYPE), place))
            g.insert(Triple(node, IRI(LATITUDE_PROP), Literal(lat, decimal)))
            g.insert(Triple(node, IRI(LONGITUDE_PROP), Literal(lon, decimal)))
            g.insert(Triple(node, amount, Literal(value, decimal)))
        g.insert(Triple(a, IRI(LATITUDE_PROP), Literal("46.1", decimal)))
        return g

    def test_nan_latitude_under_distance_within(self, graph):
        q = Query(
            projection=[Var("x"), Var("y")],
            patterns=[TriplePattern(Var("x"), IRI(RDF_TYPE), IRI("http://e/Place")),
                      TriplePattern(Var("y"), IRI(RDF_TYPE), IRI("http://e/Place"))],
            filters=[DistanceWithin(Var("x"), Var("y"), 100.0)],
        )
        rows = evaluate(q, graph).rows
        assert rows == brute_force_evaluate(q, list(graph))
        assert len(rows) == 9

    def test_infinity_amount_under_ordering_filter(self, graph):
        q = parse_query("SELECT ?x WHERE { ?x <http://e/amount> ?v FILTER(?v > 5) }")
        with pytest.raises(QueryTypeError):
            evaluate(q, graph)
        with pytest.raises(QueryTypeError):
            brute_force_evaluate(q, list(graph))

    def test_infinity_amounts_order_as_non_numeric(self, graph):
        q = parse_query("SELECT ?v WHERE { ?x <http://e/amount> ?v } ORDER BY ASC(?v)")
        rows = evaluate(q, graph).rows
        assert rows == brute_force_evaluate(q, list(graph))
        assert rows[0] == (Literal("7", XSD_NS + "decimal"),)


class TestGeoDistance:
    def test_coincident_points(self):
        p = GeoPoint(46.1591, -1.1520)
        assert geo_distance(p, p) == 0.0

    def test_antipodal_quarter(self):
        d = geo_distance(GeoPoint(0, 0), GeoPoint(0, 180))
        assert math.isclose(d, math.pi * 6_371_000, rel_tol=1e-9)

    def test_la_rochelle_to_paris_matches_oracle(self):
        a, b = GeoPoint(46.1591, -1.1520), GeoPoint(48.8566, 2.3522)
        assert math.isclose(geo_distance(a, b), haversine_reference(46.1591, -1.1520, 48.8566, 2.3522),
                            rel_tol=1e-9)

    @given(st.floats(-90, 90), st.floats(-180, 180), st.floats(-90, 90), st.floats(-180, 180))
    @settings(max_examples=300)
    def test_symmetry_exact_and_non_negative(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        assert geo_distance(a, b) == geo_distance(b, a)
        assert geo_distance(a, b) >= 0.0

    def test_zero_iff_identical(self):
        rng = random.Random(5)
        for _ in range(500):
            a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = GeoPoint(a.latitude + rng.uniform(0.001, 1), a.longitude)
            assert geo_distance(a, b) > 0
            assert geo_distance(a, GeoPoint(a.latitude, a.longitude)) == 0.0


def expected_ranking(ios, threshold: float = 1000.0):
    """Hotel ranking computed straight from the fixture objects."""
    def kind_of(io):
        return io.granules[GranuleKind.DUBLIN_CORE][0].fields["DublinCore/Type"]

    def position(io):
        return io.granules[GranuleKind.GEOLOCATIONS][0].fields["Geolocation/Position"]

    hotels = [io for io in ios if kind_of(io) == "hotel"]
    amenities = [io for io in ios if kind_of(io) != "hotel"]
    rows = []
    for hotel in hotels:
        hp = position(hotel)
        count = sum(
            1 for a in amenities
            if haversine_reference(hp.latitude, hp.longitude,
                                   position(a).latitude, position(a).longitude) < threshold
        )
        if count:
            iri = mint_io_iri("http://example.org/tifsem", hotel.id)
            rows.append((iri, Literal(str(count), XSD_NS + "integer")))
    rows.sort(key=lambda r: r[0].value)
    rows.sort(key=lambda r: int(r[1].lexical), reverse=True)
    return rows


class TestEvaluate:
    def test_any_query_on_empty_graph(self):
        q = parse_query("SELECT ?x WHERE { ?x ?p ?o }")
        assert evaluate(q, Graph()).rows == []

    def test_distance_threshold_is_strict(self):
        # One spot lies exactly at the threshold, the other a centimetre inside it.
        decimal, hub = XSD_NS + "decimal", IRI("http://e/hub")
        g = Graph()
        for node, lat in ((hub, "46.0"), (IRI("http://e/edge"), "46.009"), (IRI("http://e/near"), "46.0089999")):
            if node != hub:
                g.insert(Triple(hub, IRI("http://e/sees"), node))
            g.insert(Triple(node, IRI(LATITUDE_PROP), Literal(lat, decimal)))
            g.insert(Triple(node, IRI(LONGITUDE_PROP), Literal("-1.1", decimal)))
        threshold = geo_distance(GeoPoint(46.0, -1.1), GeoPoint(46.009, -1.1))
        q = parse_query("SELECT ?x WHERE { <http://e/hub> <http://e/sees> ?x "
                        f"FILTER(geo:distance(<http://e/hub>, ?x) < {threshold!r}) }}")
        assert evaluate(q, g).rows == [(IRI("http://e/near"),)]

    def test_example1_ranking_matches_io_level_oracle(self, materialized_graph, la_rochelle_ios):
        table = evaluate(parse_query(fixtures.EXAMPLE1_QUERY), materialized_graph)
        assert table.variables == ["hotel", "nearby"]
        assert table.rows == expected_ranking(la_rochelle_ios)

    def test_example1_excludes_isolated_hotel(self, materialized_graph):
        table = evaluate(parse_query(fixtures.EXAMPLE1_QUERY), materialized_graph)
        hotels = {row[0].value for row in table.rows}
        assert mint_io_iri("http://example.org/tifsem", "HOT-006").value not in hotels
        assert len(hotels) == 5

    def test_example2_returns_rural_events_with_audience(self, materialized_graph, la_rochelle_ios):
        table = evaluate(parse_query(fixtures.EXAMPLE2_QUERY), materialized_graph)
        assert table.variables == ["event", "audience", "profile"]
        expected_events = {
            mint_io_iri("http://example.org/tifsem", io.id).value
            for io in la_rochelle_ios
            if GranuleKind.CUSTOMERS in io.granules
            and io.granules[GranuleKind.CUSTOMERS][0].fields["Customers/Audience"] == "rural"
        }
        assert {row[0].value for row in table.rows} == expected_events
        assert all(row[1] == Literal("rural") for row in table.rows)
        assert all(isinstance(row[2], Literal) and row[2].lexical for row in table.rows)

    def test_pattern_order_independence(self, materialized_graph):
        q = parse_query(fixtures.EXAMPLE2_QUERY)
        baseline = evaluate(q, materialized_graph).rows
        for perm in itertools.permutations(q.patterns):
            shuffled = Query(
                projection=q.projection,
                patterns=list(perm),
                filters=q.filters,
                group_count=q.group_count,
                order_by=q.order_by,
                limit=q.limit,
            )
            assert evaluate(shuffled, materialized_graph).rows == baseline

    def test_tightening_threshold_never_adds_rows(self, materialized_graph):
        def hotels_at(threshold: float) -> set:
            text = fixtures.EXAMPLE1_QUERY.replace("< 1000", f"< {threshold}")
            return {row[0] for row in evaluate(parse_query(text), materialized_graph).rows}

        thresholds = [2000.0, 1000.0, 500.0, 250.0, 100.0]
        sets = [hotels_at(t) for t in thresholds]
        for wider, tighter in zip(sets, sets[1:]):
            assert tighter <= wider

    def test_incomparable_ordering_raises(self):
        g = Graph()
        from tifsem.graph import Triple
        g.insert(Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("abc")))
        q = Query(
            projection=[Var("v")],
            patterns=[TriplePattern(IRI("http://e/s"), IRI("http://e/p"), Var("v"))],
            filters=[Compare(Var("v"), "<", Literal("5", XSD_NS + "integer"))],
        )
        with pytest.raises(QueryTypeError):
            evaluate(q, g)

    def test_nan_literal_under_ordering_filter_is_incomparable(self):
        from tifsem.graph import Triple
        g = Graph()
        g.insert(Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("NaN", XSD_NS + "decimal")))
        text = "SELECT ?v WHERE { <http://e/s> <http://e/p> ?v . FILTER(?v > 5) }"
        with pytest.raises(QueryTypeError):
            evaluate(parse_query(text), g)
        ordered = "SELECT ?v WHERE { <http://e/s> <http://e/p> ?v . } ORDER BY DESC(?v)"
        assert evaluate(parse_query(ordered), g).rows == [(Literal("NaN", XSD_NS + "decimal"),)]

    def test_numeric_equality_across_datatypes(self):
        from tifsem.graph import Triple
        g = Graph()
        g.insert(Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("1.0", XSD_NS + "decimal")))
        q = Query(
            projection=[Var("x")],
            patterns=[TriplePattern(Var("x"), IRI("http://e/p"), Var("v"))],
            filters=[Compare(Var("v"), "=", Literal("1", XSD_NS + "integer"))],
        )
        assert len(evaluate(q, g).rows) == 1

    def test_limit_zero_gives_header_only(self, materialized_graph):
        text = fixtures.EXAMPLE2_QUERY.rstrip() + "\nLIMIT 0\n"
        table = evaluate(parse_query(text), materialized_graph)
        assert table.variables == ["event", "audience", "profile"]
        assert table.rows == []

    def test_limit_truncates_after_order(self, materialized_graph):
        text = fixtures.EXAMPLE1_QUERY.rstrip() + "\nLIMIT 2\n"
        table = evaluate(parse_query(text), materialized_graph)
        full = evaluate(parse_query(fixtures.EXAMPLE1_QUERY), materialized_graph)
        assert table.rows == full.rows[:2]


class TestOracleEquivalence:
    def test_randomized_cases_match_brute_force(self):
        rng = random.Random(90210)
        for case in range(120):
            g, q = random_case(rng)
            assert evaluate(q, g).rows == brute_force_evaluate(q, list(g)), f"case {case}"


def _outcome(run) -> object:
    """What ``run()`` returns, or QueryTypeError if it raises that."""
    try:
        return run()
    except QueryTypeError:
        return QueryTypeError


class TestPlanner:
    """Component-wise join order and early filters never change rows, nor
    whether a query raises."""

    @pytest.fixture()
    def places(self) -> Graph:
        decimal, rdf_type = XSD_NS + "decimal", IRI(RDF_TYPE)
        g = Graph()
        for i, (kind, lat) in enumerate([("Hotel", "46.1000"), ("Hotel", "46.1300"), ("Bar", "46.1005"),
                                         ("Bar", "46.1290"), ("Bar", "46.2000"), ("Shop", "46.1001")]):
            node = IRI(f"http://e/n{i}")
            g.insert(Triple(node, rdf_type, IRI(f"http://e/{kind}")))
            g.insert(Triple(node, IRI("http://e/rank"), Literal(str(i), XSD_NS + "integer")))
            g.insert(Triple(node, IRI(LATITUDE_PROP), Literal(lat, decimal)))
            g.insert(Triple(node, IRI(LONGITUDE_PROP), Literal("-1.1", decimal)))
        return g

    def test_disconnected_components_match_brute_force(self, places):
        q = parse_query(
            "SELECT ?h ?b WHERE { ?h a <http://e/Hotel> . ?b a <http://e/Bar> . "
            "?b <http://e/rank> ?r . FILTER(?r != 4) FILTER(geo:distance(?h, ?b) < 500) }")
        rows = evaluate(q, places).rows
        assert rows == brute_force_evaluate(q, list(places))
        assert [(h.value, b.value) for h, b in rows] == [("http://e/n0", "http://e/n2"),
                                                         ("http://e/n1", "http://e/n3")]

    def test_components_are_crossed_in_full_before_limit(self, places):
        text = "SELECT ?h ?b ?s WHERE { ?h a <http://e/Hotel> . ?b a <http://e/Bar> . ?s a <http://e/Shop> }"
        rows = evaluate(parse_query(text), places).rows
        assert len(rows) == 2 * 3 * 1
        assert len(set(rows)) == len(rows)
        for limit in (0, 1, 4, 6, 10):
            assert evaluate(parse_query(f"{text} LIMIT {limit}"), places).rows == rows[:limit]

    def test_empty_component_gives_no_rows(self, places):
        q = parse_query("SELECT ?h ?x WHERE { ?h a <http://e/Hotel> . ?x a <http://e/Museum> }")
        assert evaluate(q, places).rows == []

    def test_latitude_window_keeps_pairs_just_inside(self):
        # For these two points the latitude difference exceeds the threshold
        # turned into degrees by float rounding alone.
        decimal = XSD_NS + "decimal"
        g = Graph()
        for name, lat in (("a", "0.0036"), ("b", "0.0")):
            node = IRI(f"http://e/{name}")
            g.insert(Triple(node, IRI(RDF_TYPE), IRI(f"http://e/{name.upper()}")))
            g.insert(Triple(node, IRI(LATITUDE_PROP), Literal(lat, decimal)))
            g.insert(Triple(node, IRI(LONGITUDE_PROP), Literal("0.0", decimal)))
        distance = geo_distance(GeoPoint(0.0036, 0.0), GeoPoint(0.0, 0.0))
        text = "SELECT ?a ?b WHERE {{ ?a a <http://e/A> . ?b a <http://e/B> FILTER(geo:distance(?a, ?b) < {!r}) }}"
        assert len(evaluate(parse_query(text.format(math.nextafter(distance, math.inf))), g).rows) == 1
        assert evaluate(parse_query(text.format(distance)), g).rows == []

    # Box window edge cases: each point is (name, class, latitude, longitude),
    # a coordinate of None is not stated, and the rows must be the oracle's
    # in both orders of the two components.
    _PAIR = "SELECT ?a ?b WHERE {{ {0} . {1} FILTER(geo:distance(?a, ?b) < {2!r}) }}"

    @staticmethod
    def _box_rows(points, threshold: float) -> list:
        decimal, g = XSD_NS + "decimal", Graph()
        for name, cls, lat, lon in points:
            node = IRI(f"http://e/{name}")
            g.insert(Triple(node, IRI(RDF_TYPE), IRI(f"http://e/{cls}")))
            for prop, value in ((LATITUDE_PROP, lat), (LONGITUDE_PROP, lon)):
                if value is not None:
                    g.insert(Triple(node, IRI(prop), value if isinstance(value, Literal) else Literal(value, decimal)))
        results = []
        for first, second in itertools.permutations(["?a a <http://e/A>", "?b a <http://e/B>"]):
            q = parse_query(TestPlanner._PAIR.format(first, second, threshold))
            rows = evaluate(q, g).rows
            assert rows == brute_force_evaluate(q, list(g))
            results.append([(a.value[9:], b.value[9:]) for a, b in rows])
        assert results[0] == results[1]
        return results[0]

    def test_box_window_keeps_pairs_just_inside_in_longitude(self):
        # Same latitude, so only the longitude difference decides; the
        # oracle's haversine gives the same float for this pair.
        points = [("a", "A", "60.0", "0.0"), ("b", "B", "60.0", "0.0072")]
        distance = geo_distance(GeoPoint(60.0, 0.0), GeoPoint(60.0, 0.0072))
        assert distance == haversine_reference(60.0, 0.0, 60.0, 0.0072)
        assert self._box_rows(points, math.nextafter(distance, math.inf)) == [("a", "b")]
        assert self._box_rows(points, distance) == []

    def test_box_window_crosses_the_antimeridian(self):
        # 0.001 degrees apart the short way round, 359.999 the long way.
        points = [("a", "A", "10.0", "179.9995"), ("b", "B", "10.0", "-179.9995"), ("c", "B", "10.0", "0.0")]
        assert self._box_rows(points, 200.0) == [("a", "b")]

    def test_box_window_falls_back_near_a_pole(self):
        # 89.9995 plus the 200 m half-window reaches past 90 degrees, so
        # every longitude is tried; the pairs meet across the pole.
        points = [("a", "A", "89.9995", "0.0"), ("b", "B", "89.9995", "180.0"), ("c", "B", "89.9995", "90.0"),
                  ("d", "B", "-89.9995", "0.0")]
        assert self._box_rows(points, 200.0) == [("a", "b"), ("a", "c")]

    def test_box_window_just_below_the_fallback(self):
        # For a at 89.9865 and 1000 m, reach stays under 90 degrees and the
        # asin argument is about 0.998, so the longitude bound is about 172
        # degrees.  b1, 41.7 degrees round, is 998.6 m away; b2, 42 degrees
        # round, is 1004.5 m away; b3, 180 degrees round, lies outside the box.
        half = math.degrees(1000.0 / query.EARTH_RADIUS_M)
        reach = math.radians(89.9865 + half)
        assert reach < math.pi / 2 and 0.99 < math.sin(math.radians(half) / 2) / math.cos(reach) < 1
        points = [("a", "A", "89.9865", "0.0"), ("b1", "B", "89.98993", "41.7"), ("b2", "B", "89.98993", "42.0"),
                  ("b3", "B", "89.9865", "180.0")]
        assert self._box_rows(points, 1000.0) == [("a", "b1")]

    @pytest.mark.parametrize("bad", [None, Literal("NaN", XSD_NS + "double")], ids=["missing", "nan"])
    def test_box_window_skips_nodes_without_a_latitude(self, bad):
        points = [("a", "A", "46.1", "-1.1"), ("a2", "A", bad, "-1.1"), ("b", "B", "46.1001", "-1.1"),
                  ("b2", "B", bad, "-1.1")]
        assert self._box_rows(points, 500.0) == [("a", "b")]

    @pytest.mark.parametrize("op, join", [("=", "||"), ("!=", "&&")])
    def test_flat_20000_term_filter_evaluates(self, places, op, join):
        terms = [f"?r {op} {i + 10}" for i in range(19_999)] + [f"?r {op} 3"]
        rows, expected = self._rows_and_oracle(
            f"SELECT ?x WHERE {{ ?x <http://e/rank> ?r FILTER({f' {join} '.join(terms)}) }}", places)
        names = ["n3"] if join == "||" else ["n0", "n1", "n2", "n4", "n5"]
        assert rows == expected == [(IRI(f"http://e/{n}"),) for n in names]

    def test_false_equality_after_raising_filter_still_raises(self, places):
        q = Query(
            projection=[Var("x")],
            patterns=[TriplePattern(Var("x"), IRI(RDF_TYPE), Var("t"))],
            filters=[Compare(Var("t"), "<", Literal("5", XSD_NS + "integer")),
                     Compare(Var("x"), "=", IRI("http://e/nowhere"))],
        )
        with pytest.raises(QueryTypeError):
            evaluate(q, places)

    def test_false_equality_before_raising_filter_does_not_raise(self, places):
        q = Query(
            projection=[Var("x")],
            patterns=[TriplePattern(Var("x"), IRI(RDF_TYPE), Var("t"))],
            filters=[Compare(Var("x"), "=", IRI("http://e/nowhere")),
                     Compare(Var("t"), "<", Literal("5", XSD_NS + "integer"))],
        )
        assert evaluate(q, places).rows == []

    @staticmethod
    def _rows_and_oracle(text: str, g: Graph):
        q = parse_query(text)
        return evaluate(q, g).rows, brute_force_evaluate(q, list(g))

    @pytest.fixture()
    def match_calls(self, monkeypatch) -> collections.Counter:
        """Counts index probes, calls of ``Graph._match`` (which ``match``
        reads too), ``Graph.objects`` and ``Graph.subjects``, under the key
        "match"."""
        calls = collections.Counter()

        def counted(probe):
            def wrapper(graph, *args, **kwargs):
                calls["match"] += 1
                return probe(graph, *args, **kwargs)
            return wrapper

        for name in ("_match", "objects", "subjects"):
            monkeypatch.setattr(Graph, name, counted(getattr(Graph, name)))
        return calls

    def test_equality_filter_starts_the_join(self, places, match_calls):
        rows, expected = self._rows_and_oracle(
            "SELECT ?x ?r WHERE { ?x <http://e/rank> ?r . ?x a ?t FILTER(?t = <http://e/Shop>) }", places)
        assert rows == expected and [x.value for x, _ in rows] == ["http://e/n5"]
        # ?x a <http://e/Shop> first, then the rank of its one match.
        assert match_calls["match"] == 2

    @pytest.mark.parametrize("constant", ["1", "1.0", "1e0"])
    def test_numeric_equality_is_not_folded(self, places, constant):
        # Each spelling equals the integer rank "1" by value only.
        rows, expected = self._rows_and_oracle(
            f"SELECT ?x WHERE {{ ?x <http://e/rank> ?r FILTER({constant} = ?r) }}", places)
        assert rows == expected == [(IRI("http://e/n1"),)]

    @pytest.mark.parametrize("condition, names", [
        ("?t = <http://e/Hotel> || ?t = <http://e/Shop>", ["n0", "n1", "n5"]),
        ("!(?t = <http://e/Bar>)", ["n0", "n1", "n5"]),
    ])
    def test_equality_inside_or_or_not_is_not_folded(self, places, condition, names):
        rows, expected = self._rows_and_oracle(f"SELECT ?x WHERE {{ ?x a ?t FILTER({condition}) }}", places)
        assert rows == expected == [(IRI(f"http://e/{n}"),) for n in names]

    def test_equality_after_raising_filter_on_its_variable_still_raises(self, places):
        # Folded, the equality would leave no row for the ordering to refuse.
        q = parse_query('SELECT ?x WHERE { ?x a ?t FILTER(?t < 5) FILTER("nowhere" = ?t) }')
        with pytest.raises(QueryTypeError):
            brute_force_evaluate(q, list(places))
        with pytest.raises(QueryTypeError):
            evaluate(q, places)

    def test_two_equalities_on_one_variable_give_no_rows(self, places):
        rows, expected = self._rows_and_oracle(
            "SELECT ?x WHERE { ?x a ?t FILTER(?t = <http://e/Hotel>) FILTER(<http://e/Bar> = ?t) }", places)
        assert rows == expected == []

    def test_deep_filters_differing_only_innermost_are_told_apart(self, places):
        # Comparing two such filters with ``==`` recurses 600 levels through both.
        deep = "!" * 600
        q = parse_query(f"SELECT ?x WHERE {{ ?x <http://e/rank> ?r "
                        f"FILTER({deep}?r != 1) FILTER({deep}?r != 2) }}")
        assert sorted(row[0].value for row in evaluate(q, places).rows) == [
            "http://e/n0", "http://e/n3", "http://e/n4", "http://e/n5"]

    @pytest.mark.parametrize("text", [
        'SELECT ?x WHERE { ?x ?p ?o FILTER(?p = "rank") }',
        'SELECT ?x WHERE { ?x a ?t FILTER(?x = "n0") }',
    ])
    def test_equality_binding_a_literal_where_none_can_be_gives_no_rows(self, places, text):
        rows, expected = self._rows_and_oracle(text, places)
        assert rows == expected == []

    # Join kernel regressions: each step works out its bound and free
    # positions from its first row.
    _KERNEL_GRAPH = from_ntriples(
        '<http://e/a> <http://e/p> <http://e/a> .\n'
        '<http://e/a> <http://e/p> <http://e/b> .\n'
        '<http://e/b> <http://e/p> <http://e/b> .\n'
        '<http://e/b> <http://e/p> <http://e/a> .\n'
        '<http://e/a> <http://e/p> <http://e/c> .\n'
        '<http://e/a> <http://e/v> "lit" .\n'
        '<http://e/a> <http://e/v> _:b .\n'
        '<http://e/a> <http://e/v> <http://e/q> .\n'
        '<http://e/b> <http://e/q> <http://e/c> .\n'
        '<http://e/c> <http://e/q> "x" .\n'
        '_:b <http://e/q> <http://e/a> .\n'
    )

    @pytest.mark.parametrize("text, expected", [
        ("SELECT ?x WHERE { ?x <http://e/p> ?x }", ["<http://e/a>", "<http://e/b>"]),
        ("SELECT ?x WHERE { ?x <http://e/q> ?x }", []),
        ("SELECT ?x WHERE { <http://e/a> <http://e/p> ?x . ?x <http://e/p> ?x }",
         ["<http://e/a>", "<http://e/b>"]),
    ])
    def test_repeated_free_variable_meets_one_value(self, text, expected):
        rows, oracle = self._rows_and_oracle(text, self._KERNEL_GRAPH)
        assert rows == oracle
        assert [term_to_ntriples(x) for x, in rows] == expected

    def test_literal_binding_used_as_subject_extends_to_nothing(self):
        rows, oracle = self._rows_and_oracle(
            "SELECT ?o ?z WHERE { <http://e/a> <http://e/v> ?o . ?o <http://e/q> ?z }", self._KERNEL_GRAPH)
        assert rows == oracle == [(BlankNode("b"), IRI("http://e/a"))]

    @pytest.mark.parametrize("subject", ["<http://e/b>", "?s"])
    def test_literal_or_blank_binding_used_as_predicate_extends_to_nothing(self, subject):
        rows, oracle = self._rows_and_oracle(
            f"SELECT ?v ?z WHERE {{ <http://e/a> <http://e/v> ?v . {subject} ?v ?z }}", self._KERNEL_GRAPH)
        assert rows == oracle
        assert {v for v, _ in rows} == {IRI("http://e/q")}

    def test_all_bound_check_pattern_keeps_each_row_per_match(self, match_calls):
        rows, oracle = self._rows_and_oracle(
            "SELECT ?x ?y WHERE { ?x <http://e/p> ?y . ?y <http://e/p> ?x }", self._KERNEL_GRAPH)
        assert rows == oracle
        assert [(x.value, y.value) for x, y in rows] == [
            ("http://e/a", "http://e/a"), ("http://e/a", "http://e/b"),
            ("http://e/b", "http://e/a"), ("http://e/b", "http://e/b")]
        # One scan of ?x <p> ?y, then one check per row it gave.
        assert match_calls["match"] == 1 + 5

    @pytest.mark.parametrize("check", ["?y <http://e/p> <http://e/a>", "<http://e/b> <http://e/p> ?y"])
    def test_check_against_a_constant_probes_once_per_step(self, match_calls, check):
        rows, oracle = self._rows_and_oracle(
            f"SELECT ?x ?y WHERE {{ ?x <http://e/p> ?y . {check} FILTER(?x = <http://e/a>) }}", self._KERNEL_GRAPH)
        assert rows == oracle
        assert [(x.value, y.value) for x, y in rows] == [("http://e/a", "http://e/a"), ("http://e/a", "http://e/b")]
        # The objects of <a> <p>, three rows, then one key set for the check.
        assert match_calls["match"] == 1 + 1

    @pytest.mark.parametrize("text, expected", [
        # A check against a constant object keeps the row bound to a blank
        # node, not the one bound to a literal.
        ("SELECT ?o WHERE { ?s <http://e/v> ?o . ?o <http://e/q> <http://e/a> FILTER(?s = <http://e/a>) }",
         [(BlankNode("b"),)]),
        ('SELECT ?y WHERE { ?x <http://e/p> ?y . ?y <http://e/v> "lit" FILTER(?x = <http://e/b>) }',
         [(IRI("http://e/a"),)]),
        # A check whose predicate is read from the row: a literal, a blank
        # node and an IRI.
        ("SELECT ?v WHERE { ?s <http://e/v> ?v . <http://e/b> ?v <http://e/c> FILTER(?s = <http://e/a>) }",
         [(IRI("http://e/q"),)]),
        # A check step that no bind comes before: the folded ?x starts the row.
        ('SELECT ?x WHERE { ?x <http://e/q> "x" FILTER(?x = <http://e/c>) }', [(IRI("http://e/c"),)]),
    ])
    def test_key_probe_steps(self, text, expected):
        rows, oracle = self._rows_and_oracle(text, self._KERNEL_GRAPH)
        assert rows == oracle == expected

    # Fused steps: a bind followed in join order by a check of the variable
    # it binds against a constant predicate and object.  "event" has more
    # subjects than <a> has objects, so a bind from <a> is joined first.
    _FUSED_GRAPH = from_ntriples(
        '<http://e/a> <http://e/has> <http://e/d1> .\n'
        '<http://e/a> <http://e/has> <http://e/d2> .\n'
        '<http://e/a> <http://e/has> "lit" .\n'
        '<http://e/a> <http://e/has> _:g .\n'
        '<http://e/b> <http://e/has> <http://e/d1> .\n'
        '<http://e/b> <http://e/has> <http://e/d3> .\n'
        '<http://e/b> <http://e/has> <http://e/b> .\n'
        '<http://e/b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Bar> .\n'
        '<http://e/has> <http://e/has> <http://e/d1> .\n'
        '<http://e/has> <http://e/has> <http://e/d2> .\n'
        '_:g <http://e/has> <http://e/d3> .\n'
        '<http://e/d1> <http://e/kind> "event" .\n'
        '<http://e/d2> <http://e/kind> "hotel" .\n'
        '<http://e/d3> <http://e/kind> "event" .\n'
        '_:g <http://e/kind> "event" .\n'
        '<http://e/e1> <http://e/kind> "event" .\n'
        '<http://e/e2> <http://e/kind> "event" .\n'
        '<http://e/e3> <http://e/kind> "event" .\n'
        '<http://e/d1> <http://e/in> <http://e/b> .\n'
        '<http://e/d3> <http://e/in> <http://e/a> .\n'
    )

    @pytest.mark.parametrize("text, expected, steps", [
        # An object-side bind checked by ?new q c: the literal and <d2> fail.
        ('SELECT ?x ?d WHERE { ?x <http://e/has> ?d . ?d <http://e/kind> "event" FILTER(?x = <http://e/a>) }',
         [("<http://e/a>", "<http://e/d1>"), ("<http://e/a>", "_:g")], 1),
        # A subject-side bind, checked against one subject: a bare bucket.
        ("SELECT ?x WHERE { ?x <http://e/has> ?d . ?x a <http://e/Bar> FILTER(?d = <http://e/d1>) }",
         [("<http://e/b>",)], 1),
        # A check of shape c q ?new.
        ("SELECT ?d WHERE { ?x <http://e/has> ?d . <http://e/b> <http://e/has> ?d FILTER(?x = <http://e/a>) }",
         [("<http://e/d1>",)], 1),
        ('SELECT ?x ?d WHERE { ?x <http://e/has> ?d . ?d <http://e/kind> "hotel" FILTER(?x = <http://e/a>) }',
         [("<http://e/a>", "<http://e/d2>")], 1),
        # A bind from two constants, then one whose subject may be a literal.
        ('SELECT ?o ?d WHERE { <http://e/a> <http://e/has> ?o . ?o <http://e/has> ?d . ?d <http://e/kind> "event" }',
         [("_:g", "<http://e/d3>")], 2),
        # A variable repeated in the bind, whose predicate is then read from
        # the row, so it goes through ``Graph._match`` and is not fused; and
        # one repeated in the check, which has no constant object.
        ('SELECT ?p ?d WHERE { ?p ?p ?d . ?d <http://e/kind> "event" FILTER(?p = <http://e/has>) }',
         [("<http://e/has>", "<http://e/d1>")], 2),
        ("SELECT ?x ?d WHERE { ?x <http://e/has> ?d . ?d <http://e/has> ?d FILTER(?x = <http://e/b>) }",
         [("<http://e/b>", "<http://e/b>")], 2),
        # The fused variable read again by a filter, a pattern and the projection.
        ('SELECT ?d ?z WHERE { ?x <http://e/has> ?d . ?d <http://e/kind> "event" . ?d <http://e/in> ?z '
         "FILTER(?x = <http://e/b>) FILTER(?d != <http://e/d1>) }",
         [("<http://e/d3>", "<http://e/a>")], 2),
        ('SELECT ?x (GROUP-COUNT(?d) AS ?n) WHERE { ?x <http://e/has> ?d . ?d <http://e/kind> "event" '
         "FILTER(?x = <http://e/b>) }",
         [("<http://e/b>", '"2"^^<http://www.w3.org/2001/XMLSchema#integer>')], 1),
        # A check with no keys ends the join with no rows.
        ('SELECT ?x ?z WHERE { ?x <http://e/has> ?d . ?d <http://e/kind> "museum" . ?d <http://e/in> ?z '
         "FILTER(?x = <http://e/a>) }", [], 1),
        # A bind from two constants, checked by ?new q c.
        ('SELECT ?d WHERE { <http://e/b> <http://e/has> ?d . ?d <http://e/kind> "event" }',
         [("<http://e/d1>",), ("<http://e/d3>",)], 1),
    ])
    def test_bind_and_check_run_as_one_step(self, monkeypatch, text, expected, steps):
        calls = collections.Counter()
        extend = query._extend

        def counted(*args):
            calls["steps"] += 1
            return extend(*args)

        monkeypatch.setattr(query, "_extend", counted)
        rows, oracle = self._rows_and_oracle(text, self._FUSED_GRAPH)
        assert rows == oracle
        assert [tuple(map(term_to_ntriples, row)) for row in rows] == expected
        assert calls["steps"] == steps

    @pytest.mark.parametrize("text", [
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
        "SELECT ?x ?s ?p ?o WHERE { ?x <http://e/q> <http://e/c> . ?s ?p ?o }",
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s ?p ?o }",
    ])
    def test_step_with_every_position_free(self, text):
        rows, oracle = self._rows_and_oracle(text, self._KERNEL_GRAPH)
        assert rows == oracle
        assert len(rows) == len(self._KERNEL_GRAPH)

    def test_calls_go_through_module_names(self, materialized_graph, monkeypatch):
        """Tracing counts calls by rebinding these names, so evaluation
        must look them up at call time."""
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(query, "resolve_point", counted("resolve_point", query.resolve_point))
        monkeypatch.setattr(query, "geo_distance", counted("geo_distance", query.geo_distance))
        for name in ("match", "_match", "objects", "subjects"):
            monkeypatch.setattr(Graph, name, counted(name, getattr(Graph, name)))
        evaluate(parse_query(fixtures.EXAMPLE1_QUERY), materialized_graph)
        assert calls["resolve_point"] > 0 and calls["geo_distance"] > 0
        # Every join step of example1 reads index keys.
        assert calls["objects"] > 0 and calls["subjects"] > 0 and calls["match"] == calls["_match"] == 0
        calls.clear()
        evaluate(parse_query(fixtures.EXAMPLE2_QUERY), materialized_graph)
        # So does every join step of example2.
        assert calls["objects"] > 0 and calls["subjects"] > 0 and calls["_match"] == 0

    def test_filter_emptying_the_start_row_gives_no_rows(self):
        # The last filter needs only the folded ?v0, so it runs on the start
        # row and empties it before ?v2, which the second filter needs, has a
        # column.
        g = from_ntriples('<http://g/n0> <http://g/p> "46.000"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n')
        rows, oracle = self._rows_and_oracle(
            "SELECT ?v0 WHERE { ?v0 ?v1 ?v2 FILTER(?v0 = <http://g/n0>) FILTER(?v2 = 46.000) "
            "FILTER(!(?v0 = <http://g/n0>)) }", g)
        assert rows == oracle == []

    @staticmethod
    def _count_resolve_point(monkeypatch) -> collections.Counter:
        calls = collections.Counter()
        resolve = query.resolve_point

        def counted(*args):
            calls["resolve_point"] += 1
            return resolve(*args)

        monkeypatch.setattr(query, "resolve_point", counted)
        return calls

    def test_coordinates_are_resolved_once_per_graph(self, materialized_graph, monkeypatch):
        g = Graph(materialized_graph)
        calls = self._count_resolve_point(monkeypatch)
        q = parse_query(fixtures.EXAMPLE1_QUERY)
        first = evaluate(q, g).rows
        assert first and calls["resolve_point"] > 0
        calls.clear()
        assert evaluate(q, g).rows == first
        assert calls["resolve_point"] == 0

    def test_concurrent_readers_share_the_coordinate_cache(self, materialized_graph):
        g = Graph(materialized_graph)
        q = parse_query(fixtures.EXAMPLE1_QUERY)
        expected = evaluate(q, Graph(materialized_graph)).rows
        results: list = []

        def read() -> None:
            for _ in range(3):
                results.append(evaluate(q, g).rows)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert results == [expected] * 12

    def test_coordinates_inserted_later_are_seen(self, places, monkeypatch):
        calls = self._count_resolve_point(monkeypatch)
        decimal, shop = XSD_NS + "decimal", IRI("http://e/n6")
        places.insert(Triple(shop, IRI(RDF_TYPE), IRI("http://e/Shop")))
        q = parse_query("SELECT ?h ?s WHERE { ?h a <http://e/Hotel> . ?s a <http://e/Shop> "
                        "FILTER(geo:distance(?h, ?s) < 500) }")
        assert [s.value for _, s in evaluate(q, places).rows] == ["http://e/n5"]
        places.insert(Triple(shop, IRI(LATITUDE_PROP), Literal("46.1302", decimal)))
        places.insert(Triple(shop, IRI(LONGITUDE_PROP), Literal("-1.1", decimal)))
        calls.clear()
        rows = evaluate(q, places).rows
        assert calls["resolve_point"] > 0
        assert rows == brute_force_evaluate(q, list(places))
        assert [(h.value, s.value) for h, s in rows] == [("http://e/n0", "http://e/n5"),
                                                         ("http://e/n1", "http://e/n6")]

    @given(planner_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_random_queries_match_brute_force_in_any_pattern_order(self, case, rng):
        g, q = case
        expected = _outcome(lambda: brute_force_evaluate(q, list(g)))
        assert _outcome(lambda: evaluate(q, g).rows) == expected
        patterns = list(q.patterns)
        rng.shuffle(patterns)
        shuffled = Query(projection=q.projection, patterns=patterns, filters=q.filters)
        assert _outcome(lambda: evaluate(shuffled, g).rows) == expected

    @given(bind_check_chains())
    @settings(max_examples=300, deadline=None)
    def test_bind_then_check_chains_match_brute_force(self, case):
        g, q = case
        assert evaluate(q, g).rows == brute_force_evaluate(q, list(g))


class TestFormatting:
    def test_csv_header_and_terms(self, materialized_graph):
        table = evaluate(parse_query(fixtures.EXAMPLE2_QUERY), materialized_graph)
        lines = to_csv(table).splitlines()
        assert lines[0] == "event,audience,profile"
        assert lines[1].startswith("<http://example.org/tifsem/io/EVT-")
        assert len(lines) == 1 + len(table.rows)

    def test_table_format_lists_variables(self, materialized_graph):
        table = evaluate(parse_query(fixtures.EXAMPLE2_QUERY), materialized_graph)
        rendered = to_text_table(table)
        assert rendered.splitlines()[0].split() == ["event", "audience", "profile"]
