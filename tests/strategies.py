"""Hypothesis strategies for terms, triples and graphs."""

from __future__ import annotations

import string

from hypothesis import strategies as st

from tifsem.graph import XSD_NS, BlankNode, Graph, IRI, Literal, Triple

_safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=30,
)

_iri_local = st.text(alphabet=string.ascii_letters + string.digits + "._-~", min_size=1, max_size=12)

iris = st.builds(lambda local: IRI("http://example.org/t/" + local), _iri_local)

blank_nodes = st.builds(
    BlankNode,
    st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1, max_size=10),
)

_lang_tags = st.from_regex(r"[a-z]{2}(-[A-Z]{2})?", fullmatch=True)

plain_literals = st.builds(Literal, _safe_text)
typed_literals = st.builds(
    Literal,
    _safe_text,
    st.sampled_from([XSD_NS + "decimal", XSD_NS + "integer", XSD_NS + "date", "http://example.org/dt"]),
)
lang_literals = st.builds(lambda lex, lang: Literal(lex, language=lang), _safe_text, _lang_tags)
numeric_literals = st.builds(
    lambda n: Literal(str(n), XSD_NS + "decimal"),
    st.decimals(allow_nan=False, allow_infinity=False, places=3, min_value=-10**6, max_value=10**6),
)

literals = st.one_of(plain_literals, typed_literals, lang_literals, numeric_literals)
terms = st.one_of(iris, blank_nodes, literals)
subjects = st.one_of(iris, blank_nodes)

triples = st.builds(Triple, subjects, iris, terms)


@st.composite
def graphs(draw, max_size: int = 40) -> Graph:
    return Graph(draw(st.lists(triples, max_size=max_size)))


# Hostile text for the readers' error contract: mostly N-Triples and query
# punctuation and escape fragments, so that drawn text often gets past its
# first few characters before going wrong.
_FRAGMENTS = st.sampled_from(
    list('<>"\\_:@^.# \t\r\n{}()?!=,') + [
        "\\u", "\\U", "\\u00E9", "\\uD800", "\\U00110000", "\\U0001F3E8", "\\n", "\\'",
        "\\x", "^^", "_:b", "@en", "@en-GB", "<http://e/x>", "<>", '"x"', "e", "1", "-", "é",
        "?x", "p:", "PREFIX p: ", "FILTER", "LIMIT ", "geo:distance",
    ]
)
hostile_text = st.lists(
    st.one_of(_FRAGMENTS, _FRAGMENTS, _FRAGMENTS, st.characters()), max_size=40,
).map("".join)


# ---------------------------------------------------------------------------
# Seeded random (graph, query) cases for oracle-equivalence checks.

import random  # noqa: E402
from decimal import Decimal  # noqa: E402

from tifsem.graph import RDF_TYPE  # noqa: E402
from tifsem.ontology import LATITUDE_PROP, LONGITUDE_PROP  # noqa: E402
from tifsem.query import (  # noqa: E402
    Compare, DistanceWithin, GroupCount, Not, Or, OrderSpec, Query, TriplePattern, Var,
)
from tifsem.serialize import term_to_ntriples  # noqa: E402

_XSD_INTEGER = XSD_NS + "integer"
_XSD_DECIMAL = XSD_NS + "decimal"


def random_case(rng: random.Random, max_triples: int = 200) -> tuple[Graph, Query]:
    """One seeded (graph, query) pair: <= ``max_triples`` triples, 1..3
    patterns, at most one filter.  Numeric comparisons only ever see numeric
    bindings; distance filters only ever see coordinate-bearing nodes."""
    g = Graph()
    subjects = [IRI(f"http://g/s{i}") for i in range(12)]
    plain_preds = [IRI(f"http://g/p{i}") for i in range(4)]
    num_pred = IRI("http://g/amount")
    place_type = IRI("http://g/Place")
    rdf_type = IRI(RDF_TYPE)
    words = ["alpha", "beta", "gamma", "delta"]

    place_nodes = [IRI(f"http://g/place{i}") for i in range(rng.randint(0, 5))]
    for node in place_nodes:
        g.insert(Triple(node, rdf_type, place_type))
        lat = Decimal(f"{46 + rng.uniform(-0.02, 0.02):.5f}")
        lon = Decimal(f"{-1 + rng.uniform(-0.02, 0.02):.5f}")
        g.insert(Triple(node, IRI(LATITUDE_PROP), Literal(str(lat), _XSD_DECIMAL)))
        g.insert(Triple(node, IRI(LONGITUDE_PROP), Literal(str(lon), _XSD_DECIMAL)))

    for _ in range(rng.randint(0, max_triples - len(g))):
        subject = rng.choice(subjects + place_nodes)
        roll = rng.random()
        if roll < 0.25:
            g.insert(Triple(subject, num_pred, Literal(str(rng.randint(0, 40)), _XSD_INTEGER)))
        elif roll < 0.55:
            g.insert(Triple(subject, rng.choice(plain_preds), Literal(rng.choice(words))))
        else:
            g.insert(Triple(subject, rng.choice(plain_preds), rng.choice(subjects)))

    ordered = sorted(g, key=lambda t: (term_to_ntriples(t.subject), term_to_ntriples(t.predicate),
                                       term_to_ntriples(t.object)))
    var_pool = [Var("v0"), Var("v1"), Var("v2")]

    def patterns_from_graph(count: int) -> list[TriplePattern]:
        out = []
        for _ in range(count):
            t = rng.choice(ordered)
            s = rng.choice(var_pool) if rng.random() < 0.8 else t.subject
            p = rng.choice(var_pool) if rng.random() < 0.15 else t.predicate
            o = rng.choice(var_pool) if rng.random() < 0.6 else t.object
            out.append(TriplePattern(s, p, o))
        return out

    filters = []
    roll = rng.random()
    if roll < 0.25 and len(place_nodes) >= 1:
        patterns = [
            TriplePattern(Var("v0"), rdf_type, place_type),
            TriplePattern(Var("v1"), rdf_type, place_type),
        ]
        filters.append(DistanceWithin(Var("v0"), Var("v1"), rng.choice([200.0, 900.0, 2500.0])))
    elif roll < 0.5 and ordered:
        patterns = patterns_from_graph(rng.randint(1, 2))
        patterns.append(TriplePattern(rng.choice(var_pool[:2]), num_pred, Var("v2")))
        filters.append(Compare(Var("v2"), rng.choice(["<", "<=", ">", ">=", "=", "!="]),
                               Literal(str(rng.randint(0, 40)), _XSD_INTEGER)))
    elif ordered:
        patterns = patterns_from_graph(rng.randint(1, 3))
        loose_vars = sorted(set().union(*(p.variables() for p in patterns)))
        if loose_vars and rng.random() < 0.5:
            constant = rng.choice(ordered).object
            filters.append(Compare(Var(rng.choice(loose_vars)), rng.choice(["=", "!="]), constant))
    else:
        patterns = [TriplePattern(Var("v0"), rng.choice(plain_preds), Literal("missing"))]

    pattern_vars = sorted(set().union(*(p.variables() for p in patterns)))
    if not pattern_vars:
        patterns[0] = TriplePattern(Var("v0"), patterns[0].predicate, patterns[0].object)
        pattern_vars = ["v0"]

    projection = [Var(n) for n in rng.sample(pattern_vars, rng.randint(1, len(pattern_vars)))]
    group_count = None
    if rng.random() < 0.3:
        group_count = GroupCount(Var(rng.choice(pattern_vars)), Var("cnt"))

    order_by = None
    roll = rng.random()
    if roll < 0.3 and group_count is not None:
        order_by = OrderSpec(Var("cnt"), ascending=rng.random() < 0.5)
    elif roll < 0.5:
        order_by = OrderSpec(Var(rng.choice([v.name for v in projection])), ascending=rng.random() < 0.5)

    limit = rng.choice([None, None, None, 0, 1, 3, 10])
    query = Query(
        projection=projection,
        patterns=patterns,
        filters=filters,
        group_count=group_count,
        order_by=order_by,
        limit=limit,
    )
    return g, query


# ---------------------------------------------------------------------------
# Small (graph, query) pairs for the query planner: up to 5 patterns over a
# handful of nodes and 3 filters, so the brute-force oracle stays cheap.

_PLAN_NODES = [IRI(f"http://g/n{i}") for i in range(4)]
_PLAN_PREDICATES = [IRI("http://g/p0"), IRI("http://g/p1"), IRI(RDF_TYPE)]
_PLAN_VARS = [Var(f"v{i}") for i in range(5)]
# Twins are different terms that are easy to confuse: "1.0"^^xsd:decimal
# equals the integer 1 by value only, and "x"@en is not "x".
_PLAN_TWIN_PAIRS = [(Literal("1", _XSD_INTEGER), Literal("1.0", _XSD_DECIMAL)), (Literal("x"), Literal("x", language="en"))]
_PLAN_TWINS = {a: b for pair in _PLAN_TWIN_PAIRS for a, b in (pair, pair[::-1])}
_PLAN_NUMERIC_TWINS = _PLAN_TWIN_PAIRS[0]
_PLAN_LITERALS = [Literal(str(i), _XSD_INTEGER) for i in (0, 2, 3)] + [Literal("y")] + list(_PLAN_TWINS)


@st.composite
def planner_cases(draw) -> tuple[Graph, Query]:
    g = Graph()
    for node in _PLAN_NODES:
        if draw(st.booleans()):
            lat, lon = draw(st.integers(0, 20)), draw(st.integers(0, 20))
            g.insert(Triple(node, IRI(LATITUDE_PROP), Literal(f"46.{lat:03d}", _XSD_DECIMAL)))
            g.insert(Triple(node, IRI(LONGITUDE_PROP), Literal(f"-1.{lon:03d}", _XSD_DECIMAL)))
    for s, p, o in draw(st.lists(st.tuples(st.sampled_from(_PLAN_NODES), st.sampled_from(_PLAN_PREDICATES),
                                           st.sampled_from(_PLAN_NODES + _PLAN_LITERALS)), min_size=1, max_size=12)):
        g.insert(Triple(s, p, o))

    # Each pattern is a triple of the graph with some positions made
    # variables (subjects most often, predicates least).  ``seen`` keeps the
    # terms each variable replaced.  In two draws of three a variable only
    # ever replaces one term (a term no free variable can replace stays),
    # so the join holds at least the row that puts every term back; the
    # other draws may put any variable anywhere.
    ordered = sorted(g, key=lambda t: tuple(term_to_ntriples(x) for x in (t.subject, t.predicate, t.object)))
    # A triple whose object is a number with a twin is drawn as often as all
    # the others together, so that a variable often replaces that number.
    statements = st.sampled_from(ordered)
    numeric_twin_statements = [t for t in ordered if t.object in _PLAN_NUMERIC_TWINS]
    if numeric_twin_statements:
        statements = st.one_of(statements, st.sampled_from(numeric_twin_statements))
    patterns, seen = [], {}
    one_term_each = draw(st.integers(0, 2)) > 0

    def variable(term):
        fits = [v for v in _PLAN_VARS if not one_term_each or all(x == term for x in seen.get(v.name, ()))]
        if not fits:
            return term
        var = draw(st.sampled_from(fits))
        seen.setdefault(var.name, []).append(term)
        return var

    for _ in range(draw(st.integers(1, 5))):
        t = draw(statements)
        terms = [variable(term) if draw(st.integers(0, 3)) < odds else term
                 for term, odds in zip((t.subject, t.predicate, t.object), (3, 1, 2))]
        patterns.append(TriplePattern(*terms))
    if not patterns[0].variables():
        patterns[0] = TriplePattern(variable(patterns[0].subject), patterns[0].predicate, patterns[0].object)
    bound = sorted({v for p in patterns for v in p.variables()})
    variables = st.sampled_from([Var(n) for n in bound])

    # Equalities with a constant on either side, alone or inside Or and Not,
    # exercise the folding of equality filters into the join.  The constant
    # is a term its variable replaced, so that the equality often holds, or
    # that term's twin.  One filter kind in six compares a variable that
    # replaced a number with that number's twin, when there is one: only a
    # comparison by value finds them equal.
    def equality(v: Var, term, twin: bool, flip: bool) -> Compare:
        constant = _PLAN_TWINS.get(term, term) if twin else term
        return Compare(constant, "=", v) if flip else Compare(v, "=", constant)

    constants = st.sampled_from(_PLAN_NODES + _PLAN_LITERALS)
    equalities = variables.flatmap(lambda v: st.builds(
        equality, st.just(v), st.sampled_from(seen[v.name]), st.booleans(), st.booleans()))
    numeric_twin_vars = [Var(n) for n in bound if any(x in _PLAN_NUMERIC_TWINS for x in seen[n])]
    twin_equalities = equalities
    if numeric_twin_vars:
        twin_equalities = st.sampled_from(numeric_twin_vars).flatmap(lambda v: st.builds(
            equality, st.just(v), st.sampled_from([x for x in seen[v.name] if x in _PLAN_NUMERIC_TWINS]),
            st.just(True), st.booleans()))
    filters = draw(st.lists(st.one_of(
        st.builds(Compare, variables, st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]),
                  st.one_of(variables, constants)),
        equalities,
        twin_equalities,
        st.builds(Not, equalities),
        st.builds(lambda a, b: Or((a, b)), equalities, equalities),
        st.builds(DistanceWithin, variables, variables, st.sampled_from([50.0, 150.0, 1000.0, 3000.0])),
    ), max_size=3))
    projection = draw(st.lists(variables, min_size=1, max_size=len(bound), unique=True))
    return g, Query(projection=projection, patterns=patterns, filters=filters)


# ---------------------------------------------------------------------------
# TIF documents with arbitrary leaf text and attributes, for the ingest error
# contract.  Tags come from the canonical vocabulary, the fixture dialects and
# a few unknown or namespaced names, so that leaves often reach a field; leaf
# text is often number- or date-like, so that it often reaches coercion.

from xml.sax.saxutils import escape, quoteattr  # noqa: E402

_TIF_TAGS = st.sampled_from([
    "DublinCore", "Identifier", "Title", "Type", "Geolocation", "GeoLoc", "Latitude", "Longitude", "City",
    "Position", "Prices", "Amount", "Periods", "Start", "RelatedServices", "Reference", "Capacity", "Value",
    "Contacts", "Skype", "Interne", "Mystery", "q:Ext",
])
_LEAF_SAMPLES = st.sampled_from([
    "46.1", "-1.5", "91", "0", "NaN", "sNaN", "-Infinity", "1E+3", "1e-7", "2024-02-29", "2024-13-01",
    " ", "HOT-1", "a/b c", "é", "\U0001F3E8",
])


def _element(tag: str, attributes: dict[str, str], body: str) -> str:
    attribute_text = "".join(f" {name}={quoteattr(value)}" for name, value in attributes.items())
    return f"<{tag}{attribute_text}>{body}</{tag}>"


def _tif_documents(text: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    attributes = st.dictionaries(st.sampled_from(["kind", "lang", "a", "q:ok", "xml:lang"]), text, max_size=2)
    elements = st.recursive(
        st.builds(lambda tag, attrs, body: _element(tag, attrs, escape(body)),
                  _TIF_TAGS, attributes, st.one_of(text, _LEAF_SAMPLES)),
        lambda children: st.builds(lambda tag, attrs, kids: _element(tag, attrs, "".join(kids)),
                                   _TIF_TAGS, attributes, st.lists(children, max_size=4)),
        max_leaves=8,
    )
    resources = st.builds(lambda attrs, kids: _element("Resource", attrs, "".join(kids)),
                          attributes, st.lists(elements, max_size=5))
    return st.lists(resources, max_size=3).map(
        lambda rs: f'<TIF xmlns:q="urn:q">{"".join(rs)}</TIF>'.encode("utf-8"))


# Most documents hold only text that XML can carry, so that they parse; the
# rest hold any text, which may have control characters XML refuses.
_xml_documents = _tif_documents(st.text(st.characters(blacklist_categories=("Cs", "Cc"))))
tif_documents = st.one_of(_xml_documents, _xml_documents, _xml_documents, _tif_documents(st.text()))


# ---------------------------------------------------------------------------
# Profile documents that are JSON objects but hold wrongly typed values, for
# the profile half of the error contract.  Values are mostly of the wrong
# shape for their key: numbers, nested lists, non-string map values, and
# namespaces that are not IRI prefixes.

import json  # noqa: E402

MISTYPED_PROFILES = [
    '{"extension_namespace": 5}',
    '{"tag_renames": {"Adresse1": ["x"]}}',
    '{"tag_renames": [1, 2]}',
    '{"dropped_tags": 5}',
    '{"dropped_tags": [["a"]]}',
    '{"extension_namespace": "urn:tif:"}',
]
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "x", "Interne", "Contacts", "urn:tif:", "http://e/ext#", "http://e/a b#"]),
)
_json_values = st.recursive(_json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["", "x", "Adresse1", "Coordonnees"]), inner, max_size=3),
), max_leaves=6)
mistyped_profiles = st.one_of(st.sampled_from(MISTYPED_PROFILES), st.dictionaries(
    st.sampled_from(["name", "tag_renames", "dropped_tags", "extension_namespace"]), _json_values,
    min_size=1, max_size=4,
).map(json.dumps))
