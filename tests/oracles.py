"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths it verifies: leaf counting
walks the DOM with minidom instead of ElementTree, distance uses the atan2
haversine form, query evaluation enumerates bindings by linear scans over the
raw triple list, and materialization is a naive one-step-at-a-time fixed
point over plain sets.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from typing import Optional, Sequence
from xml.dom import minidom

from tifsem.errors import QueryTypeError
from tifsem.graph import (
    RDF_TYPE,
    XSD_NS,
    XSD_STRING,
    BlankNode,
    IRI,
    Literal,
    Triple,
)
from tifsem.mapping import MappingRule, Relation
from tifsem.ontology import (
    LATITUDE_PROP,
    LONGITUDE_PROP,
    SCHEMA_LATITUDE,
    SCHEMA_LONGITUDE,
)
from tifsem.query import (
    And,
    Compare,
    DistanceWithin,
    Not,
    Or,
    Query,
    Var,
)
from tifsem.serialize import term_to_ntriples


# ---------------------------------------------------------------------------
# XML leaf accounting (minidom, not ElementTree)


def dom_leaves(data: bytes) -> list[tuple[str, str]]:
    """(path, text) for every non-empty leaf under every resource element."""
    doc = minidom.parseString(data)
    root = doc.documentElement
    leaves: list[tuple[str, str]] = []

    def walk(element, path: str) -> None:
        children = [n for n in element.childNodes if n.nodeType == n.ELEMENT_NODE]
        if not children:
            text = "".join(
                n.data for n in element.childNodes if n.nodeType == n.TEXT_NODE
            ).strip()
            if text:
                leaves.append((path, text))
            return
        for child in children:
            walk(child, f"{path}/{child.tagName}")

    for resource in (n for n in root.childNodes if n.nodeType == n.ELEMENT_NODE):
        for top in (n for n in resource.childNodes if n.nodeType == n.ELEMENT_NODE):
            walk(top, top.tagName)
    return leaves


def is_dropped_by(path: str, dropped: frozenset[str]) -> bool:
    segments = path.split("/")
    return any("/".join(segments[:i]) in dropped for i in range(1, len(segments) + 1))


# ---------------------------------------------------------------------------
# Great-circle distance (atan2 formulation)


def haversine_reference(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    radius = 6_371_000.0
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return radius * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


# ---------------------------------------------------------------------------
# Brute-force query evaluation over the raw triple list

_NUMERIC = frozenset(XSD_NS + n for n in ("integer", "decimal", "double", "float", "long", "int"))


def _finite(lexical: str) -> Optional[Decimal]:
    """The number a lexical form denotes; None for NaN, infinities and
    non-numbers, which the engine treats as non-numeric."""
    try:
        value = Decimal(lexical)
    except InvalidOperation:
        return None
    return value if value.is_finite() else None


def _num(term) -> Optional[Decimal]:
    if isinstance(term, Literal) and term.datatype in _NUMERIC:
        return _finite(term.lexical)
    return None


def _bind(pattern, triple: Triple, binding: dict) -> Optional[dict]:
    new = dict(binding)
    for term, value in (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    ):
        if isinstance(term, Var):
            if term.name in new:
                if new[term.name] != value:
                    return None
            else:
                new[term.name] = value
        elif term != value:
            return None
    return new


def _lookup_coordinate(node, prop: str, triples: Sequence[Triple]) -> Optional[Decimal]:
    values = []
    for t in triples:
        if t.subject == node and t.predicate.value == prop and isinstance(t.object, Literal):
            value = _finite(t.object.lexical)
            if value is not None:
                values.append(value)
    return min(values) if values else None


def _point(node, triples: Sequence[Triple]) -> Optional[tuple[float, float]]:
    if not isinstance(node, (IRI, BlankNode)):
        return None
    for lat_p, lon_p in ((LATITUDE_PROP, LONGITUDE_PROP), (SCHEMA_LATITUDE, SCHEMA_LONGITUDE)):
        lat = _lookup_coordinate(node, lat_p, triples)
        lon = _lookup_coordinate(node, lon_p, triples)
        if lat is not None and lon is not None:
            if abs(lat) > 90 or abs(lon) > 180:
                return None
            return float(lat), float(lon)
    return None


def _filter_holds(expr, binding: dict, triples: Sequence[Triple]) -> bool:
    if isinstance(expr, And):
        return all(_filter_holds(i, binding, triples) for i in expr.items)
    if isinstance(expr, Or):
        return any(_filter_holds(i, binding, triples) for i in expr.items)
    if isinstance(expr, Not):
        return not _filter_holds(expr.inner, binding, triples)
    if isinstance(expr, Compare):
        left = binding[expr.left.name] if isinstance(expr.left, Var) else expr.left
        right = binding[expr.right.name] if isinstance(expr.right, Var) else expr.right
        ln, rn = _num(left), _num(right)
        if ln is not None and rn is not None:
            return _op(ln, expr.op, rn)
        if expr.op == "=":
            return left == right
        if expr.op == "!=":
            return left != right
        if (
            isinstance(left, Literal)
            and isinstance(right, Literal)
            and left.language is None
            and right.language is None
            and left.datatype == right.datatype
            and left.datatype in (XSD_STRING, XSD_NS + "date")
        ):
            return _op(left.lexical, expr.op, right.lexical)
        raise QueryTypeError("oracle asked to order incomparable terms")
    if isinstance(expr, DistanceWithin):
        a = binding[expr.point_a.name] if isinstance(expr.point_a, Var) else expr.point_a
        b = binding[expr.point_b.name] if isinstance(expr.point_b, Var) else expr.point_b
        pa, pb = _point(a, triples), _point(b, triples)
        if pa is None or pb is None:
            return False
        return haversine_reference(pa[0], pa[1], pb[0], pb[1]) < expr.threshold
    raise AssertionError(f"unknown filter {expr!r}")


def _op(left, op: str, right) -> bool:
    return {
        "<": left < right,
        "<=": left <= right,
        "=": left == right,
        "!=": left != right,
        ">=": left >= right,
        ">": left > right,
    }[op]


def brute_force_evaluate(q: Query, triples: Sequence[Triple]) -> list[tuple]:
    """All solutions of ``q`` over a triple list, as ordered projected rows."""
    triples = list(triples)
    bindings: list[dict] = [{}]
    for pattern in q.patterns:
        bindings = [
            nb
            for b in bindings
            for t in triples
            if (nb := _bind(pattern, t, b)) is not None
        ]
    bindings = [b for b in bindings if all(_filter_holds(f, b, triples) for f in q.filters)]

    if q.group_count is not None:
        groups: dict[tuple, set] = {}
        for b in bindings:
            key = tuple(b[v.name] for v in q.projection)
            groups.setdefault(key, set()).add(b[q.group_count.var.name])
        rows = [k + (Literal(str(len(v)), XSD_NS + "integer"),) for k, v in groups.items()]
    else:
        rows = list({tuple(b[v.name] for v in q.projection) for b in bindings})

    rows.sort(key=lambda row: tuple(term_to_ntriples(t) for t in row))
    if q.order_by is not None:
        names = [v.name for v in q.projection]
        if q.group_count is not None:
            names.append(q.group_count.alias.name)
        index = names.index(q.order_by.key.name)

        def primary(row):
            value = _num(row[index])
            return (0, value) if value is not None else (1, term_to_ntriples(row[index]))

        rows.sort(key=primary, reverse=not q.order_by.ascending)
    if q.limit is not None:
        rows = rows[: q.limit]
    return rows


# ---------------------------------------------------------------------------
# Naive mapping closure over plain sets


def naive_materialize(triples: set[Triple], rules: Sequence[MappingRule]) -> set[Triple]:
    result = set(triples)
    rdf_type = IRI(RDF_TYPE)
    while True:
        new: set[Triple] = set()
        for rule in rules:
            is_class = rule.relation in (Relation.EQUIVALENT_CLASS, Relation.SUB_CLASS_OF)
            symmetric = rule.relation in (Relation.EQUIVALENT_CLASS, Relation.EQUIVALENT_PROPERTY)
            for t in result:
                if is_class:
                    if t.predicate != rdf_type or not isinstance(t.object, IRI):
                        continue
                    if t.object.value == rule.source:
                        new.add(Triple(t.subject, rdf_type, IRI(rule.target)))
                    if symmetric and t.object.value == rule.target:
                        new.add(Triple(t.subject, rdf_type, IRI(rule.source)))
                else:
                    if t.predicate.value == rule.source:
                        new.add(Triple(t.subject, IRI(rule.target), t.object))
                    if symmetric and t.predicate.value == rule.target:
                        new.add(Triple(t.subject, IRI(rule.source), t.object))
        if new <= result:
            return result
        result |= new


# ---------------------------------------------------------------------------
# JSON-LD expansion and structural graph comparison


def expand_jsonld(document: dict) -> set[Triple]:
    """Expand a compacted JSON-LD node-object tree back into triples."""
    context: dict[str, str] = dict(document.get("@context", {}))
    counter = [0]

    def expand_iri(name: str) -> str:
        prefix, sep, local = name.partition(":")
        if sep and prefix in context:
            return context[prefix] + local
        return name

    triples: set[Triple] = set()

    def node_subject(node: dict):
        node_id = node.get("@id")
        if node_id is None:
            counter[0] += 1
            return BlankNode(f"anon{counter[0]}")
        if node_id.startswith("_:"):
            return BlankNode(node_id[2:])
        return IRI(node_id)

    def literal_from(value) -> Literal:
        if isinstance(value, dict):
            if "@language" in value:
                return Literal(value["@value"], language=value["@language"])
            if "@type" in value:
                return Literal(value["@value"], expand_iri(value["@type"]))
            return Literal(value["@value"])
        return Literal(str(value))

    def walk(node: dict):
        subject = node_subject(node)
        types = node.get("@type", [])
        for type_name in [types] if isinstance(types, str) else types:
            triples.add(Triple(subject, IRI(RDF_TYPE), IRI(expand_iri(type_name))))
        for key, raw_values in node.items():
            if key.startswith("@"):
                continue
            predicate = IRI(expand_iri(key))
            values = raw_values if isinstance(raw_values, list) else [raw_values]
            for value in values:
                if isinstance(value, dict) and set(value) == {"@id"}:
                    target = value["@id"]
                    obj = BlankNode(target[2:]) if target.startswith("_:") else IRI(target)
                    triples.add(Triple(subject, predicate, obj))
                elif isinstance(value, dict) and "@value" not in value:
                    child = walk(value)
                    triples.add(Triple(subject, predicate, child))
                else:
                    triples.add(Triple(subject, predicate, literal_from(value)))
        return subject

    body = {k: v for k, v in document.items() if k != "@context"}
    walk(body)
    return triples


def blank_closure(triples: Sequence[Triple], root: IRI) -> set[Triple]:
    """Triples whose subject is the root or a blank node reachable from it."""
    triples = list(triples)
    subjects = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for t in triples:
            if t.subject == node and isinstance(t.object, BlankNode) and t.object not in subjects:
                subjects.add(t.object)
                frontier.append(t.object)
    return {t for t in triples if t.subject in subjects}


def structural_form(triples: set[Triple], root) -> tuple:
    """Canonical nested form of a (tree-shaped) subgraph, label-free for
    blank nodes; equal forms mean equality up to blank-node relabeling."""
    by_subject: dict = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append(t)

    def form(node, path: frozenset) -> tuple:
        if isinstance(node, Literal):
            return ("lit", node.lexical, node.datatype, node.language)
        if isinstance(node, IRI):
            return ("iri", node.value)
        if node in path:
            return ("cycle",)
        entries = sorted(
            (t.predicate.value, form(t.object, path | {node}))
            for t in by_subject.get(node, [])
        )
        return ("node", tuple(entries))

    entries = sorted(
        (t.predicate.value, form(t.object, frozenset({root})))
        for t in by_subject.get(root, [])
    )
    return ("root", tuple(entries))


def io_triple_count(io) -> int:
    """Expected assert_io yield, counted from the construction rule."""
    from tifsem.ontology import GeoPoint

    count = 1  # the IO type triple
    for instances in io.granules.values():
        for granule in instances:
            count += 2  # hasGranule link + granule type
            for value in granule.fields.values():
                count += 2 if isinstance(value, GeoPoint) else 1
    count += len(io.extensions)
    return count
