"""SPARQL-subset query language: basic graph patterns, comparison filters,
a great-circle distance filter, ordering, projection, and a GROUP-COUNT
aggregate for proximity ranking.

Surface grammar::

    PREFIX pfx: <iri> ...
    SELECT ?a ?b | (GROUP-COUNT(?x) AS ?n)
    WHERE { <triple patterns> FILTER(...) ... }
    ORDER BY [ASC|DESC](?v)    (optional)
    LIMIT n                    (optional)

``geo:distance(?a, ?b) < N`` filters on the haversine distance in meters
between the coordinates attached to the two bound nodes.  Evaluation is
read-only over the graph and deterministic: without ORDER BY, solutions are
sorted by the serialized forms of the projected terms.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from tifsem.errors import QuerySyntaxError, QueryTypeError
from tifsem.graph import (
    IRI_FORBIDDEN,
    LANGTAG,
    RDF_TYPE,
    XSD_NS,
    BlankNode,
    Graph,
    IRI,
    Literal,
    Term,
    XSD_STRING,
    vocabulary_iri,
)
from tifsem.ontology import (
    GeoPoint,
    LATITUDE_PROP,
    LONGITUDE_PROP,
    SCHEMA_LATITUDE,
    SCHEMA_LONGITUDE,
)
from tifsem.serialize import term_to_ntriples, unescape

EARTH_RADIUS_M = 6_371_000.0

_NUMERIC_DATATYPES = frozenset(
    XSD_NS + name for name in ("integer", "decimal", "double", "float", "long", "int")
)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    name: str


PatternTerm = Union[Var, IRI, Literal]
Operand = Union[Var, IRI, Literal]


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> set[str]:
        return {t.name for t in (self.subject, self.predicate, self.object) if isinstance(t, Var)}


@dataclass(frozen=True)
class Compare:
    left: Operand
    op: str  # one of < <= = != >= >
    right: Operand


@dataclass(frozen=True)
class DistanceWithin:
    point_a: Operand
    point_b: Operand
    threshold: float  # meters, strict upper bound

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError("distance threshold must be finite and positive")


@dataclass(frozen=True)
class And:
    items: tuple

@dataclass(frozen=True)
class Or:
    items: tuple

@dataclass(frozen=True)
class Not:
    inner: object


FilterExpr = Union[Compare, DistanceWithin, And, Or, Not]


@dataclass(frozen=True)
class GroupCount:
    var: Var
    alias: Var


@dataclass(frozen=True)
class OrderSpec:
    key: Var
    ascending: bool = True


@dataclass
class Query:
    projection: list[Var]
    patterns: list[TriplePattern]
    filters: list[FilterExpr]
    group_count: Optional[GroupCount] = None
    order_by: Optional[OrderSpec] = None
    limit: Optional[int] = None

    @property
    def output_variables(self) -> list[str]:
        names = [v.name for v in self.projection]
        if self.group_count is not None:
            names.append(self.group_count.alias.name)
        return names

    def to_dict(self) -> dict:
        """Plain-data form of the AST, used for golden-file comparisons."""
        def term(t):
            if isinstance(t, Var):
                return {"var": t.name}
            if isinstance(t, IRI):
                return {"iri": t.value}
            out = {"literal": t.lexical, "datatype": t.datatype}
            if t.language is not None:
                out["language"] = t.language
            return out

        def filt(f):
            if isinstance(f, Compare):
                return {"compare": {"left": term(f.left), "op": f.op, "right": term(f.right)}}
            if isinstance(f, DistanceWithin):
                return {"distance_within": {
                    "a": term(f.point_a), "b": term(f.point_b), "threshold": f.threshold}}
            if isinstance(f, And):
                return {"and": [filt(i) for i in f.items]}
            if isinstance(f, Or):
                return {"or": [filt(i) for i in f.items]}
            return {"not": filt(f.inner)}

        out: dict = {
            "projection": [v.name for v in self.projection],
            "patterns": [
                {"subject": term(p.subject), "predicate": term(p.predicate), "object": term(p.object)}
                for p in self.patterns
            ],
            "filters": [filt(f) for f in self.filters],
        }
        if self.group_count is not None:
            out["group_count"] = {"var": self.group_count.var.name, "alias": self.group_count.alias.name}
        if self.order_by is not None:
            out["order_by"] = {"key": self.order_by.key.name, "ascending": self.order_by.ascending}
        if self.limit is not None:
            out["limit"] = self.limit
        return out


@dataclass
class SolutionTable:
    variables: list[str]
    rows: list[tuple[Term, ...]]


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    rf"""
      (?P<WS>\s+|\#[^\n]*)
    | (?P<IRIREF><[^{IRI_FORBIDDEN}]*>)
    | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<STRING>"(?:[^"\\\n]|\\.)*")
    | (?P<NUMBER>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<PNAME>[A-Za-z][A-Za-z0-9_-]*:[A-Za-z0-9_.-]*)
    | (?P<NAME>[A-Za-z][A-Za-z0-9_-]*)
    | (?P<LANGTAG>@{LANGTAG})
    | (?P<OP>\^\^|&&|\|\||<=|>=|!=|[{{}}().,=<>!])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "WS":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


def _unquote(raw: str, pos: int) -> str:
    try:
        return unescape(raw[1:-1])
    except ValueError as exc:
        raise QuerySyntaxError(str(exc), pos) from None


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = {"select", "where", "prefix", "filter", "order", "by", "asc", "desc", "limit", "as"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.prefixes: dict[str, str] = {}

    # token helpers ------------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None) -> QuerySyntaxError:
        tok = tok or self.peek()
        return QuerySyntaxError(message, tok.pos)

    def expect_op(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "OP" or tok.text != text:
            raise self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "NAME" and tok.text.lower() == word:
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "NAME" or tok.text.lower() != word:
            raise self.fail(f"expected {word.upper()}", tok)

    # grammar ------------------------------------------------------------
    def parse(self) -> Query:
        while self.keyword("prefix"):
            name = self.next()
            if name.kind != "PNAME" or not name.text.endswith(":"):
                raise self.fail("expected prefix name ending in ':'", name)
            iri = self.next()
            if iri.kind != "IRIREF":
                raise self.fail("expected namespace IRI", iri)
            self.prefixes[name.text[:-1]] = iri.text[1:-1]

        self.expect_keyword("select")
        projection, group_count = self.parse_projection()
        self.expect_keyword("where")
        self.expect_op("{")
        patterns, filters = self.parse_group()
        order_by = self.parse_order()
        limit = self.parse_limit()
        tok = self.peek()
        if tok.kind != "EOF":
            raise self.fail(f"unexpected trailing {tok.text!r}", tok)

        query = Query(
            projection=projection,
            patterns=patterns,
            filters=filters,
            group_count=group_count,
            order_by=order_by,
            limit=limit,
        )
        self.validate(query)
        return query

    def parse_projection(self) -> tuple[list[Var], Optional[GroupCount]]:
        projection: list[Var] = []
        group_count: Optional[GroupCount] = None
        while True:
            tok = self.peek()
            if tok.kind == "VAR":
                projection.append(Var(self.next().text[1:]))
                continue
            if tok.kind == "OP" and tok.text == "(":
                if group_count is not None:
                    raise self.fail("only one GROUP-COUNT aggregate is supported", tok)
                self.next()
                name = self.next()
                if name.kind != "NAME" or name.text.upper() != "GROUP-COUNT":
                    raise self.fail("expected GROUP-COUNT", name)
                self.expect_op("(")
                var_tok = self.next()
                if var_tok.kind != "VAR":
                    raise self.fail("expected variable", var_tok)
                self.expect_op(")")
                self.expect_keyword("as")
                alias_tok = self.next()
                if alias_tok.kind != "VAR":
                    raise self.fail("expected alias variable", alias_tok)
                self.expect_op(")")
                group_count = GroupCount(Var(var_tok.text[1:]), Var(alias_tok.text[1:]))
                continue
            break
        if not projection and group_count is None:
            raise self.fail("projection must name at least one variable")
        return projection, group_count

    def parse_group(self) -> tuple[list[TriplePattern], list[FilterExpr]]:
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "}":
                self.next()
                return patterns, filters
            if tok.kind == "EOF":
                raise self.fail("unterminated group: expected '}'", tok)
            if tok.kind == "NAME" and tok.text.lower() == "filter":
                self.next()
                self.expect_op("(")
                filters.append(self.parse_or())
                self.expect_op(")")
                continue
            subject = self.parse_term(position="subject")
            predicate = self.parse_term(position="predicate")
            obj = self.parse_term(position="object")
            patterns.append(TriplePattern(subject, predicate, obj))
            if self.peek().kind == "OP" and self.peek().text == ".":
                self.next()

    def parse_term(self, position: str) -> PatternTerm:
        tok = self.next()
        if tok.kind == "VAR":
            return Var(tok.text[1:])
        if tok.kind in ("IRIREF", "PNAME"):
            return self.iri(tok)
        if tok.kind == "NAME" and tok.text == "a" and position == "predicate":
            return IRI(RDF_TYPE)
        if tok.kind == "NUMBER":
            if position != "object":
                raise self.fail(f"number not allowed in {position} position", tok)
            return _number_literal(tok.text)
        if tok.kind == "STRING":
            if position != "object":
                raise self.fail(f"literal not allowed in {position} position", tok)
            return self.finish_literal(tok)
        raise self.fail(f"expected term, found {tok.text!r}", tok)

    def finish_literal(self, tok: _Token) -> Literal:
        lexical = _unquote(tok.text, tok.pos)
        nxt, culprit = self.peek(), tok
        language, datatype = None, XSD_STRING
        if nxt.kind == "LANGTAG":
            self.next()
            language = nxt.text[1:]
        elif nxt.kind == "OP" and nxt.text == "^^":
            self.next()
            culprit = self.next()
            if culprit.kind not in ("IRIREF", "PNAME"):
                raise self.fail("expected datatype IRI", culprit)
            datatype = self.iri(culprit).value
        try:
            return Literal(lexical, datatype, language)
        except ValueError as exc:
            raise self.fail(str(exc), culprit)

    def iri(self, tok: _Token) -> IRI:
        """The IRI an IRIREF or prefixed-name token denotes."""
        try:
            return IRI(tok.text[1:-1] if tok.kind == "IRIREF" else self.expand_pname(tok))
        except ValueError as exc:
            raise self.fail(str(exc), tok)

    def expand_pname(self, tok: _Token) -> str:
        prefix, _, local = tok.text.partition(":")
        if prefix not in self.prefixes:
            raise self.fail(f"unknown prefix {prefix!r}", tok)
        return self.prefixes[prefix] + local

    # filter expressions --------------------------------------------------
    def parse_or(self) -> FilterExpr:
        items = [self.parse_and()]
        while self.peek().kind == "OP" and self.peek().text == "||":
            self.next()
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self) -> FilterExpr:
        items = [self.parse_unary()]
        while self.peek().kind == "OP" and self.peek().text == "&&":
            self.next()
            items.append(self.parse_unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_unary(self) -> FilterExpr:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "!":
            self.next()
            return Not(self.parse_unary())
        if tok.kind == "OP" and tok.text == "(":
            self.next()
            inner = self.parse_or()
            self.expect_op(")")
            return inner
        if tok.kind == "PNAME" and tok.text == "geo:distance":
            return self.parse_distance()
        return self.parse_compare()

    def parse_distance(self) -> DistanceWithin:
        self.next()  # geo:distance
        self.expect_op("(")
        a = self.parse_operand()
        self.expect_op(",")
        b = self.parse_operand()
        self.expect_op(")")
        op = self.next()
        if op.kind != "OP" or op.text != "<":
            raise self.fail("geo:distance supports only a strict '<' threshold", op)
        num = self.next()
        if num.kind != "NUMBER":
            raise self.fail("expected numeric threshold", num)
        try:
            return DistanceWithin(a, b, float(num.text))
        except ValueError as exc:
            raise self.fail(str(exc), num)

    def parse_compare(self) -> Compare:
        left = self.parse_operand()
        op = self.next()
        if op.kind != "OP" or op.text not in ("<", "<=", "=", "!=", ">=", ">"):
            raise self.fail("expected comparison operator", op)
        right = self.parse_operand()
        return Compare(left, op.text, right)

    def parse_operand(self) -> Operand:
        tok = self.next()
        if tok.kind == "VAR":
            return Var(tok.text[1:])
        if tok.kind == "NUMBER":
            return _number_literal(tok.text)
        if tok.kind == "STRING":
            return self.finish_literal(tok)
        if tok.kind in ("IRIREF", "PNAME"):
            return self.iri(tok)
        raise self.fail(f"expected operand, found {tok.text!r}", tok)

    # modifiers ------------------------------------------------------------
    def parse_order(self) -> Optional[OrderSpec]:
        if not self.keyword("order"):
            return None
        self.expect_keyword("by")
        ascending = True
        tok = self.peek()
        if tok.kind == "NAME" and tok.text.lower() in ("asc", "desc"):
            ascending = self.next().text.lower() == "asc"
            self.expect_op("(")
            var_tok = self.next()
            if var_tok.kind != "VAR":
                raise self.fail("expected variable", var_tok)
            self.expect_op(")")
            return OrderSpec(Var(var_tok.text[1:]), ascending)
        if tok.kind == "VAR":
            return OrderSpec(Var(self.next().text[1:]), ascending)
        raise self.fail("expected ORDER BY key", tok)

    def parse_limit(self) -> Optional[int]:
        if not self.keyword("limit"):
            return None
        tok = self.next()
        if tok.kind != "NUMBER" or not re.fullmatch(r"\d+", tok.text):
            raise self.fail("LIMIT expects a non-negative integer", tok)
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            raise self.fail("LIMIT is too large", tok)

    # validation -----------------------------------------------------------
    def validate(self, query: Query) -> None:
        pattern_vars: set[str] = set()
        for p in query.patterns:
            pattern_vars |= p.variables()

        for v in query.projection:
            if v.name not in pattern_vars:
                raise QuerySyntaxError(f"projected variable ?{v.name} is unbound", 0)
        bound_outputs = set(pattern_vars)
        if query.group_count is not None:
            if query.group_count.var.name not in pattern_vars:
                raise QuerySyntaxError(
                    f"aggregated variable ?{query.group_count.var.name} is unbound", 0)
            if query.group_count.alias.name in pattern_vars:
                raise QuerySyntaxError(
                    f"alias ?{query.group_count.alias.name} shadows a pattern variable", 0)
            bound_outputs.add(query.group_count.alias.name)
        if query.order_by is not None and query.order_by.key.name not in bound_outputs:
            raise QuerySyntaxError(f"ordering variable ?{query.order_by.key.name} is unbound", 0)

        for f in query.filters:
            loose = _filter_vars(f) - pattern_vars
            if loose:
                name = sorted(loose)[0]
                raise QuerySyntaxError(f"filter variable ?{name} is unbound", 0)


def _filter_vars(expr: FilterExpr) -> set[str]:
    if isinstance(expr, Compare):
        return {t.name for t in (expr.left, expr.right) if isinstance(t, Var)}
    if isinstance(expr, DistanceWithin):
        return {t.name for t in (expr.point_a, expr.point_b) if isinstance(t, Var)}
    if isinstance(expr, (And, Or)):
        return set().union(*(_filter_vars(i) for i in expr.items))
    if isinstance(expr, Not):
        return _filter_vars(expr.inner)
    return set()


def parse_query(text: str) -> Query:
    """Parse query text; raises :class:`QuerySyntaxError` with the offset of
    the offending token."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise QuerySyntaxError("filter expression nested too deeply", 0) from None


def _number_literal(text: str) -> Literal:
    if re.fullmatch(r"[+-]?\d+", text):
        return Literal(text, XSD_NS + "integer")
    if "e" in text or "E" in text:
        return Literal(text, XSD_NS + "double")
    return Literal(text, XSD_NS + "decimal")


# ---------------------------------------------------------------------------
# Evaluation


def geo_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters (haversine, sphere of 6,371,000 m).

    Arguments are ordered canonically first, which makes symmetry exact at
    the float level.
    """
    if (b.latitude, b.longitude) < (a.latitude, a.longitude):
        a, b = b, a
    lat1, lat2 = math.radians(a.latitude), math.radians(b.latitude)
    dlat = math.radians(b.latitude - a.latitude)
    dlon = math.radians(b.longitude - a.longitude)
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.asin(min(1.0, math.sqrt(h)))


def filter_within(distance_m: float, threshold_m: float) -> bool:
    """Strict comparison: a distance exactly at the threshold is excluded."""
    return distance_m < threshold_m


def _finite_decimal(lexical: str) -> Optional[Decimal]:
    """The decimal a lexical form denotes; None when it is not a finite number."""
    try:
        value = Decimal(lexical)
    except InvalidOperation:
        return None
    return value if value.is_finite() else None


def _numeric(term: Term) -> Optional[Decimal]:
    if isinstance(term, Literal) and term.datatype in _NUMERIC_DATATYPES:
        return _finite_decimal(term.lexical)
    return None


def _compare_terms(left: Term, op: str, right: Term) -> bool:
    ln, rn = _numeric(left), _numeric(right)
    if ln is not None and rn is not None:
        return _apply_op(ln, op, rn)
    if op in ("=", "!="):
        equal = left == right
        return equal if op == "=" else not equal
    if (
        isinstance(left, Literal)
        and isinstance(right, Literal)
        and left.language is None
        and right.language is None
        and left.datatype == right.datatype
        and left.datatype in (XSD_STRING, XSD_NS + "date")
    ):
        return _apply_op(left.lexical, op, right.lexical)
    raise QueryTypeError(
        f"cannot order {term_to_ntriples(left)} against {term_to_ntriples(right)}"
    )


def _apply_op(left, op: str, right) -> bool:
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == ">=":
        return left >= right
    return left > right


# The coordinates of a node, memoized for one evaluation (see ``evaluate``).
PointOf = Callable[[Term], Optional[GeoPoint]]


# The latitude/longitude property pairs, tifsem's first, as shared IRIs.
_COORDINATE_PROPS = tuple(
    (vocabulary_iri(lat), vocabulary_iri(lon))
    for lat, lon in ((LATITUDE_PROP, LONGITUDE_PROP), (SCHEMA_LATITUDE, SCHEMA_LONGITUDE))
)


def resolve_point(term: Term, g: Graph) -> Optional[GeoPoint]:
    """Coordinates of a node, read from its latitude/longitude statements."""
    if not isinstance(term, (IRI, BlankNode)):
        return None
    for lat_prop, lon_prop in _COORDINATE_PROPS:
        lat = _coordinate(term, lat_prop, g)
        lon = _coordinate(term, lon_prop, g)
        if lat is not None and lon is not None:
            try:
                return GeoPoint(float(lat), float(lon))
            except ValueError:
                return None
    return None


def _coordinate(subject, prop: IRI, g: Graph) -> Optional[Decimal]:
    values = []
    for t in g.match(subject=subject, predicate=prop):
        value = _finite_decimal(t.object.lexical) if isinstance(t.object, Literal) else None
        if value is not None:
            values.append(value)
    return min(values) if values else None


def _eval_filter(expr: FilterExpr, row: dict[str, Term], point: PointOf) -> bool:
    if isinstance(expr, And):
        return all(_eval_filter(i, row, point) for i in expr.items)
    if isinstance(expr, Or):
        return any(_eval_filter(i, row, point) for i in expr.items)
    if isinstance(expr, Not):
        return not _eval_filter(expr.inner, row, point)
    if isinstance(expr, Compare):
        return _compare_terms(_operand(expr.left, row), expr.op, _operand(expr.right, row))
    if isinstance(expr, DistanceWithin):
        pa = point(_operand(expr.point_a, row))
        pb = point(_operand(expr.point_b, row))
        if pa is None or pb is None:
            return False
        return filter_within(geo_distance(pa, pb), expr.threshold)
    raise TypeError(f"not a filter expression: {expr!r}")


def _operand(term: Operand, row: dict[str, Term]) -> Term:
    return row[term.name] if isinstance(term, Var) else term


def _can_raise(expr: FilterExpr) -> bool:
    """Whether a filter can raise :class:`QueryTypeError`: only an ordering
    comparison can."""
    if isinstance(expr, Compare):
        return expr.op not in ("=", "!=")
    if isinstance(expr, (And, Or)):
        return any(_can_raise(i) for i in expr.items)
    if isinstance(expr, Not):
        return _can_raise(expr.inner)
    return False


def _components(patterns: Sequence[TriplePattern]) -> list[list[TriplePattern]]:
    """The patterns split into groups linked by shared variables, each in
    text order; groups are ordered by their first pattern."""
    groups: list[tuple[set[str], list[int]]] = []
    for i, pattern in enumerate(patterns):
        names, members = pattern.variables(), [i]
        apart = []
        for group_names, group_members in groups:
            if group_names & names:
                names |= group_names
                members += group_members
            else:
                apart.append((group_names, group_members))
        groups = apart + [(names, members)]
    groups.sort(key=lambda group: min(group[1]))
    return [[patterns[i] for i in sorted(members)] for _, members in groups]


def _join_order(
    patterns: Sequence[TriplePattern], g: Graph, seed: dict[str, Term],
) -> list[TriplePattern]:
    """Greedy join order for one component whose variables in ``seed`` are
    already bound.  The next pattern shares a bound variable (any pattern
    may start), has the most positions bound (constants or bound
    variables), then the fewest triples matching its constants and seeded
    values, then comes first in text order."""
    bound: set[str] = set(seed)
    left = list(patterns)
    order = []

    def rank(pattern: TriplePattern) -> tuple[int, int]:
        terms = (pattern.subject, pattern.predicate, pattern.object)
        bound_positions = sum(1 for t in terms if not isinstance(t, Var) or t.name in bound)
        return -bound_positions, g.scan_size(*(seed.get(t.name) if isinstance(t, Var) else t for t in terms))

    while left:
        best = min([p for p in left if p.variables() & bound] or left, key=rank)
        left.remove(best)
        order.append(best)
        bound |= best.variables()
    return order


_POSITIONS = (attrgetter("subject"), attrgetter("predicate"), attrgetter("object"))


def _extend(rows: list[dict[str, Term]], pattern: TriplePattern, g: Graph) -> list[dict[str, Term]]:
    """Every row extended by every triple that matches the pattern under it.

    All rows of one join step bind the same variables, so the first row
    tells, once for the step, which positions the probe reads from the row
    and which variables the triples bind.  ``Graph.match`` yields nothing
    for a literal subject or a predicate that is not an IRI, so a row that
    binds one that way extends to nothing."""
    if not rows:
        return []
    terms = (pattern.subject, pattern.predicate, pattern.object)
    probe = [None if isinstance(t, Var) else t for t in terms]
    read = [t.name if isinstance(t, Var) and t.name in rows[0] else None for t in terms]
    free: dict[str, list[int]] = {}
    for i, t in enumerate(terms):
        if isinstance(t, Var) and read[i] is None:
            free.setdefault(t.name, []).append(i)
    # A variable repeated in the pattern binds from its first position and
    # must meet the same value at the others.
    binds = [(name, _POSITIONS[at[0]]) for name, at in free.items()]
    repeats = [(_POSITIONS[at[0]], _POSITIONS[i]) for at in free.values() for i in at[1:]]

    (s, p, o), (read_s, read_p, read_o) = probe, read
    extended: list[dict[str, Term]] = []
    for row in rows:
        if read_s is not None:
            s = row[read_s]
        if read_p is not None:
            p = row[read_p]
        if read_o is not None:
            o = row[read_o]
        if not binds:
            for _ in g.match(s, p, o):
                extended.append(row)
            continue
        for triple in g.match(s, p, o):
            if repeats and any(first(triple) != other(triple) for first, other in repeats):
                continue
            new = row.copy()
            for name, value_of in binds:
                new[name] = value_of(triple)
            extended.append(new)
    return extended


def _folded(expr: FilterExpr) -> Optional[tuple[str, Term]]:
    """The variable and constant of a ``FILTER(?v = c)`` that binding ?v to
    c answers: for an IRI or a literal that is not a number, ``=`` is term
    equality.  A number is not folded, because ``=`` compares numbers by
    value (``"1.0"^^xsd:decimal`` equals ``1``)."""
    if isinstance(expr, Compare) and expr.op == "=":
        for var, constant in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(var, Var) and (
                isinstance(constant, IRI) or isinstance(constant, Literal) and _numeric(constant) is None
            ):
                return var.name, constant
    return None


def _solve(q: Query, g: Graph, point: PointOf) -> list[dict[str, Term]]:
    """The solutions of the patterns that pass every filter.

    Each component of the patterns (see ``_components``) is joined once in
    ``_join_order``, and the components are crossed at the end.  A filter
    runs as soon as its variables are bound.  The exception is a filter
    that can raise, and every filter after it in the query: those run in
    query order on full solutions, so a query raises exactly when
    filtering the full join in query order would.  Of the filters before
    them, each top-level equality ``_folded`` accepts is not run: its
    variable is bound to its constant in the component's start row, so the
    join probes the indexes with it.
    """
    pattern_vars = set().union(*(p.variables() for p in q.patterns))
    early, late = [], list(q.filters)
    while late and not _can_raise(late[0]) and _filter_vars(late[0]) <= pattern_vars:
        early.append(late.pop(0))

    seed: dict[str, Term] = {}
    for f in list(early):
        folded = _folded(f)
        if folded is not None:
            early.remove(f)
            name, constant = folded
            if seed.setdefault(name, constant) != constant:
                return []  # ?v = c and ?v = d for two different terms

    def spend(bound: set[str]) -> list[FilterExpr]:
        """The early filters whose variables are all bound, removed from
        ``early``."""
        ready = [f for f in early if _filter_vars(f) <= bound]
        early[:] = [f for f in early if f not in ready]
        return ready

    def passing(rows: Iterable[dict[str, Term]], filters: list[FilterExpr]) -> list[dict[str, Term]]:
        if not filters:
            return list(rows)
        return [r for r in rows if all(_eval_filter(f, r, point) for f in filters)]

    solutions, bound = passing([{}], spend(set())), set()
    for component in _components(q.patterns):
        if not solutions:
            return []
        start = {name: seed[name] for p in component for name in p.variables() if name in seed}
        component_bound = set(start)
        rows = passing([start], spend(component_bound))
        for pattern in _join_order(component, g, start):
            component_bound |= pattern.variables()
            rows = passing(_extend(rows, pattern, g), spend(component_bound))
            if not rows:
                return []
        bound |= component_bound
        ready = spend(bound)
        pairs = _cross(solutions, rows, ready, point)
        solutions = passing(({**a, **b} for a, b in pairs), ready)
    return passing(solutions, late)


def _cross(
    left: list[dict[str, Term]], right: list[dict[str, Term]], ready: list[FilterExpr], point: PointOf,
) -> Iterator[tuple[dict[str, Term], dict[str, Term]]]:
    """The pairs of rows to try when crossing two non-empty row lists.

    When a ready ``DistanceWithin`` links a variable of each side, only
    pairs whose latitudes lie within the threshold are tried: a
    great-circle distance is at least the radius times the latitude
    difference.  The window is widened for float rounding, and the exact
    filter still decides.
    """
    links = [
        (f.threshold, a.name, b.name)
        for f in ready if isinstance(f, DistanceWithin)
        for a, b in ((f.point_a, f.point_b), (f.point_b, f.point_a))
        if isinstance(a, Var) and isinstance(b, Var) and a.name in left[0] and b.name in right[0]
    ]
    if not links:
        for x in left:
            for y in right:
                yield x, y
        return

    threshold, a, b = links[0]
    half = math.degrees(threshold / EARTH_RADIUS_M) * (1 + 1e-9) + 1e-9
    by_latitude = sorted(
        ((p.latitude, i) for i, row in enumerate(right) if (p := point(row[b])) is not None),
        key=lambda pair: pair[0],
    )
    latitudes = [lat for lat, _ in by_latitude]
    for x in left:
        p = point(x[a])
        if p is not None:
            lo = bisect.bisect_left(latitudes, p.latitude - half)
            hi = bisect.bisect_right(latitudes, p.latitude + half)
            for _, i in by_latitude[lo:hi]:
                yield x, right[i]


def _sort_rows(
    rows: list[tuple[Term, ...]],
    variables: Sequence[str],
    order_by: Optional[OrderSpec],
) -> list[tuple[Term, ...]]:
    def row_key(row: tuple[Term, ...]) -> tuple[str, ...]:
        return tuple(term_to_ntriples(t) for t in row)

    rows = sorted(rows, key=row_key)
    if order_by is None:
        return rows
    index = list(variables).index(order_by.key.name)

    def primary(row: tuple[Term, ...]):
        value = _numeric(row[index])
        if value is not None:
            return (0, value)
        return (1, term_to_ntriples(row[index]))

    # stable second pass keeps the serialized-form order inside ties
    rows.sort(key=primary, reverse=not order_by.ascending)
    return rows


def evaluate(q: Query, g: Graph) -> SolutionTable:
    """Evaluate a query: join semantics over the patterns with the filters
    (see ``_solve``), then the optional GROUP-COUNT aggregate, ordering,
    limit, projection.

    Projection is set-based: duplicate projected rows collapse.  The result
    order is always deterministic.  Each node's coordinates are resolved
    once per call.
    """
    points: dict[Term, Optional[GeoPoint]] = {}

    def point(term: Term) -> Optional[GeoPoint]:
        if term not in points:
            points[term] = resolve_point(term, g)
        return points[term]

    solutions = _solve(q, g, point)

    variables = q.output_variables
    if q.group_count is not None:
        groups: dict[tuple[Term, ...], set[Term]] = {}
        for s in solutions:
            key = tuple(s[v.name] for v in q.projection)
            groups.setdefault(key, set()).add(s[q.group_count.var.name])
        rows = [
            key + (Literal(str(len(members)), XSD_NS + "integer"),)
            for key, members in groups.items()
        ]
    else:
        rows = list({tuple(s[v.name] for v in q.projection) for s in solutions})

    rows = _sort_rows(rows, variables, q.order_by)
    if q.limit is not None:
        rows = rows[: q.limit]
    return SolutionTable(variables=variables, rows=rows)


# ---------------------------------------------------------------------------
# Result formatting


def to_csv(table: SolutionTable) -> str:
    """CSV with variable-name header; terms in N-Triples term syntax."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.variables)
    for row in table.rows:
        writer.writerow([term_to_ntriples(t) for t in row])
    return buffer.getvalue()


def to_text_table(table: SolutionTable) -> str:
    cells = [[term_to_ntriples(t) for t in row] for row in table.rows]
    widths = [
        max([len(v)] + [len(row[i]) for row in cells])
        for i, v in enumerate(table.variables)
    ]
    def line(values: Iterable[str]) -> str:
        return "  ".join(v.ljust(w) for v, w in zip(values, widths)).rstrip()

    out = [line(table.variables), line("-" * w for w in widths)]
    out.extend(line(row) for row in cells)
    return "\n".join(out) + "\n"
