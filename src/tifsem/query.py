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
import weakref
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from operator import eq, ge, gt, itemgetter, le, lt, ne
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence, Union

from tifsem.errors import QuerySyntaxError, QueryTypeError
from tifsem.graph import (
    IRI_FORBIDDEN,
    LANGTAG,
    RDF_TYPE,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_NS,
    BlankNode,
    Graph,
    IRI,
    Literal,
    Term,
    XSD_STRING,
    _LEXICAL,
    _Memo,
    unescape,
    vocabulary_iri,
)
from tifsem.ontology import (
    GeoPoint,
    LATITUDE_PROP,
    LONGITUDE_PROP,
    SCHEMA_LATITUDE,
    SCHEMA_LONGITUDE,
)

EARTH_RADIUS_M = 6_371_000.0

_NUMERIC_DATATYPES = frozenset(
    XSD_NS + name for name in ("integer", "decimal", "double", "float", "long", "int")
)

_COMPARE = {"<": lt, "<=": le, "=": eq, "!=": ne, ">=": ge, ">": gt}

# The most triple patterns one query may hold.  Planning is quadratic in the
# patterns (each join step ranks every pattern left), so the limit keeps
# `evaluate` bounded on hostile text: on a one-triple graph (x86_64,
# CPython 3.11), 128 chained patterns take about 40 ms and 512 about
# 450 ms.  The scenario queries hold at most 9.
MAX_PATTERNS = 128


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
    # Built once: the join planner asks for the variables many times per query.
    _variables: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = frozenset(t.name for t in (self.subject, self.predicate, self.object) if isinstance(t, Var))
        object.__setattr__(self, "_variables", names)

    def variables(self) -> frozenset[str]:
        return self._variables


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


@dataclass
class SolutionTable:
    variables: list[str]
    rows: list[tuple[Term, ...]]


# ---------------------------------------------------------------------------
# Tokenizer

# One match per token: blanks and comments before a token are a prefix of its
# match, so one scan cuts the whole text.  After the last token the prefix
# takes the trailing blanks and EOF matches the end; a character no token
# starts with (ERROR) stops the scan.  A blank is the SPARQL grammar's WS,
# a space, tab, CR or LF; any other white space is an ERROR.  As in SPARQL,
# a prefixed name's local part does not end in '.', and a number's '.' needs
# a digit after it unless an exponent follows, so 't:Hotel.' and '1.' leave
# the '.' to end the pattern.
_TOKEN_RE = re.compile(
    rf"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:
      (?P<IRIREF><[^{IRI_FORBIDDEN}]*>)
    | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<STRING>"{_LEXICAL}")
    | (?P<NUMBER>[+-]?(?:[0-9]+\.[0-9]*[eE][+-]?[0-9]+
                       | [0-9]*\.[0-9]+(?:[eE][+-]?[0-9]+)?
                       | [0-9]+(?:[eE][+-]?[0-9]+)?))
    | (?P<PNAME>[A-Za-z][A-Za-z0-9_-]*:(?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)
    | (?P<NAME>[A-Za-z][A-Za-z0-9_-]*)
    | (?P<LANGTAG>@{LANGTAG})
    | (?P<OP>\^\^|&&|\|\||<=|>=|!=|[{{}}().,=<>!])
    | (?P<EOF>\Z)
    | (?P<ERROR>[\s\S])
    )
    """,
    re.VERBOSE,
)


# Each match's kind, by the index of the named group it matched.
_KINDS = {index: kind for kind, index in _TOKEN_RE.groupindex.items()}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of a query text, each as (kind, text, offset)."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        kind = _KINDS[group]
        if kind == "ERROR":
            raise QuerySyntaxError(f"unexpected character {m[group]!r}", m.start(group))
        tokens.append((kind, m[group], m.start(group)))
        if kind == "EOF":  # the scan would match the empty end once more
            break
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.prefixes: dict[str, str] = {}

    # token helpers ------------------------------------------------------
    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, message: str, tok: Optional[tuple[str, str, int]] = None) -> QuerySyntaxError:
        """An error at ``tok``, by default the next token."""
        return QuerySyntaxError(message, (tok or self.tokens[self.index])[2])

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[tuple[str, str, int]]:
        """The next token, consumed, when it has this kind (and text).  A
        keyword, a NAME given in upper case, matches in any case."""
        tok = self.tokens[self.index]
        if tok[0] == kind and (text is None or text == tok[1] or kind == "NAME" and text == tok[1].upper()):
            self.index += 1
            return tok
        return None

    def expect(self, kind: str, text: Optional[str] = None, message: Optional[str] = None) -> tuple[str, str, int]:
        """``accept``, or an error at the next token: ``message``, else
        ``expected KEYWORD`` or ``expected 'op', found 'text'``."""
        if tok := self.accept(kind, text):
            return tok
        if message is None:
            found = self.tokens[self.index][1]
            message = f"expected {text}" if kind == "NAME" else f"expected {text!r}, found {found!r}"
        raise self.fail(message)

    # grammar ------------------------------------------------------------
    def parse(self) -> Query:
        while self.accept("NAME", "PREFIX"):
            name = self.next()
            if name[0] != "PNAME" or not name[1].endswith(":"):
                raise self.fail("expected prefix name ending in ':'", name)
            iri = self.expect("IRIREF", message="expected namespace IRI")
            self.prefixes[name[1][:-1]] = iri[1][1:-1]

        self.expect("NAME", "SELECT")
        projection, group_count = self.parse_projection()
        self.expect("NAME", "WHERE")
        self.expect("OP", "{")
        patterns, filters = self.parse_group()
        order_by = self.parse_order()
        limit = self.parse_limit()
        tok = self.next()
        if tok[0] != "EOF":
            raise self.fail(f"unexpected trailing {tok[1]!r}", tok)

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
            if tok := self.accept("VAR"):
                projection.append(Var(tok[1][1:]))
            elif tok := self.accept("OP", "("):
                if group_count is not None:
                    raise self.fail("only one GROUP-COUNT aggregate is supported", tok)
                self.expect("NAME", "GROUP-COUNT")
                self.expect("OP", "(")
                var = self.expect("VAR", message="expected variable")
                self.expect("OP", ")")
                self.expect("NAME", "AS")
                alias = self.expect("VAR", message="expected alias variable")
                self.expect("OP", ")")
                group_count = GroupCount(Var(var[1][1:]), Var(alias[1][1:]))
            else:
                break
        if not projection and group_count is None:
            raise self.fail("projection must name at least one variable")
        return projection, group_count

    def parse_group(self) -> tuple[list[TriplePattern], list[FilterExpr]]:
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while not self.accept("OP", "}"):
            if tok := self.accept("EOF"):
                raise self.fail("unterminated group: expected '}'", tok)
            if self.accept("NAME", "FILTER"):
                self.expect("OP", "(")
                filters.append(self.parse_or())
                self.expect("OP", ")")
            else:
                if len(patterns) == MAX_PATTERNS:
                    raise self.fail(f"more than {MAX_PATTERNS} triple patterns")
                subject = self.parse_term(position="subject")
                predicate = self.parse_term(position="predicate")
                obj = self.parse_term(position="object")
                patterns.append(TriplePattern(subject, predicate, obj))
            self.accept("OP", ".")
        return patterns, filters

    def parse_term(self, position: str) -> PatternTerm:
        # The shorthand 'a', unlike a keyword, is lower case only.
        if position == "predicate" and self.accept("NAME", "a"):
            return IRI(RDF_TYPE)
        kind, text, _ = tok = self.next()
        if kind == "VAR":
            return Var(text[1:])
        if kind in ("IRIREF", "PNAME"):
            return self.iri(tok)
        if kind == "NUMBER":
            if position != "object":
                raise self.fail(f"number not allowed in {position} position", tok)
            return _number_literal(text)
        if kind == "STRING":
            if position != "object":
                raise self.fail(f"literal not allowed in {position} position", tok)
            return self.finish_literal(tok)
        raise self.fail(f"expected term, found {text!r}", tok)

    def finish_literal(self, tok: tuple[str, str, int]) -> Literal:
        try:
            lexical = unescape(tok[1][1:-1])
        except ValueError as exc:
            raise self.fail(str(exc), tok) from None
        language, datatype, culprit = None, XSD_STRING, tok
        if tag := self.accept("LANGTAG"):
            language = tag[1][1:]
        elif self.accept("OP", "^^"):
            culprit = self.next()
            if culprit[0] not in ("IRIREF", "PNAME"):
                raise self.fail("expected datatype IRI", culprit)
            datatype = self.iri(culprit).value
        try:
            return Literal(lexical, datatype, language)
        except ValueError as exc:
            raise self.fail(str(exc), culprit)

    def iri(self, tok: tuple[str, str, int]) -> IRI:
        """The IRI an IRIREF or prefixed-name token denotes."""
        kind, text, _ = tok
        try:
            return IRI(text[1:-1] if kind == "IRIREF" else self.expand_pname(tok))
        except ValueError as exc:
            raise self.fail(str(exc), tok)

    def expand_pname(self, tok: tuple[str, str, int]) -> str:
        prefix, _, local = tok[1].partition(":")
        if prefix not in self.prefixes:
            raise self.fail(f"unknown prefix {prefix!r}", tok)
        return self.prefixes[prefix] + local

    # filter expressions --------------------------------------------------
    def parse_or(self) -> FilterExpr:
        items = [self.parse_and()]
        while self.accept("OP", "||"):
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self) -> FilterExpr:
        items = [self.parse_unary()]
        while self.accept("OP", "&&"):
            items.append(self.parse_unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_unary(self) -> FilterExpr:
        if self.accept("OP", "!"):
            return Not(self.parse_unary())
        if self.accept("OP", "("):
            inner = self.parse_or()
            self.expect("OP", ")")
            return inner
        if self.accept("PNAME", "geo:distance"):
            return self.parse_distance()
        return self.parse_compare()

    def parse_distance(self) -> DistanceWithin:
        self.expect("OP", "(")
        a = self.parse_term(position="object")
        self.expect("OP", ",")
        b = self.parse_term(position="object")
        self.expect("OP", ")")
        if not self.accept("OP", "<"):
            raise self.fail("geo:distance supports only a strict '<' threshold")
        num = self.expect("NUMBER", message="expected numeric threshold")
        try:
            return DistanceWithin(a, b, float(num[1]))
        except ValueError as exc:
            raise self.fail(str(exc), num)

    def parse_compare(self) -> Compare:
        left = self.parse_term(position="object")
        op = self.next()
        if op[0] != "OP" or op[1] not in _COMPARE:
            raise self.fail("expected comparison operator", op)
        right = self.parse_term(position="object")
        return Compare(left, op[1], right)

    # modifiers ------------------------------------------------------------
    def parse_order(self) -> Optional[OrderSpec]:
        if not self.accept("NAME", "ORDER"):
            return None
        self.expect("NAME", "BY")
        if tok := self.accept("VAR"):
            return OrderSpec(Var(tok[1][1:]))
        descending = self.accept("NAME", "DESC")
        if not (descending or self.accept("NAME", "ASC")):
            raise self.fail("expected ORDER BY key")
        self.expect("OP", "(")
        var = self.expect("VAR", message="expected variable")
        self.expect("OP", ")")
        return OrderSpec(Var(var[1][1:]), not descending)

    def parse_limit(self) -> Optional[int]:
        if not self.accept("NAME", "LIMIT"):
            return None
        tok = self.next()
        if tok[0] != "NUMBER" or not re.fullmatch(r"[0-9]+", tok[1]):
            raise self.fail("LIMIT expects a non-negative integer", tok)
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts
            raise self.fail("LIMIT is too large", tok)

    # validation -----------------------------------------------------------
    def validate(self, query: Query) -> None:
        pattern_vars = set().union(*(p.variables() for p in query.patterns))
        for v in query.projection:
            if v.name not in pattern_vars:
                raise QuerySyntaxError(f"projected variable ?{v.name} is unbound", 0)
        if query.group_count is not None:
            if query.group_count.var.name not in pattern_vars:
                raise QuerySyntaxError(
                    f"aggregated variable ?{query.group_count.var.name} is unbound", 0)
            if query.group_count.alias.name in pattern_vars:
                raise QuerySyntaxError(
                    f"alias ?{query.group_count.alias.name} shadows a pattern variable", 0)
        # Rows hold only the output variables, so only they can order them.
        if query.order_by is not None and query.order_by.key.name not in query.output_variables:
            key = query.order_by.key.name
            problem = "is not an output variable" if key in pattern_vars else "is unbound"
            raise QuerySyntaxError(f"ordering variable ?{key} {problem}", 0)

        for f in query.filters:
            loose = _filter_vars(f) - pattern_vars
            if loose:
                name = sorted(loose)[0]
                raise QuerySyntaxError(f"filter variable ?{name} is unbound", 0)


def _filter_vars(expr: FilterExpr) -> set[str]:
    if isinstance(expr, (Compare, DistanceWithin)):
        return {t.name for t in vars(expr).values() if isinstance(t, Var)}
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
    if re.fullmatch(r"[+-]?[0-9]+", text):
        return Literal(text, XSD_INTEGER)
    if "e" in text or "E" in text:
        return Literal(text, XSD_NS + "double")
    return Literal(text, XSD_DECIMAL)


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
        return _COMPARE[op](ln, rn)
    if op in ("=", "!="):
        return _COMPARE[op](left, right)
    if (
        isinstance(left, Literal)
        and isinstance(right, Literal)
        and left.language is None
        and right.language is None
        and left.datatype == right.datatype
        and left.datatype in (XSD_STRING, XSD_DATE)
    ):
        return _COMPARE[op](left.lexical, right.lexical)
    raise QueryTypeError(f"cannot order {left} against {right}")


# The coordinates of a node, read from the graph's cache (see ``_points``).
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
    for o in g.objects(subject, prop):
        value = _finite_decimal(o.lexical) if isinstance(o, Literal) else None
        if value is not None:
            values.append(value)
    return min(values) if values else None


def _points(g: Graph) -> PointOf:
    """The coordinates of a node, resolved once per graph, not per query.

    The graph keeps a ``_Memo`` from node to point, or None, in its
    ``_points`` attribute, next to its indexes, under the key ``(len(g),
    resolve_point)``.  A graph only grows, so any insert changes its
    length, and the next call starts a new memo; the function is part of
    the key so that a rebinding of ``resolve_point`` is called.  The memo
    reaches the graph through a weak proxy, so the graph and its memo form
    no cycle and are freed as soon as the graph is dropped.  Two concurrent
    readers may fill the same entry, each with the same value."""
    key = (len(g), resolve_point)
    cached = getattr(g, "_points", None)
    if cached is None or cached[0] != key:
        cached = g._points = (key, _Memo(lambda term, g=weakref.proxy(g): resolve_point(term, g)))
    return cached[1].__getitem__


# A row holds one value per variable it binds, at the position a column map
# (variable name -> index) gives.  All rows of one list share their map.
Row = tuple[Term, ...]
Columns = dict[str, int]


def _picker(indexes: Sequence[int]) -> Callable[[Row], Row]:
    """A row's values at these column indexes, as a tuple."""
    if len(indexes) == 1:
        return itemgetter(slice(indexes[0], indexes[0] + 1))
    return itemgetter(*indexes) if indexes else itemgetter(slice(0, 0))


def _compile(expr: FilterExpr, columns: Columns, point: PointOf) -> Callable[[Row], bool]:
    """A filter as a test of one row whose columns are ``columns``, built
    once those hold all its variables.  The tests look up ``geo_distance``
    by name at each call, so a rebinding reaches them."""
    if isinstance(expr, (And, Or)):
        tests, combine = [_compile(i, columns, point) for i in expr.items], all if isinstance(expr, And) else any
        return lambda row: combine(test(row) for test in tests)
    if isinstance(expr, Not):
        inner = _compile(expr.inner, columns, point)
        return lambda row: not inner(row)
    if isinstance(expr, Compare):
        left, op, right = _operand(expr.left, columns), expr.op, _operand(expr.right, columns)
        constants = [t for t in (expr.left, expr.right) if not isinstance(t, Var)]
        if op in ("=", "!=") and any(_numeric(t) is None for t in constants):  # term (in)equality, no number
            compare = _COMPARE[op]
            return lambda row: compare(left(row), right(row))
        return lambda row: _compare_terms(left(row), op, right(row))
    if isinstance(expr, DistanceWithin):
        a, b = _operand(expr.point_a, columns), _operand(expr.point_b, columns)
        threshold = expr.threshold
        return lambda row: ((pa := point(a(row))) is not None and (pb := point(b(row))) is not None
                            and geo_distance(pa, pb) < threshold)
    raise TypeError(f"not a filter expression: {expr!r}")


def _operand(term: Operand, columns: Columns) -> Callable[[Row], Term]:
    return itemgetter(columns[term.name]) if isinstance(term, Var) else lambda row: term


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


# A position of a join step: a column index read from the row, a constant
# term, or None for a free variable.
_Slot = Union[int, Term, None]


def _extend(rows: list[Row], columns: Columns, steps: list[TriplePattern], g: Graph) -> list[Row]:
    """Every row extended by every triple that matches the first of
    ``steps`` under it; the step is removed from ``steps``.

    The rows' column map tells, once for the step, which positions are
    constants, which are read from the row and which are free.  The step
    adds a column to ``columns`` for each free variable, in pattern order,
    and extends each row as ``row + values``.
    A bind with a constant predicate, one end bound and the other free reads
    index keys and builds no triple: ``Graph.objects`` or ``Graph.subjects``
    gives the free end's values, called in the comprehension when the bound
    end is a column and read once when it is a constant.  Such a bind also
    runs the next step, which it removes from ``steps``, when that one
    checks the new variable against a constant predicate and object
    (``?new q c`` or ``c q ?new``): it keeps only the values among the
    check's keys, read once.  The variable keeps its column, and the filters
    the bind makes ready run after both.  Every other step goes to
    ``_extend_by_match``.  Neither path finds anything for a literal subject
    or a predicate that is not an IRI, so a row that binds one that way
    extends to nothing."""
    pattern = steps.pop(0)
    terms = (pattern.subject, pattern.predicate, pattern.object)
    slots: list[_Slot] = [columns.get(t.name) if isinstance(t, Var) else t for t in terms]
    for t, slot in zip(terms, slots):
        if slot is None:
            columns.setdefault(t.name, len(columns))
    s, p, o = slots
    if p is None or type(p) is int or (s is None) == (o is None):
        return _extend_by_match(rows, terms, slots, g)
    keys_of, first, second = (g.subjects, p, o) if s is None else (g.objects, s, p)
    allowed = _checked(steps[0], terms[0 if s is None else 2], g) if steps else None
    if allowed is not None:
        del steps[0]
    if type(first) is int:
        if allowed is None:
            return [row + (v,) for row in rows for v in keys_of(row[first], second)]
        return [row + (v,) for row in rows for v in keys_of(row[first], second) if v in allowed]
    if type(second) is int:
        if allowed is None:
            return [row + (v,) for row in rows for v in keys_of(first, row[second])]
        return [row + (v,) for row in rows for v in keys_of(first, row[second]) if v in allowed]
    keys = keys_of(first, second)
    return [row + (v,) for row in rows for v in keys if allowed is None or v in allowed]


def _checked(check: TriplePattern, var: Var, g: Graph) -> Optional[Collection[Term]]:
    """The values of ``var`` that ``check`` keeps, when its two other
    positions are a constant predicate and a constant; otherwise None."""
    s, p, o = check.subject, check.predicate, check.object
    if isinstance(p, Var) or isinstance(s, Var) == isinstance(o, Var):
        return None
    return g.subjects(p, o) if s == var else g.objects(s, p) if o == var else None


def _extend_by_match(rows: list[Row], terms: tuple[PatternTerm, ...], slots: list[_Slot], g: Graph) -> list[Row]:
    """``_extend`` for a step whose predicate is free or read from the row,
    whose subject and object are both free, or whose subject and object are
    both bound (a check): one ``Graph._match`` call per row, given the
    constants and the values read from the row."""
    first: dict[str, int] = {}  # each free variable's first position
    repeats = []
    for i, (t, slot) in enumerate(zip(terms, slots)):
        if slot is None:
            if t.name in first:
                repeats.append((first[t.name], i))
            else:
                first[t.name] = i
    # A variable repeated in the pattern binds from its first position and
    # must meet the same value at the others.
    values_of = _picker(list(first.values()))
    reads = [(i, slot) for i, slot in enumerate(slots) if isinstance(slot, int)]
    probe = [None if isinstance(slot, int) else slot for slot in slots]
    extended: list[Row] = []
    for row in rows:
        for i, column in reads:
            probe[i] = row[column]
        for triple in g._match(*probe):
            if repeats and any(triple[i] != triple[j] for i, j in repeats):
                continue
            extended.append(row + values_of(triple))
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


def _solve(q: Query, g: Graph, point: PointOf) -> tuple[list[Row], Columns]:
    """The solutions of the patterns that pass every filter, and their
    column map (empty when there are none).

    Each component of the patterns (see ``_components``) is joined once in
    ``_join_order``, and the components are crossed at the end.  A filter
    runs as soon as its variables are bound, compiled against the columns
    of the rows it tests.  The exception is a filter that can raise, and
    every filter after it in the query: those run in query order on full
    solutions, so a query raises exactly when filtering the full join in
    query order would.  Of the filters before them, each top-level equality
    ``_folded`` accepts is not run: its variable is bound to its constant
    in the component's start row, so the join probes the indexes with it.
    """
    pattern_vars = set().union(*(p.variables() for p in q.patterns))
    early, late = [], list(q.filters)
    while late and not _can_raise(late[0]) and _filter_vars(late[0]) <= pattern_vars:
        early.append(late.pop(0))

    seed: dict[str, Term] = {}
    for name, constant in filter(None, map(_folded, early)):
        if seed.setdefault(name, constant) != constant:
            return [], {}  # ?v = c and ?v = d for two different terms
    early = [(f, _filter_vars(f)) for f in early if _folded(f) is None]

    def spend(columns: Columns) -> list[tuple[FilterExpr, Callable[[Row], bool]]]:
        """The early filters whose variables all have columns, compiled
        against them and removed from ``early``.  Filters are told apart by
        position, never compared: ``==`` on two deep filter trees recurses
        through both."""
        ready = [(f, _compile(f, columns, point)) for f, needs in early if needs <= columns.keys()]
        early[:] = [entry for entry in early if not entry[1] <= columns.keys()]
        return ready

    def passing(rows: Iterable[Row], filters: list[tuple[FilterExpr, Callable[[Row], bool]]]) -> list[Row]:
        tests = [test for _, test in filters]
        if len(tests) == 1:
            return list(filter(tests[0], rows))
        return [r for r in rows if all(test(r) for test in tests)] if tests else list(rows)

    columns: Columns = {}
    solutions = passing([()], spend(columns))
    for component in _components(q.patterns):
        if not solutions:
            return [], {}
        start = {name: seed[name] for p in component for name in p.variables() if name in seed}
        own = dict(zip(start, range(len(start))))
        rows = passing([tuple(start.values())], spend(own))
        steps = _join_order(component, g, start)
        while rows and steps:
            rows = passing(_extend(rows, own, steps, g), spend(own))
        if not rows:
            return [], {}
        crossed = columns | {name: len(columns) + i for name, i in own.items()}
        ready = spend(crossed)
        solutions = passing(_cross(solutions, rows, columns, own, [f for f, _ in ready], point), ready)
        columns = crossed
    return passing(solutions, [(f, _compile(f, columns, point)) for f in late]), columns


def _cross(
    left: list[Row], right: list[Row], left_columns: Columns, right_columns: Columns,
    ready: list[FilterExpr], point: PointOf,
) -> Iterator[Row]:
    """The merged pairs of rows to try when crossing two non-empty row
    lists, each pair as the left row followed by the right one.

    When a ready ``DistanceWithin`` links a variable of each side, only the
    pairs in a box around each left point are tried, and the exact filter
    decides (filter and refine; docs/queries.md derives the box).  With
    ``θ`` the threshold as an angle and ``reach = |φ| + θ``, latitudes differ
    by at most ``θ`` and longitudes, the short way round, by at most
    ``2·asin(sin(θ/2) / cos(reach))``, or by any amount when ``reach`` is
    90° or more or the argument of ``asin`` is 1 or more.  Both bounds are
    widened for float rounding.
    """
    links = [
        (f.threshold, left_columns[a.name], right_columns[b.name])
        for f in ready if isinstance(f, DistanceWithin)
        for a, b in ((f.point_a, f.point_b), (f.point_b, f.point_a))
        if isinstance(a, Var) and isinstance(b, Var) and a.name in left_columns and b.name in right_columns
    ]
    if not links:
        yield from (x + y for x in left for y in right)
        return

    threshold, a, b = links[0]
    half = math.degrees(threshold / EARTH_RADIUS_M) * (1 + 1e-9) + 1e-9
    boxed = sorted((p.latitude, p.longitude, i, row) for i, row in enumerate(right)
                   if (p := point(row[b])) is not None)
    for x in left:
        p = point(x[a])
        if p is not None:
            reach = math.radians(abs(p.latitude) + half)
            ratio = math.sin(math.radians(half) / 2) / math.cos(reach) if reach < math.pi / 2 else 1.0
            span = math.degrees(2 * math.asin(ratio)) * (1 + 1e-9) + 1e-9 if ratio < 1 else 180.0
            lo = bisect.bisect_left(boxed, p.latitude - half, key=itemgetter(0))
            hi = bisect.bisect_right(boxed, p.latitude + half, key=itemgetter(0))
            for _, longitude, _, y in boxed[lo:hi]:
                d = abs(longitude - p.longitude)
                if d <= span or 360 - d <= span:
                    yield x + y


def _sort_rows(
    rows: list[tuple[Term, ...]],
    variables: Sequence[str],
    order_by: Optional[OrderSpec],
) -> list[tuple[Term, ...]]:
    rows = sorted(rows)
    if order_by is None:
        return rows
    index = list(variables).index(order_by.key.name)

    def primary(row: tuple[Term, ...]):
        value = _numeric(row[index])
        return (1, row[index]) if value is None else (0, value)

    # stable second pass keeps the term-text order inside ties
    rows.sort(key=primary, reverse=not order_by.ascending)
    return rows


def evaluate(q: Query, g: Graph) -> SolutionTable:
    """Evaluate a query: join semantics over the patterns with the filters
    (see ``_solve``), then the optional GROUP-COUNT aggregate, ordering,
    limit, projection.

    Projection is set-based: duplicate projected rows collapse.  The result
    order is always deterministic.  Each node's coordinates are resolved
    once per graph and kept with it until the graph grows (see ``_points``).
    """
    solutions, columns = _solve(q, g, _points(g))

    variables = q.output_variables
    rows: list[tuple[Term, ...]] = []
    if solutions:
        key = _picker([columns[v.name] for v in q.projection])
        if q.group_count is not None:
            member = itemgetter(columns[q.group_count.var.name])
            groups: dict[tuple[Term, ...], set[Term]] = {}
            for s in solutions:
                groups.setdefault(key(s), set()).add(member(s))
            rows = [
                group + (Literal(str(len(members)), XSD_INTEGER),)
                for group, members in groups.items()
            ]
        else:
            rows = list(set(map(key, solutions)))

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
    writer.writerows(table.rows)
    return buffer.getvalue()


def to_text_table(table: SolutionTable) -> str:
    widths = [
        max([len(v)] + [len(row[i]) for row in table.rows])
        for i, v in enumerate(table.variables)
    ]
    def line(values: Iterable[str]) -> str:
        return "  ".join(v.ljust(w) for v, w in zip(values, widths)).rstrip()

    out = [line(table.variables), line("-" * w for w in widths)]
    out.extend(line(row) for row in table.rows)
    return "\n".join(out) + "\n"
