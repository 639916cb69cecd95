"""Graph serialization: N-Triples (read/write), Turtle (write), JSON-LD export.

N-Triples is the interchange format; output is canonical (sorted by the
subject, predicate and object texts, which the terms are) so equal graphs
always produce byte-identical text.  Turtle is write-only.  JSON-LD embeds
one root subject plus its blank-node closure, with Schema.org types
compacted for crawlers.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from tifsem.errors import ExportError, NTriplesParseError
from tifsem.graph import (
    BLANK_LABEL,
    IRI_FORBIDDEN,
    LANGTAG,
    RDF_NS,
    RDF_TYPE,
    RDFS_NS,
    SURROGATES,
    XSD_NS,
    _LEXICAL,
    BlankNode,
    Graph,
    IRI,
    Literal,
    Term,
    unescape,
)
from tifsem.ontology import SCHEMA_NS, TIFSEM_NS

# The one prefix table: Turtle declares it, JSON-LD exports carry it as
# their context, and rule documents may use its names.  Read-only, so every
# export can share it.
DEFAULT_PREFIXES: Mapping[str, str] = MappingProxyType({
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "xsd": XSD_NS,
    "schema": SCHEMA_NS,
    "tifsem": TIFSEM_NS,
})

def term_to_ntriples(term: Term) -> str:
    """One term in N-Triples syntax, which is the term's own text."""
    if not isinstance(term, (IRI, BlankNode, Literal)):
        raise TypeError(f"not a term: {term!r}")
    return str(term)


class _Memo(dict):
    """Key -> ``make(key)``, made on first lookup.  A reader builds each
    distinct term text once, so every triple naming it shares that one
    object; Turtle renders each distinct term once per call."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# Sorting finished lines sorts triples by their (subject, predicate, object)
# texts, the order `to_turtle` sorts them in.  Two lines first differ where
# their text tuples do, unless one text is a proper prefix of the other.
# The constructors allow that only in pairs like `_:b` / `_:b1`, `"x"` /
# `"x"@en`, `"x"` / `"x"^^<dt>` and `"x"@en` / `"x"@en-GB`: an IRI text ends
# at its only `>` and a literal body at its only unescaped `"`.  In each pair
# the longer text goes on with a character above the space that follows the
# shorter one, so the shorter text sorts first either way.  For the same
# reason, sorting the triples of one subject by their (predicate, object)
# texts, as `to_jsonld` does, puts them in the order of their lines.
def to_ntriples(g: Graph) -> str:
    """Canonical N-Triples text: one triple per line, sorted, LF endings."""
    return "".join(sorted([" ".join((s, p, o, ".\n")) for s, p, o in g.subject_predicate_objects()]))


# IRI bodies take any escape here, unrolled like `_LEXICAL`, the literal
# body shared with the query tokenizer.
_IRI_BODY = rf"[^{IRI_FORBIDDEN}]*(?:\\.[^{IRI_FORBIDDEN}]*)*"

# One term after optional blanks, with its parts named for `_term`.
_TERM_RE = re.compile(
    rf"""[ \t]*(?P<term>
        <(?P<iri>{_IRI_BODY})>
      | _:(?P<blank>{BLANK_LABEL})
      | "(?P<lexical>{_LEXICAL})"
        (?:@(?P<language>{LANGTAG})|\^\^<(?P<datatype>{_IRI_BODY})>)?
    )""",
    re.VERBOSE,
)
# A term text that is already canonical: the constructors would build the
# same text from its parts.  It holds no backslash, no control character the
# writer escapes and no surrogate, its IRIs are non-empty, and it has no
# `^^<...#string>` suffix, which the writer drops, or `^^<...#langString>`
# one, which needs a language tag.
_CANONICAL_RE = re.compile(
    rf"""<[^{IRI_FORBIDDEN}]+>
      | _:{BLANK_LABEL}
      | "[^"\\\x00-\x1f{SURROGATES}]*"
        (?:@{LANGTAG}|\^\^<[^{IRI_FORBIDDEN}]+(?<!\#string)(?<!\#langString)>)?""",
    re.VERBOSE,
)
_KINDS = {"<": IRI, "_": BlankNode, '"': Literal}
_SKIP_RE = re.compile(r"[ \t]*(?:#|$)")
_END_RE = re.compile(r"[ \t]*\.[ \t]*(?:#|$)")


def _term(text: str) -> Term:
    """The term a whole term text names.  Raises ValueError when the text
    is not one term, or names no valid term."""
    if _CANONICAL_RE.fullmatch(text):
        return str.__new__(_KINDS[text[0]], text)
    m = _TERM_RE.fullmatch(text)
    if m is None or m.start("term"):
        raise ValueError("not one term text")
    if m.group("iri") is not None:
        return IRI(unescape(m.group("iri")))
    if m.group("blank") is not None:
        return BlankNode(m.group("blank"))
    lexical = unescape(m.group("lexical"))
    if m.group("language") is not None:
        return Literal(lexical, language=m.group("language"))
    if m.group("datatype") is not None:
        return Literal(lexical, unescape(m.group("datatype")))
    return Literal(lexical)


def _parse_error(message: str, line: str, lineno: int, pos: int) -> NTriplesParseError:
    column = len(line) - len(line[pos:].lstrip(" \t")) + 1
    return NTriplesParseError(f"column {column}: {message}", lineno)


def _read_line(line: str, lineno: int, built: _Memo) -> Optional[list[Term]]:
    """The terms of the triple one line states, or None for a blank or
    comment line; the caller drops the line's trailing carriage returns.
    Raises NTriplesParseError with the line and column of the first fault."""
    if _SKIP_RE.match(line):
        return None
    terms: list[Term] = []
    pos = 0
    for position in ("subject", "predicate", "object"):
        m = _TERM_RE.match(line, pos)
        if m is None:
            raise _parse_error("expected a term", line, lineno, pos)
        try:
            term = built[m.group("term")]
        except ValueError as exc:
            raise _parse_error(str(exc), line, lineno, pos) from None
        if position == "subject" and isinstance(term, Literal):
            raise _parse_error("literal cannot be a subject", line, lineno, pos)
        if position == "predicate" and not isinstance(term, IRI):
            raise _parse_error("predicate must be an IRI", line, lineno, pos)
        terms.append(term)
        pos = m.end()
    if not _END_RE.match(line, pos):
        raise _parse_error("statement must end with '.'", line, lineno, pos)
    return terms


def from_ntriples(text: str) -> Graph:
    """Parse N-Triples text; duplicate statements collapse.  An error gives
    the line and the 1-based column where the offending part starts.

    Each line loses its trailing carriage returns.  A line in the form
    `to_ntriples` writes, three term texts each followed by one blank and
    then `.`, is split at its first two blanks.  Every other line goes to
    `_read_line`, which takes any blanks and comments and reports the first
    fault, and so does a split line whose texts name no valid term or a
    term of the wrong kind.  Each distinct term text is checked and built
    once, and one already in canonical form becomes its term as it is."""
    g = Graph()
    add, built = g._add, _Memo(_term)
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.rstrip("\r")
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[2].endswith(" ."):
            try:
                s, p, o = built[parts[0]], built[parts[1]], built[parts[2][:-2]]
                if type(s) in (IRI, BlankNode) and type(p) is IRI:
                    add(s, p, o)
                    continue
            except ValueError:
                pass
        terms = _read_line(line, lineno, built)
        if terms is not None:
            add(*terms)
    return g


_PN_LOCAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*$")


# Cached across calls, since every export asks about the same few
# vocabulary IRIs; Turtle shares the cache.  The bound keeps a graph with
# millions of distinct IRIs from growing it without limit.
@functools.lru_cache(maxsize=4096)
def _compact(iri: str) -> Optional[str]:
    """The prefixed name of ``iri`` under the longest matching namespace in
    `DEFAULT_PREFIXES`, or None when no local part is a valid name."""
    best: Optional[tuple[str, str]] = None
    for prefix, ns in DEFAULT_PREFIXES.items():
        if iri.startswith(ns) and (best is None or len(ns) > len(best[1])):
            best = (prefix, ns)
    if best is None:
        return None
    local = iri[len(best[1]) :]
    if not local or not _PN_LOCAL_RE.match(local) or local.endswith("."):
        return None
    return f"{best[0]}:{local}"


def to_turtle(g: Graph) -> str:
    """Turtle text: prefix declarations, then one sorted statement per line
    with prefixed names wherever an IRI falls under a declared namespace."""

    def render(term: Term) -> str:
        if isinstance(term, IRI):
            return _compact(term.value) or str(term)
        if isinstance(term, Literal) and term.endswith(">"):  # "..."^^<datatype>
            body, _, datatype = term.rpartition("^^")
            return f"{body}^^{_compact(datatype[1:-1]) or datatype}"
        return str(term)

    form = _Memo(render)
    lines = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(DEFAULT_PREFIXES.items())]
    lines.append("")
    for s, p, o in sorted(g.subject_predicate_objects()):
        lines.append(f"{form[s]} {form[p]} {form[o]} .")
    return "\n".join(lines) + "\n"


def _json_text(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, ensure_ascii=False,
    sort_keys=True)`` writes it, for a tree of strings, lists and dicts with
    string keys, the only values an export holds; ``indent`` is the line
    break and indentation of the value's own line."""
    if isinstance(value, str):
        return encode_basestring(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring(key)}: {_json_text(item, inner)}" for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join([_json_text(item, inner) for item in value]) + indent + "]"


@dataclass
class JsonLdDocument:
    """A compacted JSON-LD document: context plus a node-object tree."""

    context: Mapping[str, str]
    body: dict

    def to_json(self) -> dict:
        return {"@context": dict(self.context), **self.body}

    def to_text(self) -> str:
        try:
            return _json_text(self.to_json()) + "\n"
        except RecursionError:
            raise ExportError("JSON-LD document nested too deeply to write") from None


def _stated(iri: str) -> str:
    """``iri`` written as itself, which a JSON-LD reader takes back as the
    same IRI only when it has a ``:`` and the part before the first one is
    neither ``_`` (a blank node identifier) nor a `DEFAULT_PREFIXES` key (a
    compact IRI).  Raises ExportError naming ``iri`` otherwise."""
    prefix, colon, _ = iri.partition(":")
    if not colon or prefix == "_" or prefix in DEFAULT_PREFIXES:
        raise ExportError(f"IRI {iri} would read back from JSON-LD as another term")
    return iri


# Keyed by the IRI's N-Triples text: a predicate or type term itself, whose
# hash ``str`` keeps, so a lookup never rehashes, or a datatype's `<...>`.
@functools.lru_cache(maxsize=4096)
def _name(iri: str) -> str:
    """A key, type or datatype: its prefixed name, else the IRI stated."""
    value = iri[1:-1]
    return _compact(value) or _stated(value)


def _literal_json(term: Literal):
    end = term.rindex('"')  # the body's closing quote; the suffix follows
    lexical = unescape(term[1:end])
    if end + 1 == len(term):
        return lexical
    if term[end + 1] == "@":
        return {"@value": lexical, "@language": term[end + 2 :]}
    return {"@value": lexical, "@type": _name(term[end + 3 :])}


_RDF_TYPE = IRI(RDF_TYPE)


def to_jsonld(g: Graph, root: IRI) -> JsonLdDocument:
    """Export the subgraph rooted at ``root`` as compacted JSON-LD.

    The document embeds every triple whose subject is the root or a blank
    node reachable from it through object positions.  Blank nodes referenced
    more than once (or cyclically) keep an explicit ``@id``; others are
    inlined anonymously.

    Keys, ``@type`` values and datatypes are prefixed names where
    `DEFAULT_PREFIXES` allows, and every other IRI is written as itself.
    An export raises ExportError on an IRI that would then read back as
    another term: one with no ``:``, or whose text before the first ``:``
    is ``_`` or a `DEFAULT_PREFIXES` key, such as ``<_:x>`` or
    ``<tifsem:name>``.
    """
    # The closure, each node with the (predicate, object) terms of its
    # triples in order, and the number of references to each blank node.
    closure: dict[Term, list[tuple[IRI, Term]]] = {root: []}
    refs: dict[BlankNode, int] = {}
    queue: list[Term] = [root]
    while queue:
        node = queue.pop()
        closure[node] = pairs = sorted(g.predicate_objects(node))
        for _, obj in pairs:
            if isinstance(obj, BlankNode):
                refs[obj] = refs.get(obj, 0) + 1
                if obj not in closure:
                    closure[obj] = []
                    queue.append(obj)
    if not closure[root]:
        raise ExportError(f"root {root.value} is not a subject in the graph")

    emitted: set[Term] = set()

    def node_object(subject) -> dict:
        emitted.add(subject)
        out: dict = {}
        if isinstance(subject, IRI):
            out["@id"] = _stated(subject.value)
        elif refs.get(subject, 0) > 1:
            out["@id"] = str(subject)
        types = []
        props: dict[str, list] = {}
        for predicate, obj in closure[subject]:
            if predicate == _RDF_TYPE and isinstance(obj, IRI):
                types.append(_name(obj))
                continue
            props.setdefault(_name(predicate), []).append(object_json(obj))
        if types:
            out["@type"] = types[0] if len(types) == 1 else types
        for key, values in props.items():
            out[key] = values[0] if len(values) == 1 else values
        return out

    def object_json(obj: Term):
        if isinstance(obj, Literal):
            return _literal_json(obj)
        if isinstance(obj, IRI):
            return {"@id": _stated(obj.value)}
        if obj in emitted:  # multi-referenced or cyclic: point at its @id
            return {"@id": str(obj)}
        return node_object(obj)

    try:
        body = node_object(root)
    except RecursionError:
        raise ExportError(f"root {root.value}: blank nodes nested too deeply to export") from None
    return JsonLdDocument(context=DEFAULT_PREFIXES, body=body)


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(to_ntriples(g), encoding="utf-8")
