"""Graph serialization: N-Triples (read/write), Turtle (write), JSON-LD export.

N-Triples is the interchange format; output is canonical (sorted by the
subject, predicate and object texts, which the terms are) so equal graphs
always produce byte-identical text.  Turtle is write-only.  JSON-LD embeds
one root subject plus its blank-node closure, with Schema.org types
compacted for crawlers.
"""

from __future__ import annotations

import functools
import json
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
# texts, as `to_jsonld` does (its predicates, then each one's objects), puts
# them in the order of their lines.
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
    once, and one already in canonical form becomes its term as it is.  The
    writer puts each subject's lines together, so a split line's subject is
    looked up and checked only when its text differs from the one before."""
    g = Graph()
    add, built = g._add, _Memo(_term)
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    # The subject text of the current run and its term, an IRI or blank
    # node; no run before the first split line or after a literal subject.
    run = s = None
    for lineno, line in enumerate(lines, 1):
        parts = line.split(" ", 2)
        if len(parts) == 3:
            subject, predicate, rest = parts
            if rest.endswith(" ."):
                try:
                    if subject != run:
                        s = built[subject]
                        run = subject if type(s) is not Literal else None
                    p, o = built[predicate], built[rest[:-2]]
                    if run is not None and type(p) is IRI:
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
    with prefixed names wherever an IRI falls under a declared namespace,
    read from the subject index in the order of the (s, p, o) texts."""

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
    for s in sorted(g._by_subject):
        buckets, subject = g._by_subject[s], form[s]
        for p in sorted(buckets):
            bucket, head = buckets[p], f"{subject} {form[p]} "
            if type(bucket) is dict:  # two or more objects
                for o in sorted(bucket):
                    lines.append(f"{head}{form[o]} .")
            else:
                lines.append(f"{head}{form[bucket]} .")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class JsonLdDocument:
    """A compacted JSON-LD document as the text `to_jsonld` wrote, once and
    straight from the graph; `to_json` parses that text."""

    text: str

    def to_json(self) -> dict:
        return json.loads(self.text)

    def to_text(self) -> str:
        return self.text


def _stated(iri: str) -> str:
    """``iri`` written as itself, which a JSON-LD reader takes back as the
    same IRI only when it has a ``:`` and the part before the first one is
    neither ``_`` (a blank node identifier) nor a `DEFAULT_PREFIXES` key (a
    compact IRI).  Raises ExportError naming ``iri`` otherwise."""
    prefix, colon, _ = iri.partition(":")
    if not colon or prefix == "_" or prefix in DEFAULT_PREFIXES:
        raise ExportError(f"IRI {iri} would read back from JSON-LD as another term")
    return iri


def _name(iri: str) -> str:
    """A key, type or datatype, as its N-Triples text: its prefixed name, else the IRI stated."""
    value = iri[1:-1]
    return _compact(value) or _stated(value)


# The fixed texts of an export, cached across calls like `_compact` and
# bounded the same way.  Each is keyed only by the vocabulary it renders: a
# predicate, the sorted type IRIs of a node with the indentation of its
# keys, or a literal's `@tag` or `^^<datatype>` suffix.  A predicate or type
# is a term, whose hash ``str`` keeps, so a lookup never rehashes it.  An
# IRI `_name` refuses raises ExportError on every lookup, since an
# ``lru_cache`` keeps no exception.
@functools.lru_cache(maxsize=4096)
def _entry_head(predicate: IRI) -> tuple[str, str]:
    """A predicate's key, and its entry up to the value: `"key": `."""
    key = _name(predicate)
    return key, encode_basestring(key) + ": "


@functools.lru_cache(maxsize=4096)
def _type_entry(types: tuple[IRI, ...], inner: str) -> str:
    """The ``@type`` entry of a node whose keys are written at ``inner``."""
    names = [encode_basestring(_name(iri)) for iri in types]
    return '"@type": ' + (names[0] if len(names) == 1 else _array(names, inner))


@functools.lru_cache(maxsize=4096)
def _literal_head(suffix: str) -> str:
    """The entry written before ``@value`` for a literal's suffix."""
    if suffix[0] == "@":
        return '"@language": ' + encode_basestring(suffix[1:]) + ","
    return '"@type": ' + encode_basestring(_name(suffix[2:])) + ","


_RDF_TYPE = IRI(RDF_TYPE)
# The `@context` entry of every export, indented as the root's keys are.
_CONTEXT = '"@context": ' + json.dumps(dict(DEFAULT_PREFIXES), indent=2, sort_keys=True).replace("\n", "\n  ")


def _array(texts: list[str], indent: str) -> str:
    """A JSON array of value texts written one level in from ``indent``."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(texts) + indent + "]"


# The writer gives the text `json.dumps(..., indent=2, ensure_ascii=False,
# sort_keys=True)` gives for the document's node-object tree.  ``indent`` is
# the line break and indentation of the line a value is written on, and a
# node's keys are sorted by their raw text, not their quoted form: `http://e/a`
# comes before `http://e/a!`, though `"http://e/a!"` sorts first.  A node's
# values are written in the order of its sorted (predicate, object) pairs, so
# the first reference in that order embeds a blank node.  Each level of
# nesting is two frames, a node and its value, so the recursion limit bounds
# the depth.  The writer keeps its state in its arguments, so an export
# leaves no reference cycle for the collector.
#
# A literal's body is its JSON string whenever it holds no backslash, and
# then a plain literal is written as the term itself, with no call.  A term
# escapes `"`, `\` and every character below U+0020, the exact set
# `encode_basestring` escapes, so a body with no backslash holds none of
# them and `encode_basestring(unescape(body))` is the body as it stands.  A
# body with a backslash is unescaped and encoded again, because the two
# escape some characters differently: N-Triples writes `\u0008` where JSON
# writes `\b`, and its hex digits are uppercase.  IRIs and blank node labels
# hold none of that set either, so they are quoted as they are.
def _node_text(node: Term, indent: str, index: dict, refs: dict, emitted: set) -> str:
    emitted.add(node)
    inner = indent + "  "
    if isinstance(node, IRI):  # only the root; it carries the context
        entries = [("@context", _CONTEXT), ("@id", '"@id": "' + _stated(node.value) + '"')]
    else:
        entries = [("@id", '"@id": "' + node + '"')] if refs[node] > 1 else []
    buckets = index.get(node, ())
    for predicate in sorted(buckets):
        bucket = buckets[predicate]  # one object, or a dict of two or more
        objects = sorted(bucket) if type(bucket) is dict else [bucket]
        if predicate == _RDF_TYPE:
            types = tuple([obj for obj in objects if type(obj) is IRI])
            if types:
                entries.append(("@type", _type_entry(types, inner)))
            if len(types) == len(objects):
                continue
            objects = [obj for obj in objects if type(obj) is not IRI]
        key, head = _entry_head(predicate)
        if len(objects) == 1:
            obj = objects[0]
            value = obj if obj[-1] == '"' and "\\" not in obj else _value_text(obj, inner, index, refs, emitted)
        else:
            texts = []
            for obj in objects:  # a loop: a comprehension is a frame of its own before Python 3.12
                texts.append(obj if obj[-1] == '"' and "\\" not in obj
                             else _value_text(obj, inner + "  ", index, refs, emitted))
            value = _array(texts, inner)
        entries.append((key, head + value))
    if not entries:
        return "{}"
    entries.sort()
    return "{" + inner + ("," + inner).join([text for _, text in entries]) + indent + "}"


def _value_text(obj: Term, indent: str, index: dict, refs: dict, emitted: set) -> str:
    inner = indent + "  "
    if isinstance(obj, Literal):
        end = obj.rindex('"') + 1  # past the body's closing quote; the suffix follows
        value = encode_basestring(unescape(obj[1 : end - 1])) if "\\" in obj else obj[:end]
        if end == len(obj):
            return value
        return "{" + inner + _literal_head(obj[end:]) + inner + '"@value": ' + value + indent + "}"
    if isinstance(obj, IRI):
        return "{" + inner + '"@id": "' + _stated(obj[1:-1]) + '"' + indent + "}"
    if obj in emitted:  # shared or cyclic: point at its @id
        return "{" + inner + '"@id": "' + obj + '"' + indent + "}"
    return _node_text(obj, indent, index, refs, emitted)


def to_jsonld(g: Graph, root: IRI) -> JsonLdDocument:
    """Export the subgraph rooted at ``root`` as compacted JSON-LD.

    The document embeds every triple whose subject is the root or a blank
    node reachable from it through object positions.  Blank nodes referenced
    more than once (or cyclically) keep an explicit ``@id``; others are
    inlined anonymously.  The document is written once, as text, with no
    node-object tree; `JsonLdDocument.to_json` parses it.

    Keys, ``@type`` values and datatypes are prefixed names where
    `DEFAULT_PREFIXES` allows, and every other IRI is written as itself.
    An export raises ExportError on an IRI that would then read back as
    another term: one with no ``:``, or whose text before the first ``:``
    is ``_`` or a `DEFAULT_PREFIXES` key, such as ``<_:x>`` or
    ``<tifsem:name>``, on blank nodes nested too deeply to write, and on a
    root that is not an `IRI`.

    A literal whose text holds no backslash gives its body as its JSON
    string, as it stands: a term escapes exactly the characters JSON does.
    Each key with its `": "`, each node's ``@type`` entry and each
    literal's ``@language`` or ``@type`` entry is rendered once, in a
    bounded cache keyed by the vocabulary it names and shared by every
    export.
    """
    if not isinstance(root, IRI):
        raise ExportError(f"root {root!r} is not an IRI")
    index = g._by_subject  # subject -> predicate -> its objects, as `Graph` buckets them
    if root not in index:
        raise ExportError(f"root {root.value} is not a subject in the graph")
    # The number of references to each blank node reachable from the root.
    refs: dict[BlankNode, int] = {}
    queue: list[Term] = [root]
    while queue:
        for bucket in index.get(queue.pop(), {}).values():
            for obj in bucket if type(bucket) is dict else (bucket,):
                if type(obj) is BlankNode:
                    refs[obj] = refs.get(obj, 0) + 1
                    if refs[obj] == 1:
                        queue.append(obj)
    try:
        text = _node_text(root, "\n", index, refs, set())
    except RecursionError:
        raise ExportError(f"root {root.value}: blank nodes nested too deeply to export") from None
    return JsonLdDocument(text + "\n")


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(to_ntriples(g), encoding="utf-8")
