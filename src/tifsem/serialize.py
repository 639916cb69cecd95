"""Graph serialization: N-Triples (read/write), Turtle (write), JSON-LD export.

N-Triples is the interchange format; output is canonical (sorted by the
serialized subject, predicate, object forms) so equal graphs always produce
byte-identical text.  Turtle is write-only.  JSON-LD embeds one root subject
plus its blank-node closure, with Schema.org types compacted for crawlers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

from tifsem.errors import ExportError, NTriplesParseError
from tifsem.graph import (
    BLANK_LABEL,
    IRI_FORBIDDEN,
    LANGTAG,
    RDF_NS,
    RDF_TYPE,
    RDFS_NS,
    XSD_NS,
    XSD_STRING,
    BlankNode,
    Graph,
    IRI,
    Literal,
    Term,
    Triple,
)
from tifsem.ontology import SCHEMA_NS, TIFSEM_NS, OntologySnapshot

DEFAULT_PREFIXES: Mapping[str, str] = {
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "xsd": XSD_NS,
    "schema": SCHEMA_NS,
    "tifsem": TIFSEM_NS,
}

# String escapes, written and read.  The writer escapes the five characters
# with a short form and every other control character as \uXXXX.
_ESCAPES = str.maketrans({
    **{chr(cp): f"\\u{cp:04X}" for cp in range(0x20)},
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t",
})
_UNESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.DOTALL)
_UNESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_NON_ASCII_RE = re.compile(r"[^\x00-\x7E]")


def _escape_string(text: str) -> str:
    return text.translate(_ESCAPES)


def unescape(text: str) -> str:
    r"""Resolve the string escapes ``\t \b \n \r \f \" \' \\ \uXXXX
    \UXXXXXXXX``.  Raises ValueError on any other escape and on an escape
    naming a surrogate or a code point above U+10FFFF."""

    def repl(m: re.Match) -> str:
        digits = m.group(1) or m.group(2)
        if digits:
            cp = int(digits, 16)
            if cp > 0x10FFFF or 0xD800 <= cp <= 0xDFFF:
                raise ValueError(f"escape names no Unicode scalar value: {m.group()}")
            return chr(cp)
        if m.group(3) not in _UNESCAPES:
            raise ValueError(f"invalid escape {m.group()}")
        return _UNESCAPES[m.group(3)]

    return _UNESCAPE_RE.sub(repl, text) if "\\" in text else text


def term_to_ntriples(term: Term) -> str:
    """Serialize one term in N-Triples syntax.  The constructors keep every
    IRI, label and language tag free of characters that need escaping."""
    if isinstance(term, IRI):
        return f"<{term.value}>"
    if isinstance(term, Literal):
        body = f'"{_escape_string(term.lexical)}"'
        if term.language is not None:
            return f"{body}@{term.language}"
        if term.datatype != XSD_STRING:
            return f"{body}^^<{term.datatype}>"
        return body
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    raise TypeError(f"not a term: {term!r}")


def _line(t: Triple) -> str:
    return f"{term_to_ntriples(t.subject)} {term_to_ntriples(t.predicate)} {term_to_ntriples(t.object)} .\n"


class _Forms(dict):
    """Term -> its text under ``render``, rendered on first lookup: one
    serializer call renders each distinct term once."""

    def __init__(self, render: Callable[[Term], str]):
        super().__init__()
        self.render = render

    def __missing__(self, term: Term) -> str:
        form = self[term] = self.render(term)
        return form


def _sorted_statements(g: Graph) -> list[tuple[str, Triple]]:
    """Each triple with its N-Triples line, sorted by the line.  No two
    triples share a line, so the sort never compares triples."""
    form = _Forms(term_to_ntriples)
    return sorted([(f"{form[t.subject]} {form[t.predicate]} {form[t.object]} .\n", t) for t in g])


def _ascii_escape(m: re.Match) -> str:
    cp = ord(m.group())
    return f"\\u{cp:04X}" if cp <= 0xFFFF else f"\\U{cp:08X}"


# Sorting finished lines sorts triples by their (subject, predicate, object)
# forms.  Two lines first differ where their form tuples do, unless one form
# is a proper prefix of the other.  The constructors allow that only in pairs
# like `_:b` / `_:b1`, `"x"` / `"x"@en`, `"x"` / `"x"^^<dt>` and
# `"x"@en` / `"x"@en-GB`: an IRI form ends at its only `>` and a literal body
# at its only unescaped `"`.  In each pair the longer form goes on with a
# character above the space that follows the shorter one, so the shorter
# form sorts first either way.
def to_ntriples(g: Graph, ascii_only: bool = False) -> str:
    """Canonical N-Triples text: one triple per line, sorted, LF endings.
    With ``ascii_only``, every character above U+007E is written as an
    escape."""
    text = "".join([line for line, _ in _sorted_statements(g)])
    if ascii_only:
        text = _NON_ASCII_RE.sub(_ascii_escape, text)
    return text


# IRI and literal bodies take any escape here; `unescape` and the term
# constructors then refuse what the grammar does not allow.  Each body is an
# unrolled loop, `[^F]*(?:\\.[^F]*)*`, which the regex engine scans several
# times faster than the alternation `(?:[^F]|\\.)*`.  A body never holds a
# line break.
_IRI_BODY = rf"[^{IRI_FORBIDDEN}]*(?:\\.[^{IRI_FORBIDDEN}]*)*"
_LEXICAL = r'[^"\\\n]*(?:\\.[^"\\\n]*)*'
_IRI = f"<{_IRI_BODY}>"
_BLANK = f"_:{BLANK_LABEL}"
_LITERAL = rf'"{_LEXICAL}"(?:@{LANGTAG}|\^\^<{_IRI_BODY}>)?'

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
_SKIP_RE = re.compile(r"[ \t]*(?:#|$)")
_END_RE = re.compile(r"[ \t]*\.[ \t]*(?:#|$)")

# One whole line, its line break included: a statement, whose three groups
# are the subject, predicate and object texts, or a blank or comment line,
# whose groups are None.  It accepts the lines `_read_line` accepts, and no
# others: trailing `\r`s before the break are dropped, a `\r` elsewhere is
# kept, and the last line may end the text without a break, so it matches
# (empty, at least) at the end of the text.  Each term ends where `_TERM_RE`
# would end it, because no term can be cut shorter and still be followed by
# what the grammar asks for next.
_LINE_RE = re.compile(
    rf"""(?:[ \t]*({_IRI}|{_BLANK})
            [ \t]*({_IRI})
            [ \t]*({_IRI}|{_BLANK}|{_LITERAL})
            [ \t]*\.)?
        [ \t]*(?:\#[^\n]*)?\r*(?:\n|\Z)""",
    re.VERBOSE,
)


def _term(m: re.Match) -> Term:
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


class _Terms(dict):
    """Term text -> term, built on first lookup: each distinct text is
    unescaped, checked and built once, and every triple naming it shares
    that one object.  A lookup raises ValueError when the text names no
    valid term."""

    def __missing__(self, key: str) -> Term:
        term = self[key] = _term(_TERM_RE.match(key))
        return term


def _read_line(line: str, lineno: int, built: _Terms) -> Optional[Triple]:
    """The triple one line states, or None for a blank or comment line.
    Raises NTriplesParseError with the line and column of the first fault."""
    line = line.rstrip("\r")
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
    return Triple(*terms)


def from_ntriples(text: str) -> Graph:
    """Parse N-Triples text; duplicate statements collapse.  An error gives
    the line and the 1-based column where the offending part starts.

    The text is read in one pass of `_LINE_RE`, and each distinct term text
    is built once.  A line that pass cannot take, because it does not match
    or names an invalid term, goes to `_read_line`, which reports the
    fault; should it accept the line, the pass resumes after it."""
    g = Graph()
    built = _Terms()
    pos = 0
    while True:
        for m in _LINE_RE.finditer(text, pos):
            if m.start() != pos:
                break
            s, p, o = m.groups()
            if s is not None:
                try:
                    triple = Triple(built[s], built[p], built[o])
                except ValueError:
                    break
                g.insert(triple)
            pos = m.end()
        else:
            return g
        end = text.find("\n", pos)
        triple = _read_line(text[pos:] if end < 0 else text[pos:end], text.count("\n", 0, pos) + 1, built)
        if triple is not None:
            g.insert(triple)
        if end < 0:
            return g
        pos = end + 1


_PN_LOCAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*$")


def _compact(iri: str, prefixes: Mapping[str, str]) -> Optional[str]:
    best: Optional[tuple[str, str]] = None
    for prefix, ns in prefixes.items():
        if iri.startswith(ns) and (best is None or len(ns) > len(best[1])):
            best = (prefix, ns)
    if best is None:
        return None
    local = iri[len(best[1]) :]
    if not local or not _PN_LOCAL_RE.match(local) or local.endswith("."):
        return None
    return f"{best[0]}:{local}"


def to_turtle(g: Graph, prefixes: Optional[Mapping[str, str]] = None) -> str:
    """Turtle text: prefix declarations, then one sorted statement per line
    with prefixed names wherever an IRI falls under a declared namespace."""
    prefixes = dict(DEFAULT_PREFIXES if prefixes is None else prefixes)

    def render(term: Term) -> str:
        if isinstance(term, IRI):
            return _compact(term.value, prefixes) or f"<{term.value}>"
        if isinstance(term, Literal) and term.language is None and term.datatype != XSD_STRING:
            dt = _compact(term.datatype, prefixes) or f"<{term.datatype}>"
            return f'"{_escape_string(term.lexical)}"^^{dt}'
        return term_to_ntriples(term)

    form = _Forms(render)
    lines = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(prefixes.items())]
    lines.append("")
    for _, t in _sorted_statements(g):
        lines.append(f"{form[t.subject]} {form[t.predicate]} {form[t.object]} .")
    return "\n".join(lines) + "\n"


@dataclass
class JsonLdDocument:
    """A compacted JSON-LD document: context plus a node-object tree."""

    context: dict[str, str]
    body: dict

    def to_json(self) -> dict:
        return {"@context": dict(self.context), **self.body}

    def to_text(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, ensure_ascii=False, sort_keys=True) + "\n"


def _literal_json(term: Literal, prefixes: Mapping[str, str]):
    if term.language is not None:
        return {"@value": term.lexical, "@language": term.language}
    if term.datatype == XSD_STRING:
        return term.lexical
    dt = _compact(term.datatype, prefixes) or term.datatype
    return {"@value": term.lexical, "@type": dt}


def to_jsonld(
    g: Graph,
    root: IRI,
    prefixes: Optional[Mapping[str, str]] = None,
) -> JsonLdDocument:
    """Export the subgraph rooted at ``root`` as compacted JSON-LD.

    The document embeds every triple whose subject is the root or a blank
    node reachable from it through object positions.  Blank nodes referenced
    more than once (or cyclically) keep an explicit ``@id``; others are
    inlined anonymously.
    """
    prefixes = dict(DEFAULT_PREFIXES if prefixes is None else prefixes)
    if not any(True for _ in g.match(subject=root)):
        raise ExportError(f"root {root.value} is not a subject in the graph")

    # Blank-node closure reachability and per-node reference counts.
    seen: set[Term] = {root}
    refs: dict[BlankNode, int] = {}
    queue: list[Term] = [root]
    while queue:
        node = queue.pop()
        for t in g.match(subject=node):
            obj = t.object
            if isinstance(obj, BlankNode):
                refs[obj] = refs.get(obj, 0) + 1
                if obj not in seen:
                    seen.add(obj)
                    queue.append(obj)

    emitted: set[Term] = set()

    def node_object(subject) -> dict:
        emitted.add(subject)
        out: dict = {}
        if isinstance(subject, IRI):
            out["@id"] = subject.value
        elif refs.get(subject, 0) > 1:
            out["@id"] = f"_:{subject.label}"
        types = []
        props: dict[str, list] = {}
        for t in sorted(g.match(subject=subject), key=_line):
            if t.predicate.value == RDF_TYPE and isinstance(t.object, IRI):
                types.append(_compact(t.object.value, prefixes) or t.object.value)
                continue
            key = _compact(t.predicate.value, prefixes) or t.predicate.value
            props.setdefault(key, []).append(object_json(t.object))
        if types:
            out["@type"] = types[0] if len(types) == 1 else types
        for key, values in props.items():
            out[key] = values[0] if len(values) == 1 else values
        return out

    def object_json(obj: Term):
        if isinstance(obj, Literal):
            return _literal_json(obj, prefixes)
        if isinstance(obj, IRI):
            return {"@id": obj.value}
        if obj in emitted:  # multi-referenced or cyclic: point at its @id
            return {"@id": f"_:{obj.label}"}
        return node_object(obj)

    body = node_object(root)
    return JsonLdDocument(context=prefixes, body=body)


def ontology_to_graph(snapshot: OntologySnapshot) -> Graph:
    """Class declarations and subclass links of a snapshot, as triples."""
    g = Graph()
    rdfs_class = IRI(RDFS_NS + "Class")
    rdfs_sub = IRI(RDFS_NS + "subClassOf")
    rdfs_label = IRI(RDFS_NS + "label")
    for descriptor in snapshot.concepts.values():
        node = IRI(descriptor.iri)
        g.insert(Triple(node, IRI(RDF_TYPE), rdfs_class))
        g.insert(Triple(node, rdfs_label, Literal(descriptor.label)))
        if descriptor.parent is not None:
            g.insert(Triple(node, rdfs_sub, IRI(descriptor.parent)))
    return g


def save_graph(g: Graph, path: str | Path, ascii_only: bool = False) -> None:
    Path(path).write_text(to_ntriples(g, ascii_only), encoding="utf-8")
