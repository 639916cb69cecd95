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
from typing import Mapping, Optional

from tifsem.errors import ExportError, NTriplesParseError
from tifsem.graph import (
    RDF_LANG_STRING,
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

_ECHAR = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape_string(text: str, ascii_only: bool) -> str:
    out = []
    for ch in text:
        if ch in _ECHAR:
            out.append(_ECHAR[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        elif ascii_only and ord(ch) > 0x7E:
            cp = ord(ch)
            out.append(f"\\u{cp:04X}" if cp <= 0xFFFF else f"\\U{cp:08X}")
        else:
            out.append(ch)
    return "".join(out)


def term_to_ntriples(term: Term, ascii_only: bool = False) -> str:
    """Serialize one term in N-Triples syntax."""
    if isinstance(term, IRI):
        return f"<{_escape_string(term.value, ascii_only)}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{_escape_string(term.lexical, ascii_only)}"'
        if term.language is not None:
            return f"{body}@{term.language}"
        if term.datatype != XSD_STRING:
            return f"{body}^^<{_escape_string(term.datatype, ascii_only)}>"
        return body
    raise TypeError(f"not a term: {term!r}")


def _triple_key(t: Triple) -> tuple[str, str, str]:
    return (
        term_to_ntriples(t.subject),
        term_to_ntriples(t.predicate),
        term_to_ntriples(t.object),
    )


def to_ntriples(g: Graph, ascii_only: bool = False) -> str:
    """Canonical N-Triples text: one triple per line, sorted, LF endings."""
    lines = []
    for t in sorted(g, key=_triple_key):
        s = term_to_ntriples(t.subject, ascii_only)
        p = term_to_ntriples(t.predicate, ascii_only)
        o = term_to_ntriples(t.object, ascii_only)
        lines.append(f"{s} {p} {o} .\n")
    return "".join(lines)


_UNESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)
_ECHAR_REVERSE = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _unescape(text: str, line: int) -> str:
    def repl(m: re.Match) -> str:
        if m.group(1):
            return chr(int(m.group(1), 16))
        if m.group(2):
            cp = int(m.group(2), 16)
            if cp > 0x10FFFF:
                raise NTriplesParseError(f"code point out of range: {m.group(0)}", line)
            return chr(cp)
        ch = m.group(3)
        if ch not in _ECHAR_REVERSE:
            raise NTriplesParseError(f"invalid escape \\{ch}", line)
        return _ECHAR_REVERSE[ch]

    return _UNESCAPE_RE.sub(repl, text)


class _LineScanner:
    """Tokenizer over a single N-Triples line."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.pos = 0
        self.line = line

    def fail(self, message: str) -> NTriplesParseError:
        return NTriplesParseError(message, self.line)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text) or self.text[self.pos] == "#"

    def term(self) -> Term:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.fail("unexpected end of line")
        ch = self.text[self.pos]
        if ch == "<":
            return self._iri()
        if ch == "_":
            return self._blank()
        if ch == '"':
            return self._literal()
        raise self.fail(f"unexpected character {ch!r}")

    def _iri(self) -> IRI:
        end = self.text.find(">", self.pos + 1)
        if end < 0:
            raise self.fail("unterminated IRI")
        raw = self.text[self.pos + 1 : end]
        self.pos = end + 1
        try:
            return IRI(_unescape(raw, self.line))
        except ValueError as exc:
            raise self.fail(str(exc))

    def _blank(self) -> BlankNode:
        m = re.match(r"_:([A-Za-z0-9_]+)", self.text[self.pos :])
        if not m:
            raise self.fail("malformed blank node label")
        self.pos += m.end()
        return BlankNode(m.group(1))

    def _literal(self) -> Literal:
        i = self.pos + 1
        while i < len(self.text):
            if self.text[i] == "\\":
                i += 2
                continue
            if self.text[i] == '"':
                break
            i += 1
        else:
            raise self.fail("unterminated string literal")
        if i >= len(self.text):
            raise self.fail("unterminated string literal")
        lexical = _unescape(self.text[self.pos + 1 : i], self.line)
        self.pos = i + 1
        if self.text[self.pos : self.pos + 1] == "@":
            m = re.match(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)", self.text[self.pos :])
            if not m:
                raise self.fail("malformed language tag")
            self.pos += m.end()
            return Literal(lexical, RDF_LANG_STRING, m.group(1))
        if self.text[self.pos : self.pos + 2] == "^^":
            self.pos += 2
            if self.text[self.pos : self.pos + 1] != "<":
                raise self.fail("datatype must be an IRI")
            dt = self._iri()
            if dt.value == RDF_LANG_STRING:
                raise self.fail("language-string datatype requires a language tag")
            return Literal(lexical, dt.value)
        return Literal(lexical)


def from_ntriples(text: str) -> Graph:
    """Parse N-Triples text; duplicate statements collapse."""
    g = Graph()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        scanner = _LineScanner(line, lineno)
        if scanner.at_end():
            continue
        subject = scanner.term()
        if isinstance(subject, Literal):
            raise scanner.fail("literal cannot be a subject")
        predicate = scanner.term()
        if not isinstance(predicate, IRI):
            raise scanner.fail("predicate must be an IRI")
        obj = scanner.term()
        scanner.skip_ws()
        if scanner.text[scanner.pos : scanner.pos + 1] != ".":
            raise scanner.fail("statement must end with '.'")
        scanner.pos += 1
        if not scanner.at_end():
            raise scanner.fail("trailing content after '.'")
        g.insert(Triple(subject, predicate, obj))
    return g


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
            return _compact(term.value, prefixes) or f"<{_escape_string(term.value, False)}>"
        if isinstance(term, Literal) and term.language is None and term.datatype != XSD_STRING:
            body = f'"{_escape_string(term.lexical, False)}"'
            dt = _compact(term.datatype, prefixes) or f"<{_escape_string(term.datatype, False)}>"
            return f"{body}^^{dt}"
        return term_to_ntriples(term)

    lines = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(prefixes.items())]
    lines.append("")
    for t in sorted(g, key=_triple_key):
        lines.append(f"{render(t.subject)} {render(t.predicate)} {render(t.object)} .")
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
        for t in sorted(g.match(subject=subject), key=_triple_key):
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
