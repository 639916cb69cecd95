from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as own
from oracles import blank_closure, expand_jsonld, structural_form
from tifsem import serialize
from tifsem.errors import ExportError, NTriplesParseError
from tifsem.graph import (
    BLANK_LABEL,
    IRI_FORBIDDEN,
    LANGTAG,
    RDF_TYPE,
    RDFS_NS,
    XSD_NS,
    BlankNode,
    Graph,
    IRI,
    Literal,
    Triple,
)
from tifsem.graph import mint_io_iri
from tifsem.ontology import IO_CLASS, load_core_ontology
from tifsem.serialize import (
    DEFAULT_PREFIXES,
    from_ntriples,
    ontology_to_graph,
    save_graph,
    term_to_ntriples,
    to_jsonld,
    to_ntriples,
    to_turtle,
    unescape,
)

class TestNTriplesWrite:
    def test_empty_graph_is_empty_text(self):
        assert to_ntriples(Graph()) == ""

    def test_single_triple_single_line(self):
        g = Graph([Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("x"))])
        text = to_ntriples(g)
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].endswith(" .")
        assert text.endswith(".\n")

    def test_output_is_sorted(self):
        rng = random.Random(3)
        triples = [
            Triple(IRI(f"http://e/s{rng.randrange(20)}"), IRI(f"http://e/p{rng.randrange(5)}"),
                   Literal(str(rng.randrange(50))))
            for _ in range(100)
        ]
        lines = to_ntriples(Graph(triples)).splitlines()
        assert lines == sorted(lines)

    def test_escapes(self):
        g = Graph([Triple(IRI("http://e/s"), IRI("http://e/p"), Literal('a"b\\c\nd\te'))])
        text = to_ntriples(g)
        assert '"a\\"b\\\\c\\nd\\te"' in text

    def test_ascii_only_flag(self):
        g = Graph([Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("Hôtel 🏨"))])
        text = to_ntriples(g, ascii_only=True)
        assert text == text.encode("ascii", errors="strict").decode("ascii")
        assert "\\u00F4" in text and "\\U0001F3E8" in text
        assert from_ntriples(text) == g


class TestSaveGraph:
    def test_every_constructible_graph_saves_as_utf8(self, tmp_path):
        # A surrogate cannot be encoded in UTF-8; the term constructors
        # refuse it, so no graph that reaches save_graph can hold one.
        with pytest.raises(ValueError):
            Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("\ud800"))
        g = Graph([Triple(IRI("http://e/é"), IRI("http://e/p"), Literal("hôtel 🏨"))])
        path = tmp_path / "g.nt"
        save_graph(g, path)
        assert from_ntriples(path.read_text(encoding="utf-8")) == g


class TestNTriplesRead:
    def test_empty_text(self):
        assert len(from_ntriples("")) == 0

    def test_missing_dot_reports_line(self):
        text = '<http://e/s> <http://e/p> "x" .\n<http://e/s> <http://e/p> "y"\n'
        with pytest.raises(NTriplesParseError) as err:
            from_ntriples(text)
        assert err.value.line == 2

    def test_duplicates_collapse(self):
        line = '<http://e/s> <http://e/p> "x" .\n'
        assert len(from_ntriples(line * 3)) == 1

    def test_comments_and_blank_lines(self):
        text = '# header\n\n<http://e/s> <http://e/p> <http://e/o> . # trailing\n'
        assert len(from_ntriples(text)) == 1

    def test_literal_subject_rejected(self):
        with pytest.raises(NTriplesParseError):
            from_ntriples('"x" <http://e/p> <http://e/o> .\n')

    def test_blank_node_predicate_rejected(self):
        with pytest.raises(NTriplesParseError):
            from_ntriples('<http://e/s> _:b <http://e/o> .\n')

    def test_language_and_datatype_forms(self):
        text = (
            '<http://e/s> <http://e/p> "chat"@fr .\n'
            '<http://e/s> <http://e/p> "5"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
        )
        g = from_ntriples(text)
        objects = {t.object for t in g}
        assert Literal("chat", language="fr") in objects
        assert Literal("5", "http://www.w3.org/2001/XMLSchema#decimal") in objects

    def test_unicode_escapes(self):
        g = from_ntriples('<http://e/s> <http://e/p> "H\\u00F4tel \\U0001F3E8" .\n')
        assert next(iter(g)).object.lexical == "Hôtel 🏨"

    def test_repeated_term_text_gives_one_shared_object(self):
        g = from_ntriples(
            '<http://e/s> <http://e/p> "x"@en .\n'
            '<http://e/o> <http://e/p> "x"@en .\n'
            '<http://e/s> <http://e/q> <http://e/o> .\n'
        )
        by_text = {}
        for t in g:
            for term in (t.subject, t.predicate, t.object):
                assert by_text.setdefault(term_to_ntriples(term), term) is term
        assert len(by_text) == 5


class TestNTriplesErrors:
    def test_surrogate_escape_rejected(self):
        with pytest.raises(NTriplesParseError) as err:
            from_ntriples('<http://e/s> <http://e/p> "\\uD800" .\n')
        assert err.value.line == 1

    def test_message_gives_column(self):
        text = '<http://e/s> <http://e/p> "x" .\n<http://e/s>  _:b <http://e/o> .\n'
        with pytest.raises(NTriplesParseError) as err:
            from_ntriples(text)
        assert err.value.line == 2
        assert "column 15" in str(err.value)

    def test_literal_subject_rejected_after_same_literal_as_object(self):
        text = '<http://e/s> <http://e/p> "x" .\n<http://e/s> <http://e/p> "y" .\n  "x" <http://e/p> <http://e/o> .\n'
        with pytest.raises(NTriplesParseError) as err:
            from_ntriples(text)
        assert err.value.line == 3
        assert "column 3: literal cannot be a subject" in str(err.value)

    def test_forbidden_iri_character_rejected(self):
        for line in ['<http://e/a b> <http://e/p> "x" .', '<http://e/s> <http://e/p> <http://e/\\u0020> .',
                     '<http://e/s> <http://e/p> "x"^^<a\\"b> .', "<> <http://e/p> <http://e/o> ."]:
            with pytest.raises(NTriplesParseError):
                from_ntriples(line)

    @given(st.one_of(own.hostile_text, own.hostile_text.map(lambda t: "<http://e/s> <http://e/p> " + t)))
    @settings(max_examples=500, deadline=None)
    def test_hostile_text_raises_only_parse_errors(self, text):
        try:
            from_ntriples(text)
        except NTriplesParseError:
            pass


# The per-line reader that the one-pass `from_ntriples` replaced, pinned as
# the reference it must agree with: the same graph, or an NTriplesParseError
# with the same line and message.
_REF_TERM_RE = re.compile(
    rf"""[ \t]*(?:
        <(?P<iri>(?:[^{IRI_FORBIDDEN}]|\\.)*)>
      | _:(?P<blank>{BLANK_LABEL})
      | "(?P<lexical>(?:[^"\\]|\\.)*)"
        (?:@(?P<language>{LANGTAG})|\^\^<(?P<datatype>(?:[^{IRI_FORBIDDEN}]|\\.)*)>)?
    )""",
    re.VERBOSE,
)


def _reference_term(m: re.Match):
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


def reference_from_ntriples(text: str) -> Graph:
    g = Graph()
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if re.match(r"[ \t]*(?:#|$)", line):
            continue
        terms, pos = [], 0

        def fault(message: str) -> NTriplesParseError:
            column = len(line) - len(line[pos:].lstrip(" \t")) + 1
            return NTriplesParseError(f"column {column}: {message}", lineno)

        for position in ("subject", "predicate", "object"):
            m = _REF_TERM_RE.match(line, pos)
            if m is None:
                raise fault("expected a term")
            try:
                term = _reference_term(m)
            except ValueError as exc:
                raise fault(str(exc)) from None
            if position == "subject" and isinstance(term, Literal):
                raise fault("literal cannot be a subject")
            if position == "predicate" and not isinstance(term, IRI):
                raise fault("predicate must be an IRI")
            terms.append(term)
            pos = m.end()
        if not re.match(r"[ \t]*\.[ \t]*(?:#|$)", line[pos:]):
            raise fault("statement must end with '.'")
        g.insert(Triple(*terms))
    return g


def _outcome(read, text: str):
    try:
        return "graph", read(text)
    except NTriplesParseError as exc:
        return "error", exc.line, str(exc)


def _in_literal(form: str, inserted: str) -> str:
    return form[0] + inserted + form[1:] if form.startswith('"') else f'"a{inserted}b"'


# Hostile edits to one line of canonical text.  A line is its three term
# forms, the three separators after them, the dot, what follows the dot and
# the line ending.
_LINE_EDITS = {
    "cr in literal": lambda l: {**l, "o": _in_literal(l["o"], "\r")},
    "lf in literal": lambda l: {**l, "o": _in_literal(l["o"], "\n")},
    "cr cr lf": lambda l: {**l, "end": "\r\r\n"},
    "cr before dot": lambda l: {**l, "seps": (" ", " ", " \r")},
    "tabs": lambda l: {**l, "seps": ("\t", "\t", "\t")},
    "no blanks": lambda l: {**l, "seps": ("", "", "")},
    "comment": lambda l: {**l, "tail": " # a comment . <x>"},
    "missing dot": lambda l: {**l, "dot": ""},
    "literal subject": lambda l: {**l, "s": '"x"'},
    "blank predicate": lambda l: {**l, "p": "_:b"},
    "surrogate escape": lambda l: {**l, "o": '"\\uD800"'},
}


@st.composite
def edited_ntriples(draw) -> str:
    g = draw(own.graphs(max_size=12))
    lines = [{"s": s, "p": p, "o": o, "seps": (" ", " ", " "), "dot": ".", "tail": "", "end": "\n"}
             for s, p, o in sorted(tuple(map(term_to_ntriples, (t.subject, t.predicate, t.object))) for t in g)]
    for index, edit in draw(st.lists(st.tuples(st.integers(0, 99), st.sampled_from(sorted(_LINE_EDITS))),
                                     max_size=4)):
        if lines:
            lines[index % len(lines)] = _LINE_EDITS[edit](lines[index % len(lines)])
    text = "".join(l["s"] + l["seps"][0] + l["p"] + l["seps"][1] + l["o"] + l["seps"][2] + l["dot"]
                   + l["tail"] + l["end"] for l in lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n")  # a last line with no newline
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(own.hostile_text) + text[at:]
    return text


class TestOnePassReader:
    @given(st.one_of(edited_ntriples(), own.hostile_text))
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_per_line_reference(self, text):
        assert _outcome(from_ntriples, text) == _outcome(reference_from_ntriples, text)

    def test_literal_body_may_not_hold_line_feed(self):
        text = '<http://e/s> <http://e/p> "x" .\n<http://e/s> <http://e/p> "a\nb" .\n'
        with pytest.raises(NTriplesParseError) as err:
            from_ntriples(text)
        assert err.value.line == 2
        assert str(err.value) == "line 2: column 27: expected a term"

    def test_literal_body_may_hold_carriage_return(self):
        g = from_ntriples('<http://e/s> <http://e/p> "a\rb" .\n')
        assert [t.object for t in g] == [Literal("a\rb")]

    def test_trailing_carriage_returns_are_dropped(self):
        text = '\r\r\n<http://e/s> <http://e/p> "a" .\r\r\n# c\r\n<http://e/s> <http://e/p> "b"\r\r\r\n'
        with pytest.raises(NTriplesParseError) as err:
            from_ntriples(text)
        assert str(err.value) == "line 4: column 30: statement must end with '.'"
        assert len(from_ntriples(text.replace('"b"', '"b" .'))) == 2

    def test_last_line_may_lack_newline(self):
        assert len(from_ntriples('<http://e/s> <http://e/p> "a" .\n<http://e/s> <http://e/p> "b" .')) == 2
        assert len(from_ntriples('<http://e/s> <http://e/p> "a" . # end')) == 1

    def test_terms_need_no_blanks_between_them(self):
        g = from_ntriples('<http://e/a><http://e/b><http://e/c>.\n_:x<http://e/b>"c"@en.\n')
        assert set(g) == {Triple(IRI("http://e/a"), IRI("http://e/b"), IRI("http://e/c")),
                          Triple(BlankNode("x"), IRI("http://e/b"), Literal("c", language="en"))}

    def test_invalid_term_reports_its_own_line(self):
        text = '<http://e/s> <http://e/p> "x" .\n\n<http://e/s> <http://e/p> "\\uD800" .\n'
        with pytest.raises(NTriplesParseError) as err:
            from_ntriples(text)
        assert str(err.value).startswith("line 3: column 27: escape names no Unicode scalar value")

    def test_per_line_reader_decides_lines_the_pass_refuses(self, monkeypatch):
        # With a pass that takes only all-IRI statements, every other line
        # goes to the per-line reader, which accepts it; the pass resumes
        # after each such line.
        monkeypatch.setattr(serialize, "_LINE_RE", re.compile(
            rf"(?:({serialize._IRI}) ({serialize._IRI}) ({serialize._IRI}) \.)?(?:\n|\Z)"))
        text = ('# c\n<http://e/s> <http://e/p> <http://e/o> .\n_:b <http://e/p> "x"@en .\n\n'
                '<http://e/s> <http://e/q> <http://e/o> .\n<http://e/s> <http://e/p> "y" .')
        g = from_ntriples(text)
        assert g == reference_from_ntriples(text)
        assert len(g) == 4


class TestUnescape:
    def test_every_short_escape(self):
        assert unescape("\\t\\b\\n\\r\\f\\\"\\'\\\\") == "\t\b\n\r\f\"'\\"

    def test_code_point_escapes(self):
        assert unescape("\\u00e9\\U0001F3E8") == "é🏨"

    @pytest.mark.parametrize("text", ["\\q", "\\u12", "\\uD800", "\\U0000DFFF", "\\U00110000", "x\\"])
    def test_bad_escapes_raise_value_error(self, text):
        with pytest.raises(ValueError):
            unescape(text)


# Terms whose N-Triples forms are often equal up to a point or a proper
# prefix of one another: shared lexical forms and labels, `b` / `b1`,
# `en` / `en-GB`, and literals carrying control, non-ASCII and astral
# characters.
_hard_text = st.text(
    alphabet=st.one_of(st.sampled_from(["a", "b", " ", "\"", "\\", "\x00", "\x1f", "\x7f", "é", "\u2028",
                                        "\U0001F3E8", "\U0010FFFF"]),
                       st.characters(blacklist_categories=("Cs",))),
    max_size=4,
)
_hard_iris = st.sampled_from(["http://e/a", "http://e/ab", "http://e/é", "http://e/🏨"]).map(IRI)
_hard_blanks = st.sampled_from(["b", "b1", "b_", "B"]).map(BlankNode)
_hard_literals = st.one_of(
    st.builds(Literal, _hard_text),
    st.builds(lambda lex, lang: Literal(lex, language=lang), _hard_text, st.sampled_from(["en", "en-GB", "e"])),
    st.builds(Literal, _hard_text, st.sampled_from([XSD_NS + "decimal", "http://e/dt", "http://e/dt2"])),
)
_hard_graphs = st.lists(
    st.builds(Triple, st.one_of(_hard_iris, _hard_blanks), _hard_iris,
              st.one_of(_hard_iris, _hard_blanks, _hard_literals)),
    max_size=25,
).map(Graph)


class TestCanonicalOrder:
    @given(_hard_graphs)
    @settings(max_examples=300, deadline=None)
    def test_lines_follow_term_form_order(self, g):
        forms = sorted(tuple(term_to_ntriples(term) for term in (t.subject, t.predicate, t.object)) for t in g)
        assert to_ntriples(g).split("\n")[:-1] == [f"{s} {p} {o} ." for s, p, o in forms]

    @given(_hard_graphs)
    @settings(max_examples=300, deadline=None)
    def test_ascii_only_round_trips(self, g):
        text = to_ntriples(g, ascii_only=True)
        assert text.isascii()
        assert from_ntriples(text) == g


class TestRoundTrip:
    @given(own.graphs(max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_parse_serialize_identity(self, g):
        assert from_ntriples(to_ntriples(g)) == g

    @given(own.graphs(max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_canonical_determinism(self, g):
        clone = Graph(list(g.triples))
        assert to_ntriples(clone) == to_ntriples(g)


def expand_turtle(text: str) -> Graph:
    """Re-parse Turtle output through the N-Triples reader by expanding
    prefixed names token-wise (strings stay untouched)."""
    prefixes: dict[str, str] = {}
    body_lines = []
    # split strictly on \n: literals may legally contain other line separators
    for line in text.split("\n"):
        m = re.match(r"@prefix ([A-Za-z][\w-]*): <([^>]*)> \.$", line)
        if m:
            prefixes[m.group(1)] = m.group(2)
        elif line.strip():
            body_lines.append(line)

    token_re = re.compile(
        r'(<[^>]*>|_:[A-Za-z0-9_]+|"(?:[^"\\]|\\.)*"(?:@[A-Za-z0-9-]+|\^\^(?:<[^>]*>|[\w-]+:[\w.-]*))?'
        r"|[\w-]+:[\w.-]*|\.)"
    )

    def expand(token: str) -> str:
        if token.startswith(("<", '"', "_:")) or token == ".":
            # a datatype can only follow the closing quote; "^^" inside the
            # lexical form is text
            typed = re.fullmatch(r'("(?:[^"\\]|\\.)*")\^\^([\w-]+):([\w.-]*)', token)
            if typed:
                body, prefix, local = typed.groups()
                return f"{body}^^<{prefixes[prefix]}{local}>"
            return token
        prefix, _, local = token.partition(":")
        return f"<{prefixes[prefix]}{local}>"

    nt_lines = []
    for line in body_lines:
        tokens = token_re.findall(line)
        assert tokens and tokens[-1] == ".", line
        nt_lines.append(" ".join(expand(t) for t in tokens[:-1]) + " .")
    return from_ntriples("\n".join(nt_lines) + "\n")


class TestTurtle:
    def test_empty_graph_has_only_prefixes(self):
        text = to_turtle(Graph())
        lines = [l for l in text.splitlines() if l.strip()]
        assert all(l.startswith("@prefix") for l in lines)

    def test_round_trip_via_ntriples_detour(self, la_rochelle_graph):
        assert expand_turtle(to_turtle(la_rochelle_graph)) == la_rochelle_graph

    def test_prefixed_graph_has_no_absolute_iris_in_body(self):
        g = Graph([
            Triple(IRI("http://e/ns#a"), IRI("http://e/ns#b"), IRI("http://e/ns#c")),
            Triple(IRI("http://e/ns#a"), IRI("http://e/ns#b"), Literal("x")),
        ])
        text = to_turtle(g, {"ex": "http://e/ns#"})
        body = [l for l in text.splitlines() if l and not l.startswith("@prefix")]
        assert body and all("<" not in line for line in body)

    @given(own.graphs(max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_graphs_round_trip(self, g):
        assert expand_turtle(to_turtle(g)) == g

    @pytest.mark.parametrize("lexical", ["^^", "x^^", "a^^b:c"])
    def test_carets_in_a_plain_literal_round_trip(self, lexical):
        g = Graph([Triple(IRI("http://e/s"), IRI("http://e/p"), Literal(lexical))])
        assert expand_turtle(to_turtle(g)) == g


class TestJsonLd:
    def test_root_must_be_subject(self):
        with pytest.raises(ExportError):
            to_jsonld(Graph(), IRI("http://e/missing"))

    def test_bare_root_has_id_and_type_only(self):
        root = IRI("http://e/io/1")
        g = Graph([Triple(root, IRI(RDF_TYPE), IRI(IO_CLASS))])
        doc = to_jsonld(g, root)
        assert set(doc.body) == {"@id", "@type"}
        assert doc.body["@id"] == root.value
        assert doc.body["@type"] == "tifsem:InformationObject"

    def test_context_contains_schema_namespace(self, materialized_graph):
        doc = to_jsonld(materialized_graph, mint_io_iri("http://example.org/tifsem", "HOT-001"))
        assert doc.context["schema"] == "https://schema.org/"

    def test_materialized_hotel_carries_mapped_types(self, materialized_graph):
        doc = to_jsonld(materialized_graph, mint_io_iri("http://example.org/tifsem", "HOT-001"))
        rendered = json.dumps(doc.to_json())
        assert "schema:MediaObject" in rendered
        assert "schema:Place" in rendered
        assert "tifsem:Multimedia" in rendered

    def test_expansion_equals_blank_closure_on_every_fixture_io(
        self, materialized_graph, la_rochelle_ios
    ):
        for io in la_rochelle_ios:
            root = mint_io_iri("http://example.org/tifsem", io.id)
            doc = to_jsonld(materialized_graph, root)
            expanded = expand_jsonld(doc.to_json())
            closure = blank_closure(list(materialized_graph), root)
            assert structural_form(expanded, root) == structural_form(closure, root), io.id

    def test_shared_blank_node_keeps_identity(self):
        root = IRI("http://e/root")
        shared = BlankNode("shared")
        g = Graph([
            Triple(root, IRI("http://e/p1"), shared),
            Triple(root, IRI("http://e/p2"), shared),
            Triple(shared, IRI("http://e/name"), Literal("x")),
        ])
        doc = to_jsonld(g, root)
        expanded = expand_jsonld(doc.to_json())
        assert structural_form(expanded, root) == structural_form(g.triples, root)
        assert len(expanded) == 3

    def test_json_round_trip_is_stable_text(self, materialized_graph):
        root = mint_io_iri("http://example.org/tifsem", "EVT-002")
        assert to_jsonld(materialized_graph, root).to_text() == to_jsonld(materialized_graph, root).to_text()


class TestOntologyExport:
    def test_snapshot_exports_class_declarations(self):
        snapshot = load_core_ontology()
        g = ontology_to_graph(snapshot)
        class_triples = list(g.match(predicate=IRI(RDF_TYPE), object=IRI(RDFS_NS + "Class")))
        assert len(class_triples) == len(snapshot.concepts)
        subclass_links = list(g.match(predicate=IRI(RDFS_NS + "subClassOf")))
        with_parent = sum(1 for c in snapshot.concepts.values() if c.parent is not None)
        assert len(subclass_links) == with_parent

    def test_snapshot_turtle_round_trips(self):
        g = ontology_to_graph(load_core_ontology())
        assert expand_turtle(to_turtle(g)) == g
