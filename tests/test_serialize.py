from __future__ import annotations

import gc
import hashlib
import json
import random
import re

import pytest
from hypothesis import example, given, settings
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
from tifsem.ontology import IO_CLASS, SCHEMA_NS, TIFSEM_NS
from tifsem.serialize import (
    DEFAULT_PREFIXES,
    from_ntriples,
    save_graph,
    term_to_ntriples,
    to_jsonld,
    to_ntriples,
    to_turtle,
    unescape,
)


def ascii_escaped(text: str) -> str:
    r"""``text`` with every character above U+007E written as ``\uXXXX``
    or, above U+FFFF, ``\UXXXXXXXX``: N-Triples that any ASCII reader
    takes."""

    def escape(m: re.Match) -> str:
        cp = ord(m.group())
        return f"\\u{cp:04X}" if cp <= 0xFFFF else f"\\U{cp:08X}"

    return re.sub(r"[^\x00-\x7E]", escape, text)


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

    def test_ascii_escaped_text_reads_back(self):
        g = Graph([Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("Hôtel 🏨"))])
        text = ascii_escaped(to_ntriples(g))
        assert text == '<http://e/s> <http://e/p> "H\\u00F4tel \\U0001F3E8" .\n'
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


# A plain per-line reader, which builds every term through its constructor,
# pinned as the reference `from_ntriples` must agree with: the same graph, or
# an NTriplesParseError with the same line and message.
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
    "literal predicate": lambda l: {**l, "p": '"p"'},
    "surrogate escape": lambda l: {**l, "o": '"\\uD800"'},
    "invalid escape": lambda l: {**l, "o": '"\\q"'},
    "blanks in literal": lambda l: {**l, "o": _in_literal(l["o"], "  ")},
}


def _line(s: str, p: str, o: str) -> dict:
    return {"s": s, "p": p, "o": o, "seps": (" ", " ", " "), "dot": ".", "tail": "", "end": "\n"}


def _edited(draw, lines: list[dict]) -> str:
    """The text of ``lines`` after up to four drawn edits, maybe with no
    last newline and with hostile text inserted."""
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


@st.composite
def edited_ntriples(draw) -> str:
    g = draw(own.graphs(max_size=12))
    return _edited(draw, [_line(*texts) for texts in
                          sorted(tuple(map(term_to_ntriples, (t.subject, t.predicate, t.object))) for t in g)])


@st.composite
def subject_runs(draw) -> str:
    """Edited canonical text in runs of lines that share a subject."""
    lines = []
    for s in draw(st.lists(own.subjects, min_size=1, max_size=3)):
        for p, o in draw(st.lists(st.tuples(own.iris, own.terms), min_size=1, max_size=5)):
            lines.append(_line(s, p, o))
    return _edited(draw, lines)


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

    def test_per_line_reader_decides_lines_the_pass_refuses(self):
        # Lines in the writer's form are split; a tab-separated, commented,
        # blank-free or CRLF line goes to the per-line reader, which accepts
        # it, and the split goes on with the next line.
        text = ('<http://e/s> <http://e/p> <http://e/o> .\n# c\n<http://e/s>\t<http://e/p>\t"t" .\n'
                '<http://e/s> <http://e/p> "x"@en .\n<http://e/s> <http://e/q> <http://e/o> . # c\n\n'
                '_:b<http://e/p>"y".\n<http://e/s> <http://e/p> "z" .\r\n_:b <http://e/q> _:c .')
        g = from_ntriples(text)
        assert g == reference_from_ntriples(text)
        assert len(g) == 7


def three_lookup_from_ntriples(text: str) -> Graph:
    """``from_ntriples``'s reading of a split line written out on its own,
    as a reference for any later shortcut: all three term texts looked up
    and their kinds checked on every line."""
    g = Graph()
    add, built = g._add, serialize._Memo(serialize._term)
    crlf = "\r" in text
    for lineno, line in enumerate(text.split("\n"), 1):
        if crlf:
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
        terms = serialize._read_line(line, lineno, built)
        if terms is not None:
            add(*terms)
    return g


_RUN = '<http://e/s> <http://e/p> "x" .\n<http://e/s> <http://e/p> <http://e/o> .\n'


class TestSubjectRuns:
    """Runs of split lines with one subject text, as the writer puts them
    together, read as three lookups per line would, and every fault keeps
    its line and column."""

    @given(st.one_of(subject_runs(), edited_ntriples()))
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_three_lookups_per_line(self, text):
        assert _outcome(from_ntriples, text) == _outcome(three_lookup_from_ntriples, text)

    @pytest.mark.parametrize("text, error", [
        (_RUN + '<http://e/s> "p" "y" .\n', "line 3: column 14: predicate must be an IRI"),
        (_RUN + '<http://e/s> _:b "y" .\n', "line 3: column 14: predicate must be an IRI"),
        (_RUN + '<http://e/s> <http://e/q> "\\q" .\n', "line 3: column 27: invalid escape \\q"),
        (_RUN + '"x" <http://e/p> "z" .\n', "line 3: column 1: literal cannot be a subject"),
        (_RUN + '_:b <http://e/p> "x" .\n"x" <http://e/p> "z" .\n', "line 4: column 1: literal cannot be a subject"),
        (_RUN + '<http://e/s>\t<http://e/p>\t"a b c" .\n<http://e/s> <http://e/q> "y" .\n'
         '<http://e/s> <http://e/q> "\\uD800" .\n',
         "line 5: column 27: escape names no Unicode scalar value: \\uD800"),
        ('"x" <http://e/p> "y" .\n"x" <http://e/p> "z" .\n', "line 1: column 1: literal cannot be a subject"),
    ], ids=["literal predicate", "blank-node predicate", "invalid object escape", "literal subject",
            "literal subject after a new run", "fault after a resumed run", "literal subject twice"])
    def test_fault_in_a_run_keeps_its_line_and_column(self, text, error):
        with pytest.raises(NTriplesParseError) as err:
            from_ntriples(text)
        assert str(err.value) == error
        assert _outcome(three_lookup_from_ntriples, text) == ("error", err.value.line, error)
        assert _outcome(reference_from_ntriples, text) == ("error", err.value.line, error)

    def test_run_resumes_after_lines_the_split_refuses(self):
        # The tab-separated line splits inside its literal, so its subject
        # text names no term, and the commented line does not end in " .";
        # both go to the per-line reader, and the run goes on after each.
        text = (_RUN + '<http://e/s>\t<http://e/p>\t"a b c" .\n<http://e/s> <http://e/q> "y" .\n'
                '<http://e/s> <http://e/q> "z" . # c\n<http://e/s> <http://e/r> _:b .\n')
        g = from_ntriples(text)
        assert g == reference_from_ntriples(text) and len(g) == 6 and {t.subject for t in g} == {IRI("http://e/s")}


# Lines in the writer's shape whose term texts are not canonical: valid ones
# go through the constructors, and refused ones keep the per-line errors.
class TestNonCanonicalTerms:
    @pytest.mark.parametrize("line, term", [
        ('<http://e/s> <http://e/p> "\\u0041b" .\n', Literal("Ab")),
        ('<http://e/s> <http://e/p> <http://e/\\u0041> .\n', IRI("http://e/A")),
        ('<http://e/s> <http://e/p> "a\tb" .\n', Literal("a\tb")),
        ('<http://e/s> <http://e/p> "x"^^<http://www.w3.org/2001/XMLSchema#string> .\n', Literal("x")),
        ('<http://e/s> <http://e/p> "x"@en .\r\n', Literal("x", language="en")),
    ], ids=["u-escape in literal", "u-escape in IRI", "raw tab", "xsd:string suffix", "CRLF"])
    def test_reads_back_as_its_canonical_term(self, line, term):
        (t,) = from_ntriples(line)
        assert (type(t.object), str(t.object)) == (type(term), str(term))

    @pytest.mark.parametrize("text", [
        "", " <http://e/a>", "\t<http://e/a>", "<http://e/a> ", "<http://e/a><http://e/b>", '"x" .', "_:b\t",
        '"a\\u0041"x',
    ])
    def test_term_takes_exactly_one_term_text(self, text):
        with pytest.raises(ValueError):
            serialize._term(text)

    @pytest.mark.parametrize("line", [
        "<> <http://e/p> <http://e/o> .",
        '<http://e/s> <http://e/p> "\\uD800" .',
        '<http://e/s> <http://e/p> "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .',
        '"x" <http://e/p> <http://e/o> .',
        "<http://e/s> _:b <http://e/o> .",
    ], ids=["empty IRI", "surrogate escape", "langString without tag", "literal subject", "blank predicate"])
    def test_refused_term_in_the_writers_shape_keeps_its_error(self, line):
        text = '<http://e/s> <http://e/p> "x" .\n' + line + "\n"
        outcome = _outcome(from_ntriples, text)
        assert outcome[:2] == ("error", 2)
        assert outcome == _outcome(reference_from_ntriples, text)


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
    def test_reader_takes_ascii_escaped_text(self, g):
        text = ascii_escaped(to_ntriples(g))
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
        # with class declarations, whose predicates and objects are rdfs: names
        g = Graph(la_rochelle_graph)
        g.insert(Triple(IRI(IO_CLASS), IRI(RDF_TYPE), IRI(RDFS_NS + "Class")))
        g.insert(Triple(IRI(IO_CLASS), IRI(RDFS_NS + "subClassOf"), IRI(SCHEMA_NS + "Thing")))
        g.insert(Triple(IRI(IO_CLASS), IRI(RDFS_NS + "label"), Literal("Information object")))
        assert expand_turtle(to_turtle(g)) == g

    def test_prefixed_graph_has_no_absolute_iris_in_body(self):
        g = Graph([
            Triple(IRI(TIFSEM_NS + "a"), IRI(SCHEMA_NS + "b"), IRI(TIFSEM_NS + "c")),
            Triple(IRI(TIFSEM_NS + "a"), IRI(SCHEMA_NS + "b"), Literal("x")),
        ])
        text = to_turtle(g)
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


class TestPinnedOutput:
    """The Turtle and JSON-LD bytes of the fixture graph, as SHA-256.  A
    change to either writer that changes its output fails here."""

    def test_turtle_bytes(self, materialized_graph):
        text = to_turtle(materialized_graph)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "c32d15732aa842c041752d7b32b449283321429c3672367394c662e8d326580a")

    def test_jsonld_bytes_of_every_fixture_io(self, materialized_graph, la_rochelle_ios):
        assert len(la_rochelle_ios) == 25
        text = "".join(to_jsonld(materialized_graph, mint_io_iri("http://example.org/tifsem", io.id)).to_text()
                       for io in la_rochelle_ios)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "54cbf12fa6b349401d0413b804a21784367e87bd84683fe855ae15ab8a64c2b0")


class TestJsonLd:
    def test_root_must_be_subject(self):
        with pytest.raises(ExportError):
            to_jsonld(Graph(), IRI("http://e/missing"))

    def test_blank_node_root_is_an_export_error(self):
        g = Graph([Triple(BlankNode("b"), IRI("http://e/p"), Literal("x"))])
        with pytest.raises(ExportError, match=re.escape("root BlankNode('b') is not an IRI")):
            to_jsonld(g, BlankNode("b"))

    def test_plain_string_root_is_an_export_error(self):
        g = Graph([Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("x"))])
        for root in ("http://e/s", "<http://e/s>"):
            with pytest.raises(ExportError, match=re.escape(f"root {root!r} is not an IRI")):
                to_jsonld(g, root)

    def test_deep_blank_chain_is_an_export_error(self):
        root = IRI("http://e/root")
        chain = [BlankNode(f"b{i}") for i in range(500)]
        g = Graph([Triple(root, IRI("http://e/p"), chain[0])])
        for node, child in zip(chain, chain[1:]):
            g.insert(Triple(node, IRI("http://e/p"), child))
        g.insert(Triple(chain[-1], IRI("http://e/p"), Literal("end")))
        with pytest.raises(ExportError, match="nested too deeply"):
            to_jsonld(g, root)

    def test_bare_root_has_id_and_type_only(self):
        root = IRI("http://e/io/1")
        g = Graph([Triple(root, IRI(RDF_TYPE), IRI(IO_CLASS))])
        body = to_jsonld(g, root).to_json()
        del body["@context"]
        assert set(body) == {"@id", "@type"}
        assert body["@id"] == root.value
        assert body["@type"] == "tifsem:InformationObject"

    def test_context_contains_schema_namespace(self, materialized_graph):
        doc = to_jsonld(materialized_graph, mint_io_iri("http://example.org/tifsem", "HOT-001"))
        assert doc.to_json()["@context"]["schema"] == "https://schema.org/"

    def test_exports_leave_no_cyclic_garbage(self, materialized_graph, la_rochelle_ios):
        # The collector is off in between, so that no automatic collection
        # takes what the exports leave before the second count.
        gc.collect()
        gc.disable()
        try:
            for io in la_rochelle_ios:
                to_jsonld(materialized_graph, mint_io_iri("http://example.org/tifsem", io.id)).to_text()
            assert gc.collect() == 0
        finally:
            gc.enable()

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


class TestJsonLdRefusedIris:
    """An IRI written as itself must read back as itself: text with no
    ``:``, or whose part before the first ``:`` is ``_`` or a prefix of the
    context, would be read as another IRI or as a blank node."""

    ROOT = IRI("http://e/root")
    MISREAD = ["tifsem:name", "schema:Place", "_:x", "name"]

    @pytest.mark.parametrize("text", MISREAD)
    def test_predicate(self, text):
        g = Graph([Triple(self.ROOT, IRI(text), Literal("x"))])
        with pytest.raises(ExportError, match=re.escape(text)):
            to_jsonld(g, self.ROOT)

    @pytest.mark.parametrize("text", MISREAD)
    def test_id_object(self, text):
        g = Graph([Triple(self.ROOT, IRI("http://e/p"), IRI(text))])
        with pytest.raises(ExportError, match=re.escape(text)):
            to_jsonld(g, self.ROOT)

    @pytest.mark.parametrize("text", MISREAD)
    def test_type(self, text):
        g = Graph([Triple(self.ROOT, IRI(RDF_TYPE), IRI(text))])
        with pytest.raises(ExportError, match=re.escape(text)):
            to_jsonld(g, self.ROOT)

    @pytest.mark.parametrize("text", MISREAD)
    def test_literal_datatype(self, text):
        g = Graph([Triple(self.ROOT, IRI("http://e/p"), Literal("1", text))])
        with pytest.raises(ExportError, match=re.escape(text)):
            to_jsonld(g, self.ROOT)

    @pytest.mark.parametrize("text", MISREAD)
    def test_root(self, text):
        root = IRI(text)
        g = Graph([Triple(root, IRI("http://e/p"), Literal("x"))])
        with pytest.raises(ExportError, match=re.escape(text)):
            to_jsonld(g, root)

    @pytest.mark.parametrize("text", ["urn:isbn:0451450523", "mailto:a@e", "http://e/x", "rdfs2:x"])
    def test_other_absolute_iris_read_back(self, text):
        g = Graph([
            Triple(self.ROOT, IRI(text), IRI(text)),
            Triple(self.ROOT, IRI(RDF_TYPE), IRI(text)),
            Triple(self.ROOT, IRI("http://e/p"), Literal("1", text)),
            Triple(self.ROOT, IRI(text), Literal("un", language="fr-CA")),
        ])
        expanded = expand_jsonld(to_jsonld(g, self.ROOT).to_json())
        assert structural_form(expanded, self.ROOT) == structural_form(g.triples, self.ROOT)


# Lexical forms that exercise every escape path of the writer: control
# characters (`\b`, `\f` and `\x0b` among them, which N-Triples and JSON
# escape differently), quotes, backslashes, DEL, U+2028/U+2029, non-ASCII
# and astral characters.
_LEXICAL_FORMS = st.text(
    st.sampled_from('"\\\x00\x01\x08\x0b\x0c\x1f\x7f\n\r\t\u2028\u2029é€😀 a@:')
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
)
# IRIs whose raw and quoted orders differ (`http://e/a` sorts before
# `http://e/a!`, `"http://e/a!"` before `"http://e/a"`), that sort before the
# `@` keywords (`1:x`) or after them (`A:x`), and ones written as prefixed
# names.
_KEY_IRIS = st.sampled_from([
    "http://e/a", "http://e/a!", "http://e/a/b", "http://e/A", "1:x", "A:x",
    SCHEMA_NS + "name", SCHEMA_NS + "Place", TIFSEM_NS + "x", RDF_TYPE,
]).map(IRI)
_BLANKS = st.sampled_from(["b0", "b1", "b2", "b3"]).map(BlankNode)
_EXPORT_LITERALS = st.one_of(
    st.builds(Literal, _LEXICAL_FORMS),
    st.builds(lambda lexical, tag: Literal(lexical, language=tag), _LEXICAL_FORMS, st.sampled_from(["en", "fr-CA"])),
    st.builds(Literal, _LEXICAL_FORMS, st.sampled_from([XSD_NS + "decimal", "http://e/a!", "1:x"])),
)
_EXPORT_ROOT = IRI("http://e/root")


@st.composite
def export_graphs(draw) -> Graph:
    """A small graph whose root is a subject: a few blank nodes, often
    referenced more than once or in a cycle, and keys, types and literals
    from the pools above."""
    objects = st.one_of(_KEY_IRIS, st.just(_EXPORT_ROOT), _BLANKS, _EXPORT_LITERALS)
    g = Graph([Triple(_EXPORT_ROOT, draw(_KEY_IRIS), draw(objects))])
    subjects = st.one_of(st.just(_EXPORT_ROOT), _BLANKS)
    for s, p, o in draw(st.lists(st.tuples(subjects, _KEY_IRIS, objects), max_size=14)):
        g.insert(Triple(s, p, o))
    return g


class TestJsonLdText:
    @given(export_graphs())
    @example(Graph([
        Triple(_EXPORT_ROOT, IRI("http://e/a"), BlankNode("b0")),
        Triple(_EXPORT_ROOT, IRI("http://e/a!"), BlankNode("b0")),
        Triple(_EXPORT_ROOT, IRI("1:x"), Literal('"\\\n', language="en")),
        Triple(_EXPORT_ROOT, IRI(RDF_TYPE), IRI("http://e/a!")),
        Triple(_EXPORT_ROOT, IRI(RDF_TYPE), IRI("http://e/a")),
        Triple(BlankNode("b0"), IRI("http://e/a"), BlankNode("b1")),
        Triple(BlankNode("b1"), IRI("A:x"), BlankNode("b0")),
        Triple(BlankNode("b1"), IRI("http://e/a!"), Literal("1.5", XSD_NS + "decimal")),
    ]))
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps_and_expands_to_the_closure(self, g):
        text = to_jsonld(g, _EXPORT_ROOT).to_text()
        document = json.loads(text)
        assert text == json.dumps(document, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
        expanded = expand_jsonld(document)
        closure = blank_closure(list(g), _EXPORT_ROOT)
        assert structural_form(expanded, _EXPORT_ROOT) == structural_form(closure, _EXPORT_ROOT)


# One-character lexical forms on both sides of every place where N-Triples
# and JSON escape differently: every control character (N-Triples writes
# `\u0008` and `\u000B` where JSON writes `\b` and `\u000b`), the two
# characters both escape, DEL and U+2028/U+2029, which neither escapes, and
# characters outside ASCII and the BMP.
_ONE_CHARACTERS = [chr(cp) for cp in range(0x20)] + ['"', "\\", "\x7f", "\u2028", "\u2029", "é", "😀"]


class TestJsonLdEscapes:
    @pytest.mark.parametrize("form", ["plain", "language", "decimal"])
    @pytest.mark.parametrize("lexical", _ONE_CHARACTERS, ids=[f"U+{ord(c):04X}" for c in _ONE_CHARACTERS])
    def test_literal_text_equals_json_dumps_and_reads_back(self, lexical, form):
        literal = {"plain": Literal(lexical), "language": Literal(lexical, language="en"),
                   "decimal": Literal(lexical, XSD_NS + "decimal")}[form]
        g = Graph([Triple(_EXPORT_ROOT, IRI("http://e/p"), literal)])
        text = to_jsonld(g, _EXPORT_ROOT).to_text()
        document = json.loads(text)
        assert text == json.dumps(document, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
        value = document["http://e/p"]
        assert (value if form == "plain" else value["@value"]) == lexical


class TestWriterCaches:
    """Each cache of fixed export text is bounded and gives the answer its
    function gives uncached, for more distinct keys than it holds."""

    @staticmethod
    def check(cached, args):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None
        for i, arg in enumerate(args):
            assert cached(*arg) == cached.__wrapped__(*arg), arg
            assert cached.cache_info().currsize <= maxsize
        assert i >= maxsize

    def test_entry_head(self):
        namespaces = (SCHEMA_NS, TIFSEM_NS, "http://e/")
        self.check(serialize._entry_head, [(IRI(f"{namespaces[i % 3]}n{i}"),) for i in range(6_000)])
        assert serialize._entry_head(IRI(SCHEMA_NS + "name")) == ("schema:name", '"schema:name": ')

    def test_type_entry(self):
        indents = ("\n  ", "\n      ")
        self.check(serialize._type_entry, [
            (tuple(IRI(f"{SCHEMA_NS}T{j}") for j in range(i, i + 1 + i % 3)), indents[i % 2]) for i in range(6_000)])
        assert serialize._type_entry((IRI(SCHEMA_NS + "Place"),), "\n  ") == '"@type": "schema:Place"'
        assert serialize._type_entry((IRI("http://e/A"), IRI(SCHEMA_NS + "Place")), "\n  ") == (
            '"@type": [\n    "http://e/A",\n    "schema:Place"\n  ]')

    def test_literal_head(self):
        suffixes = [f"@x{i}" if i % 2 else f"^^<http://e/dt{i}>" for i in range(6_000)]
        self.check(serialize._literal_head, [(suffix,) for suffix in suffixes])
        assert serialize._literal_head(f"^^<{XSD_NS}decimal>") == '"@type": "xsd:decimal",'
        assert serialize._literal_head("@fr-CA") == '"@language": "fr-CA",'

    def test_refused_iri_raises_on_every_lookup(self):
        for _ in range(2):
            with pytest.raises(ExportError, match="tifsem:name"):
                serialize._entry_head(IRI("tifsem:name"))
            with pytest.raises(ExportError, match="tifsem:name"):
                serialize._literal_head("^^<tifsem:name>")


class TestCompactCache:
    def test_bounded_and_equal_to_uncached_answer(self):
        compact = serialize._compact
        maxsize = compact.cache_info().maxsize
        assert maxsize is not None
        namespaces = (SCHEMA_NS, TIFSEM_NS, XSD_NS, "http://e/")
        for i in range(10_000):
            iri = f"{namespaces[i % 4]}n{i}" + ("." if i % 7 == 0 else "")
            assert compact(iri) == compact.__wrapped__(iri), iri
            assert compact.cache_info().currsize <= maxsize
        assert compact(SCHEMA_NS + "Place") == compact(SCHEMA_NS + "Place") == "schema:Place"
