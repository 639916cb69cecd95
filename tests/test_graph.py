from __future__ import annotations

import copy
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as own
from oracles import io_triple_count
from tifsem.errors import IoAssertionError
from tifsem.graph import (
    RDF_LANG_STRING,
    RDF_TYPE,
    XSD_NS,
    BlankNode,
    Graph,
    IRI,
    Literal,
    Triple,
    _escape_label_part,
    assert_io,
    granule_node,
    mint_io_iri,
)
from tifsem.mapping import materialize
from tifsem.ontology import (
    GeoPoint,
    Granule,
    GranuleKind,
    InformationObject,
    IO_CLASS,
    TIFSEM_NS,
)
from tifsem.serialize import from_ntriples, to_ntriples


def triple(s: str, p: str, o) -> Triple:
    obj = IRI(o) if type(o) is str else o
    return Triple(IRI(s), IRI(p), obj)


# Lexical forms whose text needs escaping or looks like a term suffix.
_AWKWARD_LEXICALS = ['say "hi"', "back\\slash", "x@en", 'x"^^<x>', "a>b", "tab\there", "line\nbreak",
                     "nul\x00", '"', "\\", "", '"@en', "\r\x1f\x7f"]


def _parts(value) -> tuple:
    """The constructor arguments that rebuild a term or triple."""
    if isinstance(value, Triple):
        return value.subject, value.predicate, value.object
    if isinstance(value, IRI):
        return (value.value,)
    if isinstance(value, BlankNode):
        return (value.label,)
    return value.lexical, value.datatype, value.language


def _n_triples_form(t) -> str:
    """The N-Triples text of a term, built from its parts with an escaper of
    this test's own (RDF 1.1 N-Triples, section 2.3 and the canonical form)."""
    if isinstance(t, IRI):
        return f"<{t.value}>"
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    short = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    body = "".join(short.get(c) or (f"\\u{ord(c):04X}" if ord(c) < 0x20 else c) for c in t.lexical)
    if t.language is not None:
        return f'"{body}"@{t.language}'
    if t.datatype != XSD_NS + "string":
        return f'"{body}"^^<{t.datatype}>'
    return f'"{body}"'


def _check_term_text(t) -> None:
    assert t == _n_triples_form(t)
    if isinstance(t, Literal):
        assert Literal(t.lexical, t.datatype, t.language) == t
    assert repr(t) != repr(str(t))


class TestTerms:
    def test_iri_rejects_whitespace(self):
        with pytest.raises(ValueError):
            IRI("http://example.org/a b")

    def test_iri_rejects_angle_bracket(self):
        with pytest.raises(ValueError):
            IRI("http://example.org/<x>")

    def test_language_literal_gets_langstring_datatype(self):
        lit = Literal("bonjour", language="fr")
        assert lit.datatype.endswith("langString")

    def test_langstring_without_tag_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")

    def test_blank_node_label_must_be_ascii(self):
        with pytest.raises(ValueError):
            BlankNode("é")

    def test_language_tag_syntax_checked(self):
        with pytest.raises(ValueError):
            Literal("x", language="en us")

    def test_datatype_must_be_an_iri(self):
        with pytest.raises(ValueError):
            Literal("x", "a b")

    def test_iri_rejects_lone_surrogate(self):
        with pytest.raises(ValueError):
            IRI("http://example.org/\udc00")

    def test_literal_rejects_lone_surrogate(self):
        with pytest.raises(ValueError):
            Literal("\ud800")

    @pytest.mark.parametrize("terms, message", [
        ((Literal("x"), IRI("http://e/p"), IRI("http://e/o")), "subject must be an IRI or blank node"),
        (("http://e/s", IRI("http://e/p"), IRI("http://e/o")), "subject must be an IRI or blank node"),
        (("<http://e/s>", IRI("http://e/p"), IRI("http://e/o")), "subject must be an IRI or blank node"),
        ((IRI("http://e/s"), BlankNode("b"), IRI("http://e/o")), "predicate must be an IRI"),
        ((IRI("http://e/s"), Literal("p"), IRI("http://e/o")), "predicate must be an IRI"),
        ((IRI("http://e/s"), "<http://e/p>", IRI("http://e/o")), "predicate must be an IRI"),
        ((IRI("http://e/s"), IRI("http://e/p"), "o"), "object must be a term"),
        ((IRI("http://e/s"), IRI("http://e/p"), '"o"'), "object must be a term"),
        ((IRI("http://e/s"), IRI("http://e/p"), None), "object must be a term"),
    ])
    def test_each_wrong_triple_position_raises_its_type_error(self, terms, message):
        with pytest.raises(TypeError) as caught:
            Triple(*terms)
        assert str(caught.value) == message

    def test_triple_keyword_construction(self):
        s, p, o = IRI("http://e/s"), IRI("http://e/p"), Literal("x")
        assert Triple(subject=s, predicate=p, object=o) == Triple(s, p, o)

    def test_language_literal_equals_explicit_langstring(self):
        short, explicit = Literal("x", language="en"), Literal("x", RDF_LANG_STRING, "en")
        assert short == explicit
        assert hash(short) == hash(explicit)

    @pytest.mark.parametrize("value, attribute", [
        (IRI("http://e/s"), "value"),
        (BlankNode("b"), "label"),
        (Literal("x"), "lexical"),
        (Literal("x"), "datatype"),
        (Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("x")), "object"),
    ])
    def test_assignment_raises_frozen_instance_error(self, value, attribute):
        # A term's parts are read-only properties, which refuse with a plain
        # AttributeError; a triple is a frozen dataclass.
        with pytest.raises(FrozenInstanceError if isinstance(value, Triple) else AttributeError):
            setattr(value, attribute, IRI("http://e/x"))

    def test_cached_hash_cannot_be_reassigned(self):
        iri = IRI("http://e/s")
        before = hash(iri)
        # A term has no instance attributes at all, so nothing can change
        # what its hash is computed from.
        for name in ("_hash", "value", "anything"):
            with pytest.raises(AttributeError):
                setattr(iri, name, 0)
        assert hash(iri) == before == hash(IRI("http://e/s"))

    @given(st.one_of(own.terms, own.triples), st.one_of(own.terms, own.triples))
    def test_equal_values_hash_equal(self, a, b):
        if a == b:
            assert hash(a) == hash(b)
        rebuilt = type(a)(*_parts(a))
        assert rebuilt == a and hash(rebuilt) == hash(a)

    @given(own.terms)
    def test_term_text_is_its_n_triples_form(self, t):
        _check_term_text(t)

    @pytest.mark.parametrize("datatype, language", [
        (XSD_NS + "string", None), (XSD_NS + "decimal", None), (RDF_LANG_STRING, "en-GB"),
    ])
    def test_awkward_literal_text_is_its_n_triples_form(self, datatype, language):
        for lexical in _AWKWARD_LEXICALS:
            t = Literal(lexical, datatype, language)
            _check_term_text(t)
            assert (t.lexical, t.datatype, t.language) == (lexical, datatype, language)


# Loads pickled terms and triples under another PYTHONHASHSEED and checks set
# membership both ways against the same values built in that process.
_LOAD_ELSEWHERE = """
import pickle, sys
from tifsem.graph import BlankNode, IRI, Literal, Triple
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = [IRI("http://e/s"), BlankNode("b1"), Literal("x", language="en"),
         Literal("5", "http://www.w3.org/2001/XMLSchema#decimal"),
         Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("x", language="en"))]
assert loaded == fresh, (loaded, fresh)
for a, b in zip(loaded, fresh):
    assert hash(a) == hash(b) and a in {b} and b in {a}, a
print("ok")
"""


class TestPickleAndCopy:
    values = [IRI("http://e/s"), BlankNode("b1"), Literal("x", language="en"),
              Literal("5", "http://www.w3.org/2001/XMLSchema#decimal"),
              Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("x", language="en"))]

    def test_pickle_loads_under_another_hash_seed(self):
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", _LOAD_ELSEWHERE], input=pickle.dumps(self.values),
                              env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == b"ok\n"

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
    def test_copies_are_equal_and_hash_equal(self, duplicate):
        for value in self.values:
            twin = duplicate(value)
            assert twin == value and hash(twin) == hash(value)
            assert twin in {value} and value in {twin}


class TestGraph:
    def test_insert_into_empty(self):
        g = Graph()
        assert g.insert(triple("http://e/s", "http://e/p", "http://e/o")) is True
        assert len(g) == 1

    def test_double_insert_is_noop(self):
        g = Graph()
        t = triple("http://e/s", "http://e/p", "http://e/o")
        assert g.insert(t) is True
        assert g.insert(t) is False
        assert len(g) == 1

    def test_graph_of_a_graph_is_independent(self):
        s, p = IRI("http://e/s"), IRI("http://e/p")
        first, second, third = (Triple(s, p, Literal(v)) for v in "abc")
        g = Graph([first])
        copied = Graph(g)
        # the second object under (s, p) turns a one-triple entry into a set
        assert copied.insert(second) and g.insert(third)
        assert g.triples == {first, third} and copied.triples == {first, second}
        assert set(g.match(s, p)) == {first, third} and g.scan_size(s, p) == 2
        assert set(copied.match(predicate=p)) == {first, second}

    def test_match_empty_graph(self):
        assert list(Graph().match()) == []

    def test_fully_bound_match(self):
        g = Graph()
        t = triple("http://e/s", "http://e/p", "http://e/o")
        g.insert(t)
        assert list(g.match(t.subject, t.predicate, t.object)) == [t]

    @given(st.lists(own.triples, max_size=60), st.randoms())
    def test_insertion_order_irrelevant(self, ts, rng):
        shuffled = list(ts)
        rng.shuffle(shuffled)
        a, b = Graph(ts), Graph(shuffled)
        assert a == b
        assert to_ntriples(a) == to_ntriples(b)

    def test_thousand_random_triples_two_orders(self):
        rng = random.Random(42)
        ts = [
            triple(f"http://e/s{rng.randrange(50)}", f"http://e/p{rng.randrange(10)}",
                   Literal(str(rng.randrange(100))))
            for _ in range(1000)
        ]
        reordered = list(ts)
        random.Random(7).shuffle(reordered)
        assert sorted(map(repr, Graph(ts))) == sorted(map(repr, Graph(reordered)))

    @given(own.graphs(), st.one_of(st.none(), own.subjects),
           st.one_of(st.none(), own.iris), st.one_of(st.none(), own.terms))
    @settings(max_examples=150)
    def test_match_equals_linear_scan(self, g, s, p, o):
        expected = {
            t for t in g.triples
            if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)
        }
        assert set(g.match(s, p, o)) == expected

    @given(st.lists(own.triples, max_size=50))
    def test_size_equals_distinct_count(self, ts):
        assert len(Graph(ts)) == len(set(ts))

    def test_type_match_on_fixture_finds_all_resources(self, la_rochelle_graph, la_rochelle_ios):
        matched = set(la_rochelle_graph.match(predicate=IRI(RDF_TYPE), object=IRI(IO_CLASS)))
        scanned = {t for t in la_rochelle_graph.triples
                   if t.predicate == IRI(RDF_TYPE) and t.object == IRI(IO_CLASS)}
        assert matched == scanned
        assert len(matched) == len(la_rochelle_ios)


# Small term pools, so that random inserts repeat triples, put many objects
# under one (subject, predicate) and leave others with one.
_MODEL_SUBJECTS = [IRI(f"http://m/s{i}") for i in range(3)] + [BlankNode(f"b{i}") for i in range(2)]
_MODEL_PREDICATES = [IRI(f"http://m/p{i}") for i in range(3)]
_MODEL_OBJECTS = _MODEL_SUBJECTS[1:4] + [
    Literal("v"), Literal("v", language="en"), Literal("1", XSD_NS + "integer"), Literal("1.0", XSD_NS + "decimal"),
]
_model_triples = st.builds(Triple, st.sampled_from(_MODEL_SUBJECTS), st.sampled_from(_MODEL_PREDICATES),
                           st.sampled_from(_MODEL_OBJECTS))


class TestGraphAgainstSetModel:
    # The example fills one subject bucket and one predicate bucket with
    # two terms each, promoting them, and leaves the others bare.
    @given(st.lists(_model_triples, max_size=40))
    @example([Triple(_MODEL_SUBJECTS[0], _MODEL_PREDICATES[0], o) for o in _MODEL_OBJECTS[3:5]]
             + [Triple(s, _MODEL_PREDICATES[1], _MODEL_OBJECTS[0]) for s in _MODEL_SUBJECTS[3:5]])
    @settings(max_examples=150)
    def test_graph_behaves_as_a_set_of_triples(self, inserts):
        for index_first in (True, False):
            self.check_set_model(inserts, index_first)

    @staticmethod
    def check_set_model(inserts, index_first: bool) -> None:
        """With ``index_first``, the predicate view is read while the graph
        is empty and after every insert, so each new triple makes the next
        read rebuild it; else nothing reads it until every triple is in,
        and the first read builds it from the subject index."""
        g, model = Graph(), set()
        builds = count_builds(g)
        if index_first:
            assert g.subjects(_MODEL_PREDICATES[0], Literal("v")) == ()
        for t in inserts:
            assert g.insert(t) is (t not in model)
            model.add(t)
            # The two buckets the triple went to, bare or promoted.
            objects = g.objects(t.subject, t.predicate)
            assert set(objects) == {m.object for m in model if (m.subject, m.predicate) == (t.subject, t.predicate)}
            assert len(objects) == g.scan_size(t.subject, t.predicate)
            if index_first:
                assert g.scan_size(None, t.predicate) == sum(m.predicate == t.predicate for m in model)
                subjects = g.subjects(t.predicate, t.object)
                assert set(subjects) == {m.subject for m in model
                                         if (m.predicate, m.object) == (t.predicate, t.object)}
                assert len(subjects) == g.scan_size(None, t.predicate, t.object)
        assert len(g) == len(model)
        listed = list(g)
        assert len(listed) == len(model) and set(listed) == model
        # The term readers give the terms of the triples iteration and
        # match build, in their order.
        assert list(g.subject_predicate_objects()) == [(t.subject, t.predicate, t.object) for t in listed]
        assert g.triples == frozenset(model)
        for s, p, o in itertools.product(_MODEL_SUBJECTS, _MODEL_PREDICATES, _MODEL_OBJECTS):
            assert (Triple(s, p, o) in g) == (Triple(s, p, o) in model)
        assert "not a triple" not in g
        # Inserts, subject reads, len and membership build nothing; the
        # first read after a new triple builds once, and an empty graph's
        # view is current from the start.
        assert len(builds) == (len(model) if index_first else 0)

        assert g == Graph(reversed(inserts)) and g == Graph(g)
        extra = Triple(IRI("http://m/new"), _MODEL_PREDICATES[0], Literal("v"))
        copied = Graph(g)
        copied.insert(extra)
        assert copied != g and len(g) == len(model)
        if model:  # same size, one triple swapped
            assert Graph(sorted(model, key=repr)[1:] + [extra]) != g

        for s, p, o in itertools.product(*([None] + pool for pool in
                                           (_MODEL_SUBJECTS, _MODEL_PREDICATES, _MODEL_OBJECTS))):
            expected = {t for t in model if s in (None, t.subject) and p in (None, t.predicate)
                        and o in (None, t.object)}
            matched = list(g.match(s, p, o))
            assert len(matched) == len(expected) and set(matched) == expected
            # exact for every pattern, the object-only ones included
            assert g.scan_size(s, p, o) == len(expected)

        # In match order; a literal subject, or a literal or blank-node
        # predicate, finds nothing.
        for s, p, o in itertools.product(_MODEL_SUBJECTS + [Literal("v")],
                                         _MODEL_PREDICATES + [Literal("v"), BlankNode("b0")], _MODEL_OBJECTS):
            assert list(g.objects(s, p)) == [t.object for t in g.match(s, p)]
            assert list(g.subjects(p, o)) == [t.subject for t in g.match(None, p, o)]
            if isinstance(s, Literal) or not isinstance(p, IRI):
                assert g.objects(s, p) == ()
            if not isinstance(p, IRI):
                assert g.subjects(p, o) == ()

    def test_object_only_match_spans_predicates(self):
        s0, s1, o = IRI("http://m/s0"), IRI("http://m/s1"), Literal("v")
        p0, p1, p2 = _MODEL_PREDICATES
        ts = [Triple(s0, p0, o), Triple(s1, p1, o), Triple(s0, p2, o), Triple(s0, p2, Literal("w"))]
        g = Graph(ts)
        assert set(g.match(object=o)) == set(ts[:3])
        assert g.scan_size(object=o) == 3
        assert list(g.match(predicate=p1, object=Literal("w"))) == []

    def test_predicate_object_match_after_promotion(self):
        # The third subject under one (predicate, object) lands in a bucket
        # the second one promoted.
        p, o = _MODEL_PREDICATES[0], Literal("v")
        ts = [Triple(s, p, o) for s in _MODEL_SUBJECTS[:3]]
        g = Graph(ts + [Triple(_MODEL_SUBJECTS[0], p, Literal("w"))])
        assert set(g.match(predicate=p, object=o)) == set(ts)
        assert g.scan_size(predicate=p, object=o) == 3
        assert g.scan_size(predicate=p) == 4
        for t in ts:
            assert list(g.match(t.subject, p, o)) == [t] and t in g

    def test_subject_equal_to_object(self):
        node, p = IRI("http://m/self"), _MODEL_PREDICATES[0]
        loop = Triple(node, p, node)
        g = Graph([loop, loop])
        assert len(g) == 1 and list(g) == [loop]
        for s, o in ((node, None), (None, node), (node, node)):
            assert list(g.match(s, p, o)) == [loop] and list(g.match(s, None, o)) == [loop]
            assert g.scan_size(s, p, o) == 1
        other = Triple(IRI("http://m/other"), p, node)
        g.insert(other)
        assert set(g.match(object=node)) == {loop, other}
        assert list(g.match(subject=node)) == [loop]


def count_builds(g: Graph) -> list[int]:
    """The graph length at each build of ``g``'s predicate view from now on."""
    builds: list[int] = []
    build = g._build_predicate_index

    def counted():
        builds.append(len(g))
        return build()

    g._build_predicate_index = counted
    return builds


_P, _O = _MODEL_PREDICATES[0], Literal("v")
_READS_WITHOUT_SUBJECT = {
    "subjects": lambda g: list(g.subjects(_P, _O)),
    "match by predicate": lambda g: list(g.match(predicate=_P)),
    "match by object": lambda g: list(g.match(object=_O)),
    "scan_size by predicate": lambda g: g.scan_size(predicate=_P),
    "scan_size by predicate and object": lambda g: g.scan_size(None, _P, _O),
    "scan_size by object": lambda g: g.scan_size(object=_O),
}


class TestPredicateIndex:
    """The predicate index and the triples per predicate are one snapshot,
    built by the first read that needs it, from the subject index, and
    built again by the first such read after the graph has grown."""

    @staticmethod
    def unbuilt(ios) -> Graph:
        g = Graph()
        builds = count_builds(g)
        for io in ios:
            assert_io(g, io)
        assert builds == []
        return g

    @pytest.mark.parametrize("read", _READS_WITHOUT_SUBJECT.values(), ids=_READS_WITHOUT_SUBJECT.keys())
    def test_a_read_without_subject_builds_it(self, read):
        s0, s1 = _MODEL_SUBJECTS[:2]
        g = Graph([Triple(s0, _P, _O), Triple(s1, _P, _O), Triple(s0, _MODEL_PREDICATES[1], _O)])
        builds = count_builds(g)
        # Reads by subject, len and membership build nothing.
        assert list(g.objects(s0, _P)) == [_O] and list(g.match(s0)) and Triple(s1, _P, _O) in g
        assert len(g) == 3 and g.scan_size() == 3 and g.scan_size(s0, _P, _O) == 1
        assert builds == []
        assert read(g) == read(Graph(g)) and builds == [3]
        assert read(g) == read(Graph(g)) and builds == [3]

    @pytest.mark.parametrize("read", [_READS_WITHOUT_SUBJECT[name] for name in
                                      ("subjects", "match by predicate", "scan_size by predicate")],
                             ids=["subjects", "match by predicate", "scan_size by predicate"])
    def test_a_new_insert_makes_the_next_read_rebuild_it(self, read):
        s0, s1, s2 = _MODEL_SUBJECTS[:3]
        g = Graph([Triple(s0, _P, _O)])
        builds = count_builds(g)
        read(g)
        view = g._predicate_view
        assert g.insert(Triple(s0, _P, _O)) is False
        read(g)
        assert g._predicate_view is view and builds == [1]
        g.insert(Triple(s1, _P, _O))  # promotes the bucket
        g.insert(Triple(s2, _P, _O))
        g.insert(Triple(s2, _MODEL_PREDICATES[2], Literal("w")))
        assert builds == [1]
        assert read(g) == read(Graph(g)) and builds == [1, 4]
        assert list(g.subjects(_P, _O)) == [s0, s1, s2] and g.scan_size(object=_O) == 3
        assert list(g.match(predicate=_MODEL_PREDICATES[2])) == [Triple(s2, _MODEL_PREDICATES[2], Literal("w"))]
        assert builds == [1, 4]

    def test_counts_are_exact_after_growth_past_a_build(self):
        s0, s1 = _MODEL_SUBJECTS[:2]
        p1, p2 = _MODEL_PREDICATES[1:]
        g = Graph([Triple(s0, _P, _O)])
        assert g.scan_size(predicate=_P) == 1 and g.scan_size(predicate=p1) == 0
        for t in (Triple(s1, _P, _O), Triple(s0, _P, Literal("w")), Triple(s0, _P, _O), Triple(s1, p1, _O)):
            g.insert(t)
        assert [g.scan_size(predicate=p) for p in _MODEL_PREDICATES] == [3, 1, 0]
        g.insert(Triple(s1, p2, _O))
        assert [g.scan_size(predicate=p) for p in _MODEL_PREDICATES] == [3, 1, 1]

    # Each case binds some positions of the pattern and makes the i-th
    # triple that agrees with them.
    @pytest.mark.parametrize("bound, make", [
        ({"subject": _MODEL_SUBJECTS[0]}, lambda i: Triple(_MODEL_SUBJECTS[0], IRI(f"http://m/q{i}"), _O)),
        ({"subject": _MODEL_SUBJECTS[0], "predicate": _P},
         lambda i: Triple(_MODEL_SUBJECTS[0], _P, IRI(f"http://m/o{i}"))),
        ({"predicate": _P}, lambda i: Triple(IRI(f"http://m/s{i}"), _P, _O)),
    ], ids=["subject", "subject-predicate", "predicate"])
    def test_a_match_iterated_while_inserting_yields_the_snapshot(self, bound, make):
        ts = [make(i) for i in range(3)]
        g = Graph(ts)
        seen = []
        for t in g.match(**bound):
            seen.append(t)
            g.insert(make(10 + len(seen)))
        assert seen == ts
        assert len(g) == 6 and g.scan_size(**bound) == 6 and len(list(g.match(**bound))) == 6

    def test_a_view_rebuilt_as_the_graph_grows_equals_one_built_once(self, la_rochelle_ios):
        grown = Graph()
        builds = count_builds(grown)
        assert list(grown.match(predicate=IRI(RDF_TYPE))) == [] and builds == []  # empty: current
        for io in la_rochelle_ios:
            assert_io(grown, io)
            assert list(grown.match(predicate=IRI(RDF_TYPE)))
        assert len(builds) == len(la_rochelle_ios)
        once = self.unbuilt(la_rochelle_ios)
        # Equality reads the subject index only, so it holds either way
        # round and builds nothing.
        assert once == grown and grown == once and once.scan_size() == len(grown)
        assert once != Graph(list(once)[1:]) and Graph(list(grown)[1:]) != once
        # materialize reads the view before it adds anything: grown's is
        # current, and only the read after materialize builds it again.
        for g in (grown, once):
            assert materialize(g).inferred_triples > 0
        assert once == grown and once._predicate_index() == grown._predicate_index()
        assert len(builds) == len(la_rochelle_ios) + 1

    def test_concurrent_first_readers_get_the_same_result(self, la_rochelle_ios):
        g = self.unbuilt(la_rochelle_ios)
        p, o = IRI(RDF_TYPE), IRI(IO_CLASS)
        expected = list(self.unbuilt(la_rochelle_ios).subjects(p, o))
        start = threading.Barrier(4, timeout=60)
        results: list = []

        def read() -> None:
            start.wait()
            results.append(list(g.subjects(p, o)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert len(expected) == len(la_rochelle_ios) and results == [expected] * 4


class TestStoredForm:
    @staticmethod
    def live_triples() -> int:
        gc.collect()
        return sum(type(o) is Triple for o in gc.get_objects())

    @pytest.mark.parametrize("resources", [5, 25])
    def test_a_built_graph_holds_no_triple_objects(self, la_rochelle_ios, resources):
        # The reader, assert_io and materialize store terms only, so the
        # live Triple objects do not grow with the graph.
        before = self.live_triples()
        g = Graph()
        for io in la_rochelle_ios[:resources]:
            assert_io(g, io)
        assert materialize(g).inferred_triples > 0
        read = from_ntriples(to_ntriples(g))
        assert read == g and len(read) > 20 * resources
        assert self.live_triples() == before


def hotel_io(io_id: str = "HOT-001") -> InformationObject:
    return InformationObject(
        id=io_id,
        granules={
            GranuleKind.GEOLOCATIONS: [Granule(
                kind=GranuleKind.GEOLOCATIONS,
                fields={
                    "Geolocation/Latitude": Decimal("46.1591"),
                    "Geolocation/Longitude": Decimal("-1.1520"),
                    "Geolocation/City": "La Rochelle",
                },
            )],
        },
    )


def per_character_escape(text: str) -> str:
    """``_escape_label_part`` as one generator step per character, the
    form its translation table replaced."""
    return "".join(c if c.isalnum() and c.isascii() else f"_{ord(c):02x}" if c < "\u0100" else f"_u{ord(c):06x}"
                   for c in text)


class TestAssertIo:
    def test_zero_granules_yields_type_triple_only(self):
        g = Graph()
        added = assert_io(g, InformationObject(id="X-1"))
        assert added == 1
        assert list(g) == [Triple(mint_io_iri("http://example.org/tifsem", "X-1"),
                                  IRI(RDF_TYPE), IRI(IO_CLASS))]

    def test_geolocation_granule_count(self):
        # 1 type + (hasGranule + granule type) + 3 field triples
        g = Graph()
        assert assert_io(g, hotel_io()) == 6
        assert len(g) == 6

    def test_reassert_adds_nothing(self):
        g = Graph()
        assert_io(g, hotel_io())
        assert assert_io(g, hotel_io()) == 0

    def test_count_matches_construction_oracle(self, la_rochelle_ios):
        for io in la_rochelle_ios:
            g = Graph()
            assert assert_io(g, io) == io_triple_count(io)

    def test_geopoint_expands_to_two_decimals(self):
        io = InformationObject(
            id="P-1",
            granules={GranuleKind.GEOLOCATIONS: [Granule(
                kind=GranuleKind.GEOLOCATIONS,
                fields={"Geolocation/Position": GeoPoint(46.0, -1.0)},
            )]},
        )
        g = Graph()
        assert_io(g, io)
        node = granule_node("P-1", GranuleKind.GEOLOCATIONS, 0)
        values = {t.predicate.value: t.object for t in g.match(subject=node)
                  if isinstance(t.object, Literal)}
        assert values[TIFSEM_NS + "latitude"].lexical == "46.0"
        assert values[TIFSEM_NS + "longitude"].lexical == "-1.0"

    def test_invalid_io_rejected(self):
        io = hotel_io()
        io.granules[GranuleKind.GEOLOCATIONS][0].fields["Geolocation/Latitude"] = Decimal("91")
        with pytest.raises(IoAssertionError):
            assert_io(Graph(), io)

    def test_distinct_ids_never_share_subjects_or_labels(self, la_rochelle_ios):
        seen_subjects: set = set()
        for io in la_rochelle_ios:
            g = Graph()
            assert_io(g, io)
            subjects = {t.subject for t in g}
            assert not (subjects & seen_subjects)
            seen_subjects |= subjects

    @given(st.one_of(st.text(), st.text(st.characters(blacklist_categories=())),
                     st.text("aZ09_-u\xe9\xff\u0100\u0e01")))
    def test_label_escaping_equals_the_per_character_form(self, text):
        assert _escape_label_part(text) == per_character_escape(text)

    def test_blank_label_escaping_is_injective(self):
        # ("à1", "ก") and ("é5", "ຕ") once shared _e01 and _e95: U+0E01 and
        # U+0E95 were written with as many hex digits as U+00E0 and U+00E9 plus one.
        tricky = ["a_", "a_5f", "a-b", "a_2db", "é", "_", "à1", "ก", "é5", "ຕ"]
        labels = {granule_node(i, GranuleKind.CONTACTS, 0).label for i in tricky}
        assert len(labels) == len(tricky)

    @pytest.mark.parametrize("io_id, label", [
        ("HOT-001", "HOT_2d001_Contacts_0"),
        ("é", "_e9_Contacts_0"),
        ("ÿ", "_ff_Contacts_0"),
        ("Ā", "_u000100_Contacts_0"),
        ("ก", "_u000e01_Contacts_0"),
        ("\U0010ffff", "_u10ffff_Contacts_0"),
    ])
    def test_blank_label_forms(self, io_id, label):
        assert granule_node(io_id, GranuleKind.CONTACTS, 0).label == label
