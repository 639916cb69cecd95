"""Two-level alignment between the granule vocabulary and Schema.org.

Concept-level rules (EquivalentClass, SubClassOf) retype nodes; property-level
rules (EquivalentProperty, SubPropertyOf) mirror statements.  Materialization
writes every rule-implied triple into the store eagerly, leaving the graph at
the rules' fixed point, so downstream exports carry the Schema.org
annotations without query-time inference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from tifsem.errors import RuleError
from tifsem.graph import Graph, IRI, RDF_TYPE, Subject, Term, vocabulary_iri
from tifsem.ontology import (
    GranuleKind,
    SCHEMA_ADDRESS,
    SCHEMA_LATITUDE,
    SCHEMA_LONGITUDE,
    SCHEMA_NS,
    TIFSEM_NS,
    class_of,
    load_core_ontology,
)
from tifsem.serialize import DEFAULT_PREFIXES

_SNAPSHOT = load_core_ontology()


class Relation(str, Enum):
    EQUIVALENT_CLASS = "EquivalentClass"
    SUB_CLASS_OF = "SubClassOf"
    EQUIVALENT_PROPERTY = "EquivalentProperty"
    SUB_PROPERTY_OF = "SubPropertyOf"


_CLASS_RELATIONS = {Relation.EQUIVALENT_CLASS, Relation.SUB_CLASS_OF}
_PROPERTY_RELATIONS = {Relation.EQUIVALENT_PROPERTY, Relation.SUB_PROPERTY_OF}


@dataclass(frozen=True)
class MappingRule:
    source: str
    target: str
    relation: Relation


@dataclass
class MappingReport:
    inferred_triples: int


def _rule(kind: GranuleKind, target: str, relation: Relation) -> MappingRule:
    return MappingRule(class_of(kind), SCHEMA_NS + target, relation)


def builtin_rules() -> list[MappingRule]:
    """The shipped alignment: one class rule per aligned granule (two for the
    two-target granules, equivalence toward the general target and subclass
    toward the specific one), plus the geolocation property rules."""
    geo = _SNAPSHOT.granule_schemas[GranuleKind.GEOLOCATIONS]
    return [
        _rule(GranuleKind.MULTIMEDIA, "MediaObject", Relation.EQUIVALENT_CLASS),
        _rule(GranuleKind.CLASSIFICATIONS, "Rating", Relation.EQUIVALENT_CLASS),
        _rule(GranuleKind.CONTACTS, "ContactPoint", Relation.EQUIVALENT_CLASS),
        _rule(GranuleKind.LEGAL_INFORMATION, "Organization", Relation.EQUIVALENT_CLASS),
        _rule(GranuleKind.LANGUAGES, "Language", Relation.EQUIVALENT_CLASS),
        _rule(GranuleKind.GEOLOCATIONS, "Place", Relation.EQUIVALENT_CLASS),
        _rule(GranuleKind.RESERVATION_MODES, "Reservation", Relation.EQUIVALENT_CLASS),
        _rule(GranuleKind.RESERVATION_MODES, "LodgingReservation", Relation.SUB_CLASS_OF),
        _rule(GranuleKind.PRICES, "Offer", Relation.EQUIVALENT_CLASS),
        _rule(GranuleKind.PRICES, "PriceSpecification", Relation.SUB_CLASS_OF),
        MappingRule(geo.predicate("AddressLine1"), SCHEMA_ADDRESS, Relation.SUB_PROPERTY_OF),
        MappingRule(geo.predicate("AddressLine2"), SCHEMA_ADDRESS, Relation.SUB_PROPERTY_OF),
        MappingRule(geo.predicate("Latitude"), SCHEMA_LATITUDE, Relation.EQUIVALENT_PROPERTY),
        MappingRule(geo.predicate("Longitude"), SCHEMA_LONGITUDE, Relation.EQUIVALENT_PROPERTY),
    ]


def _expand(name: str) -> str:
    if "://" in name:
        return name
    prefix, sep, local = name.partition(":")
    if sep and prefix in DEFAULT_PREFIXES:
        return DEFAULT_PREFIXES[prefix] + local
    return name


def _check_rule_kinds(rule: MappingRule) -> Optional[str]:
    is_class = {iri: iri in _SNAPSHOT.concepts for iri in (rule.source, rule.target)}
    is_prop = {iri: iri in _SNAPSHOT.properties for iri in (rule.source, rule.target)}
    for iri in (rule.source, rule.target):
        if not is_class[iri] and not is_prop[iri]:
            return f"unknown term {iri}"
    if rule.relation in _CLASS_RELATIONS:
        if not (is_class[rule.source] and is_class[rule.target]):
            return f"{rule.relation.value} requires two class IRIs: {rule.source} -> {rule.target}"
    else:
        if not (is_prop[rule.source] and is_prop[rule.target]):
            return f"{rule.relation.value} requires two property IRIs: {rule.source} -> {rule.target}"
    return None


def load_rules(document: str) -> list[MappingRule]:
    """Parse a JSON rule document: an array of {source, target, relation}.

    Relation names are the four exact enum values; terms may be absolute IRIs
    or names under the prefixes of `serialize.DEFAULT_PREFIXES` (rdf, rdfs,
    xsd, schema, tifsem), and must be known to the core ontology.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise RuleError(f"rules document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise RuleError("rules document is nested too deeply") from None
    if not isinstance(data, list):
        raise RuleError("rules document must be a JSON array")

    rules: list[MappingRule] = []
    seen: set[tuple[str, str, Relation]] = set()
    for index, entry in enumerate(data):
        if not isinstance(entry, dict) or set(entry) != {"source", "target", "relation"}:
            raise RuleError(f"rule #{index}: expected keys source, target, relation")
        try:
            relation = Relation(entry["relation"])
        except ValueError:
            raise RuleError(f"rule #{index}: unknown relation {entry['relation']!r}")
        if not (isinstance(entry["source"], str) and isinstance(entry["target"], str)):
            raise RuleError(f"rule #{index}: source and target must be strings")
        rule = MappingRule(_expand(entry["source"]), _expand(entry["target"]), relation)
        problem = _check_rule_kinds(rule)
        if problem:
            raise RuleError(f"rule #{index}: {problem}")
        key = (rule.source, rule.target, rule.relation)
        if key in seen:
            raise RuleError(f"rule #{index}: duplicate rule {key}")
        seen.add(key)
        rules.append(rule)
    return rules


def _closure_maps(rules: Sequence[MappingRule]) -> tuple[dict[IRI, list[IRI]], dict[IRI, list[IRI]]]:
    """Per-term reachability over the rule graph, equivalences both ways,
    from each class and from each property to the terms it reaches."""
    class_edges: dict[str, set[str]] = {}
    prop_edges: dict[str, set[str]] = {}
    for rule in rules:
        edges = class_edges if rule.relation in _CLASS_RELATIONS else prop_edges
        edges.setdefault(rule.source, set()).add(rule.target)
        if rule.relation in (Relation.EQUIVALENT_CLASS, Relation.EQUIVALENT_PROPERTY):
            edges.setdefault(rule.target, set()).add(rule.source)

    def close(edges: dict[str, set[str]]) -> dict[IRI, list[IRI]]:
        closed: dict[IRI, list[IRI]] = {}
        for start in edges:
            reached: set[str] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in edges.get(node, ()):
                    if nxt != start and nxt not in reached:
                        reached.add(nxt)
                        stack.append(nxt)
            closed[vocabulary_iri(start)] = [vocabulary_iri(node) for node in reached]
        return closed

    return close(class_edges), close(prop_edges)


def materialize(g: Graph, rules: Optional[Sequence[MappingRule]] = None) -> MappingReport:
    """Write every rule-implied triple into the graph, reaching the fixed point
    in one pass over its subject index.

    Each bucket is matched against the rule heads: an ``rdf:type`` bucket
    looks each of its classes up among the class rules, any other bucket its
    predicate among the property rules (the scan-and-match shape of Urbani
    et al., "WebPIE", ESWC 2010).  So it reads neither the predicate index
    nor ``_match``, and a graph that is only written, materialized and
    serialized never builds that index.  The inferred terms are collected
    before any is added: an insert during the walk would change the subject
    index and the buckets being walked.

    One pass is enough: the closures from ``_closure_maps`` are transitive
    (equivalences already run both ways), so each asserted statement yields
    all its consequences at once; and since no property rule may name
    ``rdf:type``, class inferences never feed property rules or vice versa.
    A property rule naming ``rdf:type`` raises :class:`RuleError`.

    Only adds statements, never removes; running it twice adds nothing.
    The report counts the triples added.
    """
    rules = builtin_rules() if rules is None else rules
    for rule in rules:
        if rule.relation in _PROPERTY_RELATIONS and RDF_TYPE in (rule.source, rule.target):
            raise RuleError(
                f"{rule.relation.value} rule may not name rdf:type: {rule.source} -> {rule.target}"
            )
    rdf_type = vocabulary_iri(RDF_TYPE)
    # Terms read from the graph, and IRIs as predicates and classes, are of
    # the kinds a triple takes, so they go to the graph with no ``Triple``.
    class_closure, prop_closure = _closure_maps(rules)
    inferred: list[tuple[Subject, IRI, Term]] = []
    for s, buckets in g._by_subject.items():
        for p, bucket in buckets.items():
            objects = bucket if type(bucket) is dict else (bucket,)
            if p == rdf_type:
                for c in objects:
                    inferred.extend((s, rdf_type, target) for target in class_closure.get(c, ()))
            elif p in prop_closure:
                for target in prop_closure[p]:
                    inferred.extend((s, target, o) for o in objects)
    return MappingReport(inferred_triples=sum(g._add(*terms) for terms in inferred))


def check_consistency(rules: Sequence[MappingRule]) -> list[str]:
    """Report kind mismatches, class rules rooted outside the granule
    vocabulary, and granules the rule set leaves unaligned."""
    report: list[str] = []
    granule_classes = {class_of(k): k for k in GranuleKind}

    for rule in rules:
        problem = _check_rule_kinds(rule)
        if problem:
            report.append(f"kind mismatch: {problem}")
            continue
        if rule.relation in _CLASS_RELATIONS and rule.source.startswith(TIFSEM_NS):
            if rule.source not in granule_classes:
                report.append(f"source of {rule.relation.value} rule is not a granule class: {rule.source}")

    covered = {rule.source for rule in rules if rule.relation in _CLASS_RELATIONS}
    for kind in GranuleKind:
        if class_of(kind) not in covered:
            report.append(f"granule {kind.value} has no Schema.org mapping")
    return report
