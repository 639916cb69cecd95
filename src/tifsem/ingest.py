"""Tolerant ingestion of TourInFrance-style XML and its dialects.

A dialect profile declares, per producer, how divergent tag paths map back
onto the canonical vocabulary: exact or prefix renames, tags to drop, and an
optional extension namespace under which unrecognized tags are preserved
instead of lost.  Parsing is a pure function of (bytes, profile); documents
may be parsed concurrently with no shared state.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

from tifsem.errors import ProfileError, XmlParseError
from tifsem.graph import IRI_FORBIDDEN
from tifsem.ontology import (
    FieldType,
    GeoPoint,
    Granule,
    GranuleKind,
    IDENTIFIER_PATH,
    InformationObject,
    IoRef,
    check_plain_length,
    load_core_ontology,
)

_IRI_FORBIDDEN_RE = re.compile(f"[{IRI_FORBIDDEN}]")
_SNAPSHOT = load_core_ontology()


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    io_id: Optional[str]
    field_path: str
    message: str


def format_issues(issues: Iterable[ValidationIssue]) -> str:
    """Line-oriented report: SEVERITY, io id, field path, message (tab-separated)."""
    lines = []
    for issue in issues:
        io_id = issue.io_id or ""
        lines.append(f"{issue.severity.upper()}\t{io_id}\t{issue.field_path}\t{issue.message}\n")
    return "".join(lines)


@dataclass(frozen=True)
class RawDocument:
    source_uri: str
    data: bytes
    declared_encoding: Optional[str] = None

    @classmethod
    def from_path(cls, path: str | Path) -> "RawDocument":
        p = Path(path)
        return cls(source_uri=str(p), data=p.read_bytes())


class TagDisposition(Enum):
    MAPPED = "mapped"
    DROPPED = "dropped"
    EXTENSION = "extension"


@dataclass(frozen=True)
class NormalizedTag:
    disposition: TagDisposition
    path: Optional[str] = None  # canonical field path when MAPPED


@dataclass(frozen=True)
class DialectProfile:
    """Declarative description of one producer's divergence from the
    canonical vocabulary.

    ``tag_renames`` maps dialect tag paths to canonical field paths; a key may
    also be a path prefix whose value is a canonical granule tag, in which
    case the remaining segments are carried over unchanged.
    """

    name: str
    tag_renames: dict[str, str] = field(default_factory=dict)
    dropped_tags: frozenset[str] = field(default_factory=frozenset)
    extension_namespace: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ProfileError(f"profile name must be a string, got {self.name!r}")
        renames, dropped, namespace = self.tag_renames, self.dropped_tags, self.extension_namespace
        if not isinstance(renames, dict) or not all(
                isinstance(raw, str) and raw and isinstance(target, str) for raw, target in renames.items()):
            raise ProfileError(f"profile {self.name!r}: tag_renames must map non-empty tag paths to strings")
        if not isinstance(dropped, (list, tuple, set, frozenset)) or not all(
                isinstance(tag, str) for tag in dropped):
            raise ProfileError(f"profile {self.name!r}: dropped_tags must be a list of tag paths")
        if namespace is not None and (
                not isinstance(namespace, str) or "://" not in namespace or _IRI_FORBIDDEN_RE.search(namespace)):
            raise ProfileError(f"profile {self.name!r}: extension_namespace must be an IRI prefix with '://'")
        object.__setattr__(self, "dropped_tags", frozenset(self.dropped_tags))
        overlap = set(self.tag_renames) & self.dropped_tags
        if overlap:
            raise ProfileError(f"profile {self.name!r}: tags both renamed and dropped: {sorted(overlap)}")
        for raw, target in self.tag_renames.items():
            if _SNAPSHOT.has_path(target):
                spec = _SNAPSHOT.field_spec(target)
                if spec is not None and spec.type is FieldType.GEOPOINT:
                    raise ProfileError(
                        f"profile {self.name!r}: {target!r} is not ingestable from XML text"
                    )
                continue
            if _SNAPSHOT.kind_for_tag(target) is not None:
                continue  # granule-prefix rename
            raise ProfileError(
                f"profile {self.name!r}: {raw!r} mapped to nonexistent canonical path {target!r}"
            )


IDENTITY_PROFILE = DialectProfile(name="tif-v3")


def load_profile(text: str) -> DialectProfile:
    """Parse a profile from its JSON document form."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProfileError("profile document must be a JSON object")
    unknown = set(data) - {"name", "tag_renames", "dropped_tags", "extension_namespace"}
    if unknown:
        raise ProfileError(f"unknown profile keys: {sorted(unknown)}")
    return DialectProfile(
        name=data.get("name", "unnamed"),
        tag_renames=data.get("tag_renames", {}),
        dropped_tags=data.get("dropped_tags", []),
        extension_namespace=data.get("extension_namespace"),
    )


def save_profile(profile: DialectProfile) -> str:
    return json.dumps(
        {
            "name": profile.name,
            "tag_renames": dict(sorted(profile.tag_renames.items())),
            "dropped_tags": sorted(profile.dropped_tags),
            "extension_namespace": profile.extension_namespace,
        },
        indent=2,
        ensure_ascii=False,
    ) + "\n"


def _segments(path: str) -> list[str]:
    return path.split("/")


def _is_dropped(raw_path: str, profile: DialectProfile) -> bool:
    segs = _segments(raw_path)
    return any("/".join(segs[:i]) in profile.dropped_tags for i in range(1, len(segs) + 1))


def normalize_tag(raw_path: str, profile: DialectProfile) -> NormalizedTag:
    """Resolve one dialect tag path.

    Resolution order: explicit drop (of the path or any of its prefixes),
    exact rename, longest-prefix rename composed with the remaining segments,
    identity against the canonical schema, extension.
    """
    if not raw_path:
        raise ValueError("raw_path must be non-empty")

    if _is_dropped(raw_path, profile):
        return NormalizedTag(TagDisposition.DROPPED)

    exact = profile.tag_renames.get(raw_path)
    if exact is not None and _SNAPSHOT.has_path(exact):
        return NormalizedTag(TagDisposition.MAPPED, exact)

    segs = _segments(raw_path)
    for i in range(len(segs) - 1, 0, -1):
        prefix = "/".join(segs[:i])
        target = profile.tag_renames.get(prefix)
        if target is None:
            continue
        composed = "/".join([target, *segs[i:]])
        if _SNAPSHOT.has_path(composed):
            spec = _SNAPSHOT.field_spec(composed)
            if spec is None or spec.type is not FieldType.GEOPOINT:
                return NormalizedTag(TagDisposition.MAPPED, composed)
        break  # longest matching prefix decides; a failed composition falls through

    if _SNAPSHOT.has_path(raw_path):
        spec = _SNAPSHOT.field_spec(raw_path)
        if spec is not None and spec.type is not FieldType.GEOPOINT:
            return NormalizedTag(TagDisposition.MAPPED, raw_path)
    return NormalizedTag(TagDisposition.EXTENSION)


def _decode(doc: RawDocument) -> bytes | str:
    # ElementTree resolves the XML declaration itself when fed bytes;
    # an explicit declared_encoding overrides it, in which case the
    # declaration must be stripped (ET refuses str input that carries one).
    if doc.declared_encoding is not None:
        try:
            text = doc.data.decode(doc.declared_encoding)
        except (LookupError, UnicodeDecodeError) as exc:
            raise XmlParseError(f"{doc.source_uri}: cannot decode as {doc.declared_encoding}: {exc}")
        return re.sub(r"^\s*<\?xml[^>]*\?>", "", text, count=1)
    return doc.data


def _walk_resource(resource: ET.Element) -> tuple[list[tuple[str, str, int]], list[tuple[str, str, str]]]:
    """One preorder traversal of a resource: (path, text, repeat) for each
    non-empty leaf, repeat being the index of its top-level element among
    same-tag siblings, and a warning for every plain (un-namespaced)
    attribute on it or below it."""
    leaves: list[tuple[str, str, int]] = []
    warnings: list[tuple[str, str, str]] = []

    def check_attributes(element: ET.Element, path: str) -> None:
        warnings.extend(
            ("warning", f"{path}/@{name}", "attribute ignored: not part of the tag vocabulary")
            for name in element.attrib
            if not name.startswith("{")
        )

    check_attributes(resource, resource.tag)
    tag_counts: dict[str, int] = {}
    stack: list[tuple[ET.Element, str, int]] = []
    for top in resource:
        repeat = tag_counts.get(top.tag, 0)
        tag_counts[top.tag] = repeat + 1
        stack.append((top, top.tag, repeat))
    stack.reverse()
    while stack:
        element, path, repeat = stack.pop()
        check_attributes(element, f"{resource.tag}/{path}")
        children = list(element)
        if not children:
            text = (element.text or "").strip()
            if text:
                leaves.append((path, text, repeat))
            continue
        for child in reversed(children):
            stack.append((child, f"{path}/{child.tag}", repeat))
    return leaves, warnings


def _placement(raw_path: str, profile: DialectProfile):
    """Where a leaf goes: ``None`` when it is dropped, a warning message when
    it cannot be kept, else (granule kind, or ``None`` for the resource
    itself; canonical path or extension IRI; field spec, or ``None`` for an
    extension).  An extension leaf's kind is its first segment's, or that of
    the segment's rename."""
    normalized = normalize_tag(raw_path, profile)
    if normalized.disposition is TagDisposition.DROPPED:
        return None
    if normalized.disposition is TagDisposition.MAPPED:
        canonical = normalized.path
        return _SNAPSHOT.kind_for_tag(_segments(canonical)[0]), canonical, _SNAPSHOT.field_spec(canonical)
    if profile.extension_namespace is None:
        return "unrecognized tag; no extension namespace configured"
    ext_iri = profile.extension_namespace + raw_path
    if _IRI_FORBIDDEN_RE.search(ext_iri):  # e.g. the {uri} of a namespaced tag
        return "unrecognized tag; its path cannot form an extension IRI"
    top_tag = _segments(raw_path)[0]
    rename_target = profile.tag_renames.get(top_tag)
    kind = _SNAPSHOT.kind_for_tag(top_tag) or (_SNAPSHOT.kind_for_tag(rename_target) if rename_target else None)
    return kind, ext_iri, None


def _coerce(value: str, spec_type: FieldType):
    if spec_type is FieldType.TEXT:
        return value
    if spec_type is FieldType.DECIMAL:
        try:
            number = Decimal(value)
        except InvalidOperation:
            raise ValueError(f"not a decimal: {value!r}")
        if not number.is_finite():
            raise ValueError(f"not a finite decimal: {value!r}")
        check_plain_length(number)
        return number
    if spec_type is FieldType.DATE:
        try:
            return datetime.date.fromisoformat(value)
        except ValueError:
            raise ValueError(f"not an ISO date: {value!r}")
    if spec_type is FieldType.REF:
        return IoRef(value)
    raise ValueError(f"field type {spec_type} is not ingestable from XML")


def _content_hash(granules: dict[GranuleKind, list[Granule]]) -> str:
    entries = []
    for kind, instances in granules.items():
        for granule in instances:
            for path, value in granule.fields.items():
                if "://" in path:
                    continue  # extension fields do not contribute to identity
                entries.append(f"{kind.value}\t{path}\t{value!r}")
    digest = hashlib.sha256("\n".join(sorted(entries)).encode("utf-8")).hexdigest()
    return digest[:16]


def parse_tif(
    doc: RawDocument,
    profile: DialectProfile = IDENTITY_PROFILE,
) -> tuple[list[InformationObject], list[ValidationIssue]]:
    """Parse one document into information objects.

    Every child element of the root is one resource.  Each non-empty leaf is
    mapped through the profile, preserved as an extension field, or reported;
    nothing is silently lost.  IO identifiers come from the canonical
    identifier field when present, else from a digest of the canonical field
    multiset.
    """
    try:
        root = ET.fromstring(_decode(doc))
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise XmlParseError(f"{doc.source_uri}: {exc.msg}", line, column) from exc

    ios: list[InformationObject] = []
    issues: list[ValidationIssue] = []
    seen_ids: set[str] = set()

    for resource in root:
        granules: dict[GranuleKind, list[Granule]] = {}
        instances: dict[tuple[GranuleKind, int], Granule] = {}
        extensions: dict[str, str] = {}
        leaves, resource_issues = _walk_resource(resource)  # issues: severity, path, message
        for raw_path, value, repeat in leaves:
            placement = _placement(raw_path, profile)
            if placement is None:
                continue
            if isinstance(placement, str):
                resource_issues.append(("warning", raw_path, placement))
                continue
            kind, key, spec = placement
            if spec is not None:
                try:
                    value = _coerce(value, spec.type)
                except ValueError as exc:
                    resource_issues.append(("error", key, str(exc)))
                    continue
            if kind is None:
                target = extensions
            else:
                granule = instances.get((kind, repeat))
                if granule is None:
                    granule = instances[kind, repeat] = Granule(kind=kind)
                    granules.setdefault(kind, []).append(granule)
                target = granule.fields
            if key in target:
                resource_issues.append(
                    ("warning", key, f"duplicate field from tag {raw_path!r}; first value kept"))
            else:
                target[key] = value

        io_id = None
        dc = granules.get(GranuleKind.DUBLIN_CORE)
        if dc:
            identifier = dc[0].fields.get(IDENTIFIER_PATH)
            if isinstance(identifier, str) and identifier:
                io_id = identifier
        if io_id is None:
            io_id = _content_hash(granules)
        if io_id in seen_ids:
            resource_issues.append(("error", IDENTIFIER_PATH, f"duplicate identifier {io_id!r} in document"))
        seen_ids.add(io_id)

        ios.append(InformationObject(id=io_id, granules=granules, extensions=extensions))
        issues.extend(
            ValidationIssue(severity, io_id, path, message)
            for severity, path, message in resource_issues
        )

    return ios, issues


def validate_io(io: InformationObject) -> list[ValidationIssue]:
    """Check one IO against the granule schema; never mutates it.

    Errors cover schema violations (unregistered field paths, type mismatches,
    out-of-range coordinates, non-finite decimals and decimals whose plain
    form is too long, empty ids); empty granules earn a warning.
    """
    issues: list[ValidationIssue] = []

    def error(path: str, message: str) -> None:
        issues.append(ValidationIssue("error", io.id or None, path, message))

    def warning(path: str, message: str) -> None:
        issues.append(ValidationIssue("warning", io.id or None, path, message))

    if not io.id:
        error("", "information object has an empty id")

    for kind, instances in io.granules.items():
        if not isinstance(kind, GranuleKind):
            error(str(kind), "unknown granule kind")
            continue
        if not instances:
            error(kind.value, "granule list present but empty")
        schema = _SNAPSHOT.granule_schemas[kind]
        for granule in instances:
            if granule.kind is not kind:
                error(schema.tag, f"granule of kind {granule.kind} filed under {kind}")
            if not granule.fields:
                warning(schema.tag, "empty granule")
            for path, value in granule.fields.items():
                if "://" in path:
                    if _IRI_FORBIDDEN_RE.search(path):
                        error(path, "extension key must be an IRI")
                    if not isinstance(value, str):
                        error(path, "extension fields must hold text")
                    continue
                spec = _SNAPSHOT.field_spec(path)
                if spec is None or _SNAPSHOT.kind_for_tag(_segments(path)[0]) is not kind:
                    error(path, f"field not in the {kind.value} schema")
                    continue
                if not spec.accepts(value):
                    error(path, f"expected {spec.type.value} value, got {type(value).__name__}")
                    continue
                if not isinstance(value, Decimal):
                    continue
                if not value.is_finite():
                    error(path, f"not a finite decimal: {value}")
                elif not spec.in_bounds(value):
                    error(path, f"value {value} outside [{spec.minimum}, {spec.maximum}]")
                else:
                    try:
                        check_plain_length(value)
                    except ValueError as exc:
                        error(path, str(exc))

    for ext_iri, value in io.extensions.items():
        if "://" not in ext_iri or _IRI_FORBIDDEN_RE.search(ext_iri):
            error(ext_iri, "extension key must be an IRI")
        if not isinstance(value, str):
            error(ext_iri, "extension fields must hold text")

    return issues
