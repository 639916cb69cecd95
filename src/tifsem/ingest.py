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
from io import BytesIO
from pathlib import Path
from typing import Iterable, Iterator, Optional

from tifsem.errors import ProfileError, XmlParseError
from tifsem.graph import _IRI_FORBIDDEN_RE
from tifsem.ontology import (
    FieldSpec,
    FieldType,
    FieldValue,
    Granule,
    GranuleKind,
    IDENTIFIER_PATH,
    InformationObject,
    IoRef,
    load_core_ontology,
)

# The one date form every supported Python reads alike: 3.11 added basic
# (20160501) and week (2016-W18-7) forms to date.fromisoformat.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_SNAPSHOT = load_core_ontology()
_NO_FIELD = (None, None, None)  # the field table's answer for a path it lacks
_UNPLACED = object()  # a path not yet placed; ``None`` is a placement (dropped)


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    io_id: Optional[str]
    field_path: str
    message: str


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def format_issues(issues: Iterable[ValidationIssue]) -> str:
    r"""Line-oriented report: SEVERITY, io id, field path, message
    (tab-separated), one line per issue; a backslash, tab, line feed or
    carriage return in a field is written ``\\``, ``\t``, ``\n`` or ``\r``."""
    lines = []
    for issue in issues:
        fields = (issue.io_id or "", issue.field_path, issue.message)
        lines.append("\t".join([issue.severity.upper(), *(f.translate(_TSV_ESCAPES) for f in fields)]) + "\n")
    return "".join(lines)


@dataclass(frozen=True)
class RawDocument:
    source_uri: str
    data: bytes

    @classmethod
    def from_path(cls, path: str | Path) -> "RawDocument":
        """The file's bytes, named by the path as given (``./x.xml`` stays
        ``./x.xml``)."""
        return cls(source_uri=str(path), data=Path(path).read_bytes())


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
    # The length of the longest renamed or dropped key: no longer prefix of
    # a tag path can be a key.
    _key_len: int = field(init=False, repr=False, compare=False)

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
        dropped = frozenset(dropped)
        object.__setattr__(self, "dropped_tags", dropped)
        object.__setattr__(self, "_key_len", max(map(len, [*renames, *dropped]), default=0))
        under_dropped = tuple(tag + "/" for tag in dropped)
        for raw, target in renames.items():
            if raw in dropped or raw.startswith(under_dropped):  # the drop would always win
                raise ProfileError(f"profile {self.name!r}: {raw!r} is renamed but dropped, "
                                   f"itself or under a dropped prefix")
            _, spec, predicate = _SNAPSHOT.fields.get(target, _NO_FIELD)
            if spec is not None and predicate is None:
                raise ProfileError(
                    f"profile {self.name!r}: {target!r} is not ingestable from XML text"
                )
            if spec is None and _SNAPSHOT.kind_for_tag(target) is None:  # nor a granule-prefix rename
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
    except RecursionError:
        raise ProfileError("profile document is nested too deeply") from None
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


_ATTRIBUTE_IGNORED = "attribute ignored: not part of the tag vocabulary"


def _walk_resource(resource: ET.Element) -> tuple[list[tuple[str, str, int]], list[tuple[str, str, str]]]:
    """One preorder traversal of a resource: (path, text, repeat) for each
    non-empty leaf, repeat being the index of its top-level element among
    same-tag siblings, and a warning for every plain (un-namespaced)
    attribute on it or below it.  A stack of child iterators walks each
    top-level element, and a level's path is joined once, when a leaf or a
    warning first needs it, so the walk is linear in depth."""
    leaves: list[tuple[str, str, int]] = []
    warnings = [("warning", f"{resource.tag}/@{name}", _ATTRIBUTE_IGNORED)
                for name in resource.keys() if name[0] != "{"]
    tag_counts: dict[str, int] = {}
    # Per open element, from the top-level one down: its tag, the iterator
    # over its children, and its path and a "/" for them, None until needed.
    tags: list[str] = []
    levels: list[Iterator[ET.Element]] = []
    prefixes: list[Optional[str]] = [""]  # "" for the top-level elements themselves
    for element in resource:
        repeat = tag_counts.get(element.tag, 0)
        tag_counts[element.tag] = repeat + 1
        while True:
            tag = element.tag
            names = element.keys() and [name for name in element.keys() if name[0] != "{"]
            branch = len(element)
            text = "" if branch else (element.text or "").strip()
            if names or text:
                if prefixes[-1] is None:
                    prefixes[-1] = "/".join(tags) + "/"
                path = prefixes[-1] + tag
                if names:
                    warnings.extend(("warning", f"{resource.tag}/{path}/@{name}", _ATTRIBUTE_IGNORED)
                                    for name in names)
                if text:
                    leaves.append((path, text, repeat))
            if branch:
                tags.append(tag)
                levels.append(iter(element))
                prefixes.append(path + "/" if names else None)  # a branch's path is joined above only for names
            while levels and (element := next(levels[-1], None)) is None:  # the element walked next
                del tags[-1], levels[-1], prefixes[-1]
            if not levels:
                break
    return leaves, warnings


def _resources(doc: RawDocument) -> Iterator[ET.Element]:
    """The child elements of the document's root, read as a stream: each is
    yielded once its next sibling starts or the document ends, and dropped
    from the tree when the next is asked for.  Any fault raises XmlParseError."""
    try:
        events = ET.iterparse(BytesIO(doc.data), ("start",))
        _, root = next(events)
        for _ in events:
            if len(root) > 1:  # the first child is complete: the next one has started
                yield root[0]
                del root[0]
        yield from root
    except ET.ParseError as exc:
        raise XmlParseError(f"{doc.source_uri}: {exc.msg}", *(exc.position or (None, None))) from exc
    except (LookupError, ValueError) as exc:  # an unknown or a multi-byte declared encoding
        raise XmlParseError(f"{doc.source_uri}: {exc}") from exc


def _placement(raw_path: str, profile: DialectProfile):
    """Where a leaf goes: ``None`` when the path or a prefix of it is
    dropped, a warning message when it cannot be kept, else (granule kind,
    or ``None`` for the resource itself; canonical path or extension IRI;
    field spec, or ``None`` for an extension).  The canonical path is the
    first of the exact rename, the composition under the longest renamed
    proper prefix and the path itself that names a field XML text can fill:
    one with a predicate in the field table, so not a geopoint.  An
    extension leaf's kind is its first segment's, or that of the segment's
    rename.  Only the proper prefixes no longer than the profile's longest
    key are joined, longest first, so a deep path costs no more than that
    key allows."""
    if raw_path in profile.dropped_tags:
        return None
    renames = profile.tag_renames
    segs = raw_path.split("/")
    composed = None
    for i in range(raw_path.count("/", 0, profile._key_len + 1), 0, -1):
        prefix = "/".join(segs[:i])
        if prefix in profile.dropped_tags:
            return None
        if composed is None and prefix in renames:  # the longest renamed prefix decides
            composed = "/".join([renames[prefix], *segs[i:]])
    for canonical in (renames.get(raw_path), composed, raw_path):
        kind, spec, predicate = _SNAPSHOT.fields.get(canonical, _NO_FIELD)
        if predicate is not None:
            return kind, canonical, spec
    if profile.extension_namespace is None:
        return "unrecognized tag; no extension namespace configured"
    ext_iri = profile.extension_namespace + raw_path
    if _IRI_FORBIDDEN_RE.search(ext_iri):  # e.g. the {uri} of a namespaced tag
        return "unrecognized tag; its path cannot form an extension IRI"
    rename_target = renames.get(segs[0])
    kind = _SNAPSHOT.kind_for_tag(segs[0]) or (_SNAPSHOT.kind_for_tag(rename_target) if rename_target else None)
    return kind, ext_iri, None


def normalize_tag(raw_path: str, profile: DialectProfile) -> NormalizedTag:
    """Report how ``parse_tif`` resolves one dialect tag path: DROPPED,
    MAPPED with its canonical path, or EXTENSION.  ``_placement`` holds the
    resolution order."""
    if not raw_path:
        raise ValueError("raw_path must be non-empty")
    placement = _placement(raw_path, profile)
    if placement is None:
        return NormalizedTag(TagDisposition.DROPPED)
    if isinstance(placement, tuple) and placement[2] is not None:
        return NormalizedTag(TagDisposition.MAPPED, placement[1])
    return NormalizedTag(TagDisposition.EXTENSION)


def _coerce(text: str, spec: FieldSpec) -> FieldValue:
    """The value a leaf's text spells under ``spec``.  Raises ValueError when
    the text is not of the type's lexical form or ``spec.check`` refuses the
    value."""
    if spec.type is FieldType.DECIMAL:
        try:
            value = Decimal(text)
        except InvalidOperation:
            raise ValueError(f"not a decimal: {text!r}")
    elif spec.type is FieldType.DATE:
        try:
            if not _DATE_RE.fullmatch(text):
                raise ValueError
            value = datetime.date.fromisoformat(text)
        except ValueError:
            raise ValueError(f"not an ISO date: {text!r}")
    elif spec.type is FieldType.REF:
        value = IoRef(text)
    else:
        value = text
    spec.check(value)
    return value


class _Refusal(str):
    """The message of a leaf text that ``_coerce`` refuses."""


def _content_hash(granules: dict[GranuleKind, list[Granule]], extensions: list[tuple[str, str]],
                  refused: list[tuple[GranuleKind, str, str]]) -> str:
    """A digest of every field, canonical and extension, and of every
    refused leaf by its canonical key and raw text; a resource-level
    extension has an empty kind."""
    entries = [f"\t{ext_iri}\t{value!r}" for ext_iri, value in extensions]
    entries.extend(f"{kind.value}\t{key}\trefused {text!r}" for kind, key, text in refused)
    for kind, instances in granules.items():
        for granule in instances:
            entries.extend(f"{kind.value}\t{path}\t{value!r}" for path, value in granule.fields.items())
    digest = hashlib.sha256("\n".join(sorted(entries)).encode("utf-8")).hexdigest()
    return digest[:16]


def parse_tif(
    doc: RawDocument,
    profile: DialectProfile = IDENTITY_PROFILE,
) -> tuple[list[InformationObject], list[ValidationIssue]]:
    """Parse one document into information objects.

    Every child element of the root is one resource, parsed from a stream,
    walked, mapped and dropped before the next.  Each non-empty leaf is
    mapped through the profile, preserved as an extension field, or reported;
    nothing is silently lost.  Each distinct (field, text) pair is coerced
    once per document.  A mapped value that ``FieldSpec.check`` refuses is
    an error issue and stays out of the IO, so every IO returned passes
    ``validate_io``.  IO identifiers come from the canonical
    identifier field when present, else from a digest of all the fields
    and of the leaves refused as values.
    A resource that maps no canonical field earns a warning: the profile
    most likely does not fit the document.
    """
    ios: list[InformationObject] = []
    issues: list[ValidationIssue] = []
    seen_ids: set[str] = set()
    # Each distinct tag path is placed, and each distinct (canonical key,
    # text) coerced, once per document: a feed's thousands of leaves take a
    # few dozen paths and far fewer distinct values than leaves, and neither
    # dict outgrows the document's own leaves nor outlives this call's profile.
    placements: dict[str, object] = {}
    coerced: dict[tuple[str, str], FieldValue] = {}

    for resource in _resources(doc):
        granules: dict[GranuleKind, list[Granule]] = {}
        instances: dict[tuple[GranuleKind, int], Granule] = {}
        extensions: list[tuple[str, str]] = []
        refused: list[tuple[GranuleKind, str, str]] = []
        mapped = False
        leaves, resource_issues = _walk_resource(resource)  # issues: severity, path, message
        for raw_path, text, repeat in leaves:
            placement = placements.get(raw_path, _UNPLACED)
            if placement is _UNPLACED:
                placement = placements[raw_path] = _placement(raw_path, profile)
            if placement is None:
                continue
            if isinstance(placement, str):
                resource_issues.append(("warning", raw_path, placement))
                continue
            kind, key, spec = placement
            value = text
            if spec is not None:
                mapped = True
                value = coerced.get((key, text))
                if value is None:
                    try:
                        value = _coerce(text, spec)
                    except ValueError as exc:
                        value = _Refusal(exc)
                    coerced[key, text] = value
                if type(value) is _Refusal:
                    resource_issues.append(("error", key, str(value)))
                    refused.append((kind, key, text))
                    continue
            if kind is None:  # a resource-level extension keeps every value
                extensions.append((key, value))
                continue
            granule = instances.get((kind, repeat))
            if granule is None:
                granule = instances[kind, repeat] = Granule(kind=kind)
                granules.setdefault(kind, []).append(granule)
            if key in granule.fields:
                resource_issues.append(
                    ("warning", key, f"duplicate field from tag {raw_path!r}; first value kept"))
            else:
                granule.fields[key] = value
        if not mapped:
            resource_issues.append(("warning", resource.tag, "no canonical field mapped; check the profile"))

        io_id = None
        dc = granules.get(GranuleKind.DUBLIN_CORE)
        if dc:
            identifier = dc[0].fields.get(IDENTIFIER_PATH)
            if isinstance(identifier, str) and identifier:
                io_id = identifier
        if io_id is None:
            io_id = _content_hash(granules, extensions, refused)
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

    Errors cover empty ids, unregistered field paths and every value that
    ``FieldSpec.check`` refuses, the rule ``parse_tif`` applies to each leaf;
    empty granules earn a warning.
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
                owner, spec, _ = _SNAPSHOT.fields.get(path, _NO_FIELD)
                if owner is not kind:
                    error(path, f"field not in the {kind.value} schema")
                    continue
                try:
                    spec.check(value)
                except ValueError as exc:
                    error(path, str(exc))

    for ext_iri, value in io.extensions:
        if "://" not in ext_iri or _IRI_FORBIDDEN_RE.search(ext_iri):
            error(ext_iri, "extension key must be an IRI")
        if not isinstance(value, str):
            error(ext_iri, "extension fields must hold text")

    return issues
