"""Schemas of keypoint names and cross-schema counterpart mappings.

A mapping lists, for every keypoint of a target schema, the source-schema
keypoints it is synthesized from. Averaging those entries transfers poses
(:func:`remap_pose`) and final-layer network weights (weights module) from
one vocabulary to the other. The built-in table pairs the 17-keypoint COCO
vocabulary with the 17-keypoint panoramic-dataset vocabulary; split targets
(head, neck, center hip) average their two nearest source keypoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .dataio import Pose
from .errors import ValidationError

__all__ = [
    "KeypointSchema",
    "SchemaMapping",
    "COCO17",
    "JRDB17",
    "builtin_schemas",
    "builtin_schema",
    "default_mapping",
    "identity_mapping",
    "validate_mapping",
    "check_entries",
    "remap_pose",
    "load_mapping",
    "save_mapping",
]


@dataclass(frozen=True)
class KeypointSchema:
    """Ordered, named keypoint vocabulary. Indices are 0-based."""

    id: str
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if not self.id:
            raise ValueError("schema id must be non-empty")
        if not self.names:
            raise ValueError("schema must have at least one keypoint")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"schema {self.id!r} has duplicate keypoint names")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"schema {self.id!r} has no keypoint named {name!r}") from None


@dataclass(frozen=True)
class SchemaMapping:
    """For each target index, the source indices it is averaged from.

    Construction is permissive so that broken mappings can be inspected;
    :func:`validate_mapping` reports violations as data.
    """

    source_schema: str
    target_schema: str
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(int(i) for i in e) for e in self.entries))


COCO17 = KeypointSchema(
    "coco17",
    (
        "nose",
        "left eye",
        "right eye",
        "left ear",
        "right ear",
        "left shoulder",
        "right shoulder",
        "left elbow",
        "right elbow",
        "left wrist",
        "right wrist",
        "left hip",
        "right hip",
        "left knee",
        "right knee",
        "left ankle",
        "right ankle",
    ),
)

JRDB17 = KeypointSchema(
    "jrdb17",
    (
        "head",
        "right eye",
        "left eye",
        "right shoulder",
        "neck",
        "left shoulder",
        "right elbow",
        "left elbow",
        "center hip",
        "right hand",
        "right hip",
        "left hip",
        "left hand",
        "right knee",
        "left knee",
        "right foot",
        "left foot",
    ),
)

_BUILTINS = {s.id: s for s in (COCO17, JRDB17)}

# Counterpart table, target name -> source names. The upstream table lists
# "left hand -> left wrist" twice (rows 10 and 13); row 10 is corrected to the
# right side by symmetry. verbatim mode keeps the literal left-wrist source.
_DEFAULT_COUNTERPARTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("head", ("left eye", "right eye")),
    ("right eye", ("right eye",)),
    ("left eye", ("left eye",)),
    ("right shoulder", ("right shoulder",)),
    ("neck", ("left shoulder", "right shoulder")),
    ("left shoulder", ("left shoulder",)),
    ("right elbow", ("right elbow",)),
    ("left elbow", ("left elbow",)),
    ("center hip", ("left hip", "right hip")),
    ("right hand", ("right wrist",)),
    ("right hip", ("right hip",)),
    ("left hip", ("left hip",)),
    ("left hand", ("left wrist",)),
    ("right knee", ("right knee",)),
    ("left knee", ("left knee",)),
    ("right foot", ("right ankle",)),
    ("left foot", ("left ankle",)),
)

_VERBATIM_ROW = 9  # "right hand" slot; literal table sources it from the left wrist


def builtin_schemas() -> tuple[KeypointSchema, KeypointSchema]:
    """The two built-in 17-keypoint schemas (source, target)."""
    return COCO17, JRDB17


def builtin_schema(schema_id: str) -> KeypointSchema:
    if not isinstance(schema_id, str):
        raise ValidationError(f"schema id must be a string, got {schema_id!r}")
    try:
        return _BUILTINS[schema_id]
    except KeyError:
        raise ValidationError(
            f"unknown schema id {schema_id!r}; built-ins are {sorted(_BUILTINS)}"
        ) from None


def default_mapping(verbatim_table1: bool = False) -> SchemaMapping:
    """The built-in COCO -> panoramic-schema counterpart mapping.

    ``verbatim_table1`` restores the literal upstream counterpart table,
    which sources both hand keypoints from the left wrist.
    """
    entries = []
    for t, (target_name, sources) in enumerate(_DEFAULT_COUNTERPARTS):
        if verbatim_table1 and t == _VERBATIM_ROW:
            sources = ("left wrist",)
        assert JRDB17.names[t] == target_name
        entries.append(tuple(COCO17.index(n) for n in sources))
    return SchemaMapping(COCO17.id, JRDB17.id, tuple(entries))


def identity_mapping(schema: KeypointSchema) -> SchemaMapping:
    return SchemaMapping(schema.id, schema.id, tuple((i,) for i in range(len(schema))))


def validate_mapping(
    mapping: SchemaMapping, src: KeypointSchema, dst: KeypointSchema
) -> list[str]:
    """Check a mapping against its schemas; an empty list means ok."""
    violations = []
    if mapping.source_schema != src.id:
        violations.append(
            f"source schema id {mapping.source_schema!r} does not match {src.id!r}"
        )
    if mapping.target_schema != dst.id:
        violations.append(
            f"target schema id {mapping.target_schema!r} does not match {dst.id!r}"
        )
    if len(mapping.entries) != len(dst.names):
        violations.append(
            f"mapping has {len(mapping.entries)} entries, target schema "
            f"{dst.id!r} has {len(dst.names)} keypoints"
        )
    for t, entry in enumerate(mapping.entries):
        label = dst.names[t] if t < len(dst.names) else str(t)
        if not entry:
            violations.append(f"empty counterpart list for target {label!r}")
        for s in entry:
            if s < 0 or s >= len(src.names):
                violations.append(
                    f"counterpart index {s} out of range for source schema "
                    f"{src.id!r} (K={len(src.names)}) at target {label!r}"
                )
    return violations


def check_entries(mapping: SchemaMapping, num_source: int) -> None:
    """Raise unless every target has counterparts, all in ``range(num_source)``."""
    for t, entry in enumerate(mapping.entries):
        if not entry:
            raise ValidationError(f"empty counterpart list for target index {t}")
        for s in entry:
            if s < 0 or s >= num_source:
                raise ValidationError(
                    f"counterpart index {s} out of range for {num_source} "
                    f"source keypoints (target index {t})"
                )


def remap_pose(pose: Pose, mapping: SchemaMapping) -> Pose:
    """Transfer a pose into the target schema.

    Each target keypoint is the arithmetic mean of its counterpart
    coordinates; its visibility is the minimum of the counterpart
    visibilities (a synthesized point is at most as reliable as its least
    reliable source).
    """
    check_entries(mapping, len(pose.keypoints))
    sources = [pose.keypoints[list(entry)] for entry in mapping.entries]
    return Pose([(*src[:, :2].mean(axis=0), src[:, 2].min()) for src in sources])


# -- mapping config files ------------------------------------------------------
#
# On disk a mapping is JSON with names, not indices:
#   {"source_schema": "coco17", "target_schema": "jrdb17",
#    "entries": {"head": ["left eye", "right eye"], ...}}


def save_mapping(
    mapping: SchemaMapping,
    path: str | Path,
    source: KeypointSchema | None = None,
    target: KeypointSchema | None = None,
) -> None:
    source = source or builtin_schema(mapping.source_schema)
    target = target or builtin_schema(mapping.target_schema)
    violations = validate_mapping(mapping, source, target)
    if violations:
        raise ValidationError("cannot save invalid mapping: " + "; ".join(violations))
    doc = {
        "source_schema": mapping.source_schema,
        "target_schema": mapping.target_schema,
        "entries": {
            target.names[t]: [source.names[s] for s in entry]
            for t, entry in enumerate(mapping.entries)
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_mapping(
    path: str | Path,
    source: KeypointSchema | None = None,
    target: KeypointSchema | None = None,
) -> SchemaMapping:
    """Read a mapping config file, resolving names to indices and validating."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("parse error: top level must be an object")
    for key in ("source_schema", "target_schema", "entries"):
        if key not in doc:
            raise ValidationError(f"mapping file missing field {key!r}")
    source = source or builtin_schema(doc["source_schema"])
    target = target or builtin_schema(doc["target_schema"])
    raw_entries = doc["entries"]
    if not isinstance(raw_entries, dict):
        raise ValidationError("entries must be an object of target name -> source names")
    missing = [n for n in target.names if n not in raw_entries]
    if missing:
        raise ValidationError(f"entries missing target keypoint(s) {missing}")
    unknown = sorted(set(raw_entries) - set(target.names))
    if unknown:
        raise ValidationError(f"entries name unknown target keypoint(s) {unknown}")
    entries = []
    for name in target.names:
        sources = raw_entries[name]
        if not isinstance(sources, list) or not sources:
            raise ValidationError(f"entry for {name!r} must be a non-empty list of names")
        try:
            entries.append(tuple(source.index(n) for n in sources))
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    mapping = SchemaMapping(doc["source_schema"], doc["target_schema"], tuple(entries))
    violations = validate_mapping(mapping, source, target)
    if violations:
        raise ValidationError("invalid mapping: " + "; ".join(violations))
    return mapping
