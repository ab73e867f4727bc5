"""Schemas of keypoint names and cross-schema counterpart mappings.

A mapping lists, for every keypoint of a target schema, the source-schema
keypoints it is synthesized from. Averaging those entries transfers
final-layer network weights (weights module) and OKS falloff constants
(metrics module) from one vocabulary to the other. The built-in table pairs
the 17-keypoint COCO vocabulary with the 17-keypoint panoramic-dataset
vocabulary; split targets (head, neck, center hip) average their two nearest
source keypoints. Other mappings are read from hand-written config files
(:func:`load_mapping`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError, _json_object

__all__ = [
    "KeypointSchema",
    "SchemaMapping",
    "COCO17",
    "JRDB17",
    "builtin_schema",
    "default_mapping",
    "check_entries",
    "load_mapping",
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

    Construction is permissive; :func:`check_entries` is the check that a
    mapping's users run against their source keypoint count.
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

# Counterpart table in the ``entries`` form of a mapping file. The upstream
# table lists "left hand -> left wrist" twice (rows 10 and 13); row 10 is
# corrected to the right side by symmetry. verbatim mode keeps the literal
# left-wrist source.
_DEFAULT_COUNTERPARTS = {
    "head": ["left eye", "right eye"],
    "right eye": ["right eye"],
    "left eye": ["left eye"],
    "right shoulder": ["right shoulder"],
    "neck": ["left shoulder", "right shoulder"],
    "left shoulder": ["left shoulder"],
    "right elbow": ["right elbow"],
    "left elbow": ["left elbow"],
    "center hip": ["left hip", "right hip"],
    "right hand": ["right wrist"],
    "right hip": ["right hip"],
    "left hip": ["left hip"],
    "left hand": ["left wrist"],
    "right knee": ["right knee"],
    "left knee": ["left knee"],
    "right foot": ["right ankle"],
    "left foot": ["left ankle"],
}


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
    table = _DEFAULT_COUNTERPARTS
    if verbatim_table1:
        table = {**table, "right hand": ["left wrist"]}
    return _mapping_from_entries(COCO17, JRDB17, table)


def check_entries(mapping: SchemaMapping, num_source: int) -> None:
    """Raise unless there is a target, every target has counterparts, and
    all are in ``range(num_source)``."""
    if not mapping.entries:
        raise ValidationError("mapping has no target keypoints")
    for t, entry in enumerate(mapping.entries):
        if not entry:
            raise ValidationError(f"empty counterpart list for target index {t}")
        for s in entry:
            if s < 0 or s >= num_source:
                raise ValidationError(
                    f"counterpart index {s} out of range for {num_source} "
                    f"source keypoints (target index {t})"
                )


# -- mapping config files ------------------------------------------------------
#
# On disk a mapping is JSON with names, not indices:
#   {"source_schema": "coco17", "target_schema": "jrdb17",
#    "entries": {"head": ["left eye", "right eye"], ...}}


def load_mapping(path: str | Path) -> SchemaMapping:
    """Read a mapping config file: both schemas are the built-ins it names,
    every target keypoint lists a non-empty set of source names, and no
    object names a key twice."""
    doc = _json_object(Path(path))
    for key in ("source_schema", "target_schema", "entries"):
        if key not in doc:
            raise ValidationError(f"mapping file missing field {key!r}")
    source = builtin_schema(doc["source_schema"])
    target = builtin_schema(doc["target_schema"])
    return _mapping_from_entries(source, target, doc["entries"])


def _mapping_from_entries(source: KeypointSchema, target: KeypointSchema, raw_entries: object
                          ) -> SchemaMapping:
    """The mapping of an ``entries`` object, target name -> source names,
    with every target of ``target`` and no other."""
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
    return SchemaMapping(source.id, target.id, tuple(entries))
