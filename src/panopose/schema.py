"""Schemas of keypoint names and cross-schema counterpart mappings.

A mapping lists, for every keypoint of a target schema, the source-schema
keypoints it is synthesized from. Averaging those entries transfers
final-layer network weights (weights module) and OKS falloff constants
(metrics module) from one vocabulary to the other. The built-in table pairs
the 17-keypoint COCO vocabulary with the 17-keypoint panoramic-dataset
vocabulary; split targets (head, neck, center hip) average their two nearest
source keypoints. Other mappings are read from hand-written config files
(:func:`load_mapping`), whose fields, and those of its ``entries``, the
one field rule ``errors._fields`` checks.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

from .errors import ValidationError, _fields, _json_object, _kind


@dataclass(frozen=True)
class KeypointSchema:
    """Ordered, named keypoint vocabulary. Indices are 0-based."""

    id: str
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = _kind("names", self.names, list, tuple)
        object.__setattr__(self, "names", tuple(_kind(f"name {k}", n, str) for k, n in enumerate(names)))
        if not _kind("id", self.id, str):
            raise ValidationError("schema id must be non-empty")
        if not self.names:
            raise ValidationError("schema must have at least one keypoint")
        if len(set(self.names)) != len(self.names):
            raise ValidationError(f"schema {self.id!r} has duplicate keypoint names")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"schema {self.id!r} has no keypoint named {name!r}") from None


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
        _kind("source_schema", self.source_schema, str)
        _kind("target_schema", self.target_schema, str)
        object.__setattr__(self, "entries", tuple(
            tuple(int(_kind("entries", i, Integral)) for i in _kind("entries", e, Iterable))
            for e in _kind("entries", self.entries, Iterable)))


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

# The jrdb17 keypoints in order, each with the coco17 keypoints it is
# averaged from: the counterpart table, in the ``entries`` form of a mapping
# file. The upstream table lists "left hand -> left wrist" twice (rows 10 and
# 13); row 10 is corrected to the right side by symmetry. verbatim mode keeps
# the literal left-wrist source.
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

JRDB17 = KeypointSchema("jrdb17", tuple(_DEFAULT_COUNTERPARTS))

_BUILTINS = {s.id: s for s in (COCO17, JRDB17)}


def builtin_schema(schema_id: str) -> KeypointSchema:
    try:
        return _BUILTINS[_kind("schema_id", schema_id, str)]
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
    if _kind("verbatim_table1", verbatim_table1, bool):
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
    doc = _json_object(Path(_kind("path", path, str, os.PathLike)))
    _fields(doc, ("source_schema", "target_schema", "entries"), (), "mapping file")
    source, target = (builtin_schema(_kind(name, doc[name], str))
                      for name in ("source_schema", "target_schema"))
    return _mapping_from_entries(source, target, doc["entries"])


def _mapping_from_entries(source: KeypointSchema, target: KeypointSchema, raw_entries: object
                          ) -> SchemaMapping:
    """The mapping of an ``entries`` object, target name -> source names,
    with every target of ``target`` and no other."""
    _fields(raw_entries, target.names, (), "entries")
    entries = []
    for name in target.names:
        sources = raw_entries[name]
        if not isinstance(sources, list) or not sources:
            raise ValidationError(f"entry for {name!r} must be a non-empty list of names")
        entries.append(tuple(source.index(n) for n in sources))
    return SchemaMapping(source.id, target.id, tuple(entries))
