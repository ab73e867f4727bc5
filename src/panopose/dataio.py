"""Frame/person data model and the canonical JSON dataset format.

On-disk layout::

    {"schema": "<schema id>",
     "pano": {"width": W, "height": H},
     "frames": [{"frame_id": "...",
                 "persons": [{"id": "...",                # optional
                              "box": [x1, y1, x2, y2],    # optional
                              "score": 0.9,               # required in prediction files
                              "pose": [[x, y, v], ...]}]}]}

Every person carries at least a box or a pose. Visibility flags are 0 (not
labeled), 1 (labeled but invisible), 2 (labeled and visible). The canonical
form sorts frames by id, keeps a fixed field order, and prints every number
with 17 significant digits, so value-identical datasets serialize to
identical bytes. The person-level score is the only confidence.

Each value rule (finiteness, visibility range, score range, box-or-pose,
non-empty and unique frame ids) lives in the constructor of the type it
constrains; the parser checks only the JSON shape and reports a
constructor's ``ValueError`` as a ``ValidationError`` at its location.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import ValidationError
from .geometry import BoundingBox, PanoramaSpec

if TYPE_CHECKING:
    from .schema import KeypointSchema

__all__ = [
    "NOT_LABELED",
    "LABELED_INVISIBLE",
    "LABELED_VISIBLE",
    "Keypoint",
    "Pose",
    "Person",
    "FrameAnnotations",
    "Dataset",
    "load_ground_truth",
    "load_predictions",
    "save_dataset",
    "dataset_from_json",
    "dataset_to_canonical_json",
]

NOT_LABELED = 0
LABELED_INVISIBLE = 1
LABELED_VISIBLE = 2

_VISIBILITIES = (NOT_LABELED, LABELED_INVISIBLE, LABELED_VISIBLE)


@dataclass(frozen=True)
class Keypoint:
    x: float
    y: float
    visibility: int = LABELED_VISIBLE

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite keypoint coordinate ({self.x!r}, {self.y!r})")
        if self.visibility not in _VISIBILITIES:
            raise ValueError(f"visibility must be 0, 1 or 2, got {self.visibility!r}")


@dataclass(frozen=True)
class Pose:
    keypoints: tuple[Keypoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keypoints", tuple(self.keypoints))
        if not self.keypoints:
            raise ValueError("pose must have at least one keypoint")


@dataclass(frozen=True)
class Person:
    id: str | None = None
    box: BoundingBox | None = None
    pose: Pose | None = None
    score: float | None = None

    def __post_init__(self) -> None:
        if self.box is None and self.pose is None:
            raise ValueError("person has neither box nor pose")
        if self.score is not None:
            object.__setattr__(self, "score", float(self.score))
            if not 0.0 <= self.score <= 1.0:
                raise ValueError(f"person score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class FrameAnnotations:
    frame_id: str
    persons: tuple[Person, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.frame_id, str) or not self.frame_id:
            raise ValueError(f"frame id must be a non-empty string, got {self.frame_id!r}")
        object.__setattr__(self, "persons", tuple(self.persons))


@dataclass(frozen=True)
class Dataset:
    """Frames are normalized to canonical (frame-id sorted) order."""

    schema_id: str
    pano: PanoramaSpec
    frames: tuple[FrameAnnotations, ...] = ()

    def __post_init__(self) -> None:
        frames = tuple(sorted(self.frames, key=lambda f: f.frame_id))
        seen: set[str] = set()
        for f in frames:
            if f.frame_id in seen:
                raise ValidationError(f"duplicate frame id {f.frame_id!r}")
            seen.add(f.frame_id)
        object.__setattr__(self, "frames", frames)


# -- loading -----------------------------------------------------------------


def _require_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], where: str) -> None:
    keys = set(obj)
    missing = [k for k in required if k not in keys]
    if missing:
        raise ValidationError(f"{where}: missing field(s) {missing}")
    extra = sorted(keys - set(required) - set(optional))
    if extra:
        raise ValidationError(f"{where}: unexpected field(s) {extra}")


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_person(raw: Any, schema: "KeypointSchema", require_score: bool, where: str) -> Person:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: person must be an object")
    _require_keys(raw, (), ("id", "box", "score", "pose"), where)

    person_id = raw.get("id")
    if person_id is not None and not isinstance(person_id, str):
        raise ValidationError(f"{where}: id must be a string")

    box = None
    if "box" in raw:
        vals = raw["box"]
        if not isinstance(vals, list) or len(vals) != 4:
            raise ValidationError(f"{where}: box must be [x1, y1, x2, y2]")
        x1, y1, x2, y2 = (_number(v, f"{where}: box") for v in vals)
        try:
            box = BoundingBox(x1, y1, x2, y2)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    score = None
    if "score" in raw:
        score = _number(raw["score"], f"{where}: score")
    elif require_score:
        raise ValidationError(f"prediction without score ({where})")

    pose = None
    if "pose" in raw:
        rows = raw["pose"]
        if not isinstance(rows, list):
            raise ValidationError(f"{where}: pose must be a list of [x, y, v] rows")
        if len(rows) != len(schema.names):
            raise ValidationError(
                f"{where}: pose has {len(rows)} keypoints, schema {schema.id!r} "
                f"expects {len(schema.names)}"
            )
        kps = []
        for k, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 3:
                raise ValidationError(f"{where}: pose keypoint {k} must be [x, y, v]")
            x = _number(row[0], f"{where}: keypoint {k}")
            y = _number(row[1], f"{where}: keypoint {k}")
            v = row[2]
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(
                    f"{where}: keypoint {k} visibility must be an integer, got {v!r}"
                )
            try:
                kps.append(Keypoint(x, y, v))
            except ValueError as exc:
                raise ValidationError(f"{where}: keypoint {k}: {exc}") from exc
        pose = Pose(tuple(kps))

    try:
        return Person(id=person_id, box=box, pose=pose, score=score)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def dataset_from_json(text: str, schema: "KeypointSchema", *, require_scores: bool = False) -> Dataset:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"parse error: {exc}") from exc
    return _dataset_from_doc(doc, schema, require_scores)


def _dataset_from_doc(doc: Any, schema: "KeypointSchema", require_scores: bool) -> Dataset:
    """Build a dataset from an already parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError("parse error: top level must be an object")
    _require_keys(doc, ("schema", "pano", "frames"), (), "document")

    if doc["schema"] != schema.id:
        raise ValidationError(
            f"schema mismatch: file declares {doc['schema']!r}, expected {schema.id!r}"
        )

    pano_raw = doc["pano"]
    if not isinstance(pano_raw, dict):
        raise ValidationError("pano must be an object")
    _require_keys(pano_raw, ("width", "height"), (), "pano")
    try:
        pano = PanoramaSpec(
            _number(pano_raw["width"], "pano width"),
            _number(pano_raw["height"], "pano height"),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    frames_raw = doc["frames"]
    if not isinstance(frames_raw, list):
        raise ValidationError("frames must be a list")
    frames = []
    for raw in frames_raw:
        if not isinstance(raw, dict):
            raise ValidationError("frame must be an object")
        _require_keys(raw, ("frame_id", "persons"), (), "frame")
        fid = raw["frame_id"]
        persons_raw = raw["persons"]
        if not isinstance(persons_raw, list):
            raise ValidationError(f"frame {fid!r}: persons must be a list")
        persons = tuple(
            _parse_person(p, schema, require_scores, f"frame {fid!r}, person {i}")
            for i, p in enumerate(persons_raw)
        )
        try:
            frames.append(FrameAnnotations(fid, persons))
        except ValueError as exc:
            raise ValidationError(f"frame {fid!r}: {exc}") from exc
    return Dataset(schema.id, pano, tuple(frames))


def load_ground_truth(path: str | Path, schema: "KeypointSchema") -> Dataset:
    return dataset_from_json(Path(path).read_text(encoding="utf-8"), schema)


def load_predictions(path: str | Path, schema: "KeypointSchema") -> Dataset:
    return dataset_from_json(
        Path(path).read_text(encoding="utf-8"), schema, require_scores=True
    )


# -- canonical serialization --------------------------------------------------


def _num(value: float) -> str:
    return "%.17g" % float(value)


def _person_json(person: Person) -> str:
    parts = []
    if person.id is not None:
        parts.append(f'"id":{json.dumps(person.id)}')
    if person.box is not None:
        b = person.box
        parts.append(f'"box":[{_num(b.x1)},{_num(b.y1)},{_num(b.x2)},{_num(b.y2)}]')
    if person.score is not None:
        parts.append(f'"score":{_num(person.score)}')
    if person.pose is not None:
        rows = ",".join(
            f"[{_num(kp.x)},{_num(kp.y)},{kp.visibility:d}]"
            for kp in person.pose.keypoints
        )
        parts.append(f'"pose":[{rows}]')
    return "{" + ",".join(parts) + "}"


def dataset_to_canonical_json(ds: Dataset) -> str:
    frames = ",".join(
        '{"frame_id":%s,"persons":[%s]}'
        % (json.dumps(f.frame_id), ",".join(_person_json(p) for p in f.persons))
        for f in ds.frames
    )
    return (
        '{"schema":%s,"pano":{"width":%s,"height":%s},"frames":[%s]}\n'
        % (json.dumps(ds.schema_id), _num(ds.pano.width), _num(ds.pano.height), frames)
    )


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write the canonical form: identical datasets produce identical bytes."""
    Path(path).write_text(dataset_to_canonical_json(ds), encoding="utf-8")
