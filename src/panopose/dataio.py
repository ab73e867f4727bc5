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
with 17 significant digits (negative zero as 0), so value-identical datasets
serialize to identical bytes. The person-level score is the only confidence.

A :class:`Dataset` holds one read-only array per field: the sorted
``frame_ids`` with ``[F + 1]`` row ``offsets``, and per person ``ids``,
``boxes`` ``[N, 4]`` with ``has_box``, ``scores`` ``[N]`` with ``has_score``
and ``keypoints`` ``[N, K, 3]`` with ``has_pose``. A missing value's row
holds zeros, and K is 0 when no person has a pose.

``Dataset(...)`` takes these columns, with frames in any order; the parser
and ``Dataset._with`` call it too. It checks each value rule once over a
whole column with the function that :class:`Pose` and
:class:`~panopose.geometry.BoundingBox` run on their one row: box or pose
(:func:`_presence_rule`), finite box fields with a positive finite area
(``geometry._box_rule``), finite keypoints with v in {0, 1, 2}
(:func:`_keypoint_rule`) and a score in [0, 1] (``geometry._score_rule``).
Frame ids are non-empty strings (:func:`_frame_id_rule`) and unique.

Of several faults in a file, the first JSON shape or type fault the walk
meets is reported (a missing or extra field, a wrong type, a pose of the
wrong length, an empty frame id, an integer beyond float range; the header
comes first, then frames and persons in order); otherwise the value fault
of the earliest person, with the rules in the order above and a pose's
first bad keypoint; then a repeated frame id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .errors import RowError, ValidationError, _where
from .geometry import PanoramaSpec, _box_rule, _score_rule

if TYPE_CHECKING:
    from .schema import KeypointSchema

__all__ = [
    "NOT_LABELED",
    "LABELED_INVISIBLE",
    "LABELED_VISIBLE",
    "Pose",
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

_PERSON_COLUMNS = ("ids", "boxes", "has_box", "scores", "has_score", "keypoints", "has_pose")
_FIELDS = ("schema_id", "pano", "frame_ids", "offsets") + _PERSON_COLUMNS


def _keypoint_rule(keypoints: np.ndarray) -> None:
    """Raise :class:`RowError` for the first of ``[N, K, 3]`` poses with a
    keypoint whose x or y is not finite or whose v is not 0, 1 or 2, naming
    the pose's first such keypoint."""
    xy_finite = np.isfinite(keypoints[:, :, :2]).all(axis=2)
    v = keypoints[:, :, 2]
    valid = xy_finite & ((v == 0.0) | (v == 1.0) | (v == 2.0))
    if valid.all():
        return
    n = int(valid.all(axis=1).argmin())
    k = int(valid[n].argmin())
    x, y, v = keypoints[n, k].tolist()
    if not xy_finite[n, k]:
        raise RowError(n, f"keypoint {k}: non-finite keypoint coordinate ({x!r}, {y!r})")
    raise RowError(n, f"keypoint {k}: visibility must be 0, 1 or 2, got {v:g}")


def _presence_rule(has_box: np.ndarray, has_pose: np.ndarray) -> None:
    """Raise :class:`RowError` for the first person with neither box nor pose."""
    valid = has_box | has_pose
    if not valid.all():
        raise RowError(int(valid.argmin()), "person has neither box nor pose")


def _frame_id_rule(frame_id: Any) -> None:
    if not isinstance(frame_id, str) or not frame_id:
        raise ValidationError(f"frame {frame_id!r}: frame id must be a non-empty string, got {frame_id!r}")


@dataclass(frozen=True, eq=False)
class Pose:
    """One person's keypoints: a read-only ``float64`` ``[K, 3]`` copy of
    ``(x, y, v)`` rows with K >= 1, finite x and y, and v in {0, 1, 2}."""

    keypoints: np.ndarray

    def __post_init__(self) -> None:
        kps = np.array(self.keypoints, dtype=np.float64)
        kps.flags.writeable = False
        if kps.ndim != 2 or kps.shape[1] != 3 or not len(kps):
            raise ValueError(f"pose must be K >= 1 rows of (x, y, v), got shape {kps.shape}")
        _keypoint_rule(kps[None])
        object.__setattr__(self, "keypoints", kps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pose):
            return NotImplemented
        return np.array_equal(self.keypoints, other.keypoints)


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """A dataset's columns (see the module docstring), frames in sorted id order."""

    schema_id: str
    pano: PanoramaSpec

    def __init__(self, schema_id: str, pano: PanoramaSpec, frame_ids: Sequence[str], offsets: Any,
                 ids: Any, boxes: Any, has_box: Any, scores: Any, has_score: Any, keypoints: Any,
                 has_pose: Any) -> None:
        """Check the column lengths and every value rule once per column, with
        the rows in the given frame order (frame ``f`` holds rows
        ``offsets[f]:offsets[f + 1]``), then sort the frames by id."""
        n = len(ids)
        lengths = [len(c) for c in (ids, boxes, has_box, scores, has_score, keypoints, has_pose)]
        if lengths != [n] * len(lengths):
            raise ValidationError(f"person columns of unequal lengths {lengths}")
        offsets = np.asarray(offsets, dtype=np.intp)
        if (len(offsets) != len(frame_ids) + 1 or offsets[0] != 0 or offsets[-1] != n
                or (np.diff(offsets) < 0).any()):
            raise ValidationError(f"offsets must rise from 0 to {n} over {len(frame_ids)} frames")
        for fid in frame_ids:
            _frame_id_rule(fid)
        ids = np.array(ids, dtype=object)
        has_box, has_score, has_pose = (np.asarray(m, dtype=bool) for m in (has_box, has_score, has_pose))
        boxes = np.where(has_box[:, None], np.asarray(boxes, dtype=np.float64).reshape(n, 4), 0.0)
        scores = np.where(has_score, np.asarray(scores, dtype=np.float64), 0.0)
        if has_pose.all() and n:
            keypoints = np.asarray(keypoints, dtype=np.float64)
        elif has_pose.any():
            keypoints = np.where(has_pose[:, None, None], keypoints, 0.0)
        else:
            keypoints = np.zeros((n, 0, 3))
        if keypoints.ndim != 3 or keypoints.shape[2] != 3:
            raise ValidationError(f"keypoints must be [N, K, 3], got shape {keypoints.shape}")
        faults = []
        for rule, *columns in (
            (_presence_rule, has_box, has_pose),
            (_box_rule, np.where(has_box[:, None], boxes, (0.0, 0.0, 1.0, 1.0))),
            (_keypoint_rule, keypoints),
            (_score_rule, scores, "person"),
        ):
            try:
                rule(*columns)
            except RowError as exc:
                faults.append(exc)
        if faults:
            first = min(faults, key=attrgetter("row"))  # the earlier rule on a tie
            raise ValidationError(f"{_where(frame_ids, offsets, first.row)}: {first}") from first

        columns = [ids, boxes, has_box, scores, has_score, keypoints, has_pose]
        order = sorted(range(len(frame_ids)), key=frame_ids.__getitem__)
        frame_ids = tuple(frame_ids[f] for f in order)
        for a, b in zip(frame_ids, frame_ids[1:]):
            if a == b:
                raise ValidationError(f"duplicate frame id {a!r}")
        if order != list(range(len(order))):
            rows = np.concatenate([np.arange(offsets[f], offsets[f + 1]) for f in order])
            offsets = np.concatenate(([0], np.cumsum(np.diff(offsets)[order])))
            columns = [c[rows] for c in columns]
        for name, value in zip(_FIELDS, [schema_id, pano, frame_ids, offsets, *columns]):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _with(self, rows: Any = None, **changes: Any) -> "Dataset":
        """This dataset with ``changes`` to its fields, keeping only the sorted
        person ``rows``; checked by the constructor."""
        fields = {name: getattr(self, name) for name in _FIELDS} | changes
        if rows is not None:
            fields |= {name: np.asarray(fields[name])[rows] for name in _PERSON_COLUMNS}
            fields["offsets"] = np.searchsorted(rows, self.offsets)
        return Dataset(**fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        # np.array_equal also compares the fields that are not arrays.
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _FIELDS)


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
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where}: integer too large for a float") from None


def _walk_person(raw: Any, where: str, schema: "KeypointSchema", require_score: bool, columns: dict) -> None:
    """Check one person's JSON shape, then append its values to ``columns``
    (zeros for a missing box or score, None for a missing pose); its pose rows
    are converted later."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: person must be an object")
    _require_keys(raw, (), ("id", "box", "score", "pose"), where)
    person_id = raw.get("id")
    if "id" in raw and not isinstance(person_id, str):
        raise ValidationError(f"{where}: id must be a string")
    num_kps = len(schema.names)
    box, score, pose = (0.0, 0.0, 0.0, 0.0), 0.0, None
    if "box" in raw:
        vals = raw["box"]
        if not isinstance(vals, list) or len(vals) != 4:
            raise ValidationError(f"{where}: box must be [x1, y1, x2, y2]")
        box = [_number(v, f"{where}: box") for v in vals]
    if "score" in raw:
        score = _number(raw["score"], f"{where}: score")
    elif require_score:
        raise ValidationError(f"prediction without score ({where})")
    if "pose" in raw:
        pose = raw["pose"]
        if not isinstance(pose, list):
            raise ValidationError(f"{where}: pose must be a list of [x, y, v] rows")
        if len(pose) != num_kps:
            raise ValidationError(
                f"{where}: pose has {len(pose)} keypoints, schema {schema.id!r} expects {num_kps}"
            )
    values = (person_id, box, "box" in raw, score, "score" in raw, pose, "pose" in raw)
    for name, value in zip(_PERSON_COLUMNS, values):
        columns[name].append(value)


def _keypoint_array(poses: list[list], num_kps: int, where: Callable[[int], str]) -> np.ndarray:
    """``[N, K, 3]`` ``float64`` array of the N poses' JSON rows, converted
    by one ``np.array`` call. That call would also take a boolean, a numeric
    string, null or a float visibility, so the types of all values are
    checked first; a file that fails that check, or holds an integer beyond
    float range, is walked value by value to locate the fault, with
    ``where(n)`` naming pose n. A missing (None) pose converts to zeros."""
    blank = [[0, 0, 0]] * num_kps
    poses = [blank if pose is None else pose for pose in poses]
    rows = list(chain.from_iterable(poses))
    if (
        set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {3}
        and set(map(type, chain.from_iterable(rows))) <= {int, float}
        and set(map(type, map(itemgetter(2), rows))) <= {int}
    ):
        try:
            return np.array(poses, dtype=np.float64).reshape(len(poses), num_kps, 3)
        except OverflowError:
            pass
    for n, pose in enumerate(poses):
        for k, row in enumerate(pose):
            if type(row) is not list or len(row) != 3:
                raise ValidationError(f"{where(n)}: pose keypoint {k} must be [x, y, v]")
            loc = f"{where(n)}: keypoint {k}"
            _number(row[0], loc)
            _number(row[1], loc)
            if type(row[2]) is not int:
                raise ValidationError(f"{loc} visibility must be an integer, got {row[2]!r}")
            _number(row[2], loc)
    raise ValidationError("pose keypoints must be [x, y, v] rows of JSON numbers")


def _json_object(source: str | Path) -> dict:
    """The top-level object of a JSON document: ``source`` itself, or the
    UTF-8 text of the file at a :class:`~pathlib.Path`. Text that is not
    UTF-8 or not JSON, nesting too deep to parse, and a top level that is not
    an object raise :class:`ValidationError` ("parse error: ...")."""
    try:
        doc = json.loads(source if isinstance(source, str) else source.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("parse error: top level must be an object")
    return doc


def dataset_from_json(text: str, schema: "KeypointSchema", *, require_scores: bool = False) -> Dataset:
    return _dataset_from_doc(_json_object(text), schema, require_scores)


def _dataset_from_doc(doc: dict, schema: "KeypointSchema", require_scores: bool) -> Dataset:
    """Build a dataset from the top-level object of a JSON document."""
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
    num_kps = len(schema.names)
    frame_ids: list[str] = []
    offsets: list[int] = []  # each frame's first row, until the walk ends
    columns: dict[str, list] = {name: [] for name in _PERSON_COLUMNS}

    def where(row: int) -> str:
        return _where(frame_ids, offsets, row)

    try:
        for raw in frames_raw:
            if not isinstance(raw, dict):
                raise ValidationError("frame must be an object")
            _require_keys(raw, ("frame_id", "persons"), (), "frame")
            fid = raw["frame_id"]
            _frame_id_rule(fid)
            persons_raw = raw["persons"]
            if not isinstance(persons_raw, list):
                raise ValidationError(f"frame {fid!r}: persons must be a list")
            frame_ids.append(fid)
            offsets.append(len(columns["ids"]))
            for i, p in enumerate(persons_raw):
                _walk_person(p, f"frame {fid!r}, person {i}", schema, require_scores, columns)
    except ValidationError:
        # A keypoint type fault of a person walked before it comes first.
        _keypoint_array(columns["keypoints"], num_kps, where)
        raise
    if any(columns["has_pose"]):
        columns["keypoints"] = _keypoint_array(columns["keypoints"], num_kps, where)
    offsets.append(len(columns["ids"]))
    return Dataset(schema.id, pano, frame_ids, offsets, **columns)


def load_ground_truth(path: str | Path, schema: "KeypointSchema") -> Dataset:
    return _dataset_from_doc(_json_object(Path(path)), schema, require_scores=False)


def load_predictions(path: str | Path, schema: "KeypointSchema") -> Dataset:
    return _dataset_from_doc(_json_object(Path(path)), schema, require_scores=True)


# -- canonical serialization --------------------------------------------------


def _num(value: float) -> str:
    # + 0.0 makes -0.0 print as 0: "-0" would read back as the integer 0.
    return "%.17g" % (float(value) + 0.0)


def _person_json(person_id: str | None, box: list | None, score: float | None, pose: list | None) -> str:
    parts = []
    if person_id is not None:
        parts.append(f'"id":{json.dumps(person_id)}')
    if box is not None:
        parts.append('"box":[%s]' % ",".join(map(_num, box)))
    if score is not None:
        parts.append(f'"score":{_num(score)}')
    if pose is not None:
        rows = ",".join("[%s,%s,%d]" % (_num(x), _num(y), v) for x, y, v in pose)
        parts.append(f'"pose":[{rows}]')
    return "{" + ",".join(parts) + "}"


def _persons_json(ds: Dataset, start: int, stop: int) -> str:
    """Rows ``start:stop`` as JSON; the writer goes one frame at a time, so a
    dataset is never all Python objects at once."""
    rows = zip(*(getattr(ds, name)[start:stop].tolist() for name in _PERSON_COLUMNS))
    return ",".join(
        _person_json(pid, box if has_box else None, score if has_score else None,
                     pose if has_pose else None)
        for pid, box, has_box, score, has_score, pose, has_pose in rows
    )


def dataset_to_canonical_json(ds: Dataset) -> str:
    bounds = ds.offsets.tolist()
    frames = ",".join(
        '{"frame_id":%s,"persons":[%s]}' % (json.dumps(fid), _persons_json(ds, a, b))
        for fid, a, b in zip(ds.frame_ids, bounds, bounds[1:])
    )
    return (
        '{"schema":%s,"pano":{"width":%s,"height":%s},"frames":[%s]}\n'
        % (json.dumps(ds.schema_id), _num(ds.pano.width), _num(ds.pano.height), frames)
    )


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write the canonical form: identical datasets produce identical bytes."""
    Path(path).write_text(dataset_to_canonical_json(ds), encoding="utf-8")
