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
whole column, with the function that the library functions taking boxes,
keypoints or scores run on their input: box or pose
(:func:`_presence_rule`), finite box fields with a positive finite area
(``geometry._box_rule``), finite keypoints with v in {0, 1, 2}
(:func:`_keypoint_rule`, also run by ``metrics.oks``) and a score in [0, 1]
(``geometry._score_rule``). Frame ids are non-empty strings
(:func:`_frame_id_rule`) and unique.

The parser checks a file's JSON shapes and types in bulk (:func:`_columns`):
each person field is gathered over all persons by one comprehension, its
types are checked in one pass, and its numbers are converted in one pass.
Only a file that fails that check is walked value by value
(:func:`_walk`), and the walk finds and words the fault. Of several faults
in a file, the first JSON shape or type fault in file order is reported (a
missing or extra field, a wrong type, a pose of the wrong length, an empty
frame id, an integer beyond float range; the header comes first, then
frames and persons in order, and a person's pose rows after its other
fields); otherwise the value fault of the earliest person, with the rules
in the order above and a pose's first bad keypoint; then a repeated frame
id.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from .errors import RowError, ValidationError, _where
from .geometry import PanoramaSpec, _box_rule, _score_rule

if TYPE_CHECKING:
    from .schema import KeypointSchema

__all__ = [
    "NOT_LABELED",
    "LABELED_INVISIBLE",
    "LABELED_VISIBLE",
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
        self.__setstate__(dict(zip(_FIELDS, [schema_id, pano, frame_ids, offsets, *columns])))

    def __setstate__(self, fields: dict) -> None:
        """Set the checked ``fields``, each array read-only; pickle calls this
        too, as its arrays come back writeable."""
        for name, value in fields.items():
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


def _walk_person(raw: Any, where: str, schema: "KeypointSchema", require_score: bool) -> None:
    """Check one person's JSON shape and types, its pose rows last."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: person must be an object")
    _require_keys(raw, (), ("id", "box", "score", "pose"), where)
    if "id" in raw and not isinstance(raw["id"], str):
        raise ValidationError(f"{where}: id must be a string")
    if "box" in raw:
        vals = raw["box"]
        if not isinstance(vals, list) or len(vals) != 4:
            raise ValidationError(f"{where}: box must be [x1, y1, x2, y2]")
        for v in vals:
            _number(v, f"{where}: box")
    if "score" in raw:
        _number(raw["score"], f"{where}: score")
    elif require_score:
        raise ValidationError(f"prediction without score ({where})")
    if "pose" not in raw:
        return
    pose = raw["pose"]
    if not isinstance(pose, list):
        raise ValidationError(f"{where}: pose must be a list of [x, y, v] rows")
    num_kps = len(schema.names)
    if len(pose) != num_kps:
        raise ValidationError(
            f"{where}: pose has {len(pose)} keypoints, schema {schema.id!r} expects {num_kps}"
        )
    for k, row in enumerate(pose):
        if type(row) is not list or len(row) != 3:
            raise ValidationError(f"{where}: pose keypoint {k} must be [x, y, v]")
        loc = f"{where}: keypoint {k}"
        _number(row[0], loc)
        _number(row[1], loc)
        if type(row[2]) is not int:
            raise ValidationError(f"{loc} visibility must be an integer, got {row[2]!r}")
        _number(row[2], loc)


def _walk(frames_raw: list, schema: "KeypointSchema", require_scores: bool) -> None:
    """Check every frame and person value by value, in file order, and raise
    the first JSON shape or type fault."""
    for raw in frames_raw:
        if not isinstance(raw, dict):
            raise ValidationError("frame must be an object")
        _require_keys(raw, ("frame_id", "persons"), (), "frame")
        fid = raw["frame_id"]
        _frame_id_rule(fid)
        persons_raw = raw["persons"]
        if not isinstance(persons_raw, list):
            raise ValidationError(f"frame {fid!r}: persons must be a list")
        for i, p in enumerate(persons_raw):
            _walk_person(p, f"frame {fid!r}, person {i}", schema, require_scores)


_NUMBER = {int, float}


def _gather(persons: list[dict], key: str) -> tuple[np.ndarray, list]:
    """Which persons hold ``key``, and their values in order."""
    return np.array([key in p for p in persons], dtype=bool), [p[key] for p in persons if key in p]


def _scatter(has: np.ndarray, values: Iterable, shape: tuple[int, ...]) -> np.ndarray:
    """``[N, *shape]`` column of the JSON numbers ``values`` of the rows in
    ``has``, converted in one ``np.fromiter`` pass; other rows hold zeros."""
    count = int(has.sum())
    values = np.fromiter(values, dtype=np.float64, count=count * math.prod(shape))
    if count == len(has):
        return values.reshape(count, *shape)
    column = np.zeros((len(has), *shape))
    column[has] = values.reshape(count, *shape)
    return column


def _columns(frames_raw: list, num_kps: int, require_scores: bool) -> tuple | None:
    """Frame ids, row offsets and person columns of a document's frames, or
    None when any JSON shape or type check fails. Each field is gathered over
    all persons by one comprehension, its types are checked by one
    ``set(map(type, ...))`` pass (``np.fromiter`` would take a boolean, a
    numeric string or a float visibility), and its numbers are converted in
    one pass, which raises ``OverflowError`` for an integer beyond float
    range."""
    if not set(map(type, frames_raw)) <= {dict} or any(f.keys() != {"frame_id", "persons"}
                                                       for f in frames_raw):
        return None
    frame_ids = [f["frame_id"] for f in frames_raw]
    per_frame = [f["persons"] for f in frames_raw]
    if not (set(map(type, frame_ids)) <= {str} and all(frame_ids)
            and set(map(type, per_frame)) <= {list}):
        return None
    persons = list(chain.from_iterable(per_frame))
    if not (set(map(type, persons)) <= {dict}
            and set(chain.from_iterable(persons)) <= {"id", "box", "score", "pose"}):
        return None
    ids = _gather(persons, "id")[1]
    has_box, boxes = _gather(persons, "box")
    has_score, scores = _gather(persons, "score")
    has_pose, poses = _gather(persons, "pose")
    if not (
        set(map(type, ids)) <= {str}
        and set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}
        and set(map(type, chain.from_iterable(boxes))) <= _NUMBER
        and set(map(type, scores)) <= _NUMBER
        and (len(scores) == len(persons) or not require_scores)
        and set(map(type, poses)) <= {list} and set(map(len, poses)) <= {num_kps}
    ):
        return None
    rows = list(chain.from_iterable(poses))
    if not (
        set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}
        and set(map(type, chain.from_iterable(rows))) <= _NUMBER
        and set(map(type, map(itemgetter(2), rows))) <= {int}
    ):
        return None
    columns = {
        "ids": [p.get("id") for p in persons],
        "boxes": _scatter(has_box, chain.from_iterable(boxes), (4,)),
        "has_box": has_box,
        "scores": _scatter(has_score, scores, ()),
        "has_score": has_score,
        "keypoints": _scatter(has_pose, chain.from_iterable(rows), (num_kps, 3)),
        "has_pose": has_pose,
    }
    offsets = [0, *accumulate(map(len, per_frame))]
    return frame_ids, offsets, columns


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
    return _load(text, schema, require_scores)


def load_ground_truth(path: str | Path, schema: "KeypointSchema") -> Dataset:
    return _load(Path(path), schema, require_scores=False)


def load_predictions(path: str | Path, schema: "KeypointSchema") -> Dataset:
    return _load(Path(path), schema, require_scores=True)


def _load(source: str | Path, schema: "KeypointSchema | None", require_scores: bool) -> Dataset:
    """The dataset of a JSON document (see :func:`_json_object`), parsed and
    built with the cyclic garbage collector paused. A document holds a
    container per JSON list and object and no reference cycle, and the
    collector's passes over it grow with it: two 9 MB files took 1.1 s to
    parse with the collector running and 0.6 s with it paused. The document
    is freed on return, before the collector resumes. ``eval`` runs this for
    ``--gt`` in a forked child, which pickles the dataset back to it
    (:meth:`Dataset.__setstate__` keeps its arrays read-only)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _dataset_from_doc(_json_object(source), schema, require_scores)
    finally:
        if enabled:
            gc.enable()


def _dataset_from_doc(doc: dict, schema: "KeypointSchema | None", require_scores: bool) -> Dataset:
    """Build a dataset from the top-level object of a JSON document, in
    ``schema`` or, when None, in the built-in schema that the document names."""
    if schema is None:
        from .schema import builtin_schema  # schema imports this module

        schema_id = doc.get("schema")
        if not isinstance(schema_id, str):
            raise ValidationError("missing or malformed 'schema' field")
        schema = builtin_schema(schema_id)
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
    try:
        built = _columns(frames_raw, len(schema.names), require_scores)
    except OverflowError:
        built = None
    if built is None:
        _walk(frames_raw, schema, require_scores)
        # The walk and the bulk checks reject the same documents.
        raise ValidationError("frames must hold persons of JSON numbers, strings and lists")
    frame_ids, offsets, columns = built
    return Dataset(schema.id, pano, frame_ids, offsets, **columns)


# -- canonical serialization --------------------------------------------------


_BOX = '"box":[%.17g,%.17g,%.17g,%.17g]'
_SCORE = '"score":%.17g'


def _persons_json(ds: Dataset, start: int, stop: int) -> str:
    """Rows ``start:stop`` as JSON, each field filled into one template; the
    writer goes one frame at a time, so a dataset is never all Python
    objects at once."""
    k = ds.keypoints.shape[1]
    pose = '"pose":[%s]' % ",".join(["[%.17g,%.17g,%d]"] * k)
    # + 0.0 makes -0.0 print as 0: "-0" would read back as the integer 0.
    boxes = (ds.boxes[start:stop] + 0.0).tolist()
    scores = (ds.scores[start:stop] + 0.0).tolist()
    poses = (ds.keypoints[start:stop] + 0.0).reshape(stop - start, 3 * k).tolist()
    persons = []
    for pid, box, has_box, score, has_score, kps, has_pose in zip(
        ds.ids[start:stop].tolist(), boxes, ds.has_box[start:stop].tolist(), scores,
        ds.has_score[start:stop].tolist(), poses, ds.has_pose[start:stop].tolist(),
    ):
        parts = [] if pid is None else ['"id":' + json.dumps(pid)]
        if has_box:
            parts.append(_BOX % tuple(box))
        if has_score:
            parts.append(_SCORE % score)
        if has_pose:
            parts.append(pose % tuple(kps))
        persons.append("{" + ",".join(parts) + "}")
    return ",".join(persons)


def dataset_to_canonical_json(ds: Dataset) -> str:
    bounds = ds.offsets.tolist()
    frames = ",".join(
        '{"frame_id":%s,"persons":[%s]}' % (json.dumps(fid), _persons_json(ds, a, b))
        for fid, a, b in zip(ds.frame_ids, bounds, bounds[1:])
    )
    return (
        '{"schema":%s,"pano":{"width":%.17g,"height":%.17g},"frames":[%s]}\n'
        % (json.dumps(ds.schema_id), float(ds.pano.width), float(ds.pano.height), frames)
    )


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write the canonical form: identical datasets produce identical bytes."""
    Path(path).write_text(dataset_to_canonical_json(ds), encoding="utf-8")
