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
and ``Dataset._with`` call it too. ``offsets`` must be ``[F + 1]`` and rise
from 0, and the N at which it ends is the row count: the array rule
``geometry._shaped`` checks each column's shape against it, ``ids`` too
(the keypoints only when a person has a pose, with K >= 1, the boxes only
when N > 0). Each value rule then runs once over a whole column: an id that
is a string or None and a box or pose per person (``errors._first``), and,
with the function that the library functions taking boxes, keypoints or
scores run on their input, finite box fields with a positive finite area
(``geometry._box_rule``), finite keypoints with v in {0, 1, 2}
(:func:`_keypoint_rule`, also run by ``metrics.oks``) and a score in [0, 1]
(``geometry._score_rule``). Frame ids are non-empty strings that
UTF-8 can encode (:func:`_frame_id_rule`) and unique.

A file is parsed by ``errors._json_object``, which refuses an object that
names a key twice, and the field rule ``errors._fields`` checks the
document, ``pano``, each frame and each person. Then the frames are checked
in file order up to the first that fails. One bulk check over all persons
before it says whether they pass (:func:`_person_columns`): one
comprehension gathers a field, set operations check its types, and one pass
converts its numbers. Only when they do not does a walk over the persons in
file order say where and what (:func:`_person_fault`): it reads one person's
fields in order, a box or pose value by value, and raises the first person's
first fault. Of several faults in a file, a parse error comes first (not
UTF-8, not JSON, a repeated key, an integer literal too long to read); then
the first JSON shape or type fault in file order (a missing or extra field,
a wrong type, a pose of the wrong length, an empty frame id or one that
UTF-8 cannot encode, an integer beyond float range; the header comes first,
then frames and persons in order, and a person's pose rows after its other
fields); otherwise the value fault of the earliest person, with the rules in
the order above and a pose's first bad keypoint; then a repeated frame id.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import RowError, ValidationError, _direct, _fields, _first, _json_object, _kind, _where
from .geometry import PanoramaSpec, _box_rule, _score_rule, _shaped
from .schema import KeypointSchema, builtin_schema

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


def _frame_id_rule(frame_id: Any) -> None:
    """A frame id is a non-empty string that UTF-8 can encode (no lone
    surrogate, which JSON's ``\\ud800`` escape can give): the frame table
    writes it raw."""
    if not isinstance(frame_id, str) or not frame_id:
        raise ValidationError(f"frame {frame_id!r}: frame id must be a non-empty string, got {frame_id!r}")
    try:
        frame_id.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"frame {frame_id!r}: frame id is not encodable as UTF-8") from None


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """A dataset's columns (see the module docstring), frames in sorted id order."""

    schema_id: str
    pano: PanoramaSpec

    def __init__(self, schema_id: str, pano: PanoramaSpec, frame_ids: Sequence[str], offsets: Any,
                 ids: Any, boxes: Any, has_box: Any, scores: Any, has_score: Any, keypoints: Any,
                 has_pose: Any) -> None:
        """Check the column shapes and every value rule once per column, with
        the rows in the given frame order (frame ``f`` holds rows
        ``offsets[f]:offsets[f + 1]``), then sort the frames by id."""
        if not _kind("schema_id", schema_id, str):
            raise ValidationError("schema_id must be non-empty")
        _kind("pano", pano, PanoramaSpec)
        frame_ids = _kind("frame_ids", frame_ids, list, tuple)
        offsets = _shaped("offsets", offsets, (len(frame_ids) + 1,), np.intp)
        if offsets[0] != 0 or (np.diff(offsets) < 0).any():
            raise ValidationError(f"offsets must rise from 0 over {len(frame_ids)} frames")
        for fid in frame_ids:
            _frame_id_rule(fid)
        n = int(offsets[-1])
        ids = _shaped("ids", ids, (n,), object)
        has_box, has_score, has_pose = (_shaped(f"has_{key}", mask, (n,), bool) for key, mask in
                                        (("box", has_box), ("score", has_score), ("pose", has_pose)))
        boxes = np.where(has_box[:, None], _shaped("boxes", boxes, (n, 4)), 0.0) if n else np.zeros((0, 4))
        scores = np.where(has_score, _shaped("scores", scores, (n,)), 0.0)
        if has_pose.any():
            keypoints = _shaped("keypoints", keypoints, (n, "K", 3))
            if not keypoints.shape[1]:
                raise ValidationError(f"keypoints must be [{n}, K, 3] with K >= 1, got shape {keypoints.shape}")
            keypoints = keypoints if has_pose.all() else np.where(has_pose[:, None, None], keypoints, 0.0)
        else:
            keypoints = np.zeros((n, 0, 3))
        faults = []
        for rule, *columns in (
            (_first, np.array([pid is None or isinstance(pid, str) for pid in ids.tolist()], dtype=bool),
             "id must be a string"),
            (_first, has_box | has_pose, "person has neither box nor pose"),
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


_PERSON_FIELDS = frozenset(("id", "box", "score", "pose"))
_NUMBER = {int, float}


def _number(value: Any, where: str) -> float:
    if type(value) not in _NUMBER:
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where}: integer too large for a float") from None


def _scatter(has: np.ndarray, values: Iterable, shape: tuple[int, ...]) -> np.ndarray:
    """``[N, *shape]`` column of the JSON numbers ``values`` of the rows in
    ``has``, converted in one ``np.fromiter`` pass; other rows hold zeros.
    An integer beyond float range raises ``OverflowError``."""
    count = int(has.sum())
    values = np.fromiter(values, dtype=np.float64, count=count * math.prod(shape))
    if count == len(has):
        return values.reshape(count, *shape)
    column = np.zeros((len(has), *shape))
    column[has] = values.reshape(count, *shape)
    return column


def _person_columns(persons: list, num_kps: int, require_scores: bool) -> dict | None:
    """The person columns of ``persons``, or None when any person fails a
    shape or type rule. Types are checked before numbers are converted:
    ``np.fromiter`` would take a boolean, a numeric string or a float
    visibility."""
    if not (set(map(type, persons)) <= {dict} and set(chain.from_iterable(persons)) <= _PERSON_FIELDS):
        return None
    boxes = [p["box"] for p in persons if "box" in p]
    scores = [p["score"] for p in persons if "score" in p]
    poses = [p["pose"] for p in persons if "pose" in p]
    if not (set(map(type, [p["id"] for p in persons if "id" in p])) <= {str}
            and set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}
            and set(map(type, chain.from_iterable(boxes))) <= _NUMBER
            and set(map(type, scores)) <= _NUMBER and not (require_scores and len(scores) < len(persons))
            and set(map(type, poses)) <= {list} and set(map(len, poses)) <= {num_kps}):
        return None
    rows = list(chain.from_iterable(poses))
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}
            and set(map(type, chain.from_iterable(rows))) <= _NUMBER
            and set(map(type, map(itemgetter(2), rows))) <= {int}):
        return None
    columns = {"ids": [p.get("id") for p in persons]}
    for key in ("box", "score", "pose"):
        columns["has_" + key] = np.array([key in p for p in persons], dtype=bool)
    try:
        columns["boxes"] = _scatter(columns["has_box"], chain.from_iterable(boxes), (4,))
        columns["scores"] = _scatter(columns["has_score"], scores, ())
        columns["keypoints"] = _scatter(columns["has_pose"], chain.from_iterable(rows), (num_kps, 3))
    except OverflowError:
        return None
    return columns


def _person_fault(person: Any, where: str, schema: KeypointSchema, require_scores: bool) -> None:
    """Raise the first shape or type fault of one person, in the order
    person, id, box, score, pose; a box or pose is gone through value by
    value, so that a type fault and an overflow come out in value order."""
    _fields(person, (), _PERSON_FIELDS, where)
    if "id" in person and type(person["id"]) is not str:
        raise ValidationError(f"{where}: id must be a string")
    if "box" in person:
        if type(person["box"]) is not list or len(person["box"]) != 4:
            raise ValidationError(f"{where}: box must be [x1, y1, x2, y2]")
        for v in person["box"]:
            _number(v, f"{where}: box")
    if "score" in person:
        _number(person["score"], f"{where}: score")
    elif require_scores:
        raise ValidationError(f"{where}: prediction without score")
    if "pose" not in person:
        return
    pose = person["pose"]
    if type(pose) is not list:
        raise ValidationError(f"{where}: pose must be a list of [x, y, v] rows")
    if len(pose) != len(schema.names):
        raise ValidationError(f"{where}: pose has {len(pose)} keypoints, "
                              f"schema {schema.id!r} expects {len(schema.names)}")
    for k, row in enumerate(pose):
        if type(row) is not list or len(row) != 3:
            raise ValidationError(f"{where}: pose keypoint {k} must be [x, y, v]")
        loc = f"{where}: keypoint {k}"
        _number(row[0], loc)
        _number(row[1], loc)
        if type(row[2]) is not int:
            raise ValidationError(f"{loc} visibility must be an integer, got {row[2]!r}")
        _number(row[2], loc)


def load_ground_truth(path: str | Path, schema: KeypointSchema) -> Dataset:
    return _load(Path(_kind("path", path, str, os.PathLike)), schema, require_scores=False)


def load_predictions(path: str | Path, schema: KeypointSchema) -> Dataset:
    return _load(Path(_kind("path", path, str, os.PathLike)), schema, require_scores=True)


def _load(source: dict | str | Path, schema: KeypointSchema | None, require_scores: bool) -> Dataset:
    """The dataset of a JSON document: its top-level object, its text or the
    file at a :class:`~pathlib.Path` (see :func:`_json_object`), in ``schema``
    or, when None, in the built-in schema it names, with the checks in the
    order that the module docstring gives. The cyclic garbage collector is
    left as it is: the ``panopose`` command runs with it off, and a library
    caller pays for its passes over the document's lists and objects (two
    9.5 MB files of 13,058 persons: 0.7 s with it running, 0.54 s with it
    off, on Python 3.11 and a 2-CPU Xeon). ``eval`` runs this for ``--gt``
    in a forked child, which pickles the dataset back to it
    (:meth:`Dataset.__setstate__` keeps its arrays read-only)."""
    _kind("schema", schema, KeypointSchema, type(None))
    doc = source if isinstance(source, dict) else _json_object(source)
    _fields(doc, ("schema", "pano", "frames"), (), "document")
    _kind("schema", doc["schema"], str)
    if schema is None:
        schema = builtin_schema(doc["schema"])

    if doc["schema"] != schema.id:
        raise ValidationError(
            f"schema mismatch: file declares {doc['schema']!r}, expected {schema.id!r}"
        )

    pano_raw = doc["pano"]
    _fields(pano_raw, ("width", "height"), (), "pano")
    pano = PanoramaSpec(_number(pano_raw["width"], "pano width"), _number(pano_raw["height"], "pano height"))

    frames_raw = doc["frames"]
    if not isinstance(frames_raw, list):
        raise ValidationError("frames must be a list")
    frame_ids, per_frame, frame_fault = [], [], None
    try:
        for frame in frames_raw:
            _fields(frame, ("frame_id", "persons"), (), "frame")
            _frame_id_rule(frame["frame_id"])
            if type(frame["persons"]) is not list:
                raise ValidationError(f"frame {frame['frame_id']!r}: persons must be a list")
            frame_ids.append(frame["frame_id"])
            per_frame.append(frame["persons"])
    except ValidationError as exc:
        frame_fault = exc
    offsets = [0, *accumulate(map(len, per_frame))]
    persons = list(chain.from_iterable(per_frame))
    columns = _person_columns(persons, len(schema.names), require_scores)
    if columns is None:
        for row, person in enumerate(persons):
            _person_fault(person, _where(frame_ids, offsets, row), schema, require_scores)
    if frame_fault is not None:
        raise frame_fault
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
    """Write the canonical form: identical datasets produce identical bytes. A regular file
    is emptied first; a FIFO, a device or a descriptor is written at its position (:func:`errors._direct`)."""
    text = dataset_to_canonical_json(_kind("ds", ds, Dataset)).encode("utf-8")
    fh, regular = _direct(_kind("path", path, str, os.PathLike))
    with fh:
        if regular:
            fh.truncate()
        fh.write(text)
