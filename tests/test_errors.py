"""Each kind of input fault is refused with a ``ValidationError`` that names
the input: a numeric parameter outside its interval, also when it is NaN, an
integer beyond float range (which ``math.isfinite`` and ``float`` refuse
with ``OverflowError``) or not a number at all; an array of the wrong shape
or that numpy cannot convert; and an argument of the wrong type, walked over
every argument of every export. So is a value that a value rule refuses, and
no module raises a bare ``ValueError`` or ``TypeError``."""

import inspect
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from synth import DEFAULT_PANO, dataset, mapping_doc, person

import panopose
from panopose import errors
from panopose import (
    Dataset,
    EvalConfig,
    KeypointSchema,
    OksParams,
    PanoramaSpec,
    ValidationError,
    apply_transform,
    builtin_schema,
    crop_transform,
    decode_heatmaps,
    evaluate,
    invert_transform,
    iou,
    nms,
    oks,
    ospa,
    shift_dataset,
)

_BOX = [(0.0, 0.0, 10.0, 10.0)]
_CROP = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
_POSE = np.tile([5.0, 5.0, 2.0], (17, 1))
_SIGMAS = OksParams((0.1,) * 17)


def _boxed():
    return dataset("jrdb17", DEFAULT_PANO, [("f1", [person(box=_BOX[0], score=0.5)])])


# Each public entry point with a parameter, the parameter's name, and a call
# with ``v`` in its place.
ENTRY_POINTS = [
    ("shift", lambda v: shift_dataset(_boxed(), v)),
    ("padding", lambda v: crop_transform(_BOX, padding=v)),
    ("stride", lambda v: decode_heatmaps(np.ones((17, 4, 3)), v, _CROP)),
    ("panorama width", lambda v: PanoramaSpec(v, 1)),
    ("sigma 0", lambda v: OksParams((v,))),
    ("ospa cutoff", lambda v: EvalConfig(ospa_cutoff=v)),
    ("ospa order", lambda v: EvalConfig(ospa_order=v)),
    ("ospa cutoff", lambda v: ospa([], [], lambda a, b: 0.0, cutoff=v)),
]
# The other numeric parameters of the public entry points.
MORE_ENTRY_POINTS = [
    ("panorama height", lambda v: PanoramaSpec(1, v)),
    ("iou threshold", lambda v: nms(_BOX, [0.5], v)),
    ("crop width", lambda v: crop_transform(_BOX, out_w=v)),
    ("crop height", lambda v: crop_transform(_BOX, out_h=v)),
    ("oks threshold", lambda v: EvalConfig(oks_threshold=v)),
]


def _ids(entry_points):
    return [f"{i}-{name}" for i, (name, _) in enumerate(entry_points)]


@pytest.mark.parametrize("value, shown", [(10**400, "an integer beyond float range"), (math.nan, "nan")],
                         ids=["10**400", "nan"])
@pytest.mark.parametrize("name, call", ENTRY_POINTS, ids=_ids(ENTRY_POINTS))
def test_a_parameter_fault_is_a_value_error_naming_the_parameter(name, call, value, shown):
    with pytest.raises(ValueError, match=rf"^{name} must be in [(\[].*, got {shown}$"):
        call(value)


@pytest.mark.parametrize("value", ["1", None], ids=["str", "None"])
@pytest.mark.parametrize("name, call", ENTRY_POINTS + MORE_ENTRY_POINTS,
                         ids=_ids(ENTRY_POINTS + MORE_ENTRY_POINTS))
def test_a_parameter_that_is_not_a_number_is_a_value_error_naming_the_parameter(name, call, value):
    with pytest.raises(ValueError, match=rf"^{name} must be in [(\[].*, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("message, call", [
    ("boxes must be [N, 4], got shape (1, 3)", lambda: iou([(0, 0, 1)], _BOX)),
    ("boxes must be [N, 4], got shape (1, 3)", lambda: nms([(0, 0, 1)], [0.5], 0.5)),
    ("scores must be [1], got shape (1, 1)", lambda: nms(_BOX, [[0.5]], 0.5)),
    ("points must be [..., 2], got shape (1, 3)", lambda: apply_transform(_CROP, [[1, 2, 3]])),
    ("points must be [..., 2], got shape (1, 1)", lambda: apply_transform(_CROP, [[1]])),
    ("transforms must be [..., 2, 3], got shape (2, 2)", lambda: invert_transform([[1, 0], [0, 1]])),
    ("boxes must be [N, 4], got shape (4,)", lambda: crop_transform(_BOX[0])),
    ("crop must be [2, 3], got shape (3, 3)", lambda: decode_heatmaps(np.ones((17, 4, 3)), 4.0, np.eye(3))),
    ("gt must be [K, 3], got shape (17, 2)", lambda: oks(_POSE, _POSE[:, :2], _SIGMAS, _BOX[0])),
    ("gt_box must be [4], got shape (1, 4)", lambda: oks(_POSE, _POSE, _SIGMAS, _BOX)),
], ids=["iou", "nms-boxes", "nms-scores", "points-3", "points-1", "invert_transform", "crop_transform",
        "decode_heatmaps-crop", "oks-pose", "oks-box"])
def test_an_array_of_the_wrong_shape_is_refused_naming_the_argument(message, call):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("shape, call", [
    ("boxes must be [N, 4]", lambda: iou(object(), _BOX)),
    ("boxes must be [N, 4]", lambda: iou([(0, 0, 1, 1), (0, 0, 1)], _BOX)),
    ("points must be [..., 2]", lambda: apply_transform(_CROP, [["a", "b"]])),
    ("scores must be [1]", lambda: Dataset("jrdb17", DEFAULT_PANO, ["f1"], [0, 1], ids=[None], boxes=_BOX,
                                           has_box=[True], scores=[object()], has_score=[True], keypoints=[],
                                           has_pose=[False])),
], ids=["iou-object", "iou-ragged", "points-strings", "Dataset-scores"])
def test_an_array_numpy_cannot_convert_is_refused_naming_the_argument(shape, call):
    with pytest.raises(ValidationError, match=rf"^{re.escape(shape)} numbers \(.+\)$"):
        call()


def _five_keypoints():
    """A prediction of 5 keypoints and a ground truth of 17, both jrdb17:
    the loader refuses such a file, the constructor takes it."""
    pred = Dataset("jrdb17", DEFAULT_PANO, ["f1"], [0, 1], ids=[None], boxes=[[0.0] * 4], has_box=[False],
                   scores=[0.5], has_score=[True], keypoints=[_POSE[:5]], has_pose=[True])
    return pred, dataset("jrdb17", DEFAULT_PANO, [("f1", [person(pose=_POSE)])])


@pytest.mark.parametrize("message, call", [
    ("schema id must be non-empty", lambda: KeypointSchema("", ("a",))),
    ("schema must have at least one keypoint", lambda: KeypointSchema("x", ())),
    ("schema 'x' has duplicate keypoint names", lambda: KeypointSchema("x", ("a", "a"))),
    ("sigmas must be non-empty", lambda: OksParams(())),
    ("ospa cutoff ** order overflows: 1e+200 ** 2.0", lambda: EvalConfig(ospa_cutoff=1e200, ospa_order=2.0)),
    ("base distance must be finite and >= 0, got -1.0", lambda: ospa([1], [2], lambda p, g: -1.0)),
    ("panorama mismatch between predictions and ground truth",
     lambda: evaluate(dataset("jrdb17", PanoramaSpec(200.0, 50.0), [("f1", [person(box=_BOX[0], score=0.5)])]),
                      _boxed())),
    ("frame 'f1', person 0: pose length mismatch: 5 vs 17", lambda: evaluate(*_five_keypoints())),
], ids=["empty-schema-id", "no-keypoints", "duplicate-names", "no-sigmas", "ospa-overflow",
        "negative-distance", "panorama", "pose-length"])
def test_a_value_a_rule_refuses_is_a_validation_error(message, call):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_no_module_raises_a_bare_value_error_or_type_error():
    # README promises a ValidationError for malformed input of any kind.
    package = Path(panopose.__file__).resolve().parent
    bare = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"raise (ValueError|TypeError)\(", line)]
    assert bare == []


@pytest.mark.parametrize("message, call", [
    ("sigmas must be Iterable, got 0.5", lambda: OksParams(0.5)),
    (f"oks_params must be OksParams or None, got {[0.1] * 17}", lambda: EvalConfig(oks_params=[0.1] * 17)),
    ("config must be EvalConfig or None, got 'x'", lambda: evaluate(_boxed(), _boxed(), "x")),
    ("names must be list or tuple, got 'abc'", lambda: KeypointSchema("x", "abc")),
    ("name 1 must be str, got 5", lambda: KeypointSchema("x", ["a", 5])),
    ("schema_id must be str, got 5", lambda: builtin_schema(5)),
    ("path must be str or PathLike, got True", lambda: panopose.load_tensor_map(True)),
], ids=["OksParams", "EvalConfig", "evaluate", "KeypointSchema", "KeypointSchema-name", "builtin_schema",
        "load_tensor_map"])
def test_an_argument_of_the_wrong_type_is_a_value_error_naming_it(message, call):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


# The walk: each argument of each callable export, replaced by a value of
# each of these kinds but its own, is refused with a ValidationError that
# begins with its name, or taken where the argument converts (a number, or
# the rows of an array or a set) or the kind is None and None is documented.
# Left out of the walk: the visibility flags, which are constants;
# ValidationError, the refusal itself; and EvalReport, the result that
# ``evaluate`` builds, which no function takes.
_KINDS = {"str": "x", "None": None, "int": 5, "list": ["x"], "object": object()}
_NOT_WALKED = {"NOT_LABELED", "LABELED_INVISIBLE", "LABELED_VISIBLE", "ValidationError", "EvalReport"}
# None is each optional argument's default; a loader given None reads the
# file in the built-in schema that it names.
_TAKES_NONE = {("load_ground_truth", "schema"), ("load_predictions", "schema")}
_HEAD = {"w": np.ones((17, 2, 1, 1), np.float32), "b": np.zeros(17, np.float32)}


def _valid_calls(tmp) -> dict[str, dict]:
    """One valid call of each callable export, its arguments by name; the
    paths are strings that name files in ``tmp``."""
    gt, head, mapping = (str(tmp / name) for name in ("gt.json", "head.bin", "mapping.json"))
    return {
        "Dataset": dict(schema_id="jrdb17", pano=DEFAULT_PANO, frame_ids=["f1"], offsets=[0, 1], ids=["p"],
                        boxes=_BOX, has_box=[True], scores=[0.5], has_score=[True], keypoints=[_POSE],
                        has_pose=[True]),
        "load_ground_truth": dict(path=gt, schema=panopose.builtin_schema("jrdb17")),
        "load_predictions": dict(path=gt, schema=panopose.builtin_schema("jrdb17")),
        "save_dataset": dict(ds=_boxed(), path=str(tmp / "out.json")),
        "decode_heatmaps": dict(values=np.ones((17, 4, 3)), stride=4.0, crop=_CROP),
        "PanoramaSpec": dict(width=100.0, height=50.0),
        "apply_transform": dict(transforms=_CROP, points=[[1.0, 2.0]]),
        "crop_transform": dict(boxes=_BOX, out_w=288.0, out_h=384.0, padding=1.25),
        "invert_transform": dict(transforms=_CROP),
        "iou": dict(a=_BOX, b=_BOX),
        "nms": dict(boxes=_BOX, scores=[0.5], iou_threshold=0.5),
        "shift_dataset": dict(ds=_boxed(), shift=3.0),
        "EvalConfig": dict(oks_threshold=0.5, oks_params=_SIGMAS, ospa_cutoff=1.0, ospa_order=1.0),
        "OksParams": dict(sigmas=(0.1,) * 17),
        "default_oks_params": dict(schema_id="jrdb17"),
        "evaluate": dict(preds=_boxed(), gts=_boxed(), config=EvalConfig()),
        "oks": dict(pred=_POSE, gt=_POSE, params=_SIGMAS, gt_box=_BOX[0]),
        "ospa": dict(preds=[1], gts=[2], base_distance=lambda p, g: 0.5, cutoff=1.0, order=1.0),
        "KeypointSchema": dict(id="s", names=("a",)),
        "SchemaMapping": dict(source_schema="s", target_schema="t", entries=((0,),)),
        "builtin_schema": dict(schema_id="jrdb17"),
        "default_mapping": dict(verbatim_table1=False),
        "load_mapping": dict(path=mapping),
        "load_tensor_map": dict(path=head),
        "remap_head_weights": dict(tensors=_HEAD, weight_name="w", mapping=panopose.default_mapping(),
                                   bias_name="b"),
        "save_tensor_map": dict(tensors=_HEAD, path=str(tmp / "out.bin")),
    }


# Where a rule words an argument by its documented name: the numeric
# parameters (errors._check_number), the arrays (geometry._shaped) and the
# heatmap grid. ``sigma`` begins both ``sigmas`` and ``sigma 0``.
_NAMES = {("PanoramaSpec", "width"): "panorama width", ("PanoramaSpec", "height"): "panorama height",
          ("decode_heatmaps", "values"): "grid", ("iou", "a"): "boxes", ("iou", "b"): "boxes",
          ("nms", "iou_threshold"): "iou threshold", ("crop_transform", "out_w"): "crop width",
          ("crop_transform", "out_h"): "crop height", ("EvalConfig", "oks_threshold"): "oks threshold",
          ("EvalConfig", "ospa_cutoff"): "ospa cutoff", ("EvalConfig", "ospa_order"): "ospa order",
          ("ospa", "cutoff"): "ospa cutoff", ("ospa", "order"): "ospa order", ("OksParams", "sigmas"): "sigma"}
_WALK = [(export, parameter) for export in panopose.__all__ if export not in _NOT_WALKED
         for parameter in inspect.signature(getattr(panopose, export)).parameters]


@pytest.fixture(scope="module")
def walk_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("walk")
    panopose.save_dataset(_boxed(), tmp / "gt.json")
    panopose.save_tensor_map(_HEAD, tmp / "head.bin")
    (tmp / "mapping.json").write_text(json.dumps(mapping_doc(panopose.default_mapping())))
    return tmp


def test_the_walk_has_a_valid_call_of_every_callable_export(walk_files):
    calls = _valid_calls(walk_files)
    assert sorted(calls) == sorted(set(panopose.__all__) - _NOT_WALKED)
    for export, arguments in calls.items():
        assert list(arguments) == list(inspect.signature(getattr(panopose, export)).parameters), export
        getattr(panopose, export)(**arguments)


@pytest.mark.parametrize("export, parameter", _WALK, ids=[f"{e}-{p}" for e, p in _WALK])
def test_an_argument_of_another_kind_is_taken_or_refused_naming_it(walk_files, export, parameter):
    valid = _valid_calls(walk_files)[export]
    name = _NAMES.get((export, parameter), parameter)
    default = inspect.signature(getattr(panopose, export)).parameters[parameter].default
    converts = type(valid[parameter]) in (int, float, list, tuple, np.ndarray)
    faults = []
    for kind, value in _KINDS.items():
        if type(value) is type(valid[parameter]):
            continue
        try:
            getattr(panopose, export)(**{**valid, parameter: value})
            if not (converts or value is None and (default is None or (export, parameter) in _TAKES_NONE)):
                faults.append((kind, "taken"))
        except ValidationError as exc:
            if not str(exc).startswith(name):
                faults.append((kind, repr(exc)))
        except Exception as exc:  # noqa: BLE001 - any other type is the fault the walk looks for
            faults.append((kind, repr(exc)))
    assert faults == []


@pytest.mark.parametrize("export", ["load_ground_truth", "load_predictions", "save_dataset", "load_mapping",
                                    "load_tensor_map", "save_tensor_map"])
def test_a_descriptor_number_is_not_a_path(walk_files, export):
    # open(fd) would read or write the descriptor, then close it.
    valid = _valid_calls(walk_files)[export]
    fd = os.open(valid["path"], os.O_RDWR | os.O_CREAT)
    try:
        with pytest.raises(ValidationError, match=rf"^path must be str or PathLike, got {fd}$"):
            getattr(panopose, export)(**{**valid, "path": fd})
        os.fstat(fd)  # still open
    finally:
        os.close(fd)


@pytest.mark.parametrize("export", ["save_dataset", "save_tensor_map"])
def test_a_library_writer_walks_the_links_of_its_path_once(walk_files, export, monkeypatch):
    # One walk decides both what is opened and whether it is written as a
    # regular file, so a link retargeted between two walks cannot split them.
    walked = []
    descriptor = errors._descriptor
    monkeypatch.setattr(errors, "_descriptor", lambda path: walked.append(path) or descriptor(path))
    getattr(panopose, export)(**_valid_calls(walk_files)[export])
    assert len(walked) == 1
