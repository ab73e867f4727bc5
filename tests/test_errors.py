"""Each kind of input fault is refused with a ``ValueError`` that names the
input: a numeric parameter outside its interval, also when it is NaN, an
integer beyond float range (which ``math.isfinite`` and ``float`` refuse
with ``OverflowError``) or not a number at all; an array of the wrong shape
or that numpy cannot convert; and an argument of the wrong type."""

import math
import re

import numpy as np
import pytest
from synth import DEFAULT_PANO, dataset, person

from panopose import (
    Dataset,
    EvalConfig,
    KeypointSchema,
    OksParams,
    PanoramaSpec,
    ValidationError,
    apply_transform,
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


@pytest.mark.parametrize("message, call", [
    ("sigmas must be a sequence of numbers, got 0.5", lambda: OksParams(0.5)),
    (f"oks_params must be OksParams or None, got {[0.1] * 17}", lambda: EvalConfig(oks_params=[0.1] * 17)),
    ("config must be EvalConfig or None, got 'x'", lambda: evaluate(_boxed(), _boxed(), "x")),
    ("schema names must be a list or tuple of strings, got 'abc'", lambda: KeypointSchema("x", "abc")),
], ids=["OksParams", "EvalConfig", "evaluate", "KeypointSchema"])
def test_an_argument_of_the_wrong_type_is_a_value_error_naming_it(message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
