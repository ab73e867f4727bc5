"""A numeric parameter outside its interval is refused with a ``ValueError``
that names it, also when it is NaN or an integer beyond float range (which
``math.isfinite`` and ``float`` refuse with ``OverflowError``)."""

import math

import numpy as np
import pytest
from synth import DEFAULT_PANO, dataset, person

from panopose import EvalConfig, OksParams, PanoramaSpec, crop_transform, decode_heatmaps, ospa, shift_dataset

_BOX = [(0.0, 0.0, 10.0, 10.0)]
_CROP = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

# Each public entry point with a parameter, the parameter's name, and a call
# with ``v`` in its place.
ENTRY_POINTS = [
    ("shift", lambda v: shift_dataset(dataset("jrdb17", DEFAULT_PANO, [("f1", [person(box=_BOX[0])])]), v)),
    ("padding", lambda v: crop_transform(_BOX, padding=v)),
    ("stride", lambda v: decode_heatmaps(np.ones((17, 4, 3)), v, _CROP)),
    ("panorama width", lambda v: PanoramaSpec(v, 1)),
    ("sigma 0", lambda v: OksParams((v,))),
    ("ospa cutoff", lambda v: EvalConfig(ospa_cutoff=v)),
    ("ospa order", lambda v: EvalConfig(ospa_order=v)),
    ("ospa cutoff", lambda v: ospa([], [], lambda a, b: 0.0, cutoff=v)),
]


@pytest.mark.parametrize("value, shown", [(10**400, "an integer beyond float range"), (math.nan, "nan")],
                         ids=["10**400", "nan"])
@pytest.mark.parametrize("name, call", ENTRY_POINTS, ids=[f"{i}-{name}" for i, (name, _) in
                                                          enumerate(ENTRY_POINTS)])
def test_a_parameter_fault_is_a_value_error_naming_the_parameter(name, call, value, shown):
    with pytest.raises(ValueError, match=rf"^{name} must be in [(\[].*, got {shown}$"):
        call(value)
