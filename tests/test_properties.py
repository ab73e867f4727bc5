"""Property tests: canonical dataset round trips and the per-frame OKS matrix."""

import math

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from panopose.dataio import (
    Dataset,
    FrameAnnotations,
    Person,
    Pose,
    dataset_from_json,
    dataset_to_canonical_json,
)
from panopose.geometry import BoundingBox, PanoramaSpec, person_box
from panopose.metrics import _oks_matrix, default_oks_params, match_frame_oks
from panopose.schema import JRDB17

# Derived examples and no example database, so every run checks the same
# cases. No explain phase: on a failing OKS property it ran for minutes and
# grew past 600 MB, while shrinking alone reports the failure in about 50 s.
PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)

PANO = PanoramaSpec(2000.0, 600.0)
NUM_KEYPOINTS = 17
PARAMS = default_oks_params("jrdb17")

finite = st.floats(allow_nan=False, allow_infinity=False)
visibility = st.sampled_from([0, 1, 2])


def poses(coord=finite, vis=visibility):
    row = st.tuples(coord, coord, vis)
    return st.lists(row, min_size=NUM_KEYPOINTS, max_size=NUM_KEYPOINTS).map(Pose)


@PROPERTY
@given(st.lists(st.lists(poses(), max_size=3), max_size=3))
def test_canonical_json_parse_canonical_is_byte_stable(frame_poses):
    ds = Dataset(
        "jrdb17",
        PANO,
        tuple(
            FrameAnnotations(f"f{i}", tuple(Person(pose=p) for p in ps))
            for i, ps in enumerate(frame_poses)
        ),
    )
    text = dataset_to_canonical_json(ds)
    back = dataset_from_json(text, JRDB17)
    assert back == ds
    assert dataset_to_canonical_json(back) == text


def _reference_oks(pred: Pose, gt: Pose, area: float) -> float:
    """The OKS formula as a scalar loop: math.exp and a sequential sum."""
    terms = []
    for (xp, yp, _), (xg, yg, vg), k in zip(
        pred.keypoints.tolist(), gt.keypoints.tolist(), PARAMS.sigmas
    ):
        if vg > 0:
            d2 = (xp - xg) ** 2 + (yp - yg) ** 2
            terms.append(math.exp(-d2 / (2.0 * area * k * k)))
    return sum(terms) / len(terms)


coord = st.floats(0.0, 100.0)
box = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    coord, coord, st.floats(1.0, 100.0), st.floats(1.0, 100.0),
)
score = st.floats(0.0, 1.0)
predictions = st.lists(
    st.one_of(
        st.builds(lambda p, s: Person(pose=p, score=s), poses(coord), score),
        st.builds(lambda b, s: Person(box=b, score=s), box, score),  # no pose
    ),
    max_size=6,
)
ground_truths = st.lists(
    st.one_of(
        st.builds(lambda p: Person(pose=p), poses(coord)),
        st.builds(lambda p, b: Person(pose=p, box=b), poses(coord), box),
        st.builds(lambda p: Person(pose=p), poses(coord, st.just(0))),  # no labeled keypoint
        st.builds(lambda b: Person(box=b), box),
    ),
    max_size=6,
)


def _labeled(person: Person) -> bool:
    return person.pose is not None and bool((person.pose.keypoints[:, 2] > 0).any())


@PROPERTY
@given(predictions, ground_truths)
def test_oks_matrix_agrees_with_scalar_reference(preds, gts):
    boxes = [person_box(g) for g in gts]
    rows = [p for p in preds if p.pose is not None]
    cols = [j for j, g in enumerate(gts) if _labeled(g)]
    sim = _oks_matrix(
        [p.pose for p in rows], [gts[j].pose for j in cols], PARAMS, [boxes[j] for j in cols]
    )
    assert sim.shape == (len(rows), len(cols))
    for i, p in enumerate(rows):
        for c, j in enumerate(cols):
            expected = _reference_oks(p.pose, gts[j].pose, boxes[j].area)
            assert math.isclose(sim[i, c], expected, rel_tol=1e-12)

    result = match_frame_oks(
        FrameAnnotations("f", tuple(preds)), FrameAnnotations("f", tuple(gts)), PARAMS, 0.5
    )
    for pi, gi, value in result.pairs:
        assert preds[pi].pose is not None and _labeled(gts[gi])
        assert value >= 0.5
        expected = _reference_oks(preds[pi].pose, gts[gi].pose, boxes[gi].area)
        assert math.isclose(value, expected, rel_tol=1e-12)
