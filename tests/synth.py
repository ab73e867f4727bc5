"""Synthetic panorama datasets shared by tests."""

from __future__ import annotations

import numpy as np

from panopose.dataio import Dataset, FrameAnnotations, Person, Pose
from panopose.geometry import PanoramaSpec
from panopose.schema import SchemaMapping, builtin_schema

NUM_KEYPOINTS = 17
DEFAULT_PANO = PanoramaSpec(2048.0, 512.0)


def random_pose(rng: np.random.Generator, cx: float, cy: float, spread: float,
                integer: bool = False) -> Pose:
    xs = cx + rng.uniform(-spread, spread, NUM_KEYPOINTS)
    ys = cy + rng.uniform(-spread, spread, NUM_KEYPOINTS)
    # Pin two opposite corners (kept visible below) so the tight box never
    # degenerates and has a stable, noise-independent baseline extent.
    xs[0], ys[0] = cx - spread, cy - spread
    xs[1], ys[1] = cx + spread, cy + spread
    if integer:
        xs, ys = np.round(xs), np.round(ys)
    vis = rng.choice([0, 1, 2], size=NUM_KEYPOINTS, p=[0.1, 0.2, 0.7])
    vis[0] = vis[1] = 2
    return Pose(np.column_stack([xs, ys, vis]))


def make_ground_truth(
    rng: np.random.Generator,
    num_frames: int = 50,
    pano: PanoramaSpec = DEFAULT_PANO,
    people: tuple[int, int] = (1, 6),
    spread: float = 60.0,
    x_range: tuple[float, float] = (0.05, 0.9),
    integer: bool = False,
) -> Dataset:
    frames = []
    for f in range(num_frames):
        persons = []
        for _ in range(int(rng.integers(people[0], people[1] + 1))):
            cx = rng.uniform(x_range[0] * pano.width, x_range[1] * pano.width)
            cy = rng.uniform(0.3 * pano.height, 0.7 * pano.height)
            persons.append(Person(pose=random_pose(rng, cx, cy, spread, integer)))
        frames.append(FrameAnnotations(f"frame{f:04d}", tuple(persons)))
    return Dataset("jrdb17", pano, tuple(frames))


def perturb_predictions(
    gt: Dataset, rng: np.random.Generator, sigma: float, integer: bool = False
) -> Dataset:
    """Prediction set built by jittering every ground-truth keypoint."""
    frames = []
    for frame in gt.frames:
        persons = []
        for person in frame.persons:
            kps = person.pose.keypoints.copy()
            if sigma > 0:
                # One (dx, dy) pair per keypoint, drawn in keypoint order.
                kps[:, :2] += rng.normal(0.0, sigma, (len(kps), 2))
            if integer:
                kps[:, :2] = np.round(kps[:, :2])
            persons.append(Person(pose=Pose(kps), score=float(rng.uniform(0.5, 1.0))))
        frames.append(FrameAnnotations(frame.frame_id, tuple(persons)))
    return Dataset(gt.schema_id, gt.pano, tuple(frames))


def mapping_doc(mapping: SchemaMapping) -> dict:
    """The mapping config file document of ``mapping``, as written by hand:
    each target keypoint name lists its source keypoint names."""
    source = builtin_schema(mapping.source_schema)
    target = builtin_schema(mapping.target_schema)
    return {
        "source_schema": mapping.source_schema,
        "target_schema": mapping.target_schema,
        "entries": {
            target.names[t]: [source.names[s] for s in entry]
            for t, entry in enumerate(mapping.entries)
        },
    }
