"""Synthetic panorama datasets shared by tests, built through the documented
JSON form."""

from __future__ import annotations

import json

import numpy as np

from panopose.dataio import Dataset, _load
from panopose.geometry import PanoramaSpec
from panopose.schema import SchemaMapping, builtin_schema

NUM_KEYPOINTS = 17
DEFAULT_PANO = PanoramaSpec(2048.0, 512.0)


def person(*, id=None, box=None, pose=None, score=None) -> dict:
    """One person of a dataset file with the given fields: a box as its four
    corners, a pose as ``[x, y, v]`` rows with an integer v."""
    doc = {}
    if id is not None:
        doc["id"] = id
    if box is not None:
        doc["box"] = np.asarray(box, dtype=np.float64).tolist()
    if score is not None:
        doc["score"] = float(score)
    if pose is not None:
        doc["pose"] = [[x, y, int(v)] for x, y, v in np.asarray(pose, dtype=np.float64).tolist()]
    return doc


def dataset(schema_id: str, pano: PanoramaSpec, frames) -> Dataset:
    """The dataset of ``frames``, ``(frame id, persons)`` pairs with each
    person a :func:`person` document, parsed from its JSON text."""
    doc = {
        "schema": schema_id,
        "pano": {"width": pano.width, "height": pano.height},
        "frames": [{"frame_id": fid, "persons": list(persons)} for fid, persons in frames],
    }
    return _load(json.dumps(doc), builtin_schema(schema_id), False)


def random_pose(rng: np.random.Generator, cx: float, cy: float, spread: float,
                integer: bool = False) -> np.ndarray:
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
    return np.column_stack([xs, ys, vis])


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
            persons.append(person(pose=random_pose(rng, cx, cy, spread, integer)))
        frames.append((f"frame{f:04d}", persons))
    return dataset("jrdb17", pano, frames)


def perturb_predictions(
    gt: Dataset, rng: np.random.Generator, sigma: float, integer: bool = False
) -> Dataset:
    """Prediction set built by jittering every ground-truth keypoint."""
    persons = []
    for kps in gt.keypoints:
        kps = kps.copy()
        if sigma > 0:
            # One (dx, dy) pair per keypoint, drawn in keypoint order.
            kps[:, :2] += rng.normal(0.0, sigma, (len(kps), 2))
        if integer:
            kps[:, :2] = np.round(kps[:, :2])
        persons.append(person(pose=kps, score=rng.uniform(0.5, 1.0)))
    bounds = gt.offsets.tolist()
    frames = [(fid, persons[a:b]) for fid, a, b in zip(gt.frame_ids, bounds, bounds[1:])]
    return dataset(gt.schema_id, gt.pano, frames)


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


def same_tensors(a: dict, b: dict) -> bool:
    """Whether two dicts of tensors hold the same names and, under each, the
    same dtype, shape and little-endian bytes: what a container keeps."""
    def stored(values):
        values = np.asarray(values)
        little = values.dtype.newbyteorder("<")
        return little, values.shape, values.astype(little).tobytes()

    return a.keys() == b.keys() and all(stored(a[name]) == stored(b[name]) for name in a)
