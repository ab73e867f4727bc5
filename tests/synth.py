"""Synthetic panorama datasets shared by tests, built through the documented
JSON form."""

from __future__ import annotations

import json

import numpy as np

from panopose.dataio import Dataset, _load
from panopose.decode import decode_heatmaps
from panopose.geometry import PanoramaSpec, crop_transform
from panopose.metrics import default_oks_params
from panopose.schema import SchemaMapping, builtin_schema

NUM_KEYPOINTS = 17
DEFAULT_PANO = PanoramaSpec(2048.0, 512.0)
# JRDB-Pose's stitched panorama.
SCENE_PANO = PanoramaSpec(3760.0, 480.0)


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


def _wrapped(pose: np.ndarray, width: float) -> np.ndarray:
    """``pose`` with its x taken modulo ``width``, as a stored pose is."""
    return np.column_stack([np.remainder(pose[:, 0], width), pose[:, 1:]])


def _jittered(rng: np.random.Generator, pose: np.ndarray, sigma: float) -> np.ndarray:
    return np.column_stack([pose[:, :2] + rng.normal(0.0, sigma, (len(pose), 2)), pose[:, 2]])


def _decoded(rng: np.random.Generator, box: tuple, target: np.ndarray, stride: float = 4.0) -> np.ndarray:
    """The pose that ``decode`` gives for a detection at ``box`` whose
    ``[96, 72]`` grids peak at the cells of the ``target`` keypoints."""
    crop = crop_transform([box])[0]
    grids = rng.uniform(0.0, 0.2, (NUM_KEYPOINTS, 96, 72))
    cx, cy = (crop[:, :2] @ target[:, :2].T + crop[:, 2:]) / stride
    grids[np.arange(NUM_KEYPOINTS), np.clip(cy, 0, 95).astype(int), np.clip(cx, 0, 71).astype(int)] = 1.0
    return decode_heatmaps(grids, stride, crop)[0]


def reference_scene(seed: int = 17) -> dict[str, tuple[list, list]]:
    """A seeded jrdb17 scene on :data:`SCENE_PANO` in slices, one per way a
    panorama or COCO's evaluation can move a score: each slice name maps to
    its ground-truth and prediction frames, ``(frame id, persons)`` pairs as
    :func:`dataset` takes them, with frame ids ``<slice>/<n>``.

    - ``seam_pairs``: box-less poses with their predictions moved 70 px
      across the seam, so the two sit on opposite sides of it.
    - ``straddling``: box-less poses across the seam, and close predictions.
    - ``box_only``: ground truths with only a box, beside posed ones.
    - ``unlabeled``: ground truths whose keypoints are all v = 0.
    - ``crowd``: one frame of 24 persons and 6 low-score false positives,
      more than COCO's 20 detections per image.
    - ``tie``: a prediction at equal OKS to two ground truths, and a second
      one close to the first of them.
    - ``sigma_scale``: keypoint errors of 0.5 to 3 times sigma_i * sqrt(area).
    - ``right_edge``: detections whose boxes end at the right edge, decoded
      from heatmaps to keypoints beyond it, against poses across the seam.
    - ``seam_near``: ground truths 8 px wide with a stored box, wholly left
      of the seam, and predictions of the same keypoints moved 10 px right,
      which land wholly right of it. No pose straddles the seam. Drawn from
      a generator of its own, so the slices before it keep their numbers."""
    rng = np.random.default_rng(seed)
    w = SCENE_PANO.width
    sigmas = np.array(default_oks_params("jrdb17").sigmas)
    scene: dict[str, tuple[list, list]] = {}

    def frame(name: str, n: int, gts: list, preds: list) -> None:
        gt_frames, pred_frames = scene.setdefault(name, ([], []))
        gt_frames.append((f"{name}/{n}", gts))
        pred_frames.append((f"{name}/{n}", preds))

    for n, cx in enumerate((3715.0, 50.0)):
        poses = [random_pose(rng, cx, y, 30.0) for y in (150.0, 330.0)]
        frame("seam_pairs", n, [person(pose=p) for p in poses],
              [person(pose=_wrapped(p + (70.0 if cx > w / 2 else -70.0, 0, 0), w),
                      score=rng.uniform(0.5, 1.0)) for p in poses])
    for n in range(2):
        poses = [random_pose(rng, w + rng.uniform(-15.0, 15.0), y, 35.0) for y in (140.0, 340.0)]
        frame("straddling", n, [person(pose=_wrapped(p, w)) for p in poses],
              [person(pose=_wrapped(_jittered(rng, p, 2.0), w), score=rng.uniform(0.5, 1.0))
               for p in poses])
    poses = [random_pose(rng, cx, 240.0, 50.0) for cx in (800.0, 1400.0)]
    frame("box_only", 0, [person(box=(cx, 100.0, cx + 90.0, 380.0)) for cx in (200.0, 2200.0, 3000.0)]
          + [person(pose=p) for p in poses],
          [person(pose=_jittered(rng, p, 3.0), score=rng.uniform(0.5, 1.0)) for p in poses]
          + [person(box=(205.0, 105.0, 290.0, 370.0), score=0.9)])
    poses = [random_pose(rng, cx, 240.0, 50.0) for cx in (600.0, 1600.0, 2600.0)]
    frame("unlabeled", 0, [person(pose=p * (1, 1, 0)) for p in poses[:2]] + [person(pose=poses[2])],
          [person(pose=_jittered(rng, p * (1, 1, 0) + (0, 0, 2), 3.0), score=rng.uniform(0.5, 1.0))
           for p in poses])
    poses = [random_pose(rng, 150.0 * k + 100.0, rng.uniform(120.0, 360.0), 40.0) for k in range(24)]
    frame("crowd", 0, [person(pose=p) for p in poses],
          [person(pose=_jittered(rng, p, 4.0), score=rng.uniform(0.5, 1.0)) for p in poses]
          + [person(pose=random_pose(rng, rng.uniform(100.0, 3600.0), 240.0, 40.0),
                    score=rng.uniform(0.0, 0.4)) for _ in range(6)])
    first = np.round(random_pose(rng, 1000.0, 240.0, 50.0))
    frame("tie", 0, [person(box=(940.0 + dx, 130.0, 1060.0 + dx, 350.0), pose=first + (dx, 0, 0))
                     for dx in (0.0, 16.0)],
          [person(pose=first + (8.0, 0, 0), score=0.9), person(pose=first + (1.0, 1.0, 0), score=0.8)])
    box_poses = [(random_pose(rng, cx, 240.0, 50.0), cx) for cx in (400.0, 1000.0, 1600.0, 2200.0, 2800.0)]
    errors = []
    for (pose, cx), c in zip(box_poses, (0.5, 1.0, 1.5, 2.0, 3.0)):
        angle = rng.uniform(0.0, 2.0 * np.pi, NUM_KEYPOINTS)
        shift = c * sigmas * np.sqrt(120.0 * 240.0) * np.stack([np.cos(angle), np.sin(angle)])
        errors.append(np.column_stack([pose[:, :2] + shift.T, pose[:, 2]]))
    frame("sigma_scale", 0, [person(box=(cx - 60.0, 120.0, cx + 60.0, 360.0), pose=p) for p, cx in box_poses],
          [person(pose=e, score=rng.uniform(0.5, 1.0)) for e in errors])
    gts, preds = [], []
    for y in (110.0, 290.0):
        pose = random_pose(rng, 3755.0, y + 90.0, 40.0)
        box = (3700.0, y, 3760.0, y + 180.0)
        gts.append(person(box=box, pose=_wrapped(pose, w)))
        preds.append(person(box=box, pose=_decoded(rng, box, _jittered(rng, pose, 2.0)),
                            score=rng.uniform(0.5, 1.0)))
    frame("right_edge", 0, gts, preds)
    near = np.random.default_rng(seed + 1)
    for n in range(2):
        gts, preds = [], []
        for y in (150.0, 330.0):
            # x in [w - 9, w - 1] and y within 20 px of the centre.
            pose = random_pose(near, 0.0, 0.0, 1.0) * (4.0, 20.0, 1.0) + (w - 5.0, y, 0.0)
            gts.append(person(box=(w - 10.0, y - 25.0, w, y + 25.0), pose=pose))
            preds.append(person(pose=_wrapped(pose + (10.0, 0.0, 0.0), w), score=near.uniform(0.5, 1.0)))
        frame("seam_near", n, gts, preds)
    return scene
