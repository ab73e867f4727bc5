"""Seeded inputs, command chains and output checks of the benchmark workloads.

Each workload writes its inputs into a work directory from ``--seed`` alone
and lists its command chain as ``panopose`` argument vectors. During the
checked first pass the runner calls :meth:`Workload.after_step` after every
command; it checks the outputs against :mod:`reference` and, in
``pipeline``, writes what the networks between the steps would produce
(candidate boxes for ``nms``, heatmaps for ``decode``). Later passes rerun
the same commands on the same inputs and must reproduce the checked output
bytes.

Person layouts use fixed per-frame counts in a seeded order, so every seed
gives inputs of the same size.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref

K = 17
PANO_W, PANO_H = 2048.0, 512.0
SPREAD = 60.0  # half extent of a synthetic person, as in tests/synth.py

COMMAND_METRIC = {"remap-weights": "remap"}
DATASET_FLAGS = {
    "eval": ("--gt", "--pred"),
    "boxes-from-poses": ("--in",),
    "shift": ("--in",),
    "nms": ("--pred",),
    "decode": ("--dets",),
}
OUTPUT_FLAGS = ("--out", "--report", "--table")


def metric_of(argv) -> str:
    """End-to-end metric stem a command's time adds to, e.g. ``eval``."""
    return COMMAND_METRIC.get(argv[0], argv[0].replace("-", "_"))


def flag(argv, name: str) -> Path | None:
    return Path(argv[argv.index(name) + 1]) if name in argv else None


def outputs_of(argv) -> list[Path]:
    return [flag(argv, f) for f in OUTPUT_FLAGS if f in argv]


def datasets_in(argv) -> list[Path]:
    return [flag(argv, f) for f in DATASET_FLAGS.get(argv[0], ())]


def containers_in(argv) -> list[Path]:
    return [flag(argv, f) for f in ("--src", "--heatmaps") if f in argv]


# -- synthetic persons (after tests/synth.py) -------------------------------------


def random_poses(rng: np.random.Generator, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """[N, K, 3] poses drawn as tests/synth.py's ``random_pose`` draws them:
    uniform keypoints within ``SPREAD`` of the centre, two opposite corners
    pinned and visible so the tight box is exactly 2 * SPREAD on a side."""
    n = len(cx)
    xs = cx[:, None] + rng.uniform(-SPREAD, SPREAD, (n, K))
    ys = cy[:, None] + rng.uniform(-SPREAD, SPREAD, (n, K))
    xs[:, 0], ys[:, 0] = cx - SPREAD, cy - SPREAD
    xs[:, 1], ys[:, 1] = cx + SPREAD, cy + SPREAD
    vis = rng.choice([0, 1, 2], size=(n, K), p=[0.1, 0.2, 0.7])
    vis[:, :2] = 2
    return np.stack([xs, ys, vis], axis=-1)


def pose_rows(pose: np.ndarray) -> list:
    return [[x, y, int(v)] for x, y, v in pose.tolist()]


def dataset_doc(frame_persons: list[list[dict]]) -> dict:
    return {
        "schema": "jrdb17",
        "pano": {"width": PANO_W, "height": PANO_H},
        "frames": [{"frame_id": f"frame{f:05d}", "persons": persons}
                   for f, persons in enumerate(frame_persons)],
    }


def persons_by_frame(doc: dict) -> dict[str, list]:
    return {f["frame_id"]: f["persons"] for f in doc["frames"]}


def count_persons(doc: dict) -> int:
    return sum(len(f["persons"]) for f in doc["frames"])


# -- output checks shared by workloads ----------------------------------------------


def last_echo(stdout: str, command: str) -> list[str]:
    lines = stdout.splitlines()
    try:
        echo = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{command}: no JSON config echo on stdout"]
    if not isinstance(echo, dict) or echo.get("command") != command:
        return [f"{command}: echo names command {echo!r}"]
    return []


def check_eval(argv, stdout: str) -> list[str]:
    """The report, table and summary lines agree with each other and with the
    per-frame person counts of the two input files."""
    problems = last_echo(stdout, "eval")
    gts = persons_by_frame(ref.read_json(flag(argv, "--gt")))
    preds = persons_by_frame(ref.read_json(flag(argv, "--pred")))
    report = ref.read_json(flag(argv, "--report"))
    ospa, ap = report["ospa_iou"], report["ap_05"]
    if not (0.0 <= ospa <= 1.0 and 0.0 <= ap <= 1.0):
        problems.append(f"eval: aggregates outside [0, 1]: ospa {ospa}, ap {ap}")
    if stdout.splitlines()[:2] != [f"ospa_iou {ospa:.3f}", f"ap_05 {ap:.3f}"]:
        problems.append("eval: summary lines disagree with the report")
    per_frame = report["per_frame"]
    if set(per_frame) != set(gts):
        problems.append("eval: per-frame ids differ from the ground-truth frames")
        return problems
    for fid, stats in per_frame.items():
        n_gt, n_pred = len(gts[fid]), len(preds.get(fid, ()))
        if (stats["num_ground_truths"], stats["num_predictions"]) != (n_gt, n_pred):
            problems.append(f"eval: frame {fid} counts {stats} vs inputs {n_pred}/{n_gt}")
        elif not (0 <= stats["num_matched"] <= min(n_gt, n_pred)
                  and 0.0 <= stats["ospa_iou"] <= 1.0):
            problems.append(f"eval: frame {fid} stats out of range: {stats}")
    if flag(argv, "--table") is not None:
        with open(flag(argv, "--table"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = ["frame_id", "ospa_iou", "num_predictions", "num_ground_truths", "num_matched"]
        expected = [[fid, s["ospa_iou"], s["num_predictions"], s["num_ground_truths"],
                     s["num_matched"]] for fid, s in sorted(per_frame.items())]
        got = [[r[0], float(r[1]), int(r[2]), int(r[3]), int(r[4])] for r in rows[1:]]
        if rows[:1] != [header] or got != expected:
            problems.append("eval: frame table disagrees with the report")
    return problems


# -- workloads -------------------------------------------------------------------------


class Workload:
    """Inputs, command chain and checks of one workload."""

    name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.steps: list[list[str]] = []
        self.sizes: dict[str, int] = {}

    def path(self, name: str) -> str:
        return str(self.work / name)

    def self_checks(self) -> list[tuple[list[str], object]]:
        """One-off invocations ``(argv, check(stdout) -> problems)``."""
        return []

    def after_step(self, argv, stdout: str) -> list[str]:
        return []


class Score(Workload):
    name = "score"
    FRAMES = 2000
    MAX_PERSONS = 12
    SIGMA = 3.0
    DROP = 0.05
    FALSE_POSITIVES = 0.03
    SELF_FRAMES = 100

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        rng = self.rng
        counts = rng.permutation(np.arange(self.FRAMES) % self.MAX_PERSONS + 1)
        n = int(counts.sum())
        frame_of = np.repeat(np.arange(self.FRAMES), counts)
        gt = random_poses(rng, rng.uniform(0.05 * PANO_W, 0.9 * PANO_W, n),
                          rng.uniform(0.3 * PANO_H, 0.7 * PANO_H, n))
        pred = gt.copy()
        pred[:, :, :2] += rng.normal(0.0, self.SIGMA, (n, K, 2))
        scores = rng.uniform(0.5, 1.0, n)
        kept = np.ones(n, dtype=bool)
        kept[rng.choice(n, round(self.DROP * n), replace=False)] = False
        n_fp = round(self.FALSE_POSITIVES * n)
        fp = random_poses(rng, rng.uniform(0.05 * PANO_W, 0.9 * PANO_W, n_fp),
                          rng.uniform(0.3 * PANO_H, 0.7 * PANO_H, n_fp))
        fp_frame = rng.integers(0, self.FRAMES, n_fp)
        fp_scores = rng.uniform(0.05, 0.6, n_fp)

        gt_frames = [[] for _ in range(self.FRAMES)]
        pred_frames = [[] for _ in range(self.FRAMES)]
        self_frames = [[] for _ in range(self.SELF_FRAMES)]
        for i in range(n):
            f = frame_of[i]
            rows = pose_rows(gt[i])
            gt_frames[f].append({"pose": rows})
            if f < self.SELF_FRAMES:
                self_frames[f].append({"score": float(scores[i]), "pose": rows})
            if kept[i]:
                pred_frames[f].append({"score": float(scores[i]), "pose": pose_rows(pred[i])})
        for j in range(n_fp):
            pred_frames[fp_frame[j]].append({"score": float(fp_scores[j]),
                                             "pose": pose_rows(fp[j])})

        ref.write_json(self.work / "gt.json", dataset_doc(gt_frames))
        ref.write_json(self.work / "pred.json", dataset_doc(pred_frames))
        ref.write_json(self.work / "gt_self.json", dataset_doc(gt_frames[: self.SELF_FRAMES]))
        ref.write_json(self.work / "pred_self.json", dataset_doc(self_frames))
        self.steps = [["eval", "--gt", self.path("gt.json"), "--pred", self.path("pred.json"),
                       "--report", self.path("report.json"), "--table", self.path("frames.csv")]]
        self.sizes = {"frames": self.FRAMES, "gt_persons": n,
                      "pred_persons": int(kept.sum()) + n_fp, "false_positives": n_fp,
                      "dropped_ground_truths": int(n - kept.sum())}

    def self_checks(self):
        argv = ["eval", "--gt", self.path("gt_self.json"), "--pred", self.path("pred_self.json"),
                "--report", self.path("report_self.json")]

        def check(stdout: str) -> list[str]:
            # Identical sets: every box pairs with itself at IoU 1 and every
            # prediction with its own pose at OKS 1.
            report = ref.read_json(self.work / "report_self.json")
            if (report["ospa_iou"], report["ap_05"]) != (0.0, 1.0):
                return [f"self-eval: ospa_iou {report['ospa_iou']!r}, "
                        f"ap_05 {report['ap_05']!r}; want exactly 0.0 and 1.0"]
            return check_eval(argv, stdout)

        return [(argv, check)]

    def after_step(self, argv, stdout: str) -> list[str]:
        return check_eval(argv, stdout)


class Pipeline(Workload):
    name = "pipeline"
    FRAMES = 216
    SLOTS = 6  # persons sit in disjoint horizontal slots, so boxes of two persons never overlap
    SEAM_SLOT = 2
    SHIFT = 1200.0  # moves the seam to x = 848, inside SEAM_SLOT
    MARGIN = 0.1
    CANDIDATES = 5
    # Candidate edges move by at most this share of the box side. Any such
    # copy keeps IoU >= 0.548 with its true box, so NMS at 0.5 always
    # suppresses it, while copies spread over IoU 0.55-1 exercise the threshold.
    JITTER = 0.13
    NMS_IOU = 0.5
    STRIDE = 4.0
    GRID = (96, 72)  # 384 x 288 crop at stride 4
    PEAK_SIGMA = 2.0  # heatmap Gaussian, in cells

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        rng = self.rng
        counts = rng.permutation(np.arange(self.FRAMES) % self.SLOTS + 1)
        # Frames holding n persons place one of them across the seam in n of
        # every SLOTS frames, so the number shift drops is the same for all seeds.
        at_seam = np.zeros(self.FRAMES, dtype=bool)
        for n in range(1, self.SLOTS + 1):
            idx = np.flatnonzero(counts == n)
            at_seam[rng.choice(idx, n * len(idx) // self.SLOTS, replace=False)] = True
        slot_w = PANO_W / self.SLOTS
        half_box = SPREAD * (1 + 2 * self.MARGIN)
        seam_x = PANO_W - self.SHIFT
        others = [s for s in range(self.SLOTS) if s != self.SEAM_SLOT]
        frames = []
        for f in range(self.FRAMES):
            slots = list(rng.choice(others, counts[f] - at_seam[f], replace=False))
            if at_seam[f]:
                slots.insert(int(rng.integers(0, len(slots) + 1)), self.SEAM_SLOT)
            cx = np.array([
                seam_x + rng.uniform(-40.0, 40.0) if s == self.SEAM_SLOT
                else (s + 0.5) * slot_w + rng.uniform(-1.0, 1.0) * (0.5 * slot_w - half_box - 8.0)
                for s in slots
            ])
            cy = rng.uniform(0.3 * PANO_H, 0.7 * PANO_H, len(slots))
            frames.append([{"pose": pose_rows(p)} for p in random_poses(rng, cx, cy)])
        ref.write_json(self.work / "gt.json", dataset_doc(frames))

        p = self.path
        self.steps = [
            ["boxes-from-poses", "--in", p("gt.json"), "--out", p("gt_boxes.json"),
             "--margin", repr(self.MARGIN)],
            ["shift", "--in", p("gt_boxes.json"), "--out", p("shifted.json"),
             "--shift", repr(self.SHIFT)],
            ["nms", "--pred", p("candidates.json"), "--out", p("kept.json"),
             "--nms-iou", repr(self.NMS_IOU)],
            ["decode", "--heatmaps", p("heatmaps.bin"), "--dets", p("kept.json"),
             "--out", p("pred.json"), "--stride", repr(self.STRIDE)],
            ["eval", "--gt", p("shifted.json"), "--pred", p("pred.json"),
             "--report", p("report.json"), "--table", p("frames.csv")],
        ]
        n = int(counts.sum())
        kept = n - int(at_seam.sum())
        self.sizes = {"frames": self.FRAMES, "gt_persons": n, "seam_persons": int(at_seam.sum()),
                      "candidate_boxes": kept * self.CANDIDATES, "detections": kept,
                      "heatmap_bytes_payload": kept * K * self.GRID[0] * self.GRID[1] * 4}
        self._source_pose: dict[tuple, list] = {}
        self._planted: dict[str, tuple] = {}

    def after_step(self, argv, stdout: str) -> list[str]:
        check = {
            "boxes-from-poses": self._check_boxes,
            "shift": self._check_shift_then_detect,
            "nms": self._check_nms_then_heatmaps,
            "decode": self._check_decode,
            "eval": lambda: check_eval(argv, stdout),
        }[argv[0]]
        return last_echo(stdout, argv[0]) + check()

    def _check_boxes(self) -> list[str]:
        src = persons_by_frame(ref.read_json(self.work / "gt.json"))
        out = persons_by_frame(ref.read_json(self.work / "gt_boxes.json"))
        if list(out) != sorted(src):
            return ["boxes-from-poses: frames changed"]
        for fid, persons in out.items():
            if [q["pose"] for q in persons] != [q["pose"] for q in src[fid]]:
                return [f"boxes-from-poses: poses changed in frame {fid}"]
            for q in persons:
                want = ref.box_from_pose(q["pose"], self.MARGIN, PANO_W, PANO_H)
                if "box" not in q or not np.allclose(q["box"], want, rtol=0.0, atol=1e-9):
                    return [f"boxes-from-poses: frame {fid} box {q.get('box')} want {want}"]
        return []

    def _check_shift_then_detect(self) -> list[str]:
        src = persons_by_frame(ref.read_json(self.work / "gt_boxes.json"))
        out = persons_by_frame(ref.read_json(self.work / "shifted.json"))
        for fid, persons in src.items():
            want = []
            for q in persons:
                x1, y1, x2, y2 = q["box"]
                nx1 = (x1 + self.SHIFT) % PANO_W
                if nx1 + (x2 - x1) > PANO_W:
                    continue  # would span the seam: dropped
                want.append(([nx1, y1, nx1 + (x2 - x1), y2],
                             [[(x + self.SHIFT) % PANO_W, y, v] for x, y, v in q["pose"]]))
            got = out.get(fid, [])
            if len(got) != len(want):
                return [f"shift: frame {fid} keeps {len(got)} persons, want {len(want)}"]
            for q, (box, pose) in zip(got, want):
                if not (np.allclose(q["box"], box, rtol=0.0, atol=1e-6)
                        and np.allclose(q["pose"], pose, rtol=0.0, atol=1e-6)):
                    return [f"shift: frame {fid} person moved to {q['box']}, want {box}"]
        dropped = sum(map(len, src.values())) - sum(map(len, out.values()))
        if dropped != self.sizes["seam_persons"]:
            return [f"shift: dropped {dropped} persons, {self.sizes['seam_persons']} cross the seam"]
        self._write_candidates(out)
        return []

    def _write_candidates(self, shifted: dict[str, list]) -> None:
        """Detector stand-in: the true box plus jittered, lower-scored copies
        per person, in a seeded order."""
        rng = self.rng
        frames = []
        for fid in sorted(shifted):
            cands = []
            for q in shifted[fid]:
                box = np.array(q["box"])
                side = np.array([box[2] - box[0], box[3] - box[1]] * 2)
                top = float(rng.uniform(0.8, 1.0))
                boxes = [box] + [box + rng.uniform(-self.JITTER, self.JITTER, 4) * side
                                 for _ in range(self.CANDIDATES - 1)]
                scores = [top] + list(top * rng.uniform(0.3, 0.95, self.CANDIDATES - 1))
                for b, s in zip(boxes, scores):
                    b = [float(v) for v in b]
                    self._source_pose[(fid, *b)] = q["pose"]
                    cands.append({"box": b, "score": float(s)})
            frames.append({"frame_id": fid,
                           "persons": [cands[i] for i in rng.permutation(len(cands))]})
        ref.write_json(self.work / "candidates.json", {**dataset_doc([]), "frames": frames})

    def _check_nms_then_heatmaps(self) -> list[str]:
        cands = persons_by_frame(ref.read_json(self.work / "candidates.json"))
        kept = persons_by_frame(ref.read_json(self.work / "kept.json"))
        if set(kept) != set(cands):
            return ["nms: frames changed"]
        for fid, boxes in kept.items():
            pairs = [(q["box"], q["score"]) for q in boxes]
            if any({"box": b, "score": s} not in cands[fid] for b, s in pairs):
                return [f"nms: frame {fid} keeps a box that is not a candidate"]
            for i, (a, _) in enumerate(pairs):
                for b, _ in pairs[i + 1:]:
                    if ref.iou(a, b) >= self.NMS_IOU:
                        return [f"nms: frame {fid} keeps two boxes at IoU {ref.iou(a, b)}"]
            for c in cands[fid]:
                if (c["box"], c["score"]) in pairs:
                    continue
                if not any(ref.iou(c["box"], b) >= self.NMS_IOU and s >= c["score"]
                           for b, s in pairs):
                    return [f"nms: frame {fid} suppresses {c['box']} with no overlapping "
                            f"higher-scored box kept"]
        self._write_heatmaps(kept)
        return []

    def _write_heatmaps(self, kept: dict[str, list]) -> None:
        """Pose-network stand-in: per kept detection, K Gaussian peaks at the
        person's true keypoints in crop-grid coordinates."""
        rows_i = np.arange(self.GRID[0])
        cols_j = np.arange(self.GRID[1])
        planted = {}
        for fid, persons in kept.items():
            for i, q in enumerate(persons):
                pose = np.array(self._source_pose[(fid, *q["box"])], dtype=np.float64)
                sx, sy, ox, oy = ref.crop_params(q["box"])
                u = (pose[:, 0] - ox) * sx / self.STRIDE - 0.5  # grid column of the peak
                v = (pose[:, 1] - oy) * sy / self.STRIDE - 0.5
                planted[f"{fid}/{i}"] = (pose, sx, sy, u, v)
        self._planted = planted
        two_s2 = 2.0 * self.PEAK_SIGMA ** 2

        def heatmap(name: str) -> np.ndarray:
            _, _, _, u, v = planted[name]
            gx = np.exp(-((cols_j[None, :] - u[:, None]) ** 2) / two_s2)
            gy = np.exp(-((rows_i[None, :] - v[:, None]) ** 2) / two_s2)
            return gy[:, :, None] * gx[:, None, :]

        size = ref.write_container(self.work / "heatmaps.bin",
                                   [(name, (K, *self.GRID)) for name in sorted(planted)], heatmap)
        self.sizes["heatmap_container_bytes"] = size

    def _check_decode(self) -> list[str]:
        kept = persons_by_frame(ref.read_json(self.work / "kept.json"))
        pred = persons_by_frame(ref.read_json(self.work / "pred.json"))
        if set(pred) != set(kept):
            return ["decode: frames changed"]
        for fid, persons in pred.items():
            if [(q["box"], q["score"]) for q in persons] != \
                    [(q["box"], q["score"]) for q in kept[fid]]:
                return [f"decode: frame {fid} detections changed"]
            for i, q in enumerate(persons):
                truth, sx, sy, _, _ = self._planted[f"{fid}/{i}"]
                got = np.array(q["pose"], dtype=np.float64)
                # One heatmap cell, scaled back to panorama pixels.
                tol = np.array([self.STRIDE / sx, self.STRIDE / sy]) * (1 + 1e-9)
                if got.shape != (K, 3) or np.any(np.abs(got[:, :2] - truth[:, :2]) > tol):
                    return [f"decode: frame {fid} person {i} lands more than one cell "
                            f"from the planted peaks"]
        return []


class Checkpoint(Workload):
    name = "checkpoint"
    HEAD = "final_layer.weight"
    BIAS = "final_layer.bias"
    BLOCKS = 199
    CHANNELS = (32, 64, 160, 256)
    # Mapping-file variant: the head keypoint also averages in the nose.
    FILE_COUNTERPARTS = (("nose", "left eye", "right eye"),) + ref.DEFAULT_COUNTERPARTS[1:]

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        shapes = []
        for b in range(self.BLOCKS):
            c_out = self.CHANNELS[b % 4]
            c_in = self.CHANNELS[(b // 4) % 4]
            stem = f"backbone.block{b:03d}"
            shapes.append((f"{stem}.conv.weight", (c_out, c_in, 3, 3)))
            shapes += [(f"{stem}.bn.{p}", (c_out,))
                       for p in ("bias", "running_mean", "running_var", "weight")]
        shapes += [(self.BIAS, (K,)), (self.HEAD, (K, 32, 1, 1))]
        shapes.sort()
        total = sum(math.prod(s) for _, s in shapes)
        flat = self.rng.standard_normal(total, dtype=np.float32)
        flat *= 0.05
        tensors, at = {}, 0
        for name, shape in shapes:
            n = math.prod(shape)
            tensors[name] = flat[at: at + n].reshape(shape)
            at += n
        size = ref.write_container(self.work / "backbone.bin", shapes, tensors.__getitem__)
        del flat, tensors

        target = ref.JRDB17
        ref.write_json(self.work / "mapping.json", {
            "source_schema": "coco17", "target_schema": "jrdb17",
            "entries": {target[t]: list(src) for t, src in enumerate(self.FILE_COUNTERPARTS)},
        })
        verbatim = list(ref.DEFAULT_COUNTERPARTS)
        verbatim[ref.VERBATIM_ROW] = ("left wrist",)
        common = ["--src", self.path("backbone.bin"), "--weight-name", self.HEAD,
                  "--bias-name", self.BIAS]
        self.steps = [
            ["remap-weights", *common, "--out", self.path("out_default.bin")],
            ["remap-weights", *common, "--out", self.path("out_verbatim.bin"),
             "--verbatim-table1"],
            ["remap-weights", *common, "--out", self.path("out_file.bin"),
             "--mapping", self.path("mapping.json")],
        ]
        self._entries = {
            "out_default.bin": ref.mapping_indices(ref.DEFAULT_COUNTERPARTS),
            "out_verbatim.bin": ref.mapping_indices(verbatim),
            "out_file.bin": ref.mapping_indices(self.FILE_COUNTERPARTS),
        }
        self.sizes = {"tensors": len(shapes), "parameters": total, "container_bytes": size}

    def after_step(self, argv, stdout: str) -> list[str]:
        out_path = flag(argv, "--out")
        problems = last_echo(stdout, "remap-weights")
        src = ref.read_container(self.work / "backbone.bin")
        out = ref.read_container(out_path)
        if sorted(out) != sorted(src):
            return problems + [f"remap-weights: {out_path.name} tensor names differ from the source"]
        for name, arr in src.items():
            if name in (self.HEAD, self.BIAS):
                continue
            if out[name].shape != arr.shape or not np.array_equal(out[name], arr):
                return problems + [f"remap-weights: {out_path.name} changed tensor {name}"]
        for name in (self.HEAD, self.BIAS):
            for t, entry in enumerate(self._entries[out_path.name]):
                want = src[name][list(entry)].astype(np.float64).mean(axis=0).astype(np.float32)
                got = out[name][t]
                # A single counterpart is a copy; an average may differ in the
                # last bits with the accumulation order.
                same = (np.array_equal(got, want) if len(entry) == 1
                        else np.allclose(got, want, rtol=1e-6, atol=1e-9))
                if got.shape != want.shape or not same:
                    return problems + [f"remap-weights: {out_path.name} {name}[{t}] is not "
                                       f"the mean of source channels {entry}"]
        return problems


WORKLOADS = {w.name: w for w in (Score, Pipeline, Checkpoint)}


def file_counts(steps) -> dict[str, float]:
    """Per-layer counts read from one pass's input and output files."""
    c: dict[str, float] = defaultdict(float)
    for argv in steps:
        for path in datasets_in(argv):
            c["dataio.persons"] += count_persons(ref.read_json(path))
            c["dataio.bytes_in"] += path.stat().st_size
        for path in containers_in(argv):
            c["weights.tensors"] += ref.container_tensor_count(path)
            c["weights.bytes_in"] += path.stat().st_size
        cmd = argv[0]
        if cmd == "remap-weights":
            c["weights.bytes_out"] += flag(argv, "--out").stat().st_size
        elif cmd == "eval":
            gts = persons_by_frame(ref.read_json(flag(argv, "--gt")))
            preds = persons_by_frame(ref.read_json(flag(argv, "--pred")))
            c["metrics.candidate_pairs"] += sum(len(g) * len(preds.get(f, ()))
                                                for f, g in gts.items())
            per_frame = ref.read_json(flag(argv, "--report"))["per_frame"].values()
            c["_matched"] += sum(s["num_matched"] for s in per_frame)
            c["_predictions"] += sum(s["num_predictions"] for s in per_frame)
        elif cmd == "nms":
            c["geometry.nms_boxes_in"] += count_persons(ref.read_json(flag(argv, "--pred")))
            c["_nms_kept"] += count_persons(ref.read_json(flag(argv, "--out")))
        elif cmd == "shift":
            c["geometry.shift_dropped"] += (count_persons(ref.read_json(flag(argv, "--in")))
                                            - count_persons(ref.read_json(flag(argv, "--out"))))
        elif cmd == "decode":
            doc = ref.read_json(flag(argv, "--out"))
            w, h = doc["pano"]["width"], doc["pano"]["height"]
            c["decode.kps_outside_pano"] += sum(
                not (0.0 <= x < w and 0.0 <= y < h)
                for f in doc["frames"] for q in f["persons"] for x, y, _ in q["pose"])
            c["decode.bytes_computed"] += sum(
                math.prod(a.shape) * 4 for a in ref.read_container(flag(argv, "--heatmaps")).values())
    c["metrics.matched_ratio"] = c.pop("_matched", 0.0) / max(c.pop("_predictions", 0.0), 1.0)
    c["geometry.nms_kept_ratio"] = c.pop("_nms_kept", 0.0) / max(c["geometry.nms_boxes_in"], 1.0)
    return dict(c)
