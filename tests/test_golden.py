"""Byte identity of every command's output.

Each command runs in process on small fixed inputs, and the SHA-256 of each
output file and of its stdout must equal ``golden_digests.json``. The inputs
hold a pose that straddles the seam (boxes-from-poses clamps its box), a
pose that ``shift --shift`` carries across the seam (it is dropped), a
ground truth with a box and no pose, and a detection at the panorama's right
edge. On a mismatch the whole new table is printed; commit it only when a
change is meant to move an output.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
from synth import dataset, mapping_doc, person, random_pose

from panopose.cli import run
from panopose.dataio import load_predictions, save_dataset
from panopose.geometry import PanoramaSpec
from panopose.schema import JRDB17, default_mapping
from panopose.weights import save_tensor_map

TABLE = Path(__file__).resolve().with_name("golden_digests.json")
PANO = PanoramaSpec(2048.0, 512.0)

# Command name, argv, and the files it writes, in the order they run.
STEPS = [
    ("boxes-from-poses", ["boxes-from-poses", "--in", "gt.json", "--out", "gt_boxes.json"],
     ["gt_boxes.json"]),
    ("shift", ["shift", "--in", "gt_boxes.json", "--out", "shifted.json", "--shift", "512"],
     ["shifted.json"]),
    ("shift-seeded", ["shift", "--in", "gt_boxes.json", "--out", "seeded.json", "--seed", "7"],
     ["seeded.json"]),
    ("nms", ["nms", "--pred", "candidates.json", "--out", "kept.json"], ["kept.json"]),
    ("decode", ["decode", "--heatmaps", "heat.bin", "--dets", "kept.json", "--out", "pred.json"],
     ["pred.json"]),
    ("eval", ["eval", "--gt", "gt_boxes.json", "--pred", "poses.json",
              "--report", "report.json", "--table", "frames.csv"], ["report.json", "frames.csv"]),
    ("remap-default", ["remap-weights", "--src", "head.bin", "--out", "out_default.bin",
                       "--weight-name", "final.weight", "--bias-name", "final.bias"],
     ["out_default.bin"]),
    ("remap-file", ["remap-weights", "--src", "head.bin", "--out", "out_file.bin",
                    "--mapping", "mapping.json", "--weight-name", "final.weight"],
     ["out_file.bin"]),
    ("remap-verbatim", ["remap-weights", "--src", "head.bin", "--out", "out_verbatim.bin",
                        "--verbatim-table1", "--weight-name", "final.weight",
                        "--bias-name", "final.bias"], ["out_verbatim.bin"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_inputs(rng: np.random.Generator) -> None:
    """gt.json, candidates.json, poses.json (the ground-truth poses jittered,
    with scores), head.bin and mapping.json in the working directory."""
    frames, candidates, predictions = [], [], []
    for f in range(3):
        poses = [random_pose(rng, rng.uniform(100.0, 1800.0), rng.uniform(150.0, 350.0), 60.0)
                 for _ in range(int(rng.integers(1, 3)))]
        frames.append((f"f{f}", [person(pose=pose) for pose in poses]))
        boxes = [(*pose[:, :2].min(axis=0), *pose[:, :2].max(axis=0)) for pose in poses]
        # Two jittered candidates per person, so nms has boxes to suppress.
        candidates.append((f"f{f}", [person(box=np.add(box, rng.normal(0.0, 4.0, 4)),
                                            score=rng.uniform(0.3, 1.0))
                                     for box in boxes for _ in range(2)]))
        predictions.append((f"f{f}", [
            person(pose=np.column_stack([pose[:, :2] + rng.normal(0.0, 3.0, (17, 2)), pose[:, 2]]),
                   score=rng.uniform(0.3, 1.0)) for pose in poses]))
    frames[0][1].append(person(pose=random_pose(rng, 2030.0, 250.0, 60.0)))
    frames[1][1].append(person(pose=random_pose(rng, 1500.0, 250.0, 60.0)))
    frames[2][1].append(person(box=(300.0, 100.0, 420.0, 400.0)))
    candidates[0][1].append(person(box=(1960.0, 150.0, 2048.0, 400.0), score=0.95))
    save_dataset(dataset("jrdb17", PANO, frames), "gt.json")
    save_dataset(dataset("jrdb17", PANO, candidates), "candidates.json")
    save_dataset(dataset("jrdb17", PANO, predictions), "poses.json")

    save_tensor_map({"final.weight": rng.normal(size=(17, 8, 1, 1)).astype(np.float32),
                     "final.bias": rng.normal(size=17).astype(np.float32),
                     "backbone.conv": rng.normal(size=(8, 3, 3, 3))}, "head.bin")
    Path("mapping.json").write_text(json.dumps(mapping_doc(default_mapping())), encoding="utf-8")


def _write_heatmaps(rng: np.random.Generator) -> None:
    """heat.bin: one 17 x 96 x 72 grid per detection of kept.json."""
    kept = load_predictions("kept.json", JRDB17)
    counts = np.diff(kept.offsets)
    save_tensor_map({f"{fid}/{i}": rng.uniform(0.0, 1.0, (17, 96, 72)).astype(np.float32)
                     for fid, n in zip(kept.frame_ids, counts) for i in range(n)}, "heat.bin")


def _digests(capsys) -> dict:
    rng = np.random.default_rng(28)
    _write_inputs(rng)
    table = {}
    for name, argv, outputs in STEPS:
        if name == "decode":
            _write_heatmaps(rng)
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0, (name, code)
        table[name] = {"argv": argv, "stdout": _sha256(out.encode()),
                       **{path: _sha256(Path(path).read_bytes()) for path in outputs}}
    return table


def test_every_output_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    table = _digests(capsys)
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    assert table == expected, "new table:\n" + json.dumps(table, indent=2)
