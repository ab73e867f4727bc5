import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from panopose.cli import run
from panopose.dataio import (
    Dataset,
    FrameAnnotations,
    Person,
    Pose,
    load_predictions,
    save_dataset,
)
from panopose.geometry import BoundingBox, PanoramaSpec
from panopose.schema import JRDB17, default_mapping, save_mapping
from panopose.weights import TensorMap, TensorRecord, load_tensor_map, save_tensor_map

PANO = PanoramaSpec(2000.0, 600.0)
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _pose17(x0=100.0, y0=200.0):
    return Pose([(x0 + 6 * i, y0 + 5 * i, 2) for i in range(17)])


def _gt_dataset():
    return Dataset(
        "jrdb17",
        PANO,
        (
            FrameAnnotations(
                "f1",
                (
                    Person(id="a", pose=_pose17(), score=0.8),
                    Person(id="b", pose=_pose17(x0=700.0), score=0.6),
                ),
            ),
        ),
    )


class TestEval:
    def test_self_evaluation(self, tmp_path, capsys):
        gt = tmp_path / "g.json"
        save_dataset(_gt_dataset(), gt)
        code = run(["eval", "--gt", str(gt), "--pred", str(gt)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "ospa_iou 0.000"
        assert out[1] == "ap_05 1.000"
        echo = json.loads(out[2])
        assert echo["command"] == "eval"
        assert echo["config"]["oks_threshold"] == 0.5

    def test_report_and_table_files(self, tmp_path, capsys):
        gt = tmp_path / "g.json"
        save_dataset(_gt_dataset(), gt)
        report = tmp_path / "report.json"
        table = tmp_path / "frames.csv"
        code = run(
            ["eval", "--gt", str(gt), "--pred", str(gt),
             "--report", str(report), "--table", str(table)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["ospa_iou"] == 0.0
        assert doc["ap_05"] == 1.0
        assert doc["per_frame"]["f1"]["num_matched"] == 2
        lines = table.read_text().strip().splitlines()
        assert lines[0].startswith("frame_id,ospa_iou")
        assert len(lines) == 2

    def test_each_input_file_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        gt = tmp_path / "g.json"
        save_dataset(_gt_dataset(), gt)
        parsed = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        assert run(["eval", "--gt", str(gt), "--pred", str(gt)]) == 0
        assert len(parsed) == 2

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        gt = tmp_path / "g.json"
        pred = tmp_path / "p.json"
        save_dataset(_gt_dataset(), gt)
        other = Dataset(
            "jrdb17", PANO,
            (FrameAnnotations("zz", (Person(pose=_pose17(), score=0.5),)),),
        )
        save_dataset(other, pred)
        code = run(["eval", "--gt", str(gt), "--pred", str(pred)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_integer_beyond_float_range_exit_code(self, tmp_path, capsys):
        gt = tmp_path / "g.json"
        save_dataset(_gt_dataset(), gt)
        doc = json.loads(gt.read_text())
        doc["frames"][0]["persons"][0]["box"] = [1, 2, 3, 10**400]
        pred = tmp_path / "p.json"
        pred.write_text(json.dumps(doc))
        code = run(["eval", "--gt", str(gt), "--pred", str(pred)])
        err = capsys.readouterr().err
        assert code == 1
        assert "integer too large" in err
        assert "Traceback" not in err

    def test_deeply_nested_json_exit_code(self, tmp_path, capsys):
        gt = tmp_path / "g.json"
        save_dataset(_gt_dataset(), gt)
        deep = tmp_path / "deep.json"
        deep.write_text(
            '{"schema":"jrdb17","pano":{"width":10,"height":10},"frames":'
            + "[" * 100_000 + "]" * 100_000 + "}"
        )
        code = run(["eval", "--gt", str(gt), "--pred", str(deep)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestShift:
    def test_shift_zero_is_canonical_identity(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        dst = tmp_path / "s.json"
        save_dataset(_gt_dataset(), src)
        assert run(["shift", "--in", str(src), "--out", str(dst), "--shift", "0"]) == 0
        assert src.read_bytes() == dst.read_bytes()

    def test_random_requires_seed(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        save_dataset(_gt_dataset(), src)
        code = run(["shift", "--in", str(src), "--out", str(tmp_path / "o.json"), "--random"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_random_shift_is_seeded_and_echoed(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        save_dataset(_gt_dataset(), src)
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert run(["shift", "--in", str(src), "--out", str(out1), "--random", "--seed", "7"]) == 0
        echo1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert run(["shift", "--in", str(src), "--out", str(out2), "--random", "--seed", "7"]) == 0
        echo2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert echo1["seed"] == 7
        assert 0.0 <= echo1["shift"] < PANO.width
        assert echo1["shift"] == echo2["shift"]
        assert out1.read_bytes() == out2.read_bytes()


class TestNms:
    def test_single_box_passthrough(self, tmp_path):
        ds = Dataset(
            "jrdb17", PANO,
            (FrameAnnotations("f1", (Person(box=BoundingBox(0, 0, 10, 10), score=0.9),)),),
        )
        src, dst = tmp_path / "d.json", tmp_path / "o.json"
        save_dataset(ds, src)
        assert run(["nms", "--pred", str(src), "--out", str(dst), "--nms-iou", "0.5"]) == 0
        assert src.read_bytes() == dst.read_bytes()

    def test_overlapping_boxes_filtered(self, tmp_path):
        ds = Dataset(
            "jrdb17", PANO,
            (
                FrameAnnotations(
                    "f1",
                    (
                        Person(id="lo", box=BoundingBox(0, 0, 10, 10), score=0.5),
                        Person(id="hi", box=BoundingBox(0, 0, 10, 10), score=0.9),
                        Person(id="far", box=BoundingBox(500, 0, 520, 30), score=0.4),
                    ),
                ),
            ),
        )
        src, dst = tmp_path / "d.json", tmp_path / "o.json"
        save_dataset(ds, src)
        assert run(["nms", "--pred", str(src), "--out", str(dst)]) == 0
        out = load_predictions(dst, JRDB17)
        assert [p.id for p in out.frames[0].persons] == ["hi", "far"]


class TestBoxesFromPoses:
    def test_boxes_added_with_margin(self, tmp_path):
        ds = Dataset(
            "jrdb17", PANO, (FrameAnnotations("f1", (Person(pose=_pose17()),)),)
        )
        src, dst = tmp_path / "g.json", tmp_path / "b.json"
        save_dataset(ds, src)
        assert run(
            ["boxes-from-poses", "--in", str(src), "--out", str(dst), "--margin", "0"]
        ) == 0
        out = json.loads(dst.read_text())
        box = out["frames"][0]["persons"][0]["box"]
        assert box == [100, 200, 196, 280]


class TestRemapWeights:
    def _container(self, tmp_path):
        weight = np.zeros((17, 2, 1, 1), dtype=np.float32)
        for s in range(17):
            weight[s] = float(s)
        tm = TensorMap(
            [
                TensorRecord.from_array("head.weight", weight),
                TensorRecord.from_array("head.bias", np.arange(17, dtype=np.float32)),
                TensorRecord.from_array("stem", np.ones((4, 4), dtype=np.float32)),
            ]
        )
        path = tmp_path / "in.bin"
        save_tensor_map(tm, path)
        return path

    def test_default_mapping(self, tmp_path, capsys):
        src = self._container(tmp_path)
        dst = tmp_path / "out.bin"
        code = run(
            ["remap-weights", "--src", str(src), "--out", str(dst),
             "--weight-name", "head.weight", "--bias-name", "head.bias"]
        )
        assert code == 0
        out = load_tensor_map(dst)
        assert float(out["head.weight"].data[4, 0, 0, 0]) == 5.5  # neck
        assert float(out["head.bias"].data[8]) == 11.5            # center hip
        assert float(out["stem"].data[0, 0]) == 1.0

    def test_mapping_file(self, tmp_path):
        src = self._container(tmp_path)
        dst = tmp_path / "out.bin"
        mapping_file = tmp_path / "mapping.json"
        save_mapping(default_mapping(verbatim_table1=True), mapping_file)
        code = run(
            ["remap-weights", "--src", str(src), "--out", str(dst),
             "--mapping", str(mapping_file), "--weight-name", "head.weight"]
        )
        assert code == 0
        out = load_tensor_map(dst)
        # verbatim counterpart table: both hands from the left wrist (index 9)
        assert float(out["head.weight"].data[9, 0, 0, 0]) == 9.0
        assert float(out["head.weight"].data[12, 0, 0, 0]) == 9.0

    def test_verbatim_flag(self, tmp_path):
        src = self._container(tmp_path)
        dst = tmp_path / "out.bin"
        code = run(
            ["remap-weights", "--src", str(src), "--out", str(dst),
             "--verbatim-table1", "--weight-name", "head.weight"]
        )
        assert code == 0
        out = load_tensor_map(dst)
        assert float(out["head.weight"].data[9, 0, 0, 0]) == 9.0

    def test_missing_tensor_is_validation_error(self, tmp_path, capsys):
        src = self._container(tmp_path)
        code = run(
            ["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
             "--weight-name", "nope"]
        )
        assert code == 1
        assert "missing tensor" in capsys.readouterr().err


class TestDecodeCommand:
    def test_end_to_end(self, tmp_path):
        box = BoundingBox(100.0, 50.0, 388.0, 434.0)
        dets = Dataset(
            "jrdb17", PANO,
            (FrameAnnotations("f1", (Person(id="d0", box=box, score=0.9),)),),
        )
        dets_path = tmp_path / "dets.json"
        save_dataset(dets, dets_path)

        grids = np.zeros((17, 96, 72), dtype=np.float32)
        for k in range(17):
            grids[k, 10 + k, 20 + k] = 1.0
        heat_path = tmp_path / "heat.bin"
        save_tensor_map(TensorMap([TensorRecord.from_array("f1/0", grids)]), heat_path)

        out_path = tmp_path / "pred.json"
        code = run(
            ["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path),
             "--out", str(out_path), "--stride", "4", "--padding", "1.0"]
        )
        assert code == 0
        preds = load_predictions(out_path, JRDB17)
        person = preds.frames[0].persons[0]
        assert person.score == 0.9
        assert len(person.pose.keypoints) == 17
        # identity-scale crop: cell (10, 20) -> crop (82, 42) -> pano (182, 92)
        assert person.pose.keypoints[0, 0] == pytest.approx(182.0, abs=1e-9)
        assert person.pose.keypoints[0, 1] == pytest.approx(92.0, abs=1e-9)

    def test_missing_heatmap_tensor(self, tmp_path, capsys):
        dets = Dataset(
            "jrdb17", PANO,
            (FrameAnnotations("f1", (Person(box=BoundingBox(0, 0, 10, 10), score=0.9),)),),
        )
        dets_path = tmp_path / "dets.json"
        save_dataset(dets, dets_path)
        heat_path = tmp_path / "heat.bin"
        save_tensor_map(TensorMap(), heat_path)
        code = run(
            ["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path),
             "--out", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert "missing heatmap tensor" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["eval", "--gt", "g.json"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "panopose", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "panopose" in proc.stdout

    def test_scipy_is_imported_only_to_solve_an_assignment(self, tmp_path):
        ds = Dataset(
            "jrdb17", PANO,
            (FrameAnnotations("f1", (Person(box=BoundingBox(0, 0, 10, 10), score=0.9),)),),
        )
        data, result = tmp_path / "d.json", tmp_path / "scipy.json"
        save_dataset(ds, data)
        probe = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "import panopose\n"
            "from panopose.cli import run\n"
            "data, out, result = sys.argv[1:]\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert run(['--version']) == 0\n"
            "assert run(['nms', '--pred', data, '--out', out]) == 0\n"
            "before_eval = loaded()\n"
            "assert run(['eval', '--gt', data, '--pred', data]) == 0\n"
            "Path(result).write_text(json.dumps([before_eval, loaded()]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(data), str(tmp_path / "o.json"), str(result)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        before_eval, after_eval = json.loads(result.read_text())
        assert before_eval == []
        assert "scipy.optimize" in after_eval
