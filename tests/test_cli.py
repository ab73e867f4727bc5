import errno
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from synth import dataset, make_ground_truth, mapping_doc, perturb_predictions, person

from panopose import cli, metrics
from panopose.cli import run
from panopose.dataio import (
    _load,
    dataset_from_json,
    dataset_to_canonical_json,
    load_ground_truth,
    load_predictions,
    save_dataset,
)
from panopose.errors import ValidationError
from panopose.geometry import PanoramaSpec
from panopose.schema import JRDB17, SchemaMapping, default_mapping, load_mapping
from panopose.weights import load_tensor_map, remap_head_weights, save_tensor_map

PANO = PanoramaSpec(2000.0, 600.0)
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _pose17(x0=100.0, y0=200.0):
    return [(x0 + 6 * i, y0 + 5 * i, 2) for i in range(17)]


def _gt_dataset():
    return dataset("jrdb17", PANO, [("f1", [person(id="a", pose=_pose17(), score=0.8),
                                            person(id="b", pose=_pose17(x0=700.0), score=0.6)])])


def _peak_mb(cwd, *argv):
    """The peak RSS in MB of a child that runs ``panopose argv`` in ``cwd``:
    its VmHWM, which resets at exec, so it is the child's own."""
    probe = (
        "import re, sys\n"
        "from panopose.cli import run\n"
        "assert run(sys.argv[1:]) == 0\n"
        "status = open('/proc/self/status').read()\n"
        "print(int(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1]) / 1024


def _one_box(box=(0, 0, 10, 10)):
    """A one-frame dataset of one detection: ``box`` with score 0.9."""
    return dataset("jrdb17", PANO, [("f1", [person(box=box, score=0.9)])])


def _write_raw_container(path, tensors: dict) -> None:
    """A container of ``tensors`` written without the writer's name check."""
    header, payload = {}, b""
    for name, values in tensors.items():
        header[name] = {"dtype": "f32", "shape": list(values.shape),
                        "begin": len(payload), "end": len(payload) + values.nbytes}
        payload += values.astype("<f4").tobytes()
    blob = json.dumps(header).encode()
    path.write_bytes(len(blob).to_bytes(8, "little") + blob + payload)


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
        # --gt is parsed in a forked child, so each parse appends to a file.
        gt = tmp_path / "g.json"
        save_dataset(_gt_dataset(), gt)
        parsed = tmp_path / "parsed.log"
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            with open(parsed, "a") as log:
                log.write(f"{len(text)}\n")
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        assert run(["eval", "--gt", str(gt), "--pred", str(gt)]) == 0
        assert len(parsed.read_text().splitlines()) == 2

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        gt = tmp_path / "g.json"
        pred = tmp_path / "p.json"
        save_dataset(_gt_dataset(), gt)
        other = dataset("jrdb17", PANO, [("zz", [person(pose=_pose17(), score=0.5)])])
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

    def test_report_and_table_bytes_are_pinned(self, tmp_path, capsys):
        gt, pred = _edge_case_eval_files(tmp_path)
        report, table = tmp_path / "report.json", tmp_path / "frames.csv"
        argv = ["eval", "--gt", str(gt), "--pred", str(pred),
                "--report", str(report), "--table", str(table)]
        assert run(argv) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (report, table)}
        assert digests == {
            "report.json": "ba8201b1516083f0250264fff8c103b0677ac8fc6e4cb2a60dec1f05194a08fb",
            "frames.csv": "6955d6156038920f65020a6ddceec71810df722aa5066f7768606ce6fd69254c",
        }

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

    def test_a_frame_id_utf8_cannot_encode_is_refused_before_any_output(self, tmp_path, capsys):
        # JSON's escape can write a lone surrogate, which the frame table
        # could not write.
        data, report, table = tmp_path / "d.json", tmp_path / "r.json", tmp_path / "t.csv"
        data.write_text(dataset_to_canonical_json(_gt_dataset()).replace('"f1"', '"\\ud800"'))
        code = run(["eval", "--gt", str(data), "--pred", str(data),
                    "--report", str(report), "--table", str(table)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {data}: frame '\\ud800': ")
        assert not report.exists() and not table.exists()

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        gt = tmp_path / "g.json"
        save_dataset(_gt_dataset(), gt)
        pred = tmp_path / "utf16.json"
        pred.write_bytes(b"\xff\xfe" + gt.read_text().encode("utf-16-le"))
        code = run(["eval", "--gt", str(gt), "--pred", str(pred)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {pred}: parse error: 'utf-8' codec can't decode byte 0xff")


_NO_SCORE = {"schema": "jrdb17", "pano": {"width": 2000, "height": 600},
             "frames": [{"frame_id": "f1", "persons": [{"box": [0, 0, 10, 10]}]}]}
_BAD_BOX = {**_NO_SCORE, "frames": [{"frame_id": "f1", "persons": [{"box": [0, 0, -1, 10]}]}]}

# (--gt, --pred, exit code, stderr) as printed when --gt was read before
# --pred: a --gt fault is reported even when --pred is faulty too.
EVAL_LOAD_CASES = {
    "both valid": ("g", "g", 0, ""),
    "both faulty": ("bad_box", "no_score", 1,
                    "error: {bad_box}: frame 'f1', person 0: degenerate box "
                    "(0.0, 0.0, -1.0, 10.0): area -10.0 must be positive and finite\n"),
    "pred faulty": ("g", "no_score", 1,
                    "error: {no_score}: prediction without score (frame 'f1', person 0)\n"),
    "gt missing": ("missing", "no_score", 1,
                   "error: [Errno 2] No such file or directory: '{missing}'\n"),
    "gt not utf-8": ("utf16", "no_score", 1,
                     "error: {utf16}: parse error: 'utf-8' codec can't decode byte 0xff "
                     "in position 0: invalid start byte\n"),
}


def _fail_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def _load_in(mode, monkeypatch):
    """Make ``eval`` read --gt where ``mode`` says: in a forked child, or in
    this process because there is no ``os.fork``, because it fails, or
    because the child exits before it sends a result."""
    if mode == "no fork":
        monkeypatch.delattr(os, "fork")
    elif mode == "fork fails":
        monkeypatch.setattr(os, "fork", _fail_fork)
    elif mode == "child exits":
        monkeypatch.setattr(pickle, "dump", lambda *args, **kwargs: os._exit(1))


LOAD_MODES = ["fork", "no fork", "fork fails", "child exits"]


class TestParallelLoad:
    """``eval`` reads --gt in a forked child while it reads --pred; what it
    prints and returns is what reading them in turn gives."""

    @staticmethod
    def _files(tmp_path):
        """Each case's file path by its name; ``missing`` is not written."""
        paths = {name: tmp_path / f"{name}.json"
                 for name in ("g", "no_score", "bad_box", "utf16", "missing")}
        save_dataset(_gt_dataset(), paths["g"])
        paths["no_score"].write_text(json.dumps(_NO_SCORE))
        paths["bad_box"].write_text(json.dumps(_BAD_BOX))
        paths["utf16"].write_bytes(b"\xff\xfe" + paths["g"].read_text().encode("utf-16-le"))
        return {name: str(path) for name, path in paths.items()}

    @pytest.mark.parametrize("mode", LOAD_MODES)
    @pytest.mark.parametrize("case", EVAL_LOAD_CASES)
    def test_exit_code_and_stderr_are_as_read_in_turn(self, tmp_path, capsys, monkeypatch, case, mode):
        paths = self._files(tmp_path)
        gt, pred, code, err = EVAL_LOAD_CASES[case]
        _load_in(mode, monkeypatch)
        assert run(["eval", "--gt", paths[gt], "--pred", paths[pred]]) == code
        out = capsys.readouterr()
        assert out.err == err.format_map(paths)
        if code == 0:
            assert out.out.splitlines()[:2] == ["ospa_iou 0.000", "ap_05 1.000"]
        with pytest.raises(ChildProcessError):  # no child is left unreaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("mode", LOAD_MODES)
    def test_gt_is_read_in_a_child_only_where_one_is_forked(self, tmp_path, capsys, monkeypatch, mode):
        paths = self._files(tmp_path)
        log = tmp_path / "readers.log"
        load = cli._load_dataset

        def logged(path, *, require_scores):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {path}\n")
            return load(path, require_scores=require_scores)

        monkeypatch.setattr(cli, "_load_dataset", logged)
        _load_in(mode, monkeypatch)
        assert run(["eval", "--gt", paths["g"], "--pred", paths["no_score"]]) == 1
        readers = dict(line.split()[::-1] for line in log.read_text().splitlines())
        assert readers[paths["no_score"]] == str(os.getpid())
        assert (readers[paths["g"]] != str(os.getpid())) == (mode == "fork")

    def test_received_gt_is_the_loaded_dataset_and_read_only(self, tmp_path, capsys, monkeypatch):
        paths = self._files(tmp_path)
        received = []
        evaluate = metrics.evaluate

        def capturing(preds, gts, config=None):
            received.append(gts)
            return evaluate(preds, gts, config)

        monkeypatch.setattr(metrics, "evaluate", capturing)
        assert run(["eval", "--gt", paths["g"], "--pred", paths["g"]]) == 0
        (gts,) = received
        assert gts == _load(Path(paths["g"]), None, False)
        arrays = [getattr(gts, name) for name in vars(gts)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 8
        assert not any(a.flags.writeable for a in arrays)


def _edge_case_eval_files(tmp_path):
    """A seeded set with box-only ground truths, a ground truth with no
    labeled keypoint, an empty frame and a ground-truth frame that has no
    prediction frame."""
    rng = np.random.default_rng(2024)
    gt = make_ground_truth(rng, num_frames=10, people=(1, 5))
    pred = perturb_predictions(gt, rng, 4.0)
    gt_frames = json.loads(dataset_to_canonical_json(gt))["frames"]
    unlabeled = [[x, y, 0] for x, y, _ in gt_frames[2]["persons"][0]["pose"]]
    gt_frames[1]["persons"] += [person(box=(300.0, 200.0, 380.0, 330.0)),
                                person(box=(1500.5, 180.25, 1590.0, 340.75))]
    gt_frames[2]["persons"].append(person(pose=unlabeled))
    gt_frames.append({"frame_id": "frame_empty", "persons": []})
    pred_frames = [f for f in json.loads(dataset_to_canonical_json(pred))["frames"]
                   if f["frame_id"] != "frame0003"]
    pred_frames[0]["persons"].append(person(box=(310.0, 205.0, 385.0, 320.0), score=0.45))
    pred_frames.append({"frame_id": "frame_empty", "persons": []})
    gt_path, pred_path = tmp_path / "g.json", tmp_path / "p.json"
    for frames, path in ((gt_frames, gt_path), (pred_frames, pred_path)):
        doc = {"schema": "jrdb17", "pano": {"width": gt.pano.width, "height": gt.pano.height},
               "frames": frames}
        save_dataset(dataset_from_json(json.dumps(doc), JRDB17), path)
    return gt_path, pred_path


def _doc(*persons):
    return json.dumps(
        {"schema": "jrdb17", "pano": {"width": 2000, "height": 600},
         "frames": [{"frame_id": "f1", "persons": list(persons)}]}
    )


class TestDegenerateBoxes:
    POSE = [[100.0 + 6 * i, 200.0 + 5 * i, 2] for i in range(17)]

    def _run(self, tmp_path, capsys, argv, **files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code = run([a.format(d=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err and "Warning" not in err
        return err

    def test_eval_rejects_a_box_whose_area_underflows(self, tmp_path, capsys):
        err = self._run(
            tmp_path, capsys, ["eval", "--gt", "{d}/g.json", "--pred", "{d}/p.json"],
            **{"g.json": _doc({"box": [0, 0, 5e-324, 5e-324], "pose": self.POSE}),
               "p.json": _doc({"score": 0.9, "pose": self.POSE})},
        )
        assert err.startswith(
            f"error: {tmp_path}/g.json: frame 'f1', person 0: degenerate box (0.0, 0.0, 5e-324, 5e-324)"
        )

    def test_eval_names_the_file_with_the_bad_box(self, tmp_path, capsys):
        files = {"good.json": _doc({"score": 0.9, "pose": self.POSE}),
                 "bad.json": _doc({"box": [5, 2, 5, 4], "score": 0.9})}
        for gt, pred in (("good.json", "bad.json"), ("bad.json", "good.json")):
            err = self._run(tmp_path, capsys, ["eval", "--gt", "{d}/" + gt, "--pred", "{d}/" + pred],
                            **files)
            assert err.startswith(
                f"error: {tmp_path}/bad.json: frame 'f1', person 0: degenerate box (5.0, 2.0, 5.0, 4.0)"
            )

    def test_eval_rejects_a_box_too_small_for_oks(self, tmp_path, capsys):
        err = self._run(
            tmp_path, capsys, ["eval", "--gt", "{d}/g.json", "--pred", "{d}/p.json"],
            **{"g.json": _doc({"box": [0, 0, 1, 5e-324], "pose": self.POSE}),
               "p.json": _doc({"score": 0.9, "pose": self.POSE})},
        )
        assert err.startswith("error: frame 'f1': ground-truth box area 5e-324 gives an OKS scale")

    # A pose whose labeled keypoints span x = -1e308..1e308 has a matching box
    # of infinite area.
    WIDE_POSE = [[-1e308, 10.0, 2], [1e308, 20.0, 2]] + [[0.0, 15.0, 2]] * 15

    def test_eval_locates_a_degenerate_pose_box(self, tmp_path, capsys):
        err = self._run(
            tmp_path, capsys, ["eval", "--gt", "{d}/g.json", "--pred", "{d}/p.json"],
            **{"g.json": _doc({"pose": self.POSE}, {"pose": self.WIDE_POSE}),
               "p.json": _doc({"score": 0.9, "pose": self.POSE})},
        )
        assert err.startswith(
            "error: ground truth: frame 'f1', person 1: degenerate box (-1e+308, 10.0, 1e+308, 20.0)"
        )

    def test_shift_locates_a_degenerate_pose_box(self, tmp_path, capsys):
        err = self._run(
            tmp_path, capsys, ["shift", "--in", "{d}/g.json", "--out", "{d}/o.json", "--shift", "5"],
            **{"g.json": _doc({"pose": self.POSE}, {"pose": self.WIDE_POSE})},
        )
        assert err.startswith(
            "error: frame 'f1', person 1: degenerate box (-1e+308, 10.0, 1e+308, 20.0)"
        )
        assert not (tmp_path / "o.json").exists()

    def test_nms_rejects_a_box_whose_area_underflows(self, tmp_path, capsys):
        tiny = {"box": [0, 0, 5e-324, 5e-324], "score": 0.9}
        err = self._run(
            tmp_path, capsys, ["nms", "--pred", "{d}/p.json", "--out", "{d}/o.json"],
            **{"p.json": _doc(tiny, tiny)},
        )
        assert err.startswith(f"error: {tmp_path}/p.json: frame 'f1', person 0: degenerate box")


# One command per bad parameter value: argv, and a pattern of the message
# that names the parameter. {d} is the dataset, {h} a heatmap container and
# {o} the output path.
BAD_PARAMETERS = [
    (["nms", "--pred", "{d}", "--out", "{o}", "--nms-iou", "nan"], r"iou threshold nan"),
    (["nms", "--pred", "{d}", "--out", "{o}", "--nms-iou", "7"], r"iou threshold 7\.0"),
    (["boxes-from-poses", "--in", "{d}", "--out", "{o}", "--margin", "-1"], r"margin .*-1\.0"),
    (["boxes-from-poses", "--in", "{d}", "--out", "{o}", "--margin", "inf"], r"margin .*inf"),
    (["shift", "--in", "{d}", "--out", "{o}", "--shift", "nan"], r"shift must be finite, got nan"),
    (["decode", "--heatmaps", "{h}", "--dets", "{d}", "--out", "{o}", "--stride", "0"],
     r"stride must be positive, got 0\.0"),
    (["decode", "--heatmaps", "{h}", "--dets", "{d}", "--out", "{o}", "--stride", "nan"],
     r"stride must be positive, got nan"),
    (["decode", "--heatmaps", "{h}", "--dets", "{d}", "--out", "{o}", "--padding", "inf"],
     r"padding .*inf"),
    (["decode", "--heatmaps", "{h}", "--dets", "{d}", "--out", "{o}", "--crop-width", "0"],
     r"crop width .*0x384"),
]


class TestBadParameters:
    @pytest.mark.parametrize("persons", [0, 1], ids=["no-frames", "one-person"])
    @pytest.mark.parametrize(
        "argv, message", BAD_PARAMETERS,
        ids=[f"{argv[0]}{argv[-2]}={argv[-1]}" for argv, _ in BAD_PARAMETERS],
    )
    def test_refused_before_any_output(self, tmp_path, capsys, argv, message, persons):
        data, heat, out = tmp_path / "d.json", tmp_path / "heat.bin", tmp_path / "o.json"
        frames = [("f1", [person(box=(100, 50, 388, 434), pose=_pose17(), score=0.9)])]
        save_dataset(dataset("jrdb17", PANO, frames[:persons]), data)
        grids = {"f1/0": np.ones((17, 96, 72), dtype=np.float32)}
        save_tensor_map(grids if persons else {}, heat)
        code = run([a.format(d=data, h=heat, o=out) for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert re.search(message, captured.err), captured.err
        assert not out.exists()
        assert captured.out == ""

    @pytest.mark.parametrize("flag, size", [("--crop-width", r"10{400}x384"),
                                            ("--crop-height", r"288x10{400}")])
    def test_crop_size_beyond_float_range(self, tmp_path, capsys, flag, size):
        data, heat, out = tmp_path / "d.json", tmp_path / "heat.bin", tmp_path / "o.json"
        frames = [("f1", [person(box=(100, 50, 388, 434), score=0.9)])]
        save_dataset(dataset("jrdb17", PANO, frames), data)
        save_tensor_map({"f1/0": np.ones((17, 96, 72))}, heat)
        argv = ["decode", "--heatmaps", str(heat), "--dets", str(data), "--out", str(out),
                flag, str(10**400)]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert re.fullmatch(f"error: crop width and height must be positive and finite, got {size}\n",
                            captured.err), captured.err
        assert not out.exists()


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


class TestRepeatedKeys:
    @pytest.mark.parametrize("command", ["eval", "shift"])
    def test_a_dataset_that_names_a_key_twice_is_refused(self, tmp_path, capsys, command):
        good, bad = tmp_path / "g.json", tmp_path / "b.json"
        save_dataset(_gt_dataset(), good)
        bad.write_text(good.read_text().replace('"frame_id":', '"frame_id":"x","frame_id":', 1))
        argv = {"eval": ["eval", "--gt", str(good), "--pred", str(bad)],
                "shift": ["shift", "--in", str(bad), "--out", str(tmp_path / "o.json"), "--shift", "5"]}
        assert run(argv[command]) == 1
        assert capsys.readouterr().err == f"error: {bad}: parse error: duplicate key 'frame_id'\n"
        assert not (tmp_path / "o.json").exists()


# A JSON integer of 5000 digits: Python 3.11 refuses to convert it to an
# int, and a Python without that limit refuses it as beyond float range (a
# dataset), a schema id not a string (a mapping) or a truncated payload (a
# container).
_LONG_INTEGER = "1" * 5000


def _long_integer_files(tmp_path):
    """A dataset, a mapping file and a container, each with a long integer."""
    data, mapping, container = tmp_path / "d.json", tmp_path / "m.json", tmp_path / "c.bin"
    data.write_text(dataset_to_canonical_json(_one_box()).replace("0,0,10,10", f"0,0,{_LONG_INTEGER},10"))
    mapping.write_text(json.dumps(mapping_doc(default_mapping())).replace(
        '"jrdb17"', _LONG_INTEGER, 1))
    blob = ('{"a":{"dtype":"u8","shape":[1],"begin":0,"end":%s}}' % _LONG_INTEGER).encode()
    container.write_bytes(len(blob).to_bytes(8, "little") + blob + b"\x00")
    return data, mapping, container


class TestIntegerLiteralsTooLong:
    def test_the_library_raises_validation_error(self, tmp_path):
        data, mapping, container = _long_integer_files(tmp_path)
        for load, path in [(lambda p: load_ground_truth(p, JRDB17), data), (load_mapping, mapping),
                           (load_tensor_map, container)]:
            with pytest.raises(ValidationError):
                load(path)

    @pytest.mark.parametrize("flag", ["--in", "--mapping", "--src"])
    def test_the_command_names_the_file(self, tmp_path, capsys, flag):
        data, mapping, container = _long_integer_files(tmp_path)
        save_tensor_map({"head.weight": np.zeros((17, 2, 1, 1), np.float32)}, tmp_path / "ok.bin")
        out = tmp_path / "out"
        argv, path = {
            "--in": (["shift", "--in", str(data), "--out", str(out), "--shift", "5"], data),
            "--mapping": (["remap-weights", "--src", str(tmp_path / "ok.bin"), "--out", str(out),
                           "--mapping", str(mapping), "--weight-name", "head.weight"], mapping),
            "--src": (["remap-weights", "--src", str(container), "--out", str(out),
                       "--weight-name", "a"], container),
        }[flag]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert not out.exists()


class TestNms:
    def test_single_box_passthrough(self, tmp_path):
        ds = _one_box()
        src, dst = tmp_path / "d.json", tmp_path / "o.json"
        save_dataset(ds, src)
        assert run(["nms", "--pred", str(src), "--out", str(dst), "--nms-iou", "0.5"]) == 0
        assert src.read_bytes() == dst.read_bytes()

    def test_overlapping_boxes_filtered(self, tmp_path):
        ds = dataset("jrdb17", PANO, [("f1", [
            person(id="lo", box=(0, 0, 10, 10), score=0.5),
            person(id="hi", box=(0, 0, 10, 10), score=0.9),
            person(id="far", box=(500, 0, 520, 30), score=0.4),
        ])])
        src, dst = tmp_path / "d.json", tmp_path / "o.json"
        save_dataset(ds, src)
        assert run(["nms", "--pred", str(src), "--out", str(dst)]) == 0
        out = load_predictions(dst, JRDB17)
        assert out.ids.tolist() == ["hi", "far"]


class TestBoxesFromPoses:
    def test_boxes_added_with_margin(self, tmp_path):
        ds = dataset("jrdb17", PANO, [("f1", [person(pose=_pose17())])])
        src, dst = tmp_path / "g.json", tmp_path / "b.json"
        save_dataset(ds, src)
        assert run(
            ["boxes-from-poses", "--in", str(src), "--out", str(dst), "--margin", "0"]
        ) == 0
        out = json.loads(dst.read_text())
        box = out["frames"][0]["persons"][0]["box"]
        assert box == [100, 200, 196, 280]

    @pytest.mark.parametrize("argv", [["boxes-from-poses"], ["shift", "--shift", "9"]],
                             ids=lambda argv: argv[0])
    def test_echo_reports_the_file_pano(self, tmp_path, capsys, argv):
        # Both commands take the panorama size from the input file alone.
        src = tmp_path / "g.json"
        save_dataset(dataset("jrdb17", PanoramaSpec(3760.0, 480.0), [("f1", [person(pose=_pose17())])]),
                     src)
        assert run([*argv, "--in", str(src), "--out", str(tmp_path / "o.json")]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert (echo["pano_width"], echo["pano_height"]) == (3760.0, 480.0)


class TestRemapWeights:
    def _container(self, tmp_path):
        weight = np.zeros((17, 2, 1, 1), dtype=np.float32)
        for s in range(17):
            weight[s] = float(s)
        tm = {
            "head.weight": weight,
            "head.bias": np.arange(17, dtype=np.float32),
            "stem": np.ones((4, 4), dtype=np.float32),
        }
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
        assert float(out["head.weight"][4, 0, 0, 0]) == 5.5  # neck
        assert float(out["head.bias"][8]) == 11.5            # center hip
        assert float(out["stem"][0, 0]) == 1.0

    def test_mapping_file(self, tmp_path):
        src = self._container(tmp_path)
        dst = tmp_path / "out.bin"
        mapping_file = tmp_path / "mapping.json"
        mapping_file.write_text(json.dumps(mapping_doc(default_mapping(verbatim_table1=True))))
        code = run(
            ["remap-weights", "--src", str(src), "--out", str(dst),
             "--mapping", str(mapping_file), "--weight-name", "head.weight"]
        )
        assert code == 0
        out = load_tensor_map(dst)
        # verbatim counterpart table: both hands from the left wrist (index 9)
        assert float(out["head.weight"][9, 0, 0, 0]) == 9.0
        assert float(out["head.weight"][12, 0, 0, 0]) == 9.0

    def test_non_utf8_mapping_file(self, tmp_path, capsys):
        src = self._container(tmp_path)
        mapping_file = tmp_path / "mapping.json"
        text = json.dumps(mapping_doc(default_mapping()))
        mapping_file.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
        code = run(
            ["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
             "--mapping", str(mapping_file), "--weight-name", "head.weight"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mapping_file}: parse error: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "o.bin").exists()

    def test_truncated_source_container_is_named(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        src.write_bytes(b"\x10\x00")
        code = run(["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
                    "--weight-name", "head.weight"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {src}: malformed header: file shorter than the length prefix\n"
        assert not (tmp_path / "o.bin").exists()

    def test_boolean_offsets_in_the_source_header(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        blob = b'{"a":{"dtype":"u8","shape":[1],"begin":false,"end":true}}'
        src.write_bytes(len(blob).to_bytes(8, "little") + blob + b"\x00")
        code = run(["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
                    "--weight-name", "a"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {src}: tensor 'a': malformed offsets False..True\n"
        assert not (tmp_path / "o.bin").exists()

    def test_verbatim_flag(self, tmp_path):
        src = self._container(tmp_path)
        dst = tmp_path / "out.bin"
        code = run(
            ["remap-weights", "--src", str(src), "--out", str(dst),
             "--verbatim-table1", "--weight-name", "head.weight"]
        )
        assert code == 0
        out = load_tensor_map(dst)
        assert float(out["head.weight"][9, 0, 0, 0]) == 9.0

    def test_mapping_and_verbatim_flag_together_are_a_usage_error(self, tmp_path, capsys):
        src = self._container(tmp_path)
        mapping_file = tmp_path / "mapping.json"
        mapping_file.write_text(json.dumps(mapping_doc(default_mapping())))
        code = run(["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
                    "--mapping", str(mapping_file), "--verbatim-table1", "--weight-name", "head.weight"])
        assert code == 2
        assert "--verbatim-table1: not allowed with argument --mapping" in capsys.readouterr().err
        assert not (tmp_path / "o.bin").exists()

    def test_mapping_file_that_names_a_target_twice(self, tmp_path, capsys):
        src = self._container(tmp_path)
        mapping_file = tmp_path / "mapping.json"
        doc = json.dumps(mapping_doc(default_mapping()))
        mapping_file.write_text(doc.replace('"head": ', '"head": ["nose"], "head": ', 1))
        code = run(["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
                    "--mapping", str(mapping_file), "--weight-name", "head.weight"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {mapping_file}: parse error: duplicate key 'head'\n"
        assert not (tmp_path / "o.bin").exists()

    def test_container_with_an_empty_tensor_name_is_refused(self, tmp_path, capsys):
        src, dst = tmp_path / "in.bin", tmp_path / "o.bin"
        _write_raw_container(src, {"": np.ones(2, np.float32), "head.weight": np.ones((17, 2, 1, 1), np.float32)})
        code = run(["remap-weights", "--src", str(src), "--out", str(dst), "--weight-name", "head.weight"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {src}: tensor name must be non-empty\n"
        assert not dst.exists()

    def test_missing_tensor_is_validation_error(self, tmp_path, capsys):
        src = self._container(tmp_path)
        code = run(
            ["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
             "--weight-name", "nope"]
        )
        assert code == 1
        assert "missing tensor" in capsys.readouterr().err
        assert not (tmp_path / "o.bin").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--weight-name", "stem"], "expected rank-4 weight [K, C, kh, kw], got shape (4, 4)"),
        (["--weight-name", "head.weight", "--mapping", "bad.json"], "mapping file missing field 'entries'"),
    ])
    def test_faults_found_before_the_output_leave_no_out(self, tmp_path, capsys, monkeypatch,
                                                         flags, message):
        monkeypatch.chdir(tmp_path)
        src = self._container(tmp_path)
        Path("bad.json").write_text(json.dumps({"source_schema": "coco17", "target_schema": "jrdb17"}))
        code = run(["remap-weights", "--src", str(src), "--out", "o.bin", *flags])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not Path("o.bin").exists()

    @pytest.mark.parametrize("shape, nbytes", [([1] * 65, 4), ([0, 10**30, 1, 1], 0)])
    def test_a_head_shape_numpy_cannot_hold_is_refused_in_its_words(self, tmp_path, capsys, shape,
                                                                   nbytes):
        # The head is read as bytes, and numpy words the refusal.
        src = tmp_path / "in.bin"
        blob = json.dumps({"w": {"dtype": "f32", "shape": shape, "begin": 0, "end": nbytes}}).encode()
        src.write_bytes(len(blob).to_bytes(8, "little") + blob + b"\x00" * nbytes)
        code = run(["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
                    "--weight-name", "w"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: tensor 'w': unsupported shape {tuple(shape)}: ")
        assert not (tmp_path / "o.bin").exists()

    @pytest.mark.parametrize("link", ["same path", "hard link", "symbolic link"])
    def test_out_that_is_the_src_file_is_refused(self, tmp_path, capsys, link):
        src = self._container(tmp_path)
        before = src.read_bytes()
        out = tmp_path / "out.bin"
        if link == "same path":
            out = src
        elif link == "hard link":
            os.link(src, out)
        else:
            out.symlink_to(src)
        code = run(["remap-weights", "--src", str(src), "--out", str(out), "--weight-name", "head.weight"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {src}: --out {out} is the same file as --src\n"
        assert src.read_bytes() == before

    def test_source_cut_during_the_copy_leaves_no_out(self, tmp_path, capsys, monkeypatch):
        # The header is checked on opening and the other tensors are copied
        # after the head checks, so a file cut in between gives a short read.
        # The last tensor is larger than the file buffer, so it is not
        # already in memory.
        src = tmp_path / "in.bin"
        save_tensor_map({
            "head.weight": np.ones((17, 2, 1, 1), dtype=np.float32),
            "stem": np.arange(2**16, dtype=np.float32),
        }, src)

        def cut_then_default(verbatim_table1):
            os.truncate(src, src.stat().st_size - 4)
            return default_mapping(verbatim_table1)

        monkeypatch.setattr("panopose.schema.default_mapping", cut_then_default)
        code = run(["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
                    "--weight-name", "head.weight"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {src}: truncated payload: tensor 'stem' could not be read whole\n"
        assert not (tmp_path / "o.bin").exists()

    def test_a_cut_copy_through_a_symbolic_link_keeps_the_link(self, tmp_path, capsys, monkeypatch):
        # --out names a link to a regular file: the partial file goes, the
        # link stays.
        src, real, link = tmp_path / "in.bin", tmp_path / "real.bin", tmp_path / "link.bin"
        save_tensor_map({
            "head.weight": np.ones((17, 2, 1, 1), dtype=np.float32),
            "stem": np.arange(2**16, dtype=np.float32),
        }, src)
        real.write_bytes(b"old")
        link.symlink_to(real)

        def cut_then_default(verbatim_table1):
            os.truncate(src, src.stat().st_size - 4)
            return default_mapping(verbatim_table1)

        monkeypatch.setattr("panopose.schema.default_mapping", cut_then_default)
        code = run(["remap-weights", "--src", str(src), "--out", str(link),
                    "--weight-name", "head.weight"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {src}: truncated payload: tensor 'stem' could not be read whole\n"
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert not real.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_a_failed_write_to_a_fifo_leaves_the_fifo(self, tmp_path, capsys):
        # The reader takes one byte and closes; 1 MiB is more than the pipe
        # holds, so the write fails with EPIPE.
        src, fifo = tmp_path / "in.bin", tmp_path / "out.fifo"
        save_tensor_map({
            "head.weight": np.ones((17, 2, 1, 1), dtype=np.float32),
            "stem": np.zeros(2**18, dtype=np.float32),
        }, src)
        os.mkfifo(fifo)

        def read_one_byte():
            fd = os.open(fifo, os.O_RDONLY)
            os.read(fd, 1)
            os.close(fd)

        reader = threading.Thread(target=read_one_byte, daemon=True)
        reader.start()
        code = run(["remap-weights", "--src", str(src), "--out", str(fifo),
                    "--weight-name", "head.weight"])
        reader.join(10)
        assert not reader.is_alive()
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
        assert fifo.is_fifo()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    def test_memory_does_not_grow_with_the_container(self, tmp_path):
        # 64 backbone tensors of 2**18 f32 make a 64 MiB container beside a
        # small head; a --version child gives the peak of the interpreter and
        # imports.
        backbone = np.zeros(2**18, dtype=np.float32)
        save_tensor_map({
            "head.weight": np.ones((17, 2, 1, 1), dtype=np.float32),
            **{f"backbone.{i:02d}": backbone for i in range(64)},
        }, tmp_path / "in.bin")
        size_mb = (tmp_path / "in.bin").stat().st_size / 2**20
        assert size_mb >= 64
        growth = _peak_mb(tmp_path, "remap-weights", "--src", "in.bin", "--out", "o.bin",
                          "--weight-name", "head.weight") - _peak_mb(tmp_path, "--version")
        assert growth < size_mb / 4, (growth, size_mb)


class TestDecodeCommand:
    def test_end_to_end(self, tmp_path):
        dets = dataset("jrdb17", PANO, [("f1", [person(id="d0", box=(100.0, 50.0, 388.0, 434.0), score=0.9)])])
        dets_path = tmp_path / "dets.json"
        save_dataset(dets, dets_path)

        grids = np.zeros((17, 96, 72), dtype=np.float32)
        for k in range(17):
            grids[k, 10 + k, 20 + k] = 1.0
        heat_path = tmp_path / "heat.bin"
        save_tensor_map({"f1/0": grids}, heat_path)

        out_path = tmp_path / "pred.json"
        code = run(
            ["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path),
             "--out", str(out_path), "--stride", "4", "--padding", "1.0"]
        )
        assert code == 0
        preds = load_predictions(out_path, JRDB17)
        assert preds.scores.tolist() == [0.9]
        assert preds.keypoints.shape == (1, 17, 3)
        # identity-scale crop: cell (10, 20) -> crop (82, 42) -> pano (182, 92)
        assert preds.keypoints[0, 0, 0] == pytest.approx(182.0, abs=1e-9)
        assert preds.keypoints[0, 0, 1] == pytest.approx(92.0, abs=1e-9)

    def test_missing_heatmap_tensor(self, tmp_path, capsys):
        dets = _one_box()
        dets_path = tmp_path / "dets.json"
        save_dataset(dets, dets_path)
        heat_path = tmp_path / "heat.bin"
        save_tensor_map({}, heat_path)
        code = run(
            ["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path),
             "--out", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert "missing heatmap tensor" in capsys.readouterr().err

    def _decode_one(self, tmp_path, grids):
        dets = _one_box()
        dets_path, heat_path = tmp_path / "dets.json", tmp_path / "heat.bin"
        save_dataset(dets, dets_path)
        save_tensor_map({"f1/0": grids}, heat_path)
        return run(["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path),
                    "--out", str(tmp_path / "o.json")])

    def test_heatmap_container_with_an_empty_tensor_name_is_refused(self, tmp_path, capsys):
        dets_path, heat_path = tmp_path / "dets.json", tmp_path / "heat.bin"
        save_dataset(_one_box(), dets_path)
        _write_raw_container(heat_path, {"": np.ones(1, np.float32), "f1/0": np.ones((17, 4, 4), np.float32)})
        code = run(["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path),
                    "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {heat_path}: tensor name must be non-empty\n"
        assert not (tmp_path / "o.json").exists()

    def test_truncated_heatmap_container_is_named(self, tmp_path, capsys):
        dets_path, heat_path = tmp_path / "dets.json", tmp_path / "heat.bin"
        save_dataset(_one_box(), dets_path)
        save_tensor_map({"f1/0": np.ones((17, 4, 4), np.float32)}, heat_path)
        heat_path.write_bytes(heat_path.read_bytes()[:-4])
        code = run(["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path),
                    "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {heat_path}: truncated payload: tensor 'f1/0' ends at byte 1088")
        assert not (tmp_path / "o.json").exists()

    def test_empty_grid_is_located(self, tmp_path, capsys):
        assert self._decode_one(tmp_path, np.zeros((17, 0, 5), dtype=np.float32)) == 1
        err = capsys.readouterr().err
        assert "frame 'f1', person 0: heatmap tensor 'f1/0'" in err
        assert "(17, 0, 5)" in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_peak_is_rejected(self, tmp_path, capsys, value):
        grids = np.zeros((17, 96, 72), dtype=np.float32)
        grids[3] = value
        assert self._decode_one(tmp_path, grids) == 1
        err = capsys.readouterr().err
        assert f"frame 'f1', person 0: heatmap tensor 'f1/0': keypoint 3: heatmap peak is {value}" in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("grids, message", [
        (["ok", "ok", "nan"], "heatmap tensor 'f1/2': keypoint 3: heatmap peak is nan"),
        (["ok", "missing", "nan"], "missing heatmap tensor 'f1/1'"),
        (["ok", "nan", "missing"], "heatmap tensor 'f1/1': keypoint 3: heatmap peak is nan"),
        (["ok", "shape", "nan"], "heatmap tensor 'f1/1' must be [17, h, w] with h, w >= 1, "
                                 "got shape (17, 0, 4)"),
    ])
    def test_first_faulty_detection_is_reported(self, tmp_path, capsys, grids, message):
        # Each detection is checked in turn, all the way to its peaks, before
        # the next one is read.
        ok = np.ones((17, 4, 4), np.float32)
        nan = ok.copy()
        nan[3] = np.nan
        kinds = {"ok": ok, "nan": nan, "shape": np.ones((17, 0, 4), np.float32)}
        save_dataset(dataset("jrdb17", PANO, [("f1", [person(box=(10 * i, 0, 10 * i + 8, 20), score=0.5)
                                                      for i in range(len(grids))])]),
                     tmp_path / "dets.json")
        save_tensor_map({f"f1/{i}": kinds[kind] for i, kind in enumerate(grids) if kind != "missing"},
                        tmp_path / "heat.bin")
        code = run(["decode", "--heatmaps", str(tmp_path / "heat.bin"), "--dets", str(tmp_path / "dets.json"),
                    "--out", str(tmp_path / "o.json")])
        assert code == 1
        person_index = re.search(r"'f1/(\d)'", message).group(1)
        assert capsys.readouterr().err == f"error: frame 'f1', person {person_index}: {message}\n"
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("good, bad, padding", [
        ((0, 0, 10, 10), (0, 0, 1e308, 1e-300), "2"),
        ((0, 0, 1e-150, 1e-150), (100, 50, 388, 434), "1e308"),
    ])
    def test_crop_fault_is_located(self, tmp_path, capsys, good, bad, padding):
        # Either crop overflows to inf and then NaN.
        dets_path, heat_path, out = tmp_path / "dets.json", tmp_path / "heat.bin", tmp_path / "o.json"
        save_dataset(dataset("jrdb17", PANO, [("f1", [person(box=good, score=0.9),
                                                      person(box=bad, score=0.8)])]), dets_path)
        grids = np.ones((17, 4, 4), np.float32)
        save_tensor_map({f"f1/{i}": grids for i in range(2)}, heat_path)
        code = run(["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path),
                    "--out", str(out), "--padding", padding])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: frame 'f1', person 1: padding {float(padding)!r} "
                                "gives a non-finite transform coefficient nan\n")
        assert captured.out == ""
        assert not out.exists()

    def test_non_finite_projection_is_located(self, tmp_path, capsys):
        # Cell (3, 3)'s centre times a stride of 1e308 overflows to inf.
        save_dataset(_one_box((100, 50, 388, 434)), tmp_path / "dets.json")
        grids = np.zeros((17, 4, 4), np.float32)
        grids[:, 3, 3] = 1.0
        save_tensor_map({"f1/0": grids}, tmp_path / "heat.bin")
        code = run(["decode", "--heatmaps", str(tmp_path / "heat.bin"), "--dets", str(tmp_path / "dets.json"),
                    "--out", str(tmp_path / "o.json"), "--stride", "1e308"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: frame 'f1', person 0: keypoint 0: non-finite keypoint coordinate (nan, nan)\n")
        assert not (tmp_path / "o.json").exists()

    def test_pred_json_bytes_are_pinned(self, tmp_path):
        # Seeded persons with wide, tall and exact-aspect (3:4) boxes in turn,
        # and f32 and f64 grids in turn, decoded at padding 1.25.
        rng = np.random.default_rng(1125)
        gt = make_ground_truth(rng, num_frames=6, people=(1, 4))
        sizes = [(210.0, 90.0), (60.0, 230.0), (150.0, 200.0)]
        centers = np.round(gt.keypoints[:, :2, :2].mean(axis=1))
        persons, grids = [], {}
        bounds = gt.offsets.tolist()
        for fid, start, stop in zip(gt.frame_ids, bounds, bounds[1:]):
            frame = []
            for i, row in enumerate(range(start, stop)):
                (cx, cy), (w, h) = centers[row].tolist(), sizes[row % 3]
                frame.append(person(box=(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                                    score=rng.uniform(0.3, 1.0)))
                values = rng.uniform(0.0, 1.0, (17, 12, 9))
                dtype = np.float32 if row % 2 else np.float64
                grids[f"{fid}/{i}"] = values.astype(dtype)
            persons.append((fid, frame))
        dets_path, heat_path, out = tmp_path / "dets.json", tmp_path / "heat.bin", tmp_path / "pred.json"
        save_dataset(dataset("jrdb17", gt.pano, persons), dets_path)
        save_tensor_map(grids, heat_path)
        assert run(["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path),
                    "--out", str(out), "--stride", "32", "--padding", "1.25"]) == 0
        assert len(grids) == 20
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9af788714981ebb1efddf709b7665d269d24728c76732dba04086374e1941dc3")

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    def test_memory_does_not_grow_with_the_container(self, tmp_path):
        # 144 detections of 17 x 96 x 72 f32 make a 64.6 MiB container; a
        # --version child gives the peak of the interpreter and imports.
        persons = [person(box=(10 * i, 0, 10 * i + 8, 20), score=0.5) for i in range(144)]
        save_dataset(dataset("jrdb17", PANO, [("f1", persons)]), tmp_path / "d.json")
        grids = np.zeros((17, 96, 72), dtype=np.float32)
        grids[:, 40, 30] = 1.0
        save_tensor_map({f"f1/{i}": grids for i in range(144)}, tmp_path / "h.bin")
        size_mb = (tmp_path / "h.bin").stat().st_size / 2**20
        assert size_mb >= 64
        growth = _peak_mb(tmp_path, "decode", "--heatmaps", "h.bin", "--dets", "d.json",
                          "--out", "o.json") - _peak_mb(tmp_path, "--version")
        assert growth < size_mb / 4, (growth, size_mb)


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

    def test_no_command_loads_scipy(self, tmp_path):
        # scipy is blocked in the child, so any import of it fails the command.
        ds = dataset("jrdb17", PANO, [("f1", [person(box=(0, 0, 10, 10), score=0.9),
                                              person(box=(5, 0, 15, 10), score=0.8)])])
        data, result = tmp_path / "d.json", tmp_path / "scipy.json"
        save_dataset(ds, data)
        probe = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "sys.modules['scipy'] = None\n"
            "from panopose.cli import run\n"
            "import numpy as np\n"
            "from panopose.metrics import _optimal_cost, ospa\n"
            "data, out, result = sys.argv[1:]\n"
            "assert run(['--version']) == 0\n"
            "assert run(['nms', '--pred', data, '--out', out]) == 0\n"
            "assert run(['eval', '--gt', data, '--pred', out]) == 0\n"
            "assert ospa([0, 1], [0.5], lambda a, b: abs(a - b)) == 0.75\n"
            "assert _optimal_cost(np.array([[1.0, 2.0], [2.0, 4.0]])) == 4.0\n"
            "loaded = [m for m, module in sys.modules.items() if module and m.split('.')[0] == 'scipy']\n"
            "Path(result).write_text(json.dumps(loaded))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(data), str(tmp_path / "o.json"), str(result)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(result.read_text()) == []

    @pytest.mark.parametrize("argv, unused", [
        (["--version"], ["metrics", "weights", "decode", "geometry", "numpy"]),
        (["boxes-from-poses", "--in", "d.json", "--out", "o.json"], ["metrics", "weights", "decode"]),
        (["shift", "--in", "d.json", "--out", "o.json", "--shift", "5"], ["metrics", "weights", "decode"]),
        (["nms", "--pred", "d.json", "--out", "o.json"], ["metrics", "weights", "decode"]),
        (["eval", "--gt", "d.json", "--pred", "d.json"], ["weights", "decode"]),
        (["remap-weights", "--src", "w.bin", "--out", "o.bin", "--weight-name", "head.weight"],
         ["metrics", "decode", "geometry", "dataio", "numpy"]),
    ])
    def test_a_command_loads_only_the_modules_it_uses(self, tmp_path, argv, unused):
        # A fresh child per command, so no other command's imports count.
        save_dataset(dataset("jrdb17", PANO, [("f1", [person(box=(90, 190, 210, 290), pose=_pose17(),
                                                            score=0.8)])]), tmp_path / "d.json")
        save_tensor_map({"head.weight": np.ones((17, 2, 1, 1), np.float32)}, tmp_path / "w.bin")
        probe = (
            "import sys\n"
            "from panopose.cli import run\n"
            "assert run(sys.argv[1:]) == 0\n"
            "print(' '.join(m for m in sys.modules if m.startswith('panopose.') or m == 'numpy'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.splitlines()[-1].split()
        assert "panopose.cli" in loaded
        assert [m for m in loaded if m.removeprefix("panopose.") in unused] == []

    def test_remap_weights_and_version_run_without_numpy(self, tmp_path, capsys, monkeypatch):
        # numpy is blocked in the child, so any import of it fails the command.
        # The mapping file averages nine sources into one target, eight of
        # them being where the bias adds in numpy's pairwise order.
        rng = np.random.default_rng(41)
        save_tensor_map({
            "head.weight": rng.standard_normal((17, 3, 2, 1)).astype(np.float32),
            "head.bias": rng.standard_normal(17).astype(np.float32),
            "stem": rng.integers(0, 256, (5, 7)).astype(np.uint8),
            "stem.scale": rng.standard_normal(3),
        }, tmp_path / "w.bin")
        wide = SchemaMapping("coco17", "jrdb17", (tuple(range(9)),) + default_mapping().entries[1:])
        (tmp_path / "m.json").write_text(json.dumps(mapping_doc(wide)))
        mappings = {"default.bin": ([], default_mapping()),
                    "verbatim.bin": (["--verbatim-table1"], default_mapping(True)),
                    "file.bin": (["--mapping", "m.json"], wide)}
        argvs = [["--version"], ["--help"], ["remap-weights", "--help"]] + [
            ["remap-weights", "--src", "w.bin", "--out", out, "--weight-name", "head.weight",
             "--bias-name", "head.bias", *flags] for out, (flags, _) in mappings.items()]
        probe = (
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from panopose.cli import run\n"
            "codes = [run(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes))\n"
        )
        monkeypatch.setenv("COLUMNS", "80")  # the width of --help
        monkeypatch.chdir(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        *printed, codes = proc.stdout.splitlines(keepends=True)
        assert json.loads(codes) == [0] * len(argvs)
        for out, (_, mapping) in mappings.items():
            save_tensor_map(remap_head_weights(load_tensor_map("w.bin"), "head.weight", mapping,
                                               "head.bias"), "library.bin")
            assert Path(out).read_bytes() == Path("library.bin").read_bytes(), out
        capsys.readouterr()
        assert [run(argv) for argv in argvs] == [0] * len(argvs)
        assert "".join(printed) == capsys.readouterr().out
