import errno
import gc
import hashlib
import json
import math
import os
import pickle
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from synth import dataset, make_ground_truth, mapping_doc, perturb_predictions, person, same_tensors

from panopose import cli, metrics
from panopose.cli import run
from panopose.dataio import (
    _load,
    dataset_to_canonical_json,
    load_ground_truth,
    load_predictions,
    save_dataset,
)
from panopose.decode import decode_heatmaps
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

    def test_nothing_is_printed_when_a_file_cannot_be_written(self, tmp_path, capsys):
        gt = tmp_path / "g.json"
        save_dataset(_gt_dataset(), gt)
        table = tmp_path / "nodir" / "t.csv"
        code = run(["eval", "--gt", str(gt), "--pred", str(gt),
                    "--report", str(tmp_path / "r.json"), "--table", str(table)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {table}: No such file or directory\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["g.json"]

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
                    "error: {no_score}: frame 'f1', person 0: prediction without score\n"),
    "gt missing": ("missing", "no_score", 1,
                   "error: {missing}: No such file or directory\n"),
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
        save_dataset(_load(json.dumps(doc), JRDB17, False), path)
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
        assert err.startswith("error: frame 'f1', person 0: ground-truth box area 5e-324 gives an OKS scale")

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
    (["nms", "--pred", "{d}", "--out", "{o}", "--nms-iou", "nan"],
     r"^error: iou threshold must be in \[0, 1\], got nan$"),
    (["nms", "--pred", "{d}", "--out", "{o}", "--nms-iou", "7"],
     r"^error: iou threshold must be in \[0, 1\], got 7\.0$"),
    (["boxes-from-poses", "--in", "{d}", "--out", "{o}", "--margin", "-1"],
     r"^error: margin must be in \[0, inf\), got -1\.0$"),
    (["boxes-from-poses", "--in", "{d}", "--out", "{o}", "--margin", "inf"],
     r"^error: margin must be in \[0, inf\), got inf$"),
    (["shift", "--in", "{d}", "--out", "{o}", "--shift", "nan"],
     r"^error: shift must be in \(-inf, inf\), got nan$"),
    (["decode", "--heatmaps", "{h}", "--dets", "{d}", "--out", "{o}", "--stride", "0"],
     r"^error: stride must be in \(0, inf\), got 0\.0$"),
    (["decode", "--heatmaps", "{h}", "--dets", "{d}", "--out", "{o}", "--stride", "nan"],
     r"^error: stride must be in \(0, inf\), got nan$"),
    (["decode", "--heatmaps", "{h}", "--dets", "{d}", "--out", "{o}", "--padding", "inf"],
     r"^error: padding must be in \(0, inf\), got inf$"),
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

    def test_a_stride_that_overflows_the_crop_size_is_refused(self, tmp_path, capsys):
        # The crop is the 4 x 5 grid at --stride: 4e307 * 4 is finite, 4e307 * 5 is not.
        data, heat, out = tmp_path / "d.json", tmp_path / "heat.bin", tmp_path / "o.json"
        save_dataset(_one_box((100, 50, 388, 434)), data)
        save_tensor_map({"f1/0": np.ones((17, 4, 5))}, heat)
        code = run(["decode", "--heatmaps", str(heat), "--dets", str(data), "--out", str(out),
                    "--stride", "4e307"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: crop width must be in (0, inf), got inf\n"
        assert captured.out == ""
        assert not out.exists()


class TestShift:
    def test_shift_zero_is_canonical_identity(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        dst = tmp_path / "s.json"
        save_dataset(_gt_dataset(), src)
        assert run(["shift", "--in", str(src), "--out", str(dst), "--shift", "0"]) == 0
        assert src.read_bytes() == dst.read_bytes()

    @pytest.mark.parametrize("given", [[], ["--shift", "5", "--seed", "3"]], ids=["neither", "both"])
    def test_shift_takes_either_a_shift_or_a_seed(self, tmp_path, capsys, given):
        src, out = tmp_path / "g.json", tmp_path / "o.json"
        save_dataset(_gt_dataset(), src)
        code = run(["shift", "--in", str(src), "--out", str(out), *given])
        captured = capsys.readouterr()
        assert code == 2
        assert "--shift" in captured.err and "--seed" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_random_shift_is_seeded_and_echoed(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        save_dataset(_gt_dataset(), src)
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert run(["shift", "--in", str(src), "--out", str(out1), "--seed", "7"]) == 0
        echo1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert run(["shift", "--in", str(src), "--out", str(out2), "--seed", "7"]) == 0
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


class TestSchemaField:
    # A file's schema id is named as the file's field, not as a parameter.
    @pytest.mark.parametrize("field", ["schema", "source_schema", "target_schema"])
    def test_a_schema_field_that_is_not_a_string_is_named(self, tmp_path, capsys, field):
        data, mapping, out = tmp_path / "d.json", tmp_path / "m.json", tmp_path / "o.bin"
        if field == "schema":
            data.write_text(json.dumps(json.loads(dataset_to_canonical_json(_one_box())) | {field: 5}))
            argv, path = ["shift", "--in", str(data), "--out", str(out), "--shift", "0"], data
        else:
            save_tensor_map({"head.weight": np.zeros((17, 2, 1, 1), np.float32)}, tmp_path / "w.bin")
            mapping.write_text(json.dumps(mapping_doc(default_mapping()) | {field: 5}))
            argv = ["remap-weights", "--src", str(tmp_path / "w.bin"), "--out", str(out),
                    "--mapping", str(mapping), "--weight-name", "head.weight"]
            path = mapping
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {field} must be str, got 5\n")
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


@pytest.fixture(params=["kernel", "buffer"])
def copy_path(request, monkeypatch):
    """How the container writer copies a tensor of its source: in the kernel,
    or through its buffer where the platform has no ``os.copy_file_range``."""
    if request.param == "buffer":
        monkeypatch.delattr(os, "copy_file_range", raising=False)
    return request.param


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
        (["--weight-name", "head.weight", "--mapping", "bad.json"], "mapping file: missing field(s) ['entries']"),
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

    @pytest.mark.parametrize("shapes, message", [
        ({"w": [1] * 65}, f"expected rank-4 weight [K, C, kh, kw], got shape {(1,) * 65}"),
        ({"w": [17, 1, 1, 1], "b": [17] + [1] * 64}, f"expected bias shape (17,), got {(17,) + (1,) * 64}"),
        ({"w": [0, 10**30, 1, 1]}, "counterpart index 1 out of range for 0 source keypoints (target index 0)"),
    ])
    def test_a_head_shape_numpy_cannot_hold_is_refused_by_the_head_checks(self, tmp_path, capsys,
                                                                         shapes, message):
        # The head is read as bytes, never as an array, so the head's own
        # checks word the refusal.
        src = tmp_path / "in.bin"
        header, payload = {}, b""
        for name, shape in shapes.items():
            nbytes = 4 * math.prod(shape)
            header[name] = {"dtype": "f32", "shape": shape, "begin": len(payload), "end": len(payload) + nbytes}
            payload += b"\x00" * nbytes
        blob = json.dumps(header).encode()
        src.write_bytes(len(blob).to_bytes(8, "little") + blob + payload)
        code = run(["remap-weights", "--src", str(src), "--out", str(tmp_path / "o.bin"),
                    "--weight-name", "w", *(["--bias-name", "b"] if "b" in shapes else [])])
        assert code == 1
        assert capsys.readouterr().err == f"error: {src}: {message}\n"
        assert not (tmp_path / "o.bin").exists()

    @pytest.mark.parametrize("link", ["same path", "hard link", "symbolic link"])
    @pytest.mark.parametrize("src_bytes", ["a container", "not a container"])
    def test_out_that_is_the_src_file_is_refused(self, tmp_path, capsys, link, src_bytes):
        # The driver refuses it before --src is read, so a --src that is not
        # a container gets the same refusal.
        src = self._container(tmp_path)
        if src_bytes == "not a container":
            src.write_bytes(b"not a container")
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
        assert capsys.readouterr().err == f"error: {out}: --out is the same file as --src {src}\n"
        assert src.read_bytes() == before

    def test_out_that_is_the_mapping_file_is_refused(self, tmp_path, capsys):
        # Every declared input counts, not only the one read while --out is written.
        src, mapping = self._container(tmp_path), tmp_path / "m.json"
        mapping.write_text(json.dumps(mapping_doc(default_mapping())))
        before = mapping.read_bytes()
        code = run(["remap-weights", "--src", str(src), "--out", str(mapping), "--mapping", str(mapping),
                    "--weight-name", "head.weight"])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {mapping}: --out is the same file as --mapping {mapping}\n")
        assert mapping.read_bytes() == before

    def test_source_cut_during_the_copy_leaves_no_out(self, tmp_path, capsys, monkeypatch,
                                                      copy_path):
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

    def test_a_cut_copy_through_a_symbolic_link_keeps_the_link(self, tmp_path, capsys, monkeypatch,
                                                               copy_path):
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
    def test_a_failed_write_to_a_fifo_leaves_the_fifo(self, tmp_path, capsys, monkeypatch):
        # The reader takes one byte and closes; 1 MiB is more than the pipe
        # holds, so the write fails with EPIPE. The kernel copies only between
        # regular files, so the first copy call fails with EINVAL and the
        # writer copies through its buffer.
        failed = []
        if hasattr(os, "copy_file_range"):
            kernel_copy = os.copy_file_range

            def recorded(*args):
                try:
                    return kernel_copy(*args)
                except OSError as exc:
                    failed.append(exc.errno)
                    raise

            monkeypatch.setattr(os, "copy_file_range", recorded)
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
        assert capsys.readouterr().err == f"error: {fifo}: {os.strerror(errno.EPIPE)}\n"
        assert fifo.is_fifo()
        assert failed == ([errno.EINVAL] if hasattr(os, "copy_file_range") else [])

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


def _remap_argv(src, out):
    return ["remap-weights", "--src", str(src), "--out", str(out), "--weight-name", "head.weight",
            "--bias-name", "head.bias"]


class TestContainerWrittenInPlace:
    """A container is written over an existing file without truncating it
    first, by ``remap-weights`` and ``save_tensor_map`` alike."""

    def _source(self, tmp_path):
        # remap-weights copies "a" and "z" from the source, around the head.
        path = tmp_path / "in.bin"
        rng = np.random.default_rng(7)
        save_tensor_map({
            "a": rng.standard_normal((3, 5)).astype(np.float32),
            "head.weight": rng.standard_normal((17, 2, 1, 1)).astype(np.float32),
            "head.bias": rng.standard_normal(17).astype(np.float32),
            "z": np.arange(2**16, dtype=np.int64),
        }, path)
        return path

    def _write(self, writer, tmp_path, out):
        src = self._source(tmp_path)
        if writer == "remap-weights":
            return run(_remap_argv(src, out))
        save_tensor_map(load_tensor_map(src), out)
        return 0

    @pytest.mark.parametrize("old", ["longer", "shorter", "same size"])
    @pytest.mark.parametrize("writer", ["remap-weights", "save_tensor_map"])
    def test_an_old_file_ends_equal_to_a_fresh_write(self, tmp_path, copy_path, writer, old):
        fresh, out = tmp_path / "fresh.bin", tmp_path / "out.bin"
        assert self._write(writer, tmp_path, fresh) == 0
        size = fresh.stat().st_size
        out.write_bytes(np.random.default_rng(1).bytes(
            {"longer": 2 * size, "shorter": size // 2, "same size": size}[old]))
        assert self._write(writer, tmp_path, out) == 0
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("writer", ["remap-weights", "save_tensor_map"])
    def test_an_old_file_keeps_its_mode_and_a_new_one_follows_the_umask(self, tmp_path, writer):
        old, new = tmp_path / "old.bin", tmp_path / "new.bin"
        old.write_bytes(b"old")
        old.chmod(0o604)
        umask = os.umask(0o027)
        try:
            assert self._write(writer, tmp_path, old) == 0
            assert self._write(writer, tmp_path, new) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(old.stat().st_mode) == 0o604
        assert stat.S_IMODE(new.stat().st_mode) == 0o640

    def test_an_existing_out_is_written_in_place(self, tmp_path):
        # The one output not renamed into place: the old file is rewritten.
        src, out = self._source(tmp_path), tmp_path / "out.bin"
        out.write_bytes(b"old")
        inode = out.stat().st_ino
        assert run(_remap_argv(src, out)) == 0
        assert out.stat().st_ino == inode
        assert load_tensor_map(out).keys() == load_tensor_map(src).keys()

    def test_a_directory_out_is_refused(self, tmp_path, capsys):
        out = tmp_path / "dir"
        out.mkdir()
        code = run(_remap_argv(self._source(tmp_path), out))
        assert (code, capsys.readouterr().err) == (1, f"error: {out}: {os.strerror(errno.EISDIR)}\n")
        assert out.is_dir()

    def test_a_read_only_out_is_refused_unless_its_bits_do_not_bind(self, tmp_path, capsys):
        src, fresh, out = self._source(tmp_path), tmp_path / "fresh.bin", tmp_path / "ro.bin"
        out.write_bytes(b"old")
        out.chmod(0o444)
        code = run(_remap_argv(src, out))
        err = capsys.readouterr().err
        if os.access(out, os.W_OK):  # a superuser writes it as any other file
            assert (code, err) == (0, "")
            assert run(_remap_argv(src, fresh)) == 0
            assert out.read_bytes() == fresh.read_bytes()
            assert stat.S_IMODE(out.stat().st_mode) == 0o444
        else:
            assert (code, err) == (1, f"error: {out}: {os.strerror(errno.EACCES)}\n")
            assert out.read_bytes() == b"old"

    @pytest.mark.skipif(not hasattr(os, "copy_file_range"), reason="needs os.copy_file_range")
    @pytest.mark.parametrize("old", ["absent", "earlier output"])
    def test_a_write_killed_part_way_leaves_a_malformed_header(self, tmp_path, old):
        # The child exits after copying "a": the head and "z" are still to
        # come. The earlier output has the same layout, so only the zero
        # length prefix keeps a reader from taking old tensors for new ones.
        src, out = self._source(tmp_path), tmp_path / "out.bin"
        if old == "earlier output":
            assert run(_remap_argv(src, out)) == 0
        probe = (
            "import os, sys\n"
            "from panopose.cli import run\n"
            "kernel_copy = os.copy_file_range\n"
            "def copy_then_exit(*args):\n"
            "    try:\n"
            "        return kernel_copy(*args)\n"
            "    finally:\n"
            "        os._exit(3)\n"
            "os.copy_file_range = copy_then_exit\n"
            "run(sys.argv[1:])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", probe, *_remap_argv(src, out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 3, proc.stderr
        with pytest.raises(ValidationError, match="^malformed header"):
            load_tensor_map(out)

    @pytest.mark.skipif(not hasattr(os, "copy_file_range"), reason="needs os.copy_file_range")
    def test_the_kernel_copies_every_other_tensor(self, tmp_path, monkeypatch):
        src, out = self._source(tmp_path), tmp_path / "out.bin"

        def no_buffer(*args):
            raise AssertionError("copied through the buffer")

        monkeypatch.setattr("panopose.weights._Container.chunks", no_buffer)
        assert run(_remap_argv(src, out)) == 0
        assert load_tensor_map(out)["z"].tobytes() == load_tensor_map(src)["z"].tobytes()

    def test_a_first_copy_the_kernel_refuses_goes_through_the_buffer(self, tmp_path, monkeypatch):
        src, fresh, out = self._source(tmp_path), tmp_path / "fresh.bin", tmp_path / "out.bin"
        assert run(_remap_argv(src, fresh)) == 0
        calls = []

        def cross_device(*args):
            calls.append(args)
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setattr(os, "copy_file_range", cross_device, raising=False)
        assert run(_remap_argv(src, out)) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert len(calls) == 1

    def test_a_copy_that_runs_out_of_space_removes_the_partial_out(self, tmp_path, capsys,
                                                                   monkeypatch):
        # The first call copies "a"; the second, for "z", finds the disk full.
        src, out = self._source(tmp_path), tmp_path / "out.bin"
        calls = []

        def full_after_one(src_fd, out_fd, count, offset):
            calls.append(offset)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return os.write(out_fd, os.pread(src_fd, count, offset))

        monkeypatch.setattr(os, "copy_file_range", full_after_one, raising=False)
        code = run(_remap_argv(src, out))
        assert (code, capsys.readouterr().err) == (
            1, f"error: {out}: {os.strerror(errno.ENOSPC)}\n")
        assert len(calls) == 2
        assert not out.exists()


def _files_in(directory) -> dict[str, bytes]:
    """Every entry in ``directory`` by name, with its bytes if it is a file."""
    return {path.name: path.read_bytes() if path.is_file() else None for path in Path(directory).iterdir()}


class TestOutputsLandTogether:
    """The driver writes a command's outputs all or none: each beside its
    target, then renamed into place once every write has succeeded."""

    @staticmethod
    def _eval_argv(tmp_path, report, table):
        gt = tmp_path / "g.json"
        save_dataset(_gt_dataset(), gt)
        return ["eval", "--gt", str(gt), "--pred", str(gt), "--report", str(report), "--table", str(table)]

    @pytest.mark.parametrize("link", ["same path", "new file through a linked directory", "hard link",
                                      "symbolic link"])
    def test_two_outputs_that_name_one_file_are_refused_before_any_input(self, tmp_path, capsys,
                                                                        link):
        # --gt is missing, so a refusal after reading it would name it instead.
        report, table = tmp_path / "same.out", tmp_path / "same.out"
        if link == "new file through a linked directory":
            (tmp_path / "alias").symlink_to(tmp_path)
            table = tmp_path / "alias" / "same.out"
        elif link != "same path":
            report.write_text("old")
            table = tmp_path / "other.out"
            (os.link if link == "hard link" else os.symlink)(report, table)
        before = _files_in(tmp_path)
        code = run(["eval", "--gt", str(tmp_path / "missing.json"), "--pred", str(tmp_path / "missing.json"),
                    "--report", str(report), "--table", str(table)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {table}: --table is the same file as --report {report}\n")
        assert _files_in(tmp_path) == before

    def test_a_fault_part_way_through_the_second_output_leaves_every_target(self, tmp_path, capsys,
                                                                            monkeypatch):
        report, table = tmp_path / "r.json", tmp_path / "t.csv"
        argv = self._eval_argv(tmp_path, report, table)
        report.write_text("old report")
        table.write_text("old table")
        before = _files_in(tmp_path)
        written, write = [], cli._write

        def full_in_the_second(fh, text, mode=None):
            written.append(fh.name)
            if len(written) < 2:
                return write(fh, text, mode)
            with fh:
                fh.write(text.encode()[:len(text) // 2])
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        monkeypatch.setattr(cli, "_write", full_in_the_second)
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {table}: {os.strerror(errno.EFBIG)}\n")
        assert [Path(name).parent for name in written] == [tmp_path, tmp_path]
        assert _files_in(tmp_path) == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_a_fifo_is_written_directly_and_named_when_its_reader_leaves(self, tmp_path, capsys):
        # The dataset is larger than a pipe holds, so a reader that takes one
        # byte and closes makes the write fail with EPIPE.
        data, fresh, fifo = tmp_path / "d.json", tmp_path / "fresh.json", tmp_path / "out.fifo"
        save_dataset(make_ground_truth(np.random.default_rng(3), num_frames=100, people=(3, 3)), data)
        assert run(["shift", "--in", str(data), "--out", str(fresh), "--shift", "0"]) == 0
        assert fresh.stat().st_size > 2**17
        os.mkfifo(fifo)
        for take in (None, 1):
            received = []

            def read(take=take):
                with open(fifo, "rb") as fh:
                    received.append(fh.read() if take is None else fh.read(take))

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            capsys.readouterr()
            code = run(["shift", "--in", str(data), "--out", str(fifo), "--shift", "0"])
            reader.join(10)
            assert not reader.is_alive()
            if take is None:
                assert (code, received) == (0, [fresh.read_bytes()])
            else:
                assert (code, capsys.readouterr().err) == (1, f"error: {fifo}: {os.strerror(errno.EPIPE)}\n")
            assert fifo.is_fifo()
            assert sorted(os.listdir(tmp_path)) == ["d.json", "fresh.json", "out.fifo"]

    def test_dev_stdout_is_written_directly(self, tmp_path):
        save_dataset(_one_box(), tmp_path / "d.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-m", "panopose", "nms", "--pred", "d.json", "--out", "/dev/stdout"],
                              capture_output=True, env=env, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, b"")
        data = (tmp_path / "d.json").read_bytes()
        assert proc.stdout.startswith(data)
        assert json.loads(proc.stdout[len(data):])["out"] == "/dev/stdout"

    # Each command with an output flag, without the value of its output flags.
    _TO_STDOUT = {
        "remap-weights": (["remap-weights", "--src", "w.bin", "--weight-name", "head.weight",
                           "--bias-name", "head.bias"], ["out"]),
        "boxes-from-poses": (["boxes-from-poses", "--in", "d.json"], ["out"]),
        "shift": (["shift", "--in", "d.json", "--shift", "5"], ["out"]),
        "nms": (["nms", "--pred", "d.json"], ["out"]),
        "decode": (["decode", "--heatmaps", "heat.bin", "--dets", "d.json"], ["out"]),
        "eval": (["eval", "--gt", "d.json", "--pred", "d.json"], ["report", "table"]),
    }

    @pytest.mark.parametrize("command", list(_TO_STDOUT))
    def test_dev_stdout_redirected_to_a_file_holds_what_a_pipe_gets(self, tmp_path, capsys, monkeypatch,
                                                                  command):
        # /dev/stdout is written through the descriptor at its position, so
        # with > or with >> after earlier bytes the file gets the bytes a
        # pipe gets: the outputs, the lines, then the echo.
        save_dataset(dataset("jrdb17", PANO, [("f1", [person(box=(90, 190, 210, 290), pose=_pose17(),
                                                            score=0.8)])]), tmp_path / "d.json")
        save_tensor_map({"f1/0": np.arange(17 * 6 * 5, dtype=np.float32).reshape(17, 6, 5)},
                        tmp_path / "heat.bin")
        save_tensor_map({"head.weight": np.arange(34, dtype=np.float32).reshape(17, 2, 1, 1),
                         "head.bias": np.arange(17, dtype=np.float32),
                         "stem": np.arange(2**16, dtype=np.float32)}, tmp_path / "w.bin")
        argv, flags = self._TO_STDOUT[command]
        monkeypatch.chdir(tmp_path)  # the inputs are named as the child names them
        files = [tmp_path / f"{flag}.out" for flag in flags]
        assert run(argv + [arg for flag, path in zip(flags, files) for arg in (f"--{flag}", str(path))]) == 0
        capsys.readouterr()
        outputs = b"".join(path.read_bytes() for path in files)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        child = [sys.executable, "-m", "panopose", *argv] + [arg for flag in flags
                                                             for arg in (f"--{flag}", "/dev/stdout")]
        piped = subprocess.run(child, capture_output=True, env=env, cwd=tmp_path)
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert piped.stdout.startswith(outputs)
        echo = json.loads(piped.stdout[len(outputs):].splitlines()[-1])
        assert [echo[flag] for flag in flags] == ["/dev/stdout"] * len(flags)
        for mode, earlier in (("wb", b""), ("ab", b"earlier bytes\n")):
            captured = tmp_path / "captured"
            captured.write_bytes(earlier)
            with open(captured, mode) as stdout:
                proc = subprocess.run(child, stdout=stdout, stderr=subprocess.PIPE, env=env, cwd=tmp_path)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert captured.read_bytes() == earlier + piped.stdout, mode
            if command == "remap-weights":
                part = tmp_path / "part.bin"
                part.write_bytes(captured.read_bytes()[len(earlier):len(earlier) + len(outputs)])
                assert same_tensors(load_tensor_map(part), load_tensor_map(files[0]))

    def test_two_outputs_to_dev_null_are_not_one_file(self, tmp_path, capsys):
        argv = self._eval_argv(tmp_path, "/dev/null", "/dev/null")
        assert run(argv) == 0
        assert capsys.readouterr().err == ""

    def test_a_staged_output_may_be_its_input(self, tmp_path):
        # The shifted dataset is written beside d.json and renamed over it,
        # after d.json has been read.
        data, fresh = tmp_path / "d.json", tmp_path / "fresh.json"
        save_dataset(_gt_dataset(), data)
        assert run(["shift", "--in", str(data), "--out", str(fresh), "--shift", "5"]) == 0
        assert run(["shift", "--in", str(data), "--out", str(data), "--shift", "5"]) == 0
        assert data.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["d.json", "fresh.json"]

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_FSIZE as Linux applies it")
    def test_a_write_past_the_file_size_limit_leaves_the_old_output(self, tmp_path):
        # The new output and the old one are each larger than the limit.
        data, out = tmp_path / "d.json", tmp_path / "out.json"
        save_dataset(make_ground_truth(np.random.default_rng(5), num_frames=100, people=(3, 3)), data)
        assert run(["shift", "--in", str(data), "--out", str(out), "--shift", "0"]) == 0
        old = out.read_bytes()
        assert len(old) > 200_000
        probe = (
            "import resource, signal, sys\n"
            "from panopose.cli import run\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, resource.RLIM_INFINITY))\n"
            "sys.exit(run(sys.argv[1:]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", probe, "shift", "--in", str(data), "--out", str(out),
                               "--shift", "7"], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {out}: {os.strerror(errno.EFBIG)}\n"
        assert out.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["d.json", "out.json"]

    @pytest.mark.parametrize("output", ["dataset", "report", "table"])
    def test_an_old_file_keeps_its_mode_and_a_new_one_follows_the_umask(self, tmp_path, output):
        def write(path):
            if output == "dataset":
                save_dataset(_one_box(), tmp_path / "d.json")
                return run(["nms", "--pred", str(tmp_path / "d.json"), "--out", str(path)])
            other = tmp_path / "other.out"
            return run(self._eval_argv(tmp_path, *((path, other) if output == "report" else (other, path))))

        old, new = tmp_path / "old.out", tmp_path / "new.out"
        old.write_bytes(b"old")
        old.chmod(0o604)
        umask = os.umask(0o027)
        try:
            assert write(old) == 0
            assert write(new) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(old.stat().st_mode) == 0o604
        assert stat.S_IMODE(new.stat().st_mode) == 0o640
        assert old.read_bytes() == new.read_bytes()

    @pytest.mark.parametrize("output", ["dataset", "report", "table", "container"])
    def test_a_target_in_a_cycle_of_links_is_named(self, tmp_path, capsys, output):
        # The descriptor lookup gives up after as many links as Linux follows.
        save_dataset(_one_box(), tmp_path / "d.json")
        save_tensor_map({"head.weight": np.zeros((17, 2, 1, 1), np.float32)}, tmp_path / "w.bin")
        out, other = tmp_path / "a", tmp_path / "b"
        out.symlink_to(other)
        other.symlink_to(out)
        argv = {"dataset": ["nms", "--pred", str(tmp_path / "d.json"), "--out", str(out)],
                "report": self._eval_argv(tmp_path, out, tmp_path / "t.csv"),
                "table": self._eval_argv(tmp_path, tmp_path / "r.json", out),
                "container": ["remap-weights", "--src", str(tmp_path / "w.bin"), "--out", str(out),
                              "--weight-name", "head.weight"]}[output]
        before = _files_in(tmp_path)
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {out}: {os.strerror(errno.ELOOP)}\n")
        assert _files_in(tmp_path) == before

    def test_a_target_name_of_the_longest_length_is_written(self, tmp_path):
        # The new file's name does not grow with the target's.
        save_dataset(_one_box(), tmp_path / "d.json")
        out = tmp_path / ("o" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 5) + ".json")
        assert run(["nms", "--pred", str(tmp_path / "d.json"), "--out", str(out)]) == 0
        assert sorted(os.listdir(tmp_path)) == ["d.json", out.name]

    def test_a_symbolic_link_target_keeps_the_link_and_replaces_its_file(self, tmp_path):
        save_dataset(_one_box(), tmp_path / "d.json")
        real, link, fresh = tmp_path / "real" / "o.json", tmp_path / "link.json", tmp_path / "fresh.json"
        real.parent.mkdir()
        real.write_bytes(b"old")
        link.symlink_to(real)
        for out in (link, fresh):
            assert run(["nms", "--pred", str(tmp_path / "d.json"), "--out", str(out)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == fresh.read_bytes()
        assert os.listdir(real.parent) == ["o.json"]


class TestDecodeCommand:
    def test_end_to_end(self, tmp_path, capsys):
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
        echo = json.loads(capsys.readouterr().out)
        assert (echo["crop_width"], echo["crop_height"]) == (288.0, 384.0)  # 72 x 96 cells at stride 4
        preds = load_predictions(out_path, JRDB17)
        assert preds.scores.tolist() == [0.9]
        assert preds.keypoints.shape == (1, 17, 3)
        # identity-scale crop: cell (10, 20) -> crop (82, 42) -> pano (182, 92)
        assert preds.keypoints[0, 0, 0] == pytest.approx(182.0, abs=1e-9)
        assert preds.keypoints[0, 0, 1] == pytest.approx(92.0, abs=1e-9)

    def test_no_detections_have_no_crop(self, tmp_path, capsys):
        dets_path, heat_path, out = tmp_path / "dets.json", tmp_path / "heat.bin", tmp_path / "o.json"
        save_dataset(dataset("jrdb17", PANO, [("f1", [])]), dets_path)
        save_tensor_map({"other": np.ones((17, 4, 4), np.float32)}, heat_path)
        assert run(["decode", "--heatmaps", str(heat_path), "--dets", str(dets_path), "--out", str(out)]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert (echo["crop_width"], echo["crop_height"]) == (None, None)
        assert out.read_bytes() == dets_path.read_bytes()

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

    @pytest.mark.parametrize("shape, reason", [
        ((17, 4), "grid must be [K, h, w] with K, h, w >= 1, got shape (17, 4)"),
        ((17, 4, 4, 1), "grid must be [K, h, w] with K, h, w >= 1, got shape (17, 4, 4, 1)"),
        ((17, 0, 4), "grid must be [K, h, w] with K, h, w >= 1, got shape (17, 0, 4)"),
        ((16, 4, 4), "grid must be [K, h, w] with K = 17, got shape (16, 4, 4)"),
    ])
    def test_one_grid_rule_for_the_command_and_the_library(self, tmp_path, capsys, shape, reason):
        # The library knows no schema, so only the command refuses a K other
        # than the schema's keypoint count.
        if shape[0] == 17:
            with pytest.raises(ValueError) as refused:
                decode_heatmaps(np.ones(shape), 4.0, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
            assert str(refused.value) == reason
        assert self._decode_one(tmp_path, np.ones(shape, np.float32)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: frame 'f1', person 0: heatmap tensor 'f1/0': {reason}\n"
        assert captured.out == ""
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
        (["ok", "nan", "missing"], "missing heatmap tensor 'f1/2'"),
        (["ok", "shape", "nan"], "heatmap tensor 'f1/1': grid must be [K, h, w] with K, h, w >= 1, "
                                 "got shape (17, 0, 4)"),
        (["nan", "ok", "tall"], "heatmap tensor 'f1/2' has shape (17, 5, 4), but 'f1/0' has "
                                "(17, 4, 4): every detection needs one grid shape"),
        (["ok", "nan", "nan"], "heatmap tensor 'f1/1': keypoint 3: heatmap peak is nan"),
    ])
    def test_first_faulty_detection_is_reported(self, tmp_path, capsys, grids, message):
        # Every detection's tensor is found and its shape checked in the
        # header first; then each is read in turn, all the way to its peaks,
        # before the next one.
        ok = np.ones((17, 4, 4), np.float32)
        nan = ok.copy()
        nan[3] = np.nan
        kinds = {"ok": ok, "nan": nan, "shape": np.ones((17, 0, 4), np.float32),
                 "tall": np.ones((17, 5, 4), np.float32)}
        save_dataset(dataset("jrdb17", PANO, [("f1", [person(box=(10 * i, 0, 10 * i + 8, 20), score=0.5)
                                                      for i in range(len(grids))])]),
                     tmp_path / "dets.json")
        save_tensor_map({f"f1/{i}": kinds[kind] for i, kind in enumerate(grids) if kind != "missing"},
                        tmp_path / "heat.bin")
        code = run(["decode", "--heatmaps", str(tmp_path / "heat.bin"), "--dets", str(tmp_path / "dets.json"),
                    "--out", str(tmp_path / "o.json")])
        assert code == 1
        person_index = re.search(r"'f1/(\d)'", message).group(1)
        captured = capsys.readouterr()
        assert captured.err == f"error: frame 'f1', person {person_index}: {message}\n"
        assert captured.out == ""
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

    @pytest.mark.parametrize("command, removed", [("decode", "--crop-width"), ("decode", "--crop-height"),
                                                  ("shift", "--random")])
    def test_options_the_input_decides_are_not_offered(self, capsys, command, removed):
        assert run([command, "--help"]) == 0
        assert removed not in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "panopose", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "panopose" in proc.stdout

    @pytest.mark.skipif(not Path("/proc/self/status").exists()
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc/self/status and more than one CPU")
    def test_a_command_process_starts_no_blas_threads(self, tmp_path):
        # The child runs as `python -m panopose nms ...` and reads its own
        # thread count at exit, when numpy and its BLAS are loaded.
        save_dataset(_one_box(), tmp_path / "d.json")
        probe = (
            "import atexit, re, runpy, sys\n"
            "def threads():\n"
            "    status = open('/proc/self/status').read()\n"
            "    count = re.search(r'Threads:\\s+(\\d+)', status).group(1)\n"
            "    sys.stderr.write(f\"{'numpy' in sys.modules} {count}\")\n"
            "atexit.register(threads)\n"
            "sys.argv[0] = 'panopose'\n"
            "runpy.run_module('panopose', run_name='__main__', alter_sys=True)\n"
        )
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", probe, "nms", "--pred", "d.json", "--out", "o.json"],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "True 1"  # numpy is loaded, and no thread but the main one runs

    def test_a_command_process_runs_without_the_cyclic_collector(self, tmp_path):
        # The child runs as `python -m panopose nms ...` and reads the
        # collector's state at exit; run() in this process leaves it on.
        save_dataset(_one_box(), tmp_path / "d.json")
        probe = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: sys.stderr.write(f'{gc.isenabled()} {gc.get_freeze_count() > 0}'))\n"
            "sys.argv[0] = 'panopose'\n"
            "runpy.run_module('panopose', run_name='__main__', alter_sys=True)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", probe, "nms", "--pred", "d.json", "--out", "o.json"],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "False True"
        assert run(["nms", "--pred", str(tmp_path / "d.json"), "--out", str(tmp_path / "o.json")]) == 0
        assert gc.isenabled()

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
        # The mapping file averages nine sources into one target, so the bias
        # adds more than the eight from which numpy's mean would add pairwise.
        rng = np.random.default_rng(41)
        save_tensor_map({
            "head.weight": rng.standard_normal((17, 3, 2, 1)).astype(np.float32),
            "head.bias": rng.standard_normal(17).astype(np.float32),
            "stem": rng.integers(0, 256, (5, 7)).astype(np.uint8),
            "stem.scale": rng.standard_normal(3),
        }, tmp_path / "w.bin")
        # A head with a zero extent, and one of more dimensions than numpy
        # holds, which the rank-4 check refuses.
        save_tensor_map({"head.weight": np.ones((17, 0, 1, 1), np.float32),
                         "head.bias": rng.standard_normal(17).astype(np.float32)}, tmp_path / "zero.bin")
        blob = json.dumps({"head.weight": {"dtype": "f32", "shape": [1] * 65, "begin": 0, "end": 4}}).encode()
        (tmp_path / "deep.bin").write_bytes(len(blob).to_bytes(8, "little") + blob + bytes(4))
        wide = SchemaMapping("coco17", "jrdb17", (tuple(range(9)),) + default_mapping().entries[1:])
        (tmp_path / "m.json").write_text(json.dumps(mapping_doc(wide)))
        mappings = {"default.bin": ("w.bin", [], default_mapping()),
                    "verbatim.bin": ("w.bin", ["--verbatim-table1"], default_mapping(True)),
                    "file.bin": ("w.bin", ["--mapping", "m.json"], wide),
                    "zero_out.bin": ("zero.bin", [], default_mapping())}
        argvs = [["--version"], ["--help"], ["remap-weights", "--help"]] + [
            ["remap-weights", "--src", src, "--out", out, "--weight-name", "head.weight",
             "--bias-name", "head.bias", *flags] for out, (src, flags, _) in mappings.items()] + [
            ["remap-weights", "--src", "deep.bin", "--out", "deep_out.bin", "--weight-name", "head.weight"]]
        refused = f"error: deep.bin: expected rank-4 weight [K, C, kh, kw], got shape {(1,) * 65}\n"
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
        assert json.loads(codes) == [0] * (len(argvs) - 1) + [1]
        assert proc.stderr == refused
        assert not Path("deep_out.bin").exists()
        for out, (src, _, mapping) in mappings.items():
            save_tensor_map(remap_head_weights(load_tensor_map(src), "head.weight", mapping,
                                               "head.bias"), "library.bin")
            assert Path(out).read_bytes() == Path("library.bin").read_bytes(), out
        capsys.readouterr()
        assert [run(argv) for argv in argvs] == [0] * (len(argvs) - 1) + [1]
        assert capsys.readouterr() == ("".join(printed), refused)
