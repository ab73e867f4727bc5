"""README.md stays true to the package: every command line of its CLI
section parses, its library example runs, every refusal it quotes is the
package's own text, and its "Library use" section names every public name
of ``panopose`` and, in its table of names, no other."""

import contextlib
import inspect
import io
import json
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from synth import DEFAULT_PANO, dataset, make_ground_truth, mapping_doc, perturb_predictions, person

import panopose
from panopose.cli import build_parser, run
from panopose.dataio import save_dataset
from panopose.metrics import evaluate
from panopose.weights import save_tensor_map

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_every_cli_example_parses(capsys):
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.DOTALL).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("panopose ")]
    assert len(lines) >= 7
    refused = []
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            refused.append((line, capsys.readouterr().err))
    assert refused == []


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    snippet = re.search(r"```python\n(.*?)```", _section("Library use"), re.DOTALL).group(1)
    rng = np.random.default_rng(23)
    gt = make_ground_truth(rng, num_frames=4, people=(1, 3))
    preds = perturb_predictions(gt, rng, 4.0)
    save_dataset(gt, tmp_path / "gt.json")
    save_dataset(preds, tmp_path / "pred.json")
    weight = rng.normal(size=(17, 8, 1, 1)).astype(np.float32)
    bias = np.arange(17, dtype=np.float32)
    save_tensor_map({"final.weight": weight, "final.bias": bias}, tmp_path / "head.bin")
    monkeypatch.chdir(tmp_path)  # the snippet's paths are relative
    exec(compile(snippet, str(README), "exec"), {})
    assert (tmp_path / "head_remapped.bin").is_file()
    report = evaluate(preds, gt)
    assert capsys.readouterr().out == f"{report.ospa_iou} {report.ap_05}\n"


def _public_names() -> list[str]:
    """``panopose.__all__``, whose names load on first use: each must
    resolve, and no other public name may be bound."""
    for name in panopose.__all__:
        assert not inspect.ismodule(getattr(panopose, name)), name
    bound = [name for name, value in vars(panopose).items()
             if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(bound) == sorted(panopose.__all__)
    return list(panopose.__all__)


def test_every_public_name_is_in_readme():
    section = _section("Library use")
    names = _public_names()
    assert "evaluate" in names
    assert [name for name in names if f"`{name}`" not in section] == []


def test_every_name_in_the_readme_table_is_public():
    section = _section("Library use")
    table = section[section.index("| Name | Use |"):].split("\n\n")[0]
    cells = [line.split("|")[1] for line in table.splitlines()[2:]]
    documented = [name for cell in cells for name in re.findall(r"`([^`]+)`", cell)]
    assert "evaluate" in documented
    assert sorted(set(documented) - set(_public_names())) == []



_BOX = [0.0, 0.0, 10.0, 10.0]
_IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def _raised(call, *args, **kwargs) -> str:
    with pytest.raises(panopose.ValidationError) as info:
        call(*args, **kwargs)
    return str(info.value)


def _file(tmp: Path, doc, name: str = "doc.json") -> Path:
    (tmp / name).write_text(json.dumps(doc), encoding="utf-8")
    return tmp / name


def _dataset_doc(persons, **changes) -> dict:
    return {"schema": "jrdb17", "pano": {"width": 100, "height": 50},
            "frames": [{"frame_id": "f1", "persons": persons}]} | changes


def _container(tmp: Path, header: dict, payload: bytes) -> Path:
    blob = json.dumps(header).encode()
    (tmp / "t.bin").write_bytes(struct.pack("<Q", len(blob)) + blob + payload)
    return tmp / "t.bin"


def _decode_error(tmp: Path, grid: tuple) -> str:
    """What ``panopose decode`` prints for one detection whose heatmap has
    shape ``grid``."""
    save_tensor_map({"f1/0": np.zeros(grid, dtype=np.float32)}, tmp / "heat.bin")
    _file(tmp, _dataset_doc([{"box": _BOX, "score": 0.5}]), "dets.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["decode", "--heatmaps", str(tmp / "heat.bin"), "--dets", str(tmp / "dets.json"),
                    "--out", str(tmp / "out.json"), "--stride", "4"])
    assert code == 1
    return err.getvalue().rstrip("\n")


def _mapping_file(tmp: Path, drop: str | None = None, **changes) -> Path:
    """The built-in mapping's file, without target ``drop`` and with
    ``changes`` at its top level."""
    doc = mapping_doc(panopose.default_mapping()) | changes
    doc["entries"].pop(drop, None)
    return _file(tmp, doc)


def _saved(tmp: Path, pose) -> Path:
    """The file ``save_dataset`` writes for a jrdb17 dataset of one person
    with ``pose``, built by the constructor."""
    ds = panopose.Dataset("jrdb17", DEFAULT_PANO, ["f1"], [0, 1], ids=[None], boxes=[_BOX], has_box=[False],
                          scores=[0.0], has_score=[False], keypoints=[pose], has_pose=[True])
    save_dataset(ds, tmp / "saved.json")
    return tmp / "saved.json"


def _boxed(**fields):
    return dataset("jrdb17", DEFAULT_PANO, [("f1", [person(box=_BOX, **fields)])])


# Each refusal that README quotes, and what the package says for it: the
# message of a library call, or the error line of a command. A quote that
# ends a longer message is the end of what the call says.
REFUSALS = {
    "schema must be str, got 5": lambda tmp: _raised(
        panopose.load_ground_truth, _file(tmp, _dataset_doc([], schema=5)), None),
    "pano must be an object": lambda tmp: _raised(
        panopose.load_ground_truth, _file(tmp, _dataset_doc([], pano=1)), panopose.builtin_schema("jrdb17")),
    "entries: missing field(s) ['neck']": lambda tmp: _raised(
        panopose.load_mapping, _mapping_file(tmp, "neck")),
    "frame 'f1', person 0: unexpected field(s) ['conf']": lambda tmp: _raised(
        panopose.load_ground_truth, _file(tmp, _dataset_doc([{"box": _BOX, "conf": 1}])),
        panopose.builtin_schema("jrdb17")),
    "malformed header: tensor 'w': unexpected field(s) ['stride']": lambda tmp: _raised(
        panopose.load_tensor_map, _container(tmp, {"w": {"dtype": "u8", "shape": [1], "begin": 0, "end": 1,
                                                           "stride": [1]}}, b"\x00")),
    "mapping file: unexpected field(s) ['comment']": lambda tmp: _raised(
        panopose.load_mapping, _mapping_file(tmp, comment="hand-written")),
    "error: frame 'f1', person 0: heatmap tensor 'f1/0': grid must be [K, h, w] with K, h, w >= 1, "
    "got shape (17, 0, 4)": lambda tmp: _decode_error(tmp, (17, 0, 4)),
    "grid must be [K, h, w] with K = 17, got shape (16, 4, 4)": lambda tmp: _decode_error(tmp, (16, 4, 4)),
    "scores must be [2], got shape (2, 2)": lambda tmp: _raised(
        panopose.Dataset, "jrdb17", DEFAULT_PANO, ["f1"], [0, 2], ids=[None, None], boxes=[_BOX, _BOX],
        has_box=[True, True], scores=[[0.5, 0.5], [0.5, 0.5]], has_score=[True, True], keypoints=[],
        has_pose=[False, False]),
    "ids must be [1], got shape (0,)": lambda tmp: _raised(
        panopose.Dataset, "jrdb17", DEFAULT_PANO, ["f1"], [0, 1], ids=[], boxes=[_BOX], has_box=[True],
        scores=[0.5], has_score=[True], keypoints=[], has_pose=[False]),
    "path must be str or PathLike, got 3": lambda tmp: _raised(panopose.load_tensor_map, 3),
    "stride must be in (0, inf), got 0.0": lambda tmp: _raised(
        panopose.decode_heatmaps, np.ones((17, 4, 3)), 0.0, _IDENTITY),
    "iou threshold must be in [0, 1], got 7.0": lambda tmp: _raised(panopose.nms, [_BOX], [0.5], 7.0),
    "got an integer beyond float range": lambda tmp: _raised(panopose.PanoramaSpec, 10**400, 1),
    "panorama width must be in (0, inf), got '5'": lambda tmp: _raised(panopose.PanoramaSpec, "5", 1),
    "points must be [..., 2], got shape (1, 3)": lambda tmp: _raised(panopose.apply_transform, _IDENTITY,
                                                                     [[1, 2, 3]]),
    "config must be EvalConfig or None, got 'x'": lambda tmp: _raised(
        evaluate, _boxed(score=0.5), _boxed(), "x"),
    "frame 'f1', person 0: prediction without score": lambda tmp: _raised(evaluate, _boxed(), _boxed()),
    "frame 'f1', person 0: pose has 5 keypoints, schema 'jrdb17' expects 17": lambda tmp: _raised(
        panopose.load_ground_truth, _saved(tmp, [[1.0, 2.0, 2]] * 5), panopose.builtin_schema("jrdb17")),
}


def _quoted_refusals() -> list[str]:
    """Every code span of README, outside code blocks, that words a refusal
    of a rule (not a ``<name>`` template), with its line breaks as spaces."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    spans = (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text))
    return [span for span in spans if "<" not in span
            and re.search(r"must be|field\(s\)|without score|got an|expects", span)]


def test_every_refusal_readme_quotes_is_the_packages_text(tmp_path):
    quoted = _quoted_refusals()
    assert sorted(set(quoted)) == sorted(REFUSALS)
    for quote, said in REFUSALS.items():
        message = said(tmp_path)
        assert message == quote or message.endswith((": " + quote, ", " + quote)), (quote, message)
