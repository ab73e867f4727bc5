"""README.md stays true to the package: every command line of its CLI
section parses, its library example runs, and its "Library use" section
names every public name of ``panopose`` and, in its table of names, no
other."""

import inspect
import re
import shlex
from pathlib import Path

import numpy as np

from synth import make_ground_truth, perturb_predictions

import panopose
from panopose.cli import build_parser
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
