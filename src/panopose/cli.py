"""Command-line pipeline front end.

Subcommands mirror the processing stages: ``remap-weights`` rebuilds a
checkpoint head for a new keypoint schema, ``boxes-from-poses`` / ``shift`` /
``nms`` prepare panoramic detections, ``decode`` turns heatmap containers
into poses, and ``eval`` scores predictions against ground truth.

:func:`run` is the one driver. A command reads its inputs and returns its
outputs as (path, text) pairs, the lines it prints, and the echo fields that
its options do not give. The outputs land all or none (:func:`_land`); only
then are the lines printed, and a one-line JSON echo of the effective
configuration: each option of the subcommand by its flag (``--weight-name``
as ``weight_name``), with the returned fields. A file fault reads
``error: <path>: <reason>``. Before any input is read, :func:`run` refuses
two declared flags that name one regular or new file: two outputs, or an
input and an output written in place (``remap-weights --out``, by
``weights._write_container``); a staged output may be its own input. A
target that names a descriptor, such as ``/dev/stdout``, is written through
a duplicate of it (:func:`errors._descriptor`). No command asks for what its
input fixes: ``boxes-from-poses`` and ``shift`` take the panorama size from
the input file's ``pano``, ``decode`` the crop size from the heatmap grid,
and ``eval`` matches at OKS 0.5, the ``ap_05`` it prints.
Exit codes: 0 success, 1 validation error, 2 usage error. Each command
imports the modules it uses when it runs, so a process loads no others:
``nms`` never loads ``metrics``, ``weights`` or ``decode``, and
``remap-weights`` and ``--version`` never load numpy or ``geometry``: the
parser's box, NMS and padding defaults come from :mod:`panopose._defaults`.
No command makes a BLAS call, so :func:`main` sets ``OPENBLAS_NUM_THREADS=1``
where it is unset, before numpy loads. It also runs its one command with the
cyclic garbage collector off, and freezes every object before exit, so no
collection runs over numpy's objects; :func:`run`, like a dataset loader,
leaves the collector as it is.

``eval`` reads ``--gt`` in a child made by ``os.fork`` while it reads
``--pred`` (:func:`_started`); the child sends back the dataset, or the
error it raised, over a pipe. Each process holds one parsed document, and a
``--gt`` fault is still the one reported when both files are faulty. Where
there is no ``os.fork``, or the child fails, ``--gt`` is read in process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import stat
import sys
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Sequence

from . import __version__
from ._defaults import DEFAULT_BOX_MARGIN, DEFAULT_CROP_PADDING, DEFAULT_NMS_IOU
from .errors import ValidationError, _check_number, _descriptor, _direct, _first, _in_file, _located

if TYPE_CHECKING:
    from .dataio import Dataset

# What a command returns: its outputs as (path, text) pairs, the lines it
# prints, and the echo fields that its options do not give.
_Result = tuple[list[tuple[str, str]], list[str], dict[str, Any]]


def _load_dataset(path: str, *, require_scores: bool) -> Dataset:
    """The dataset file at ``path`` in the schema it names; any
    :class:`ValidationError` or ``OSError`` names ``path``."""
    from .dataio import _load

    return _in_file(path, _load, Path(path), None, require_scores)


def _cmd_remap_weights(args: argparse.Namespace) -> _Result:
    from .schema import default_mapping, load_mapping
    from .weights import _Container, _remap_head, _write_container

    with _in_file(args.src, open, args.src, "rb") as fh:
        src = _in_file(args.src, _Container, fh)
        if args.mapping is not None:
            mapping = _in_file(args.mapping, load_mapping, args.mapping)
        else:
            mapping = default_mapping(args.verbatim_table1)
        head = _in_file(args.src, _remap_head, src.raw, args.weight_name, mapping, args.bias_name)
        try:
            _write_container(args.out, head, src)
        except ValidationError as exc:  # a --src tensor cut short while it is copied
            raise ValidationError(f"{args.src}: {exc}") from exc
        except OSError as exc:
            raise ValidationError(f"{args.out}: {exc.strerror or exc}") from exc
    label = f"builtin:{mapping.source_schema}->{mapping.target_schema}"
    return [], [], {} if args.mapping else {"mapping": label}


def _cmd_boxes_from_poses(args: argparse.Namespace) -> _Result:
    from .dataio import dataset_to_canonical_json
    from .geometry import _pose_bboxes

    ds = _load_dataset(getattr(args, "in"), require_scores=False)
    rows = ds.has_pose.nonzero()[0]
    derived = _located(ds.frame_ids, ds.offsets, _pose_bboxes, ds.keypoints[rows], args.margin, ds.pano,
                       rows=rows)
    boxes = ds.boxes.copy()
    boxes[rows] = derived
    out = ds._with(boxes=boxes, has_box=ds.has_box | ds.has_pose)
    return ([(args.out, dataset_to_canonical_json(out))], [],
            {"pano_width": ds.pano.width, "pano_height": ds.pano.height})


def _cmd_shift(args: argparse.Namespace) -> _Result:
    from .dataio import dataset_to_canonical_json
    from .geometry import shift_dataset

    ds = _load_dataset(getattr(args, "in"), require_scores=False)
    if args.seed is None:
        shift = args.shift
    else:
        shift = random.Random(args.seed).random() * ds.pano.width
    return ([(args.out, dataset_to_canonical_json(shift_dataset(ds, shift)))], [],
            {"shift": shift, "pano_width": ds.pano.width, "pano_height": ds.pano.height})


def _cmd_nms(args: argparse.Namespace) -> _Result:
    from .dataio import dataset_to_canonical_json
    from .geometry import _nms_rows

    ds = _load_dataset(args.pred, require_scores=True)
    _located(ds.frame_ids, ds.offsets, _first, ds.has_box, "nms requires a box")
    kept = _nms_rows(ds.boxes, ds.scores, ds.offsets.tolist(), args.nms_iou)
    return [(args.out, dataset_to_canonical_json(ds._with(sorted(kept))))], [], {}


def _cmd_decode(args: argparse.Namespace) -> _Result:
    from .dataio import dataset_to_canonical_json
    from .decode import _decode_dataset

    _check_number("stride", args.stride)
    _check_number("padding", args.padding)
    dets = _load_dataset(args.dets, require_scores=True)
    _located(dets.frame_ids, dets.offsets, _first, dets.has_box, "decode requires a box")
    out, crop = _decode_dataset(args.heatmaps, dets, args.stride, args.padding)
    return [(args.out, dataset_to_canonical_json(out))], [], {"crop_width": crop[0], "crop_height": crop[1]}


def _started(call: Callable[[], Any]) -> Callable[[], Any]:
    """Start ``call()`` in a child process made by ``os.fork``, and return a
    function that closes the pipe, reaps the child and returns ``call()``'s
    result or raises the ValidationError, ValueError or OSError it raised;
    it must be called on every path. Where there is no ``os.fork``, where it
    fails, or where the child ends without a whole result, that function
    runs ``call()`` in this process instead."""
    import pickle

    if not hasattr(os, "fork"):
        return call
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return call
    if pid == 0:  # the child never returns into the caller, nor flushes the stdio it inherited
        code = 1
        try:
            os.close(read_end)
            try:
                result = call()
            except (ValidationError, ValueError, OSError) as exc:
                result = exc
            with open(write_end, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        except BaseException:  # the parent sees no result and runs call() itself
            pass
        finally:
            os._exit(code)
    os.close(write_end)

    def result() -> Any:
        try:
            with open(read_end, "rb") as pipe:
                received = pickle.load(pipe)
        except Exception:  # EOFError or UnpicklingError: no whole result came
            received = None
        finally:
            os.waitpid(pid, 0)
        if received is None:
            return call()
        if isinstance(received, BaseException):
            raise received
        return received

    return result


def _cmd_eval(args: argparse.Namespace) -> _Result:
    from .metrics import evaluate, frame_table_csv, report_json

    # Each process holds one parsed document. A --gt fault is raised first,
    # as when --gt was read before --pred.
    gt_result = _started(lambda: _load_dataset(args.gt, require_scores=False))
    try:
        preds = _load_dataset(args.pred, require_scores=True)
    finally:
        gts = gt_result()
    report = evaluate(preds, gts)
    outputs = [(path, text(report)) for path, text in ((args.report, report_json),
                                                       (args.table, frame_table_csv)) if path]
    lines = [f"ospa_iou {report.ospa_iou:.3f}", f"ap_05 {report.ap_05:.3f}"]
    return outputs, lines, {"config": report.config}


def _same_file(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` name one regular file, or one new file; a
    descriptor (:func:`errors._descriptor`) names none."""
    if _descriptor(a) is not None or _descriptor(b) is not None:
        return False
    try:
        found = os.stat(a)
        return stat.S_ISREG(found.st_mode) and os.path.samestat(found, os.stat(b))
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _target(path: str) -> tuple[str | None, int | None]:
    """The regular file that writing ``path`` replaces (a symbolic link is
    followed) and its mode, or None for a new file; or None, None for a
    descriptor or a file that is not regular, such as a FIFO. Opening a
    directory, or a file this process may not write, fails here, first."""
    if _descriptor(path) is not None:
        return None, None
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return os.path.realpath(path), None
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        return None, None
    os.close(os.open(path, os.O_WRONLY))
    return os.path.realpath(path), stat.S_IMODE(mode)


def _write(fh: BinaryIO, text: str, mode: int | None = None) -> None:
    """Write ``text`` to ``fh`` and close it; its file gets ``mode`` first."""
    with fh:
        if mode is not None:
            os.chmod(fh.name, mode)
        fh.write(text.encode("utf-8"))


def _land(outputs: list[tuple[str, str]]) -> None:
    """Write every ``(path, text)`` output, or none, in order. Each target is
    checked (:func:`_target`); each regular or new one is written to a new
    file beside it, ``.panopose-<8 hex digits>.tmp``, made with
    ``open(..., "xb")`` (``O_WRONLY | O_CREAT | O_EXCL``, mode
    ``0o666 & ~umask``) and given the old file's mode; then each other
    target is written directly (:func:`errors._direct`). Only when every
    write has succeeded is each new file renamed over its target. A fault
    removes every new file left and names its output."""
    staged: list[tuple[str, str, str]] = []
    try:
        targets = [(path, text, *_in_file(path, _target, path)) for path, text in outputs]
        for path, text, real, mode in targets:
            if real is not None:
                new = os.path.join(os.path.dirname(real), f".panopose-{os.urandom(4).hex()}.tmp")
                fh = _in_file(path, open, new, "xb")
                staged.append((path, new, real))
                _in_file(path, _write, fh, text, mode)
        for path, text, real, _ in targets:
            if real is None:
                _in_file(path, _write, _in_file(path, _direct, path)[0], text)
        while staged:
            path, new, real = staged[0]
            _in_file(path, os.replace, new, real)
            staged.pop(0)
    finally:
        for _, new, _ in staged:
            with suppress(OSError):
                os.remove(new)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panopose",
        description="Panoramic multi-person pose toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.set_defaults(in_place=())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("remap-weights", help="rebuild a checkpoint head for a new schema")
    p.add_argument("--src", required=True, help="input tensor container")
    p.add_argument("--out", required=True, help="output tensor container")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--mapping", default=None, help="mapping config file (JSON, by names)")
    group.add_argument("--verbatim-table1", action="store_true",
                       help="use the literal upstream counterpart table "
                            "(both hands sourced from the left wrist)")
    p.add_argument("--weight-name", required=True, help="head weight tensor name")
    p.add_argument("--bias-name", default=None, help="head bias tensor name (also averaged)")
    p.set_defaults(func=_cmd_remap_weights, outputs=("out",), in_place=("src", "mapping"))

    p = sub.add_parser("boxes-from-poses", help="derive boxes from pose keypoints")
    p.add_argument("--in", required=True, help="input dataset")
    p.add_argument("--out", required=True, help="output dataset")
    p.add_argument("--margin", type=float, default=DEFAULT_BOX_MARGIN,
                   help="per-side padding as a fraction of the box side")
    p.set_defaults(func=_cmd_boxes_from_poses, outputs=("out",))

    p = sub.add_parser("shift", help="cyclic horizontal shift with seam removal")
    p.add_argument("--in", required=True, help="input dataset")
    p.add_argument("--out", required=True, help="output dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--shift", type=float, help="shift in pixels")
    group.add_argument("--seed", type=int,
                       help="draw the shift uniformly from [0, width) with this seed")
    p.set_defaults(func=_cmd_shift, outputs=("out",))

    p = sub.add_parser("nms", help="greedy per-frame non-maximal suppression")
    p.add_argument("--pred", required=True, help="input predictions (boxes with scores)")
    p.add_argument("--out", required=True, help="output dataset")
    p.add_argument("--nms-iou", type=float, default=DEFAULT_NMS_IOU,
                   help="IoU threshold at or above which boxes are suppressed")
    p.set_defaults(func=_cmd_nms, outputs=("out",))

    p = sub.add_parser("decode", help="decode heatmap containers into poses")
    p.add_argument("--heatmaps", required=True,
                   help="tensor container; one [K,h,w] tensor per detection, "
                        "named '<frame_id>/<person index>', all of one shape")
    p.add_argument("--dets", required=True, help="detections dataset (boxes with scores)")
    p.add_argument("--out", required=True, help="output predictions dataset")
    p.add_argument("--stride", type=float, default=4.0,
                   help="crop pixels per heatmap cell; the crop is the grid at this stride")
    p.add_argument("--padding", type=float, default=DEFAULT_CROP_PADDING,
                   help="crop padding scale factor")
    p.set_defaults(func=_cmd_decode, outputs=("out",))

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth dataset")
    p.add_argument("--pred", required=True, help="predictions dataset")
    p.add_argument("--report", default=None, help="write the full JSON report here")
    p.add_argument("--table", default=None, help="write the per-frame CSV table here")
    p.set_defaults(func=_cmd_eval, outputs=("report", "table"))

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage error, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    given = vars(args)
    echo = {name: value for name, value in given.items()
            if name not in ("func", "outputs", "in_place")}
    outs = [(flag, given[flag]) for flag in args.outputs if given[flag] is not None]
    # An output written in place must not be an input that it writes over.
    ins = [(flag, given[flag]) for flag in args.in_place if given[flag] is not None]
    try:
        for i, (flag, path) in enumerate(outs):
            for other, earlier in outs[:i] + ins:
                if _same_file(path, earlier):
                    raise ValidationError(f"{path}: --{flag} is the same file as --{other} {earlier}")
        outputs, lines, fields = args.func(args)
        _land(outputs)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps({**echo, **fields}, sort_keys=True))
    return 0


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # One command per process: no collection during the imports or the
    # command, and none at exit over what is left (the objects are frozen).
    gc.disable()
    code = run()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
