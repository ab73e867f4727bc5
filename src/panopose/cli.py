"""Command-line pipeline front end.

Subcommands mirror the processing stages: ``remap-weights`` rebuilds a
checkpoint head for a new keypoint schema, ``boxes-from-poses`` / ``shift`` /
``nms`` prepare panoramic detections, ``decode`` turns heatmap containers
into poses, and ``eval`` scores predictions against ground truth.

Every subcommand prints a one-line JSON echo of its effective configuration
(including any seed) to stdout once its output files are written, so runs
are reproducible from their output. No command asks for what its input
fixes: ``boxes-from-poses`` and ``shift`` take the panorama size from the
input file's ``pano``, ``decode`` crops each box onto its heatmap grid at
``--stride``, and ``eval`` matches at OKS 0.5, the ``ap_05`` it prints.
Exit codes: 0 success, 1 validation error, 2 usage error. Each command
imports the modules it uses when it runs, so a process loads no others:
``nms`` never loads ``metrics``, ``weights`` or ``decode``, and
``remap-weights`` and ``--version`` never load numpy or ``geometry``. The
parser's box, NMS and padding defaults come from :mod:`panopose._defaults`,
which ``geometry`` exports. No command makes a BLAS call, so :func:`main`
sets ``OPENBLAS_NUM_THREADS=1`` where it is unset, before numpy loads.

``eval`` reads ``--gt`` in a child made by ``os.fork`` while it reads
``--pred`` (:func:`_started`); the child sends back the dataset, or the
error it raised, over a pipe. Each process holds one parsed document, and a
``--gt`` fault is still the one reported when both files are faulty. Where
there is no ``os.fork``, or the child fails, ``--gt`` is read in process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import __version__
from ._defaults import DEFAULT_BOX_MARGIN, DEFAULT_CROP_PADDING, DEFAULT_NMS_IOU
from .errors import RowError, ValidationError, _where

if TYPE_CHECKING:
    from numpy.typing import NDArray

    from .dataio import Dataset

__all__ = ["build_parser", "run", "main"]


def _echo(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _in_file(path: str, read: Callable[..., Any], *args: Any) -> Any:
    """``read(*args)``, naming ``path`` in a :class:`ValidationError` it raises."""
    try:
        return read(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _load_dataset(path: str, *, require_scores: bool) -> Dataset:
    """The dataset file at ``path`` in the schema it names; any
    :class:`ValidationError` names ``path``."""
    from .dataio import _load

    return _in_file(path, _load, Path(path), None, require_scores)


def _require_boxes(ds: Dataset, command: str) -> None:
    if not ds.has_box.all():
        where = _where(ds.frame_ids, ds.offsets, int(ds.has_box.argmin()))
        raise ValidationError(f"{where}: {command} requires a box")


def _cmd_remap_weights(args: argparse.Namespace) -> int:
    from .schema import default_mapping, load_mapping
    from .weights import _Container, _remap_head, _write_container

    with open(args.src, "rb") as fh:
        src = _in_file(args.src, _Container, fh)
        if args.mapping is not None:
            mapping = _in_file(args.mapping, load_mapping, args.mapping)
        else:
            mapping = default_mapping(args.verbatim_table1)
        head = _in_file(args.src, _remap_head, src.raw, args.weight_name, mapping, args.bias_name)
        # --out is written while --src is read, so it must be another file.
        if os.path.exists(args.out) and os.path.samestat(os.fstat(fh.fileno()), os.stat(args.out)):
            raise ValidationError(f"{args.src}: --out {args.out} is the same file as --src")
        _in_file(args.src, _write_container, args.out, head, src)
    _echo(
        {
            "command": "remap-weights",
            "src": args.src,
            "out": args.out,
            "weight_name": args.weight_name,
            "bias_name": args.bias_name,
            "mapping": args.mapping
            or f"builtin:{mapping.source_schema}->{mapping.target_schema}",
            "verbatim_table1": bool(args.verbatim_table1),
        }
    )
    return 0


def _cmd_boxes_from_poses(args: argparse.Namespace) -> int:
    from .dataio import save_dataset
    from .geometry import _pose_bboxes

    ds = _load_dataset(args.input, require_scores=False)
    rows = ds.has_pose.nonzero()[0]
    try:
        derived = _pose_bboxes(ds.keypoints[rows], args.margin, ds.pano)
    except RowError as exc:
        where = _where(ds.frame_ids, ds.offsets, int(rows[exc.row]))
        raise ValidationError(f"{where}: {exc}") from exc
    boxes = ds.boxes.copy()
    boxes[rows] = derived
    save_dataset(ds._with(boxes=boxes, has_box=ds.has_box | ds.has_pose), args.out)
    _echo(
        {
            "command": "boxes-from-poses",
            "in": args.input,
            "out": args.out,
            "margin": args.margin,
            "pano_width": ds.pano.width,
            "pano_height": ds.pano.height,
        }
    )
    return 0


def _cmd_shift(args: argparse.Namespace) -> int:
    from .dataio import save_dataset
    from .geometry import shift_dataset

    ds = _load_dataset(args.input, require_scores=False)
    if args.seed is None:
        shift = args.shift
    else:
        shift = random.Random(args.seed).random() * ds.pano.width
    save_dataset(shift_dataset(ds, shift), args.out)
    _echo(
        {
            "command": "shift",
            "in": args.input,
            "out": args.out,
            "shift": shift,
            "seed": args.seed,
            "pano_width": ds.pano.width,
            "pano_height": ds.pano.height,
        }
    )
    return 0


def _cmd_nms(args: argparse.Namespace) -> int:
    from .dataio import save_dataset
    from .geometry import _nms_rows

    ds = _load_dataset(args.pred, require_scores=True)
    _require_boxes(ds, "nms")
    kept = _nms_rows(ds.boxes, ds.scores, ds.offsets.tolist(), args.nms_iou)
    save_dataset(ds._with(sorted(kept)), args.out)
    _echo({"command": "nms", "pred": args.pred, "out": args.out, "nms_iou": args.nms_iou})
    return 0


def _decoded(path: str, dets: Dataset, stride: float, padding: float) -> tuple[NDArray, tuple]:
    """The ``[N, K, 3]`` keypoints of the detections' ``[K, h, w]`` tensors in
    the container at ``path``, and their one crop size ``(w * stride, h * stride)``
    (None, None with no detections). Every name and shape is checked in the
    header first; then each tensor is read in turn into one buffer and
    checked in full before the next."""
    import numpy as np

    from .decode import _peaks, _project
    from .geometry import _inverse, crop_transform
    from .schema import builtin_schema
    from .weights import _Container

    num_keypoints = len(builtin_schema(dets.schema_id).names)
    bounds = dets.offsets.tolist()
    tensors = [(f"frame {fid!r}, person {i}", f"{fid}/{i}")
               for fid, start, stop in zip(dets.frame_ids, bounds, bounds[1:])
               for i in range(stop - start)]
    with open(path, "rb") as fh:
        heatmaps = _in_file(path, _Container, fh)
        first = None
        for where, name in tensors:
            if name not in heatmaps.entries:
                raise ValidationError(f"{where}: missing heatmap tensor {name!r}")
            shape = heatmaps.entries[name][1]
            if len(shape) != 3 or shape[0] != num_keypoints or 0 in shape:
                raise ValidationError(
                    f"{where}: heatmap tensor {name!r} must be "
                    f"[{num_keypoints}, h, w] with h, w >= 1, got shape {shape}"
                )
            first = first or (name, shape)
            if shape != first[1]:
                raise ValidationError(f"{where}: heatmap tensor {name!r} has shape {shape}, but "
                                      f"{first[0]!r} has {first[1]}: every detection needs one grid shape")
        if first is None:
            return dets.keypoints, (None, None)
        _, h, w = first[1]
        crop = (w * stride, h * stride)
        try:
            crops = crop_transform(dets.boxes, *crop, padding)
        except RowError as exc:
            raise ValidationError(f"{_where(dets.frame_ids, dets.offsets, exc.row)}: {exc}") from exc
        cells = np.zeros((len(tensors), 2, num_keypoints))
        neighbours = np.zeros((len(tensors), 2, 2, num_keypoints))
        sizes = [end - begin for _, _, begin, end in heatmaps.entries.values()]
        buffer = np.empty(max(sizes), dtype=np.uint8)
        for row, (where, name) in enumerate(tensors):
            values = _in_file(path, heatmaps.read_into, name, buffer).reshape(first[1])
            try:
                cells[row], neighbours[row], _ = _peaks(values)
            except ValidationError as exc:
                raise ValidationError(f"{where}: heatmap tensor {name!r}: {exc}") from exc
    # crop_transform has checked these crops and their inverses. The buffer
    # and the peaks are freed on return, before the output, where memory peaks.
    return _project(cells, neighbours, stride, _inverse(crops)), crop


def _cmd_decode(args: argparse.Namespace) -> int:
    import numpy as np

    from .dataio import save_dataset
    from .decode import _check_stride
    from .geometry import _check_padding

    _check_stride(args.stride)
    _check_padding(args.padding)
    dets = _load_dataset(args.dets, require_scores=True)
    _require_boxes(dets, "decode")
    keypoints, crop = _decoded(args.heatmaps, dets, args.stride, args.padding)
    save_dataset(dets._with(keypoints=keypoints, has_pose=np.ones(len(dets.ids), dtype=bool)), args.out)
    _echo(
        {
            "command": "decode",
            "heatmaps": args.heatmaps,
            "dets": args.dets,
            "out": args.out,
            "stride": args.stride,
            "padding": args.padding,
            "crop_width": crop[0],
            "crop_height": crop[1],
        }
    )
    return 0


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


def _cmd_eval(args: argparse.Namespace) -> int:
    from .metrics import evaluate, save_frame_table, save_report

    # Each process holds one parsed document. A --gt fault is raised first,
    # as when --gt was read before --pred.
    gt_result = _started(lambda: _load_dataset(args.gt, require_scores=False))
    try:
        preds = _load_dataset(args.pred, require_scores=True)
    finally:
        gts = gt_result()
    report = evaluate(preds, gts)
    if args.report:
        save_report(report, args.report)
    if args.table:
        save_frame_table(report, args.table)
    print(f"ospa_iou {report.ospa_iou:.3f}")
    print(f"ap_05 {report.ap_05:.3f}")
    _echo({"command": "eval", "gt": args.gt, "pred": args.pred, "config": report.config})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panopose",
        description="Panoramic multi-person pose toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
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
    p.set_defaults(func=_cmd_remap_weights)

    p = sub.add_parser("boxes-from-poses", help="derive boxes from pose keypoints")
    p.add_argument("--in", dest="input", required=True, help="input dataset")
    p.add_argument("--out", required=True, help="output dataset")
    p.add_argument("--margin", type=float, default=DEFAULT_BOX_MARGIN,
                   help="per-side padding as a fraction of the box side")
    p.set_defaults(func=_cmd_boxes_from_poses)

    p = sub.add_parser("shift", help="cyclic horizontal shift with seam removal")
    p.add_argument("--in", dest="input", required=True, help="input dataset")
    p.add_argument("--out", required=True, help="output dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--shift", type=float, help="shift in pixels")
    group.add_argument("--seed", type=int,
                       help="draw the shift uniformly from [0, width) with this seed")
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("nms", help="greedy per-frame non-maximal suppression")
    p.add_argument("--pred", required=True, help="input predictions (boxes with scores)")
    p.add_argument("--out", required=True, help="output dataset")
    p.add_argument("--nms-iou", type=float, default=DEFAULT_NMS_IOU,
                   help="IoU threshold at or above which boxes are suppressed")
    p.set_defaults(func=_cmd_nms)

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
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth dataset")
    p.add_argument("--pred", required=True, help="predictions dataset")
    p.add_argument("--report", default=None, help="write the full JSON report here")
    p.add_argument("--table", default=None, help="write the per-frame CSV table here")
    p.set_defaults(func=_cmd_eval)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage error, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    raise SystemExit(run())


if __name__ == "__main__":
    main()
