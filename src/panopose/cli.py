"""Command-line pipeline front end.

Subcommands mirror the processing stages: ``remap-weights`` rebuilds a
checkpoint head for a new keypoint schema, ``boxes-from-poses`` / ``shift`` /
``nms`` prepare panoramic detections, ``decode`` turns heatmap containers
into poses, and ``eval`` scores predictions against ground truth.

Every subcommand prints a one-line JSON echo of its effective configuration
(including any seed) to stdout, so runs are reproducible from their output.
Exit codes: 0 success, 1 validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .dataio import Dataset, _load, save_dataset
from .decode import _check_stride, decode_heatmaps
from .errors import RowError, ValidationError, _where
from .geometry import (
    DEFAULT_BOX_MARGIN,
    DEFAULT_CROP_PADDING,
    DEFAULT_NMS_IOU,
    CROP_HEIGHT,
    CROP_WIDTH,
    PanoramaSpec,
    _check_crop,
    _nms_rows,
    _pose_bboxes,
    crop_transform,
    shift_dataset,
)
from .metrics import EvalConfig, evaluate, save_frame_table, save_report
from .schema import builtin_schema, default_mapping, load_mapping
from .weights import _Container, _remap_head, _save_remapped

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
    return _in_file(path, _load, Path(path), None, require_scores)


def _require_boxes(ds: Dataset, command: str) -> None:
    if not ds.has_box.all():
        where = _where(ds.frame_ids, ds.offsets, int(ds.has_box.argmin()))
        raise ValidationError(f"{where}: {command} requires a box")


def _override_pano(ds: Dataset, args: argparse.Namespace) -> Dataset:
    width = args.pano_width if args.pano_width is not None else ds.pano.width
    height = args.pano_height if args.pano_height is not None else ds.pano.height
    if (width, height) == (ds.pano.width, ds.pano.height):
        return ds
    return ds._with(pano=PanoramaSpec(width, height))


def _cmd_remap_weights(args: argparse.Namespace) -> int:
    with open(args.src, "rb") as fh:
        src = _in_file(args.src, _Container, fh)
        if args.mapping is not None:
            mapping = _in_file(args.mapping, load_mapping, args.mapping)
        else:
            mapping = default_mapping(args.verbatim_table1)
        head = _in_file(args.src, _remap_head, src, args.weight_name, mapping, args.bias_name)
        # --out is written while --src is read, so it must be another file.
        if os.path.exists(args.out) and os.path.samestat(os.fstat(fh.fileno()), os.stat(args.out)):
            raise ValidationError(f"{args.src}: --out {args.out} is the same file as --src")
        _in_file(args.src, _save_remapped, src, head, args.out)
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
    ds = _override_pano(_load_dataset(args.input, require_scores=False), args)
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
    ds = _override_pano(_load_dataset(args.input, require_scores=False), args)
    if args.random:
        shift = random.Random(args.seed).random() * ds.pano.width
    else:
        shift = args.shift
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
    ds = _load_dataset(args.pred, require_scores=True)
    _require_boxes(ds, "nms")
    kept = _nms_rows(ds.boxes, ds.scores, ds.offsets.tolist(), args.nms_iou)
    save_dataset(ds._with(sorted(kept)), args.out)
    _echo({"command": "nms", "pred": args.pred, "out": args.out, "nms_iou": args.nms_iou})
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    _check_stride(args.stride)
    _check_crop(args.crop_width, args.crop_height, args.padding)
    dets = _load_dataset(args.dets, require_scores=True)
    _require_boxes(dets, "decode")
    try:
        crops = crop_transform(dets.boxes, args.crop_width, args.crop_height, args.padding)
    except RowError as exc:
        raise ValidationError(f"{_where(dets.frame_ids, dets.offsets, exc.row)}: {exc}") from exc
    num_keypoints = len(builtin_schema(dets.schema_id).names)
    keypoints = np.zeros((len(dets.ids), num_keypoints, 3))
    bounds = dets.offsets.tolist()
    with open(args.heatmaps, "rb") as fh:
        heatmaps = _in_file(args.heatmaps, _Container, fh)
        for fid, start, stop in zip(dets.frame_ids, bounds, bounds[1:]):
            for i, row in enumerate(range(start, stop)):
                where = f"frame {fid!r}, person {i}"
                name = f"{fid}/{i}"
                if name not in heatmaps.entries:
                    raise ValidationError(f"{where}: missing heatmap tensor {name!r}")
                shape = heatmaps.entries[name][1]
                if len(shape) != 3 or shape[0] != num_keypoints or 0 in shape:
                    raise ValidationError(
                        f"{where}: heatmap tensor {name!r} must be "
                        f"[{num_keypoints}, h, w] with h, w >= 1, got shape {shape}"
                    )
                values = _in_file(args.heatmaps, heatmaps.read, name).data
                try:
                    keypoints[row], _ = decode_heatmaps(values, args.stride, crops[row])
                except ValidationError as exc:
                    raise ValidationError(f"{where}: heatmap tensor {name!r}: {exc}") from exc
    save_dataset(dets._with(keypoints=keypoints, has_pose=np.ones(len(dets.ids), dtype=bool)), args.out)
    _echo(
        {
            "command": "decode",
            "heatmaps": args.heatmaps,
            "dets": args.dets,
            "out": args.out,
            "stride": args.stride,
            "padding": args.padding,
            "crop_width": args.crop_width,
            "crop_height": args.crop_height,
        }
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    gts = _load_dataset(args.gt, require_scores=False)
    preds = _load_dataset(args.pred, require_scores=True)
    report = evaluate(preds, gts, EvalConfig(oks_threshold=args.oks_threshold))
    print(f"ospa_iou {report.ospa_iou:.3f}")
    print(f"ap_05 {report.ap_05:.3f}")
    _echo({"command": "eval", "gt": args.gt, "pred": args.pred, "config": report.config})
    if args.report:
        save_report(report, args.report)
    if args.table:
        save_frame_table(report, args.table)
    return 0


def _add_pano_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pano-width", type=float, default=None,
                        help="override the panorama width from the input file")
    parser.add_argument("--pano-height", type=float, default=None,
                        help="override the panorama height from the input file")


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
    p.add_argument("--mapping", default=None, help="mapping config file (JSON, by names)")
    p.add_argument("--verbatim-table1", action="store_true",
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
    _add_pano_flags(p)
    p.set_defaults(func=_cmd_boxes_from_poses)

    p = sub.add_parser("shift", help="cyclic horizontal shift with seam removal")
    p.add_argument("--in", dest="input", required=True, help="input dataset")
    p.add_argument("--out", required=True, help="output dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--shift", type=float, help="shift in pixels")
    group.add_argument("--random", action="store_true",
                       help="draw the shift uniformly from [0, width); needs --seed")
    p.add_argument("--seed", type=int, default=None, help="seed for --random")
    _add_pano_flags(p)
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
                        "named '<frame_id>/<person index>'")
    p.add_argument("--dets", required=True, help="detections dataset (boxes with scores)")
    p.add_argument("--out", required=True, help="output predictions dataset")
    p.add_argument("--stride", type=float, default=4.0,
                   help="crop pixels per heatmap cell")
    p.add_argument("--padding", type=float, default=DEFAULT_CROP_PADDING,
                   help="crop padding scale factor")
    p.add_argument("--crop-width", type=int, default=CROP_WIDTH)
    p.add_argument("--crop-height", type=int, default=CROP_HEIGHT)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth dataset")
    p.add_argument("--pred", required=True, help="predictions dataset")
    p.add_argument("--oks-threshold", type=float, default=0.5,
                   help="OKS threshold for a prediction to match")
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
    if getattr(args, "random", False) and args.seed is None:
        print("error: --random requires --seed", file=sys.stderr)
        return 2
    if getattr(args, "mapping", None) is not None and getattr(args, "verbatim_table1", False):
        print("error: --verbatim-table1 cannot be combined with --mapping", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
