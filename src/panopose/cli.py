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
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import __version__
from .dataio import Dataset, _dataset_from_doc, save_dataset
from .decode import HeatmapStack, decode_heatmaps
from .errors import ValidationError
from .geometry import (
    BoundingBox,
    DEFAULT_BOX_MARGIN,
    DEFAULT_CROP_PADDING,
    DEFAULT_NMS_IOU,
    CROP_HEIGHT,
    CROP_WIDTH,
    PanoramaSpec,
    bbox_from_pose,
    crop_transform,
    nms_indices,
    shift_dataset,
)
from .metrics import EvalConfig, evaluate, save_frame_table, save_report
from .schema import builtin_schema, default_mapping, load_mapping
from .weights import load_tensor_map, remap_head_weights, save_tensor_map

__all__ = ["build_parser", "run", "main"]


def _echo(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load_dataset(path: str, *, require_scores: bool) -> Dataset:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path}: parse error: {exc}") from exc
    schema_id = doc.get("schema") if isinstance(doc, dict) else None
    if not isinstance(schema_id, str):
        raise ValidationError(f"{path}: missing or malformed 'schema' field")
    return _dataset_from_doc(doc, builtin_schema(schema_id), require_scores)


def _override_pano(ds: Dataset, args: argparse.Namespace) -> Dataset:
    width = args.pano_width if args.pano_width is not None else ds.pano.width
    height = args.pano_height if args.pano_height is not None else ds.pano.height
    if (width, height) == (ds.pano.width, ds.pano.height):
        return ds
    return replace(ds, pano=PanoramaSpec(width, height))


def _cmd_remap_weights(args: argparse.Namespace) -> int:
    tmap = load_tensor_map(args.src)
    if args.mapping is not None:
        mapping = load_mapping(args.mapping)
    else:
        mapping = default_mapping(args.verbatim_table1)
    out = remap_head_weights(tmap, args.weight_name, mapping, bias_name=args.bias_name)
    save_tensor_map(out, args.out)
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
    frames = []
    for frame in ds.frames:
        persons = []
        for i, person in enumerate(frame.persons):
            if person.pose is None:
                persons.append(person)
                continue
            try:
                box = bbox_from_pose(person.pose, args.margin, ds.pano)
            except ValueError as exc:
                raise ValidationError(
                    f"frame {frame.frame_id!r}, person {i}: {exc}"
                ) from exc
            persons.append(replace(person, box=box))
        frames.append(replace(frame, persons=tuple(persons)))
    save_dataset(replace(ds, frames=tuple(frames)), args.out)
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
    frames = []
    for frame in ds.frames:
        boxes = []
        for i, person in enumerate(frame.persons):
            if person.box is None:
                raise ValidationError(
                    f"frame {frame.frame_id!r}, person {i}: nms requires a box"
                )
            b = person.box
            boxes.append(BoundingBox(b.x1, b.y1, b.x2, b.y2, score=person.score))
        kept = nms_indices(boxes, args.nms_iou)
        frames.append(replace(frame, persons=tuple(frame.persons[i] for i in sorted(kept))))
    save_dataset(replace(ds, frames=tuple(frames)), args.out)
    _echo({"command": "nms", "pred": args.pred, "out": args.out, "nms_iou": args.nms_iou})
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    dets = _load_dataset(args.dets, require_scores=True)
    schema = builtin_schema(dets.schema_id)
    tmap = load_tensor_map(args.heatmaps)
    num_keypoints = len(schema.names)
    frames = []
    for frame in dets.frames:
        persons = []
        for i, person in enumerate(frame.persons):
            where = f"frame {frame.frame_id!r}, person {i}"
            if person.box is None:
                raise ValidationError(f"{where}: decode requires a box")
            name = f"{frame.frame_id}/{i}"
            if name not in tmap:
                raise ValidationError(f"{where}: missing heatmap tensor {name!r}")
            record = tmap[name]
            if len(record.shape) != 3 or record.shape[0] != num_keypoints:
                raise ValidationError(
                    f"{where}: heatmap tensor {name!r} must be "
                    f"[{num_keypoints}, h, w], got shape {record.shape}"
                )
            crop = crop_transform(
                person.box, args.crop_width, args.crop_height, args.padding
            )
            pose, _ = decode_heatmaps(HeatmapStack(record.data, args.stride), crop)
            persons.append(replace(person, pose=pose))
        frames.append(replace(frame, persons=tuple(persons)))
    save_dataset(replace(dets, frames=tuple(frames)), args.out)
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
