"""Spans around calls into panopose, recorded from outside the program.

:class:`Tracer` replaces each public function in :data:`TARGETS` at the name
its caller looks it up by (``panopose.cli.evaluate``,
``panopose.metrics.oks``, ...) with a wrapper that records name, start, end
and parent span. Spans stay in memory until the run ends. A name that a
later version of the program no longer has is skipped, and the metrics
built from it read 0.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). A function looked up from two modules is
# wrapped at both names under one span name.
TARGETS = (
    ("panopose.cli", "dataset_from_json", "dataio.parse"),
    ("panopose.cli", "save_dataset", "dataio.write"),
    ("panopose.dataio", "dataset_to_canonical_json", "dataio.serialize"),
    ("panopose.cli", "evaluate", "metrics.evaluate"),
    ("panopose.metrics", "match_frame_oks", "metrics.match"),
    ("panopose.metrics", "ospa_iou_frame", "metrics.ospa"),
    ("panopose.metrics", "oks", "metrics.oks"),
    ("panopose.cli", "save_report", "metrics.report_write"),
    ("panopose.cli", "save_frame_table", "metrics.report_write"),
    ("panopose.metrics", "person_box", "geometry.person_box"),
    ("panopose.geometry", "person_box", "geometry.person_box"),
    ("panopose.metrics", "iou", "geometry.iou"),
    ("panopose.geometry", "iou", "geometry.iou"),
    ("panopose.cli", "nms_indices", "geometry.nms"),
    ("panopose.cli", "shift_dataset", "geometry.shift"),
    ("panopose.cli", "bbox_from_pose", "geometry.bbox_from_pose"),
    ("panopose.cli", "crop_transform", "geometry.crop"),
    ("panopose.cli", "HeatmapStack", "decode.stack"),
    ("panopose.cli", "decode_heatmaps", "decode.decode"),
    ("panopose.cli", "load_tensor_map", "weights.load"),
    ("panopose.cli", "save_tensor_map", "weights.save"),
    ("panopose.cli", "remap_head_weights", "weights.remap"),
    ("panopose.cli", "default_mapping", "schema.mapping"),
    ("panopose.cli", "load_mapping", "schema.mapping"),
    ("panopose.metrics", "default_oks_params", "schema.mapping"),
)

COMMANDS = ("eval", "nms", "decode", "boxes_from_poses", "shift", "remap")

# Per-layer metric -> (unit, better). Sums of span durations unless noted in
# :func:`per_layer`; the runner adds the file-derived counts and ratios.
PER_LAYER = {
    "dataio.parse_s": ("s", "lower"),
    "dataio.json_s": ("s", "lower"),
    "dataio.serialize_s": ("s", "lower"),
    "dataio.write_s": ("s", "lower"),
    "dataio.persons": ("count", "lower"),
    "dataio.bytes_in": ("B", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.match_s": ("s", "lower"),
    "metrics.match_frame_p99_ms": ("ms", "lower"),
    "metrics.ospa_s": ("s", "lower"),
    "metrics.rank_ap_s": ("s", "lower"),
    "metrics.oks_s": ("s", "lower"),
    "metrics.oks_calls": ("count", "lower"),
    "metrics.candidate_pairs": ("count", "lower"),
    "metrics.matched_ratio": ("ratio", "higher"),
    "metrics.report_write_s": ("s", "lower"),
    "geometry.person_box_calls": ("count", "lower"),
    "geometry.person_box_s": ("s", "lower"),
    "geometry.iou_calls": ("count", "lower"),
    "geometry.nms_s": ("s", "lower"),
    "geometry.nms_boxes_in": ("count", "lower"),
    "geometry.nms_kept_ratio": ("ratio", "lower"),
    "geometry.shift_s": ("s", "lower"),
    "geometry.shift_dropped": ("count", "lower"),
    "geometry.bbox_from_pose_s": ("s", "lower"),
    "geometry.crop_s": ("s", "lower"),
    "decode.stack_s": ("s", "lower"),
    "decode.decode_s": ("s", "lower"),
    "decode.ms_per_det": ("ms", "lower"),
    "decode.det_p99_ms": ("ms", "lower"),
    "decode.dets": ("count", "lower"),
    "decode.bytes_computed": ("B", "lower"),
    "decode.kps_outside_pano": ("count", "lower"),
    "weights.load_s": ("s", "lower"),
    "weights.load_mb_per_s": ("MB/s", "higher"),
    "weights.save_s": ("s", "lower"),
    "weights.remap_s": ("s", "lower"),
    "weights.tensors": ("count", "lower"),
    "weights.bytes_in": ("B", "lower"),
    "weights.bytes_out": ("B", "lower"),
    "schema.mapping_s": ("s", "lower"),
    **{f"cli.run_s.{c}": ("s", "lower") for c in COMMANDS},
    **{f"cli.self_s.{c}": ("s", "lower") for c in COMMANDS},
    "cli.setup_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Spans of one traced pass: ``(name, start, end, parent index)``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _p99_ms(durations: list[float]) -> float:
    if len(durations) < 2:
        return 1000.0 * sum(durations)
    return 1000.0 * statistics.quantiles(durations, n=100)[98]


def per_layer(spans) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for idx, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - children[idx]  # self time: minus direct children
        calls[name] += 1
        durations[name].append(end - start)

    per_det = [a + b for a, b in zip(durations["decode.stack"], durations["decode.decode"])]
    m = {
        "dataio.parse_s": total["dataio.parse"],
        "dataio.serialize_s": total["dataio.serialize"],
        "dataio.write_s": total["dataio.write"],
        "metrics.evaluate_s": total["metrics.evaluate"],
        "metrics.match_s": total["metrics.match"],
        "metrics.match_frame_p99_ms": _p99_ms(durations["metrics.match"]),
        "metrics.ospa_s": total["metrics.ospa"],
        "metrics.rank_ap_s": own["metrics.evaluate"],
        "metrics.oks_s": total["metrics.oks"],
        "metrics.oks_calls": calls["metrics.oks"],
        "metrics.report_write_s": total["metrics.report_write"],
        "geometry.person_box_calls": calls["geometry.person_box"],
        "geometry.person_box_s": total["geometry.person_box"],
        "geometry.iou_calls": calls["geometry.iou"],
        "geometry.nms_s": total["geometry.nms"],
        "geometry.shift_s": total["geometry.shift"],
        "geometry.bbox_from_pose_s": total["geometry.bbox_from_pose"],
        "geometry.crop_s": total["geometry.crop"],
        "decode.stack_s": total["decode.stack"],
        "decode.decode_s": total["decode.decode"],
        "decode.ms_per_det": 1000.0 * sum(per_det) / max(len(per_det), 1),
        "decode.det_p99_ms": _p99_ms(per_det),
        "decode.dets": calls["decode.decode"],
        "weights.load_s": total["weights.load"],
        "weights.save_s": total["weights.save"],
        "weights.remap_s": total["weights.remap"],
        "schema.mapping_s": total["schema.mapping"],
    }
    for c in COMMANDS:
        m[f"cli.run_s.{c}"] = total[f"cli.run.{c}"]
        m[f"cli.self_s.{c}"] = own[f"cli.run.{c}"]
    return m
