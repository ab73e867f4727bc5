"""Panoramic multi-person pose toolkit.

Non-neural stages of a top-down panoramic pose pipeline: keypoint-schema
weight transfer for checkpoint initialization, panoramic bounding-box
geometry and shift augmentation, detection post-processing, heatmap
decoding, and set-based evaluation metrics.

Each public name loads its module on first use, so a process imports only
the modules it touches: ``panopose --version`` and ``panopose nms``, say,
never load ``metrics``, ``weights`` or ``decode``.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "dataio": ("Dataset", "LABELED_INVISIBLE", "LABELED_VISIBLE", "NOT_LABELED",
               "load_ground_truth", "load_predictions", "save_dataset"),
    "decode": ("decode_heatmaps",),
    "errors": ("ValidationError",),
    "geometry": ("PanoramaSpec", "apply_transform", "crop_transform", "invert_transform", "iou",
                 "nms", "shift_dataset"),
    "metrics": ("EvalConfig", "EvalReport", "OksParams", "default_oks_params", "evaluate", "oks",
                "ospa"),
    "schema": ("KeypointSchema", "SchemaMapping", "builtin_schema", "default_mapping",
               "load_mapping"),
    "weights": ("load_tensor_map", "remap_head_weights", "save_tensor_map"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
