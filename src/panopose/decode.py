"""Heatmap grids to keypoints.

Per keypoint: argmax cell (row-major first occurrence on ties), quarter-cell
refinement toward the larger axis neighbor (only when both neighbors exist),
then back-projection through the inverse crop transform. Grid cell
(row i, col j) is centered at crop coordinate ((j + 0.5) * stride,
(i + 0.5) * stride).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import LABELED_VISIBLE, Pose
from .geometry import AffineTransform, apply_transform, invert_transform

__all__ = ["HeatmapStack", "decode_heatmaps"]


@dataclass(frozen=True, eq=False)
class HeatmapStack:
    """K per-keypoint score grids plus the crop-pixels-per-cell stride."""

    values: np.ndarray  # (K, h, w)
    stride: float

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError(f"heatmaps must be K x h x w, got shape {values.shape}")
        k, h, w = values.shape
        if k < 1 or h < 1 or w < 1:
            raise ValueError(f"empty grid: shape {values.shape}")
        if not (math.isfinite(self.stride) and self.stride > 0):
            raise ValueError(f"stride must be positive, got {self.stride!r}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "stride", float(self.stride))


def _quarter_offset(before: float, after: float) -> float:
    if after > before:
        return 0.25
    if after < before:
        return -0.25
    return 0.0


def decode_heatmaps(
    stack: HeatmapStack, crop: AffineTransform
) -> tuple[Pose, np.ndarray]:
    """Decode one detection's heatmaps into panorama coordinates.

    Returns the pose (all keypoints marked visible) and the per-keypoint
    confidence vector, which is the grid maximum for each keypoint.
    """
    inv = invert_transform(crop)
    k, h, w = stack.values.shape
    keypoints = np.empty((k, 3), dtype=np.float64)
    confidences = np.empty(k, dtype=np.float64)
    for idx in range(k):
        grid = stack.values[idx]
        flat = int(np.argmax(grid))  # first maximum = smallest row-major index
        i, j = divmod(flat, w)
        dx = _quarter_offset(grid[i, j - 1], grid[i, j + 1]) if 0 < j < w - 1 else 0.0
        dy = _quarter_offset(grid[i - 1, j], grid[i + 1, j]) if 0 < i < h - 1 else 0.0
        x, y = apply_transform(
            inv, ((j + 0.5 + dx) * stack.stride, (i + 0.5 + dy) * stack.stride)
        )
        keypoints[idx] = (x, y, LABELED_VISIBLE)
        confidences[idx] = grid[i, j]
    return Pose(keypoints), confidences
