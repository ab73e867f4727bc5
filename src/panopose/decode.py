"""Heatmap grids to keypoints.

Per keypoint: argmax cell (row-major first occurrence on ties), quarter-cell
refinement toward the larger axis neighbor (only when both neighbors exist),
then back-projection through the inverse crop transform. Grid cell
(row i, col j) is centered at crop coordinate ((j + 0.5) * stride,
(i + 0.5) * stride). :func:`decode_heatmaps` takes one detection's
``[K, h, w]`` grid with its ``[2, 3]`` crop (a row of
:func:`~panopose.geometry.crop_transform`) and decodes its K keypoints
together in array operations; a NaN or infinite grid maximum is rejected.

That is two halves, and :func:`decode_heatmaps` is both on one detection:
:func:`_peaks` (argmax, peak check, one gather of the axis neighbours) on
one grid, and :func:`_project` (quarter-cell shift, back-projection) over
any number of detections, so ``decode`` projects all ``[N, K]`` at once.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .dataio import LABELED_VISIBLE
from .errors import ValidationError
from .geometry import _apply, invert_transform

_BEFORE_AFTER = np.array([-1, 1])[:, None, None]


def _check_stride(stride: float) -> None:
    if not (math.isfinite(stride) and stride > 0):
        raise ValueError(f"stride must be positive, got {stride!r}")


def decode_heatmaps(values: Any, stride: float, crop: Any) -> tuple[np.ndarray, np.ndarray]:
    """Decode one detection's ``[K, h, w]`` heatmaps, ``stride`` crop pixels
    per cell, into panorama coordinates through the inverse of its
    ``[2, 3]`` crop.

    Returns the ``[K, 3]`` keypoints (all marked visible) and the ``[K]``
    per-keypoint confidences, each the grid maximum. A grid that is not
    K x h x w with K, h, w >= 1, a bad stride, and a crop or inverse with a
    non-finite coefficient or a zero determinant raise :class:`ValueError`;
    a grid whose maximum is NaN or infinite raises :class:`ValidationError`.
    """
    values = np.asarray(values)
    if values.ndim != 3:
        raise ValueError(f"heatmaps must be K x h x w, got shape {values.shape}")
    if 0 in values.shape:
        raise ValueError(f"empty grid: shape {values.shape}")
    _check_stride(stride)
    if np.shape(crop) != (2, 3):
        raise ValueError(f"crop must be [2, 3], got shape {np.shape(crop)}")
    inverse = invert_transform(crop)
    cells, neighbours, peaks = _peaks(values)
    return _project(cells, neighbours, stride, inverse), peaks.astype(np.float64)


def _peaks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a ``[K, h, w]`` grid with K, h, w >= 1: the ``[2, K]`` column and
    row of each peak cell, the ``[2, 2, K]`` values before and after it
    along x and y, and the ``[K]`` peaks; a non-finite peak raises
    :class:`ValidationError`."""
    # f32 and f64 grids are read as they are: float64 holds every float32
    # exactly, so peaks, comparisons and confidences are the same. Anything
    # else converts, so int64 values above 2**53 tie as in float64.
    if values.dtype not in (np.float32, np.float64):
        values = values.astype(np.float64)
    k, h, w = values.shape
    flat = values.reshape(k, h * w)
    rows = np.arange(k)
    cell = flat.argmax(axis=1)  # first maximum = smallest row-major index
    peaks = flat[rows, cell]
    finite = np.isfinite(peaks)
    if not finite.all():
        bad = int(finite.argmin())
        raise ValidationError(f"keypoint {bad}: heatmap peak is {peaks[bad]}")
    i, j = np.divmod(cell, w)
    # Flat index steps to the axis neighbours; 0 where one is missing, which
    # compares the peak with itself and so leaves that axis unrefined.
    step = np.array([(0 < j) & (j < w - 1), ((0 < i) & (i < h - 1)) * w])
    return np.array([j, i]), flat[rows, cell + step * _BEFORE_AFTER], peaks


def _project(cells: np.ndarray, neighbours: np.ndarray, stride: float,
             inverses: np.ndarray) -> np.ndarray:
    """The ``[..., K, 3]`` keypoints, all visible, of :func:`_peaks`'s cells
    and neighbours (any leading axes) through ``[..., 2, 3]`` inverse crops."""
    before, after = neighbours[..., 0, :, :], neighbours[..., 1, :, :]
    shift = np.where(after > before, 0.25, np.where(after < before, -0.25, 0.0))
    # A huge stride or crop scale overflows to inf or NaN. Such keypoints
    # are returned as they are; a dataset built from them rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        crop_xy = (cells + 0.5 + shift) * stride
        x, y = _apply(inverses[..., None, :, :], crop_xy[..., 0, :], crop_xy[..., 1, :])
    return np.stack([x, y, np.full(x.shape, float(LABELED_VISIBLE))], axis=-1)
