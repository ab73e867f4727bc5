"""Heatmap grids to keypoints, and the one reader of a heatmap container.

Per keypoint: argmax cell (row-major first occurrence on ties), quarter-cell
refinement toward the larger axis neighbor (only when both neighbors exist),
then back-projection through the inverse crop transform. Cell (i, j), row i
and column j, is centered at crop coordinate ((j + 0.5) * stride,
(i + 0.5) * stride). :func:`decode_heatmaps` decodes one detection's
``[K, h, w]`` grid with its ``[2, 3]`` crop (a row of
:func:`~panopose.geometry.crop_transform`): :func:`_peaks` (argmax, peak
check, one gather of the axis neighbours), then :func:`_project`
(quarter-cell shift, back-projection), any number of detections at once. A
NaN or infinite grid maximum is rejected; :func:`_grid_fault` is the one
rule of which grid shapes decode.

A heatmap container, a :mod:`~panopose.weights` tensor container, holds one
``[K, h, w]`` tensor per detection (K the schema's keypoint count) named
``<frame_id>/<person index>``, all of one shape: a crop of ``w * stride`` by
``h * stride``. Its one reader, :func:`_decode_dataset`, reads no other tensor.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .dataio import LABELED_VISIBLE, Dataset
from .errors import ValidationError, _check_number, _in_file, _located, _where
from .geometry import _apply, _inverse, _shaped, crop_transform, invert_transform
from .schema import builtin_schema
from .weights import _Container

_BEFORE_AFTER = np.array([-1, 1])[:, None, None]


def _grid_fault(shape: tuple[int, ...], keypoints: int | None = None) -> str | None:
    """Why a grid of ``shape`` does not decode: it is not ``[K, h, w]`` with
    K, h, w >= 1, or, where ``keypoints`` is given, its K is another count."""
    if len(shape) != 3 or 0 in shape:
        return f"grid must be [K, h, w] with K, h, w >= 1, got shape {shape}"
    if keypoints not in (None, shape[0]):
        return f"grid must be [K, h, w] with K = {keypoints}, got shape {shape}"
    return None


def decode_heatmaps(values: Any, stride: float, crop: Any) -> tuple[np.ndarray, np.ndarray]:
    """Decode one detection's ``[K, h, w]`` heatmaps, ``stride`` crop pixels
    per cell, into panorama coordinates through the inverse of its
    ``[2, 3]`` crop.

    Returns the ``[K, 3]`` keypoints (all marked visible) and the ``[K]``
    per-keypoint confidences, each the grid maximum. A grid shape at fault
    (:func:`_grid_fault`), a bad stride, a crop or inverse with a non-finite
    coefficient or a zero determinant, and a grid whose maximum is NaN or
    infinite raise :class:`ValidationError`.
    """
    values = np.asarray(values)
    if fault := _grid_fault(values.shape):
        raise ValidationError(fault)
    _check_number("stride", stride)
    inverse = invert_transform(_shaped("crop", crop, (2, 3)))
    cells, neighbours, peaks = _peaks(values)
    return _project(cells, neighbours, stride, inverse), peaks.astype(np.float64)


def _decode_dataset(path: str, dets: Dataset, stride: float, padding: float) -> tuple[Dataset, tuple]:
    """``dets`` with every pose decoded from its tensor in the heatmap
    container at ``path``, and the one crop size ``(w * stride, h * stride)``
    (None, None with no detections). Every name and shape is checked in the
    header, then each tensor is read into one buffer and checked in full
    before the next. A fault names ``path``, or a detection's frame and person."""
    num_keypoints = len(builtin_schema(dets.schema_id).names)
    bounds = dets.offsets.tolist()
    tensors = [(_where(dets.frame_ids, bounds, row), f"{fid}/{row - start}")
               for fid, start, stop in zip(dets.frame_ids, bounds, bounds[1:])
               for row in range(start, stop)]
    with _in_file(path, open, path, "rb") as fh:
        heatmaps = _in_file(path, _Container, fh)
        first = None
        for where, name in tensors:
            if name not in heatmaps.entries:
                raise ValidationError(f"{where}: missing heatmap tensor {name!r}")
            shape = heatmaps.entries[name][1]
            if fault := _grid_fault(shape, num_keypoints):
                raise ValidationError(f"{where}: heatmap tensor {name!r}: {fault}")
            first = first or (name, shape)
            if shape != first[1]:
                raise ValidationError(f"{where}: heatmap tensor {name!r} has shape {shape}, but "
                                      f"{first[0]!r} has {first[1]}: every detection needs one grid shape")
        if first is None:
            return dets, (None, None)
        _, h, w = first[1]
        crop = (w * stride, h * stride)
        crops = _located(dets.frame_ids, bounds, crop_transform, dets.boxes, *crop, padding)
        cells = np.zeros((len(tensors), 2, num_keypoints))
        neighbours = np.zeros((len(tensors), 2, 2, num_keypoints))
        buffer = np.empty(max(end - begin for _, _, begin, end in heatmaps.entries.values()), np.uint8)
        for row, (where, name) in enumerate(tensors):
            values = _in_file(path, heatmaps.read_into, name, buffer).reshape(first[1])
            try:
                cells[row], neighbours[row], _ = _peaks(values)
            except ValidationError as exc:
                raise ValidationError(f"{where}: heatmap tensor {name!r}: {exc}") from exc
    # crop_transform has checked these crops and their inverses. The buffer
    # and the peaks are freed on return, before the output, where memory peaks.
    keypoints = _project(cells, neighbours, stride, _inverse(crops))
    return dets._with(keypoints=keypoints, has_pose=np.ones(len(dets.ids), dtype=bool)), crop


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
