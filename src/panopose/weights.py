"""Flat binary tensor container and final-layer weight remapping.

A tensor is a numpy array, and a set of tensors is a dict of name -> array.
Container layout: an 8-byte little-endian unsigned header length, then a
UTF-8 JSON header mapping tensor name -> {"dtype", "shape", "begin", "end"}
(byte offsets into the payload), then the raw little-endian payload. The
dtype is one of the tags f32, f64, i32, i64 and u8. Saving is deterministic:
names are serialized in sorted order with contiguous payload offsets, so
tensors of equal names, dtypes, shapes and values produce identical bytes,
whatever their byte order or memory layout. Reading checks the
whole header before any payload byte, then reads each tensor's bytes only
when it is asked for, either into a new array or into a buffer the caller
reuses, so a caller that reads one tensor at a time holds one tensor at a
time. Since the output layout follows from names, dtypes and
shapes alone, a remapped container is written from an open source by
reading only the head and copying every other tensor's bytes through one
bounded buffer.

The head-remapping operation averages the output channels of a rank-4
[K, C, kh, kw] convolution weight (and optionally its [K] bias) according to
a counterpart mapping, producing a new head whose channel ``t`` is the mean
of the source channels listed for target ``t``. Accumulation is in float64,
rounded to float32 on store; single-counterpart channels copy bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterator

import numpy as np

from .errors import ValidationError, _json_object
from .schema import SchemaMapping, check_entries

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "load_tensor_map",
    "save_tensor_map",
    "remap_head_weights",
]

_DTYPES = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "i32": np.dtype("<i4"),
    "i64": np.dtype("<i8"),
    "u8": np.dtype("u1"),
}
# Arrays of either byte order have a tag; the payload holds little-endian bytes.
_TAG_BY_KIND = {d.newbyteorder(order): tag for tag, d in _DTYPES.items() for order in "<>"}
_COPY_BUFFER_BYTES = 1 << 20


class _Container:
    """An open container. The whole header is checked on opening, before any
    payload byte is read; :meth:`read` then reads one tensor's bytes."""

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(8)
        if len(prefix) < 8:
            raise ValidationError("malformed header: file shorter than the length prefix")
        (header_len,) = struct.unpack("<Q", prefix)
        if 8 + header_len > size:
            raise ValidationError(
                f"malformed header: declared header length {header_len} exceeds file size"
            )
        header = _json_object(fh.read(header_len), "malformed header", "duplicate tensor name")

        self._payload_start = 8 + header_len
        payload_size = size - self._payload_start
        self.entries: dict[str, tuple[str, tuple[int, ...], int, int]] = {}
        for name, entry in header.items():
            if not name:
                raise ValidationError("tensor name must be non-empty")
            if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "begin", "end"}:
                raise ValidationError(
                    f"malformed header: tensor {name!r} needs exactly dtype/shape/begin/end"
                )
            dtype, shape, begin, end = entry["dtype"], entry["shape"], entry["begin"], entry["end"]
            if not isinstance(dtype, str) or dtype not in _DTYPES:
                raise ValidationError(f"tensor {name!r}: unsupported dtype {dtype!r}")
            if not isinstance(shape, list) or not all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape
            ):
                raise ValidationError(f"tensor {name!r}: malformed shape {shape!r}")
            # bool is an int subclass, and JSON true and false parse to it.
            if not (type(begin) is int and type(end) is int and 0 <= begin <= end):
                raise ValidationError(f"tensor {name!r}: malformed offsets {begin!r}..{end!r}")
            if end > payload_size:
                raise ValidationError(
                    f"truncated payload: tensor {name!r} ends at byte {end}, "
                    f"payload has {payload_size}"
                )
            needed = math.prod(shape) * _DTYPES[dtype].itemsize
            if end - begin != needed:
                raise ValidationError(
                    f"tensor {name!r}: offsets span {end - begin} bytes, "
                    f"shape {shape} needs {needed}"
                )
            self.entries[name] = (dtype, tuple(shape), begin, end)

        spans = sorted((begin, end, name) for name, (_, _, begin, end) in self.entries.items())
        for (b0, e0, n0), (b1, e1, n1) in zip(spans, spans[1:]):
            if b1 < e0:
                raise ValidationError(
                    f"overlapping payload ranges for tensors {n0!r} and {n1!r}"
                )

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def read(self, name: str) -> np.ndarray:
        """Tensor ``name`` as a new read-only array of the header's shape."""
        _, shape, begin, end = self.entries[name]
        values = self.read_into(name, np.empty(end - begin, np.uint8))
        try:
            values = values.reshape(shape)
        except ValueError as exc:  # more dimensions, or larger extents, than numpy holds
            raise ValidationError(f"tensor {name!r}: unsupported shape {shape}: {exc}") from exc
        values.flags.writeable = False
        return values

    def read_into(self, name: str, buffer: np.ndarray) -> np.ndarray:
        """Tensor ``name``'s values, flat, read into the front of the uint8
        ``buffer``, which must hold them: a view that the next read into
        ``buffer`` overwrites."""
        dtype, _, begin, end = self.entries[name]
        view = buffer[: end - begin]
        self._fh.seek(self._payload_start + begin)
        self._fill(name, view)
        return view.view(_DTYPES[dtype])

    __getitem__ = read

    def chunks(self, name: str, buffer: memoryview) -> Iterator[memoryview]:
        """Tensor ``name``'s payload bytes in parts read into ``buffer``; each
        part is overwritten by the next, so use it before asking for that."""
        _, _, begin, end = self.entries[name]
        self._fh.seek(self._payload_start + begin)
        for at in range(begin, end, len(buffer)):
            part = buffer[: min(len(buffer), end - at)]
            self._fill(name, part)
            yield part

    def _fill(self, name: str, view: np.ndarray | memoryview) -> None:
        if self._fh.readinto(view) != len(view):
            raise ValidationError(f"truncated payload: tensor {name!r} could not be read whole")


@contextmanager
def _open_container(path: str | Path) -> Iterator[_Container]:
    with open(path, "rb") as fh:
        yield _Container(fh)


def load_tensor_map(path: str | Path) -> dict[str, np.ndarray]:
    """Every tensor of the container at ``path`` as a read-only array, by
    name in sorted order."""
    with _open_container(path) as container:
        tensors = {name: container.read(name) for name in container.entries}
    return dict(sorted(tensors.items()))


def _stored(name: str, values: ArrayLike) -> tuple[str, np.ndarray]:
    """The dtype tag of tensor ``name`` and its values as the payload holds
    them: C-contiguous and little-endian, so their raw bytes are written."""
    if not name:
        raise ValidationError("tensor name must be non-empty")
    values = np.asarray(values)
    tag = _TAG_BY_KIND.get(values.dtype)
    if tag is None:
        raise ValidationError(f"no container dtype tag for numpy dtype {values.dtype}")
    # Not np.ascontiguousarray, which makes a 0-d array 1-d.
    return tag, values.astype(_DTYPES[tag], order="C", copy=False)


def save_tensor_map(tensors: Mapping[str, ArrayLike], path: str | Path) -> None:
    """Write the container of ``tensors`` (name -> array-like); byte output
    is deterministic for given names, dtypes, shapes and values."""
    _write_container(path, tensors)


def _write_container(
    path: str | Path, tensors: Mapping[str, ArrayLike], src: _Container | None = None
) -> None:
    """Write a container of ``tensors`` and, when ``src`` is given, of its
    other tensors: names in sorted order with contiguous payload offsets.
    The bytes of a tensor of ``src`` are copied through one bounded buffer, so
    memory does not grow with the container. A failed write removes the
    partial file."""
    stored = {name: _stored(name, values) for name, values in tensors.items()}
    layout = {} if src is None else {name: entry[:2] for name, entry in src.entries.items()}
    layout.update((name, (tag, values.shape)) for name, (tag, values) in stored.items())
    header: dict[str, dict] = {}
    offset = 0
    for name in sorted(layout):
        dtype, shape = layout[name]
        nbytes = math.prod(shape) * _DTYPES[dtype].itemsize
        header[name] = {"dtype": dtype, "shape": list(shape), "begin": offset, "end": offset + nbytes}
        offset += nbytes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buffer = None if src is None else memoryview(bytearray(_COPY_BUFFER_BYTES))
    fh = open(path, "wb")
    try:
        with fh:  # closed, flush failure or not, before the file is removed
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for name in header:
                for part in (stored[name][1],) if name in stored else src.chunks(name, buffer):
                    fh.write(part)
    except BaseException:
        os.remove(path)
        raise


def _mean_of_slices(data: np.ndarray, entry: tuple[int, ...]) -> np.ndarray:
    if len(entry) == 1:  # as it is: a float64 round trip would quiet a signaling NaN
        return data[entry[0]]
    acc = data[list(entry)].astype(np.float64).mean(axis=0)
    return acc.astype(_DTYPES["f32"])


def remap_head_weights(
    tensors: Mapping[str, ArrayLike],
    weight_name: str,
    mapping: SchemaMapping,
    bias_name: str | None = None,
) -> dict[str, np.ndarray]:
    """Rebuild the head weight (and optional bias) for a new keypoint schema.

    The weight must be rank-4 float32 [K_source, C, kh, kw]; output channel
    ``t`` is the elementwise mean of the source channels ``mapping.entries[t]``.
    The bias, when named, must be float32 [K_source] and is averaged the same
    way. Every other tensor is carried over unchanged. The result is a new
    dict of read-only arrays; ``tensors`` is left as it is.
    """
    remapped = {name: _read_only(values) for name, values in tensors.items()}
    remapped.update(_remap_head(remapped, weight_name, mapping, bias_name))
    return remapped


def _read_only(values: ArrayLike) -> np.ndarray:
    """A read-only view of ``values``, whose own flags stay as they are."""
    view = np.asarray(values).view()
    view.flags.writeable = False
    return view


def _head_tensor(tensors: Mapping[str, np.ndarray] | _Container, name: str) -> np.ndarray:
    if name not in tensors:
        raise ValidationError(f"missing tensor {name!r}")
    values = np.asarray(tensors[name])
    tag = _TAG_BY_KIND.get(values.dtype)
    if tag != "f32":
        raise ValidationError(f"tensor {name!r} must be f32, got {tag or values.dtype}")
    return values


def _remap_head(
    tensors: Mapping[str, np.ndarray] | _Container,
    weight_name: str,
    mapping: SchemaMapping,
    bias_name: str | None,
) -> dict[str, np.ndarray]:
    """The new head tensors of :func:`remap_head_weights`, by name, from
    anything that answers ``in`` and ``[]`` with tensor names: a dict, or an
    open container, which then reads only the head."""
    weight = _head_tensor(tensors, weight_name)
    if weight.ndim != 4:
        raise ValidationError(
            f"expected rank-4 weight [K, C, kh, kw], got shape {weight.shape}"
        )
    check_entries(mapping, weight.shape[0])
    head = {weight_name: weight}
    if bias_name is not None:
        bias = _head_tensor(tensors, bias_name)
        if bias.shape != weight.shape[:1]:
            raise ValidationError(f"expected bias shape {weight.shape[:1]}, got {bias.shape}")
        head[bias_name] = bias
    return {
        name: _read_only(np.stack([_mean_of_slices(values, entry) for entry in mapping.entries]))
        for name, values in head.items()
    }
