"""Flat binary tensor container and final-layer weight remapping.

Container layout: an 8-byte little-endian unsigned header length, then a
UTF-8 JSON header mapping tensor name -> {"dtype", "shape", "begin", "end"}
(byte offsets into the payload), then the raw little-endian payload. Saving
is deterministic: names are serialized in sorted order with contiguous
payload offsets, so equal maps produce identical bytes. Reading checks the
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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import ValidationError
from .schema import SchemaMapping, check_entries

__all__ = [
    "TensorRecord",
    "TensorMap",
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
_TAG_BY_KIND = {np.dtype(d): tag for tag, d in _DTYPES.items()}
_COPY_BUFFER_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class TensorRecord:
    """Named multi-dimensional array with an explicit element-type tag."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("tensor name must be non-empty")
        if self.dtype not in _DTYPES:
            raise ValidationError(
                f"unsupported dtype {self.dtype!r}; supported: {sorted(_DTYPES)}"
            )
        shape = tuple(int(s) for s in self.shape)
        if any(s < 0 for s in shape):
            raise ValidationError(f"negative extent in shape {shape}")
        data = np.ascontiguousarray(self.data, dtype=_DTYPES[self.dtype])
        if data.size != math.prod(shape):
            raise ValidationError(
                f"tensor {self.name!r}: shape {shape} wants {math.prod(shape)} "
                f"elements, data has {data.size}"
            )
        try:
            data = data.reshape(shape)
        except ValueError as exc:  # more dimensions, or larger extents, than numpy holds
            raise ValidationError(f"tensor {self.name!r}: unsupported shape {shape}: {exc}") from exc
        data.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, name: str, array: np.ndarray) -> "TensorRecord":
        arr = np.asarray(array)
        tag = _TAG_BY_KIND.get(arr.dtype.newbyteorder("<"))
        if tag is None:
            raise ValidationError(f"no container dtype tag for numpy dtype {arr.dtype}")
        return cls(name, tag, arr.shape, arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorRecord):
            return NotImplemented
        return (
            self.name == other.name
            and self.dtype == other.dtype
            and self.shape == other.shape
            and self.data.tobytes() == other.data.tobytes()
        )


class TensorMap:
    """Immutable name-indexed collection of tensors (sorted by name)."""

    def __init__(self, records: Iterable[TensorRecord] = ()) -> None:
        table: dict[str, TensorRecord] = {}
        for record in records:
            if record.name in table:
                raise ValidationError(f"duplicate tensor name {record.name!r}")
            table[record.name] = record
        self._records = dict(sorted(table.items()))

    def __getitem__(self, name: str) -> TensorRecord:
        return self._records[name]

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorMap):
            return NotImplemented
        return self._records == other._records

    def with_records(self, *new: TensorRecord) -> "TensorMap":
        """Copy of this map with the given records replaced or added."""
        table = dict(self._records)
        for record in new:
            table[record.name] = record
        return TensorMap(table.values())


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    table = dict(pairs)
    if len(table) != len(pairs):
        raise ValidationError("malformed header: duplicate tensor name")
    return table


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
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"),
                                object_pairs_hook=_reject_duplicate_keys)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError(f"malformed header: {exc}") from exc
        if not isinstance(header, dict):
            raise ValidationError("malformed header: top level must be an object")

        self._payload_start = 8 + header_len
        payload_size = size - self._payload_start
        self.entries: dict[str, tuple[str, tuple[int, ...], int, int]] = {}
        for name, entry in header.items():
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

    def read(self, name: str) -> TensorRecord:
        dtype, shape, begin, end = self.entries[name]
        return TensorRecord(name, dtype, shape, self.read_into(name, np.empty(end - begin, np.uint8)))

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


def load_tensor_map(path: str | Path) -> TensorMap:
    with _open_container(path) as container:
        return TensorMap(container.read(name) for name in container.entries)


def _write_container(
    path: str | Path,
    layout: dict[str, tuple[str, tuple[int, ...]]],
    payload: Callable[[str], Iterable[np.ndarray | memoryview]],
) -> None:
    """Write a container of the tensors in ``layout`` (name -> dtype, shape):
    names in sorted order with contiguous payload offsets, each tensor's bytes
    being the parts that ``payload(name)`` yields. A failed write removes the
    partial file."""
    header: dict[str, dict] = {}
    offset = 0
    for name in sorted(layout):
        dtype, shape = layout[name]
        nbytes = math.prod(shape) * _DTYPES[dtype].itemsize
        header[name] = {"dtype": dtype, "shape": list(shape), "begin": offset, "end": offset + nbytes}
        offset += nbytes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    fh = open(path, "wb")
    try:
        with fh:  # closed, flush failure or not, before the file is removed
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for name in header:
                for part in payload(name):
                    fh.write(part)
    except BaseException:
        os.remove(path)
        raise


def save_tensor_map(tmap: TensorMap, path: str | Path) -> None:
    """Write the container; byte output is deterministic for a given map."""
    # A record's data is contiguous little-endian: its raw bytes are the payload.
    _write_container(path, {name: (tmap[name].dtype, tmap[name].shape) for name in tmap},
                     lambda name: (tmap[name].data,))


def _mean_of_slices(data: np.ndarray, entry: tuple[int, ...]) -> np.ndarray:
    if len(entry) == 1:  # as it is: a float64 round trip would quiet a signaling NaN
        return data[entry[0]]
    acc = data[list(entry)].astype(np.float64).mean(axis=0)
    return acc.astype(_DTYPES["f32"])


def remap_head_weights(
    tmap: TensorMap,
    weight_name: str,
    mapping: SchemaMapping,
    bias_name: str | None = None,
) -> TensorMap:
    """Rebuild the head weight (and optional bias) for a new keypoint schema.

    The weight must be rank-4 float32 [K_source, C, kh, kw]; output channel
    ``t`` is the elementwise mean of the source channels ``mapping.entries[t]``.
    The bias, when named, must be float32 [K_source] and is averaged the same
    way. Every other tensor is carried over unchanged.
    """
    return tmap.with_records(*_remap_head(tmap, weight_name, mapping, bias_name))


def _remap_head(
    tensors: TensorMap | _Container,
    weight_name: str,
    mapping: SchemaMapping,
    bias_name: str | None,
) -> list[TensorRecord]:
    """The new head records of :func:`remap_head_weights`, from anything that
    answers ``in`` and ``[]`` with tensor names: a map, or an open container,
    which then reads only the head."""
    if weight_name not in tensors:
        raise ValidationError(f"missing tensor {weight_name!r}")
    weight = tensors[weight_name]
    if weight.dtype != "f32":
        raise ValidationError(f"tensor {weight_name!r} must be f32, got {weight.dtype}")
    if len(weight.shape) != 4:
        raise ValidationError(
            f"expected rank-4 weight [K, C, kh, kw], got shape {weight.shape}"
        )
    k_source = weight.shape[0]
    check_entries(mapping, k_source)

    new_weight = np.stack(
        [_mean_of_slices(weight.data, entry) for entry in mapping.entries]
    )
    replaced = [TensorRecord(weight_name, "f32", new_weight.shape, new_weight)]

    if bias_name is not None:
        if bias_name not in tensors:
            raise ValidationError(f"missing tensor {bias_name!r}")
        bias = tensors[bias_name]
        if bias.dtype != "f32":
            raise ValidationError(f"tensor {bias_name!r} must be f32, got {bias.dtype}")
        if bias.shape != (k_source,):
            raise ValidationError(
                f"expected bias shape ({k_source},), got {bias.shape}"
            )
        new_bias = np.stack(
            [_mean_of_slices(bias.data, entry) for entry in mapping.entries]
        )
        replaced.append(TensorRecord(bias_name, "f32", new_bias.shape, new_bias))

    return replaced


def _save_remapped(src: _Container, head: list[TensorRecord], path: str | Path) -> None:
    """Write the container ``src`` with the ``head`` records in place of its
    own: the same bytes as :func:`save_tensor_map` of the remapped map, but
    every other tensor is copied from ``src`` through one bounded buffer, so
    memory does not grow with the container."""
    new = {record.name: record for record in head}
    layout = {name: (dtype, shape) for name, (dtype, shape, _, _) in src.entries.items()}
    layout.update((name, (record.dtype, record.shape)) for name, record in new.items())
    buffer = memoryview(bytearray(_COPY_BUFFER_BYTES))
    _write_container(
        path, layout, lambda name: (new[name].data,) if name in new else src.chunks(name, buffer)
    )
