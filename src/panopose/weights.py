"""Flat binary tensor container and final-layer weight remapping.

Container layout: an 8-byte little-endian unsigned header length, then a
UTF-8 JSON header mapping tensor name -> {"dtype", "shape", "begin", "end"}
(byte offsets into the payload), then the raw little-endian payload. Saving
is deterministic: names are serialized in sorted order with contiguous
payload offsets, so equal maps produce identical bytes.

The head-remapping operation averages the output channels of a rank-4
[K, C, kh, kw] convolution weight (and optionally its [K] bias) according to
a counterpart mapping, producing a new head whose channel ``t`` is the mean
of the source channels listed for target ``t``. Accumulation is in float64,
rounded to float32 on store; single-counterpart channels copy bit-exactly.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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
        data = data.reshape(shape)
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

    def __repr__(self) -> str:
        return f"TensorMap({list(self._records)})"

    def names(self) -> tuple[str, ...]:
        return tuple(self._records)

    def records(self) -> tuple[TensorRecord, ...]:
        return tuple(self._records.values())

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


def load_tensor_map(path: str | Path) -> TensorMap:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValidationError("malformed header: file shorter than the length prefix")
    (header_len,) = struct.unpack("<Q", raw[:8])
    if 8 + header_len > len(raw):
        raise ValidationError(
            f"malformed header: declared header length {header_len} exceeds file size"
        )
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"),
                            object_pairs_hook=_reject_duplicate_keys)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError("malformed header: top level must be an object")

    payload = memoryview(raw)[8 + header_len :]
    records = []
    spans = []
    for name, entry in header.items():
        if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "begin", "end"}:
            raise ValidationError(
                f"malformed header: tensor {name!r} needs exactly dtype/shape/begin/end"
            )
        dtype, shape, begin, end = entry["dtype"], entry["shape"], entry["begin"], entry["end"]
        if dtype not in _DTYPES:
            raise ValidationError(f"tensor {name!r}: unsupported dtype {dtype!r}")
        if not isinstance(shape, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape
        ):
            raise ValidationError(f"tensor {name!r}: malformed shape {shape!r}")
        if not (isinstance(begin, int) and isinstance(end, int) and 0 <= begin <= end):
            raise ValidationError(f"tensor {name!r}: malformed offsets {begin!r}..{end!r}")
        if end > len(payload):
            raise ValidationError(
                f"truncated payload: tensor {name!r} ends at byte {end}, "
                f"payload has {len(payload)}"
            )
        count = math.prod(shape)
        itemsize = _DTYPES[dtype].itemsize
        if end - begin != count * itemsize:
            raise ValidationError(
                f"tensor {name!r}: offsets span {end - begin} bytes, "
                f"shape {shape} needs {count * itemsize}"
            )
        spans.append((begin, end, name))
        data = np.frombuffer(payload, dtype=_DTYPES[dtype], count=count, offset=begin)
        records.append(TensorRecord(name, dtype, tuple(shape), data))

    spans.sort()
    for (b0, e0, n0), (b1, e1, n1) in zip(spans, spans[1:]):
        if b1 < e0:
            raise ValidationError(
                f"overlapping payload ranges for tensors {n0!r} and {n1!r}"
            )
    return TensorMap(records)


def save_tensor_map(tmap: TensorMap, path: str | Path) -> None:
    """Write the container; byte output is deterministic for a given map."""
    header: dict[str, dict] = {}
    offset = 0
    for record in tmap.records():  # already name-sorted
        header[record.name] = {
            "dtype": record.dtype,
            "shape": list(record.shape),
            "begin": offset,
            "end": offset + record.data.nbytes,
        }
        offset += record.data.nbytes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for record in tmap.records():
            fh.write(record.data)  # contiguous little-endian: the record's raw bytes


def _mean_of_slices(data: np.ndarray, entry: tuple[int, ...]) -> np.ndarray:
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
    if weight_name not in tmap:
        raise ValidationError(f"missing tensor {weight_name!r}")
    weight = tmap[weight_name]
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
        if bias_name not in tmap:
            raise ValidationError(f"missing tensor {bias_name!r}")
        bias = tmap[bias_name]
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

    return tmap.with_records(*replaced)
