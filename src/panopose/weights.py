"""Flat binary tensor container and final-layer weight remapping.

The container layer works on bytes: there a tensor is a dtype tag, a shape
and its little-endian payload bytes, so opening, checking, copying and
writing a container, and remapping a head, load no numpy. numpy is imported
only where a tensor becomes an array: :func:`load_tensor_map`,
:meth:`_Container.read` and :meth:`_Container.read_into` give arrays, and
:func:`save_tensor_map` and :func:`remap_head_weights` take a dict of
name -> array.

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
reading only the head and copying every other tensor's bytes in the kernel,
or through one bounded buffer where the kernel cannot copy. A regular output
file is written in place, and a reader refuses it until it is complete.

The head-remapping operation averages the output channels of a rank-4
[K, C, kh, kw] convolution weight (and optionally its [K] bias) according to
a counterpart mapping, producing a new head whose channel ``t`` is the mean
of the source channels listed for target ``t``. One kernel,
:func:`_mean_rows`, computes it on the head's bytes for the library and the
command alike: the float64 sum of the sources in mapping order, divided by
the count and rounded to float32; one-source channels copy bit-exactly.
"""

from __future__ import annotations

import errno
import json
import math
import os
import struct
from collections.abc import Mapping
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, Sequence

from .errors import ValidationError, _direct, _fields, _json_object, _kind, _regular
from .schema import SchemaMapping, check_entries

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

# Tag -> the numpy dtype of its payload; the last character is the item size.
_DTYPES = {"f32": "<f4", "f64": "<f8", "i32": "<i4", "i64": "<i8", "u8": "|u1"}
_ITEMSIZE = {tag: int(code[-1]) for tag, code in _DTYPES.items()}
_TAG_OF = {code: tag for tag, code in _DTYPES.items()}
_COPY_BUFFER_BYTES = 1 << 20
# How a first os.copy_file_range call says that the kernel cannot copy
# between two files: a filesystem, file type or kernel without the call, or
# an output opened for appending (EBADF).
_NO_KERNEL_COPY = {errno.EXDEV, errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP, errno.ENOTSUP, errno.EBADF}

# A tensor as the container layer holds it: dtype tag, shape, payload bytes.
_Raw = tuple[str, tuple[int, ...], bytes]


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
            _fields(entry, ("dtype", "shape", "begin", "end"), (), f"malformed header: tensor {name!r}")
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
            needed = math.prod(shape) * _ITEMSIZE[dtype]
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

    def read(self, name: str) -> NDArray:
        """Tensor ``name`` as a new read-only array of the header's shape."""
        import numpy as np

        _, shape, begin, end = self.entries[name]
        values = self.read_into(name, np.empty(end - begin, np.uint8))
        try:
            values = values.reshape(shape)
        except ValueError as exc:  # more dimensions, or larger extents, than numpy holds
            raise ValidationError(f"tensor {name!r}: unsupported shape {shape}: {exc}") from exc
        values.flags.writeable = False
        return values

    def read_into(self, name: str, buffer: NDArray) -> NDArray:
        """Tensor ``name``'s values, flat, read into the front of the uint8
        ``buffer``, which must hold them: a view that the next read into
        ``buffer`` overwrites."""
        dtype, _, begin, end = self.entries[name]
        view = buffer[: end - begin]
        self._fh.seek(self._payload_start + begin)
        self._fill(name, view)
        return view.view(_DTYPES[dtype])

    def raw(self, name: str) -> _Raw | None:
        """Tensor ``name`` as the container holds it, or None without it."""
        if name not in self.entries:
            return None
        dtype, shape, begin, end = self.entries[name]
        data = bytearray(end - begin)
        self._fh.seek(self._payload_start + begin)
        self._fill(name, data)
        return dtype, shape, data

    def chunks(self, name: str, buffer: memoryview) -> Iterator[memoryview]:
        """Tensor ``name``'s payload bytes in parts read into ``buffer``; each
        part is overwritten by the next, so use it before asking for that."""
        _, _, begin, end = self.entries[name]
        self._fh.seek(self._payload_start + begin)
        for at in range(begin, end, len(buffer)):
            part = buffer[: min(len(buffer), end - at)]
            self._fill(name, part)
            yield part

    def copy(self, name: str, fd: int) -> bool:
        """Copy tensor ``name``'s payload bytes to ``fd``, at its file
        offset, in the kernel. False, with nothing copied, when the first call
        finds that the kernel cannot copy between these two files."""
        _, _, begin, end = self.entries[name]
        start, stop = self._payload_start + begin, self._payload_start + end
        at = start
        while at < stop:
            try:
                copied = os.copy_file_range(self._fh.fileno(), fd, stop - at, at)
            except OSError as exc:
                if at == start and exc.errno in _NO_KERNEL_COPY:
                    return False
                raise
            if not copied:
                raise _truncated(name)
            at += copied
        return True

    def _fill(self, name: str, view: NDArray | bytearray | memoryview) -> None:
        if self._fh.readinto(view) != len(view):
            raise _truncated(name)


def _truncated(name: str) -> ValidationError:
    return ValidationError(f"truncated payload: tensor {name!r} could not be read whole")


def load_tensor_map(path: str | Path) -> dict[str, NDArray]:
    """Every tensor of the container at ``path`` as a read-only array, by
    name in sorted order."""
    with open(_kind("path", path, str, os.PathLike), "rb") as fh:
        container = _Container(fh)
        tensors = {name: container.read(name) for name in container.entries}
    return dict(sorted(tensors.items()))


def _tag(values: NDArray) -> str | None:
    """The dtype tag of an array of either byte order, or None without one."""
    return _TAG_OF.get(values.dtype.newbyteorder("<").str)


def _stored(name: str, values: ArrayLike) -> _Raw:
    """Tensor ``name`` as the container holds it: its values C-contiguous
    and little-endian, so their raw bytes are written."""
    import numpy as np

    if not _kind("tensor name", name, str):
        raise ValidationError("tensor name must be non-empty")
    values = np.asarray(values)
    tag = _tag(values)
    if tag is None:
        raise ValidationError(f"no container dtype tag for numpy dtype {values.dtype}")
    # Not np.ascontiguousarray, which makes a 0-d array 1-d.
    return tag, values.shape, values.astype(_DTYPES[tag], order="C", copy=False)


def save_tensor_map(tensors: Mapping[str, ArrayLike], path: str | Path) -> None:
    """Write the container of ``tensors`` (name -> array-like); byte output
    is deterministic for given names, dtypes, shapes and values."""
    _write_container(_kind("path", path, str, os.PathLike),
                     {name: _stored(name, values) for name, values in _kind("tensors", tensors, Mapping).items()})


def _write_container(
    path: str | Path, tensors: Mapping[str, _Raw], src: _Container | None = None
) -> None:
    """Write a container of ``tensors`` (name -> dtype tag, shape, payload
    bytes) and, when ``src`` is given, of its other tensors: names in sorted
    order with contiguous payload offsets. The bytes of a tensor of ``src``
    are copied in the kernel with ``os.copy_file_range``; where the platform
    has no such call, or it cannot copy between the two files, they are
    copied through one bounded buffer. Memory does not grow with the
    container either way.

    A regular file (:func:`errors._regular`) is written in place, without
    truncating it first: the length prefix is written as zeros, the file is
    cut to its new size after the payload, and the real prefix comes last.
    Until then a reader refuses the file as a malformed header, so a write
    that stops part-way over an old container never leaves one that mixes
    old and new tensors. A FIFO, a device or a descriptor is written in one
    pass at its position, prefix first, and is left as it is by a failed
    write, which removes the partial file only where ``path`` opened a
    regular file: a symbolic link ``path`` stays."""
    layout = {} if src is None else {name: entry[:2] for name, entry in src.entries.items()}
    layout.update((name, (tag, shape)) for name, (tag, shape, _) in tensors.items())
    header: dict[str, dict] = {}
    offset = 0
    for name in sorted(layout):
        dtype, shape = layout[name]
        nbytes = math.prod(shape) * _ITEMSIZE[dtype]
        header[name] = {"dtype": dtype, "shape": list(shape), "begin": offset, "end": offset + nbytes}
        offset += nbytes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = struct.pack("<Q", len(header_bytes))
    kernel = hasattr(os, "copy_file_range")
    buffer = None
    fh = _direct(path)
    opened = None
    try:
        with fh:  # closed, flush failure or not, before the file is removed
            opened = _regular(fh, path)
            fh.write(bytes(len(prefix)) if opened else prefix)
            fh.write(header_bytes)
            for name in header:
                if name in tensors:
                    fh.write(tensors[name][2])
                    continue
                if kernel:
                    fh.flush()
                    kernel = src.copy(name, fh.fileno())
                if not kernel:
                    buffer = buffer or memoryview(bytearray(_COPY_BUFFER_BYTES))
                    for part in src.chunks(name, buffer):
                        fh.write(part)
            if opened:
                fh.flush()
                os.ftruncate(fh.fileno(), len(prefix) + len(header_bytes) + offset)
                os.pwrite(fh.fileno(), prefix, 0)
    except BaseException:
        if opened:
            real = os.path.realpath(path)
            with suppress(OSError):
                if os.path.samestat(os.lstat(real), opened):
                    os.remove(real)
        raise


def _sum(values: Sequence[float]) -> float:
    """The float64 sum of one value's sources: 0.0 plus each in mapping
    order (not the built-in ``sum``, which compensates from Python 3.12 on).
    A NaN among the sources gives the first of them: which NaN CPython's
    addition keeps where two meet changes once the interpreter specializes
    the loop."""
    for value in values:
        if value != value:
            return value
    total = 0.0
    for value in values:
        total += value
    return total


def _mean_rows(data: bytes, width: int, entries: Sequence[Sequence[int]]) -> bytes:
    """The rows of ``width`` little-endian f32 values whose row ``t`` is the
    mean of rows ``entries[t]`` of ``data``: each value the float64 sum of
    its sources (:func:`_sum`) divided by their count, rounded to f32. A row
    of one source is its bytes as they are, since a float64 round trip would
    quiet a signaling NaN."""
    row = struct.Struct(f"<{width}f")
    rows = bytearray()
    for entry in entries:
        if len(entry) == 1:
            rows += data[entry[0] * row.size : (entry[0] + 1) * row.size]
        else:
            columns = zip(*(row.unpack_from(data, s * row.size) for s in entry))
            rows += row.pack(*(_sum(column) / len(entry) for column in columns))
    return bytes(rows)


def remap_head_weights(
    tensors: Mapping[str, ArrayLike],
    weight_name: str,
    mapping: SchemaMapping,
    bias_name: str | None = None,
) -> dict[str, NDArray]:
    """Rebuild the head weight (and optional bias) for a new keypoint schema.

    The weight must be rank-4 float32 [K_source, C, kh, kw]; output channel
    ``t`` is the elementwise mean of the source channels ``mapping.entries[t]``.
    The bias, when named, must be float32 [K_source] and is averaged the same
    way. Every other tensor is carried over unchanged. The result is a new
    dict of read-only arrays; ``tensors`` is left as it is.
    """
    import numpy as np

    _kind("weight_name", weight_name, str)
    _kind("mapping", mapping, SchemaMapping)
    _kind("bias_name", bias_name, str, type(None))
    remapped = {name: np.asarray(values).view() for name, values in _kind("tensors", tensors, Mapping).items()}
    for view in remapped.values():
        view.flags.writeable = False

    def raw(name: str) -> _Raw | None:
        if name not in remapped:
            return None
        values = remapped[name]
        tag = _tag(values)
        data = values.astype(_DTYPES["f32"], copy=False).tobytes() if tag == "f32" else b""
        return tag or str(values.dtype), values.shape, data

    head = _remap_head(raw, weight_name, mapping, bias_name)
    remapped.update((name, np.frombuffer(data, _DTYPES[tag]).reshape(shape))
                    for name, (tag, shape, data) in head.items())
    return remapped


def _head_tensor(raw: Callable[[str], _Raw | None], name: str) -> tuple[tuple[int, ...], bytes]:
    found = raw(name)
    if found is None:
        raise ValidationError(f"missing tensor {name!r}")
    kind, shape, data = found
    if kind != "f32":
        raise ValidationError(f"tensor {name!r} must be f32, got {kind}")
    return shape, data


def _remap_head(
    raw: Callable[[str], _Raw | None],
    weight_name: str,
    mapping: SchemaMapping,
    bias_name: str | None,
) -> dict[str, _Raw]:
    """The new head tensors of :func:`remap_head_weights`, by name, as the
    container holds them. ``raw(name)`` gives a tensor's dtype tag (for an
    array without one, its numpy dtype), shape and payload bytes, or None
    when there is no such tensor; :meth:`_Container.raw` reads only the
    head."""
    weight_shape, weight = _head_tensor(raw, weight_name)
    if len(weight_shape) != 4:
        raise ValidationError(
            f"expected rank-4 weight [K, C, kh, kw], got shape {weight_shape}"
        )
    check_entries(mapping, weight_shape[0])
    head = {weight_name: (weight_shape, weight)}
    if bias_name is not None:
        bias_shape, bias = _head_tensor(raw, bias_name)
        if bias_shape != weight_shape[:1]:
            raise ValidationError(f"expected bias shape {weight_shape[:1]}, got {bias_shape}")
        head[bias_name] = (bias_shape, bias)
    return {
        name: ("f32", (len(mapping.entries), *shape[1:]),
               _mean_rows(data, math.prod(shape[1:]), mapping.entries))
        for name, (shape, data) in head.items()
    }
