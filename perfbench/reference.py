"""Independent implementations of the behaviour panopose documents.

The benchmark writes its inputs and checks the program's outputs with these
functions, so no check trusts the code it checks. Each one follows the
README (file formats, conventions) or the public docstrings, not the
program's internals.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# Tensor container element types (README "Tensor containers").
DTYPES = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "i32": np.dtype("<i4"),
    "i64": np.dtype("<i8"),
    "u8": np.dtype("u1"),
}

COCO17 = (
    "nose", "left eye", "right eye", "left ear", "right ear",
    "left shoulder", "right shoulder", "left elbow", "right elbow",
    "left wrist", "right wrist", "left hip", "right hip",
    "left knee", "right knee", "left ankle", "right ankle",
)
JRDB17 = (
    "head", "right eye", "left eye", "right shoulder", "neck",
    "left shoulder", "right elbow", "left elbow", "center hip",
    "right hand", "right hip", "left hip", "left hand",
    "right knee", "left knee", "right foot", "left foot",
)
# Built-in coco17 -> jrdb17 counterpart table. Split targets average two
# sources; "right hand" is sourced from the left wrist in the literal
# upstream table (--verbatim-table1) and from the right wrist by default.
DEFAULT_COUNTERPARTS = (
    ("left eye", "right eye"), ("right eye",), ("left eye",), ("right shoulder",),
    ("left shoulder", "right shoulder"), ("left shoulder",), ("right elbow",),
    ("left elbow",), ("left hip", "right hip"), ("right wrist",), ("right hip",),
    ("left hip",), ("left wrist",), ("right knee",), ("left knee",),
    ("right ankle",), ("left ankle",),
)
VERBATIM_ROW = JRDB17.index("right hand")


def mapping_indices(counterparts) -> list[tuple[int, ...]]:
    return [tuple(COCO17.index(n) for n in sources) for sources in counterparts]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- tensor containers ------------------------------------------------------------


def write_container(path: Path, shapes, produce) -> int:
    """Write one f32 tensor per ``(name, shape)``, names in sorted order,
    asking ``produce(name)`` for each payload in turn so that only one
    tensor needs to be in memory; returns the file size."""
    header, offset = {}, 0
    for name, shape in shapes:
        nbytes = math.prod(shape) * 4
        header[name] = {"dtype": "f32", "shape": list(shape),
                        "begin": offset, "end": offset + nbytes}
        offset += nbytes
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for name, shape in shapes:
            arr = np.ascontiguousarray(produce(name), dtype=DTYPES["f32"])
            if arr.shape != tuple(shape):
                raise ValueError(f"{name}: shape {arr.shape}, want {shape}")
            arr.tofile(fh)
    return 8 + len(head) + offset


def read_container(path: Path) -> dict[str, np.ndarray]:
    """Name -> read-only array view over a memory map of the file."""
    with open(path, "rb") as fh:
        (header_len,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(header_len).decode("utf-8"))
    base = 8 + header_len
    raw = np.memmap(path, dtype=np.uint8, mode="r")
    out = {}
    for name, entry in header.items():
        dtype = DTYPES[entry["dtype"]]
        chunk = raw[base + entry["begin"]: base + entry["end"]]
        out[name] = chunk.view(dtype).reshape(entry["shape"])
    return out


def container_tensor_count(path: Path) -> int:
    with open(path, "rb") as fh:
        (header_len,) = struct.unpack("<Q", fh.read(8))
        return len(json.loads(fh.read(header_len).decode("utf-8")))


# -- geometry -----------------------------------------------------------------------


def iou(a, b) -> float:
    """Continuous IoU of two [x1, y1, x2, y2] boxes; 0 when disjoint."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def box_from_pose(pose, margin: float, width: float, height: float) -> list[float]:
    """Tight box over the labeled keypoints, grown by ``margin`` times the
    side on every side and clamped to the panorama."""
    pts = np.array([(x, y) for x, y, v in pose if v > 0], dtype=np.float64)
    x1, y1 = pts.min(axis=0)
    x2, y2 = pts.max(axis=0)
    w, h = x2 - x1, y2 - y1
    return [min(max(x1 - margin * w, 0.0), width), min(max(y1 - margin * h, 0.0), height),
            min(max(x2 + margin * w, 0.0), width), min(max(y2 + margin * h, 0.0), height)]


def crop_params(box, out_w: int = 288, out_h: int = 384, padding: float = 1.25):
    """Scale and origin of the crop: the box grown about its centre to the
    output aspect ratio, then by ``padding``. Panorama point (x, y) lands at
    crop point ((x - ox) * sx, (y - oy) * sy)."""
    x1, y1, x2, y2 = box
    w, h = x2 - x1, y2 - y1
    if w * out_h < h * out_w:
        w = h * (out_w / out_h)
    elif w * out_h > h * out_w:
        h = w * (out_h / out_w)
    w *= padding
    h *= padding
    cx, cy = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
    return out_w / w, out_h / h, cx - 0.5 * w, cy - 0.5 * h
