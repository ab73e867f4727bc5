import json
import os
import struct

import numpy as np
import pytest

from panopose.errors import ValidationError
from panopose.schema import SchemaMapping, default_mapping, JRDB17
from panopose.weights import (
    TensorMap,
    TensorRecord,
    _open_container,
    load_tensor_map,
    remap_head_weights,
    save_tensor_map,
)


def _write_container(path, header: dict, payload: bytes) -> None:
    blob = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)


def _constant_channel_weight(k=17, c=3, kh=1, kw=1):
    data = np.empty((k, c, kh, kw), dtype=np.float32)
    for s in range(k):
        data[s] = float(s)
    return data


class TestContainer:
    def test_single_tensor_round_trip(self, tmp_path):
        path = tmp_path / "t.bin"
        record = TensorRecord("w", "f32", (2, 3), np.arange(6, dtype=np.float32))
        save_tensor_map(TensorMap([record]), path)
        loaded = load_tensor_map(path)
        assert tuple(loaded) == ("w",)
        assert loaded["w"].data.size == 6
        assert loaded["w"] == record

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        records = [
            TensorRecord.from_array(f"t{i}", rng.normal(size=(i + 1, 4)).astype(np.float32))
            for i in range(5)
        ]
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensor_map(TensorMap(records), a)
        save_tensor_map(load_tensor_map(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        tm = TensorMap(
            [
                TensorRecord("b", "f64", (3,), np.arange(3, dtype=np.float64)),
                TensorRecord("a", "i64", (2,), np.arange(2, dtype=np.int64)),
            ]
        )
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        save_tensor_map(tm, p1)
        save_tensor_map(tm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_map_is_a_valid_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_tensor_map(TensorMap(), path)
        assert len(load_tensor_map(path)) == 0

    def test_offsets_contiguous_and_sorted(self, tmp_path):
        path = tmp_path / "t.bin"
        tm = TensorMap(
            [
                TensorRecord("z", "f32", (2,), np.zeros(2, dtype=np.float32)),
                TensorRecord("a", "u8", (3,), np.zeros(3, dtype=np.uint8)),
            ]
        )
        save_tensor_map(tm, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8 : 8 + hlen])
        assert list(header) == ["a", "z"]
        assert header["a"]["begin"] == 0
        assert header["a"]["end"] == header["z"]["begin"] == 3
        assert header["z"]["end"] == 11

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.bin"
        header = {"w": {"dtype": "f32", "shape": [4], "begin": 0, "end": 16}}
        _write_container(path, header, b"\x00" * 8)
        with pytest.raises(ValidationError, match="truncated payload"):
            load_tensor_map(path)

    def test_overlapping_offsets(self, tmp_path):
        path = tmp_path / "bad.bin"
        header = {
            "a": {"dtype": "f32", "shape": [2], "begin": 0, "end": 8},
            "b": {"dtype": "f32", "shape": [2], "begin": 4, "end": 12},
        }
        _write_container(path, header, b"\x00" * 12)
        with pytest.raises(ValidationError, match="overlapping"):
            load_tensor_map(path)

    def test_duplicate_names(self, tmp_path):
        path = tmp_path / "bad.bin"
        blob = (
            b'{"w":{"dtype":"f32","shape":[1],"begin":0,"end":4},'
            b'"w":{"dtype":"f32","shape":[1],"begin":4,"end":8}}'
        )
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 8)
        with pytest.raises(ValidationError, match="duplicate tensor name"):
            load_tensor_map(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<Q", 4) + b"oops")
        with pytest.raises(ValidationError, match="malformed header"):
            load_tensor_map(path)

    def test_deeply_nested_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        blob = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(ValidationError, match="malformed header"):
            load_tensor_map(path)

    def test_header_length_beyond_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<Q", 1000) + b"{}")
        with pytest.raises(ValidationError, match="malformed header"):
            load_tensor_map(path)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.bin"
        header = {"w": {"dtype": "f32", "shape": [3], "begin": 0, "end": 8}}
        _write_container(path, header, b"\x00" * 8)
        with pytest.raises(ValidationError, match="offsets span"):
            load_tensor_map(path)

    def test_file_cut_after_the_header_check(self, tmp_path):
        # The header is checked on opening and a tensor is read later, so a
        # file cut in between gives a short read. The tensor is larger than
        # the file buffer, so it is not already in memory.
        path = tmp_path / "t.bin"
        weights = np.arange(2**16, dtype=np.float32)
        save_tensor_map(TensorMap([TensorRecord.from_array("w", weights)]), path)
        with _open_container(path) as container:
            os.truncate(path, path.stat().st_size - 4)
            with pytest.raises(ValidationError, match="truncated payload"):
                container.read("w")


class TestRemapHeadWeights:
    def test_constant_channels_average(self):
        tm = TensorMap([TensorRecord.from_array("head.weight", _constant_channel_weight())])
        out = remap_head_weights(tm, "head.weight", default_mapping())
        w = out["head.weight"].data
        assert w.shape == (17, 3, 1, 1)
        assert float(w[JRDB17.index("neck"), 0, 0, 0]) == (5 + 6) / 2
        assert float(w[JRDB17.index("head"), 0, 0, 0]) == (1 + 2) / 2
        assert float(w[JRDB17.index("center hip"), 0, 0, 0]) == (11 + 12) / 2

    def test_identity_mapping_is_bit_exact(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(17, 8, 3, 3)).astype(np.float32)
        tm = TensorMap([TensorRecord.from_array("w", data)])
        identity = SchemaMapping(JRDB17.id, JRDB17.id, tuple((i,) for i in range(len(JRDB17))))
        out = remap_head_weights(tm, "w", identity)
        assert out["w"].data.tobytes() == data.tobytes()

    def test_two_constant_counterparts(self):
        data = np.zeros((2, 1, 1, 1), dtype=np.float32)
        data[0], data[1] = 2.0, 4.0
        tm = TensorMap([TensorRecord.from_array("w", data)])
        out = remap_head_weights(tm, "w", SchemaMapping("s", "t", ((0, 1),)))
        assert float(out["w"].data[0, 0, 0, 0]) == 3.0

    def test_single_counterpart_channels_bit_exact(self):
        rng = np.random.default_rng(19)
        data = rng.normal(size=(17, 4, 1, 1)).astype(np.float32)
        tm = TensorMap([TensorRecord.from_array("w", data)])
        out = remap_head_weights(tm, "w", default_mapping())
        for t, entry in enumerate(default_mapping().entries):
            if len(entry) == 1:
                assert out["w"].data[t].tobytes() == data[entry[0]].tobytes()

    def test_single_counterpart_channel_keeps_a_signaling_nan(self):
        # 0x7F800001 is a signaling NaN: widened to float64 and back it would
        # come out quiet, as 0x7FC00001, with a RuntimeWarning.
        weight = np.zeros((2, 3, 1, 1), dtype=np.float32)
        bias = np.zeros(2, dtype=np.float32)
        weight.view(np.uint32)[1, 1] = 0x7F800001
        bias.view(np.uint32)[1] = 0x7F800001
        tm = TensorMap([TensorRecord.from_array("w", weight), TensorRecord.from_array("b", bias)])
        out = remap_head_weights(tm, "w", SchemaMapping("s", "t", ((1,), (0,))), bias_name="b")
        assert out["w"].data.view(np.uint32)[0, :, 0, 0].tolist() == [0, 0x7F800001, 0]
        assert out["b"].data.view(np.uint32).tolist() == [0x7F800001, 0]

    def test_bias_averaged_when_named(self):
        bias = np.arange(17, dtype=np.float32)
        tm = TensorMap(
            [
                TensorRecord.from_array("w", _constant_channel_weight()),
                TensorRecord.from_array("b", bias),
            ]
        )
        out = remap_head_weights(tm, "w", default_mapping(), bias_name="b")
        assert float(out["b"].data[JRDB17.index("neck")]) == 5.5

    def test_bias_untouched_when_not_named(self):
        bias = np.arange(17, dtype=np.float32)
        tm = TensorMap(
            [
                TensorRecord.from_array("w", _constant_channel_weight()),
                TensorRecord.from_array("b", bias),
            ]
        )
        out = remap_head_weights(tm, "w", default_mapping())
        assert out["b"].data.tobytes() == bias.tobytes()

    def test_other_tensors_carried_over_byte_identical(self):
        rng = np.random.default_rng(23)
        other = TensorRecord.from_array("backbone", rng.normal(size=(5, 5)).astype(np.float32))
        tm = TensorMap([TensorRecord.from_array("w", _constant_channel_weight()), other])
        out = remap_head_weights(tm, "w", default_mapping())
        assert out["backbone"] == other
        assert out["backbone"].data.tobytes() == other.data.tobytes()

    def test_linearity(self):
        rng = np.random.default_rng(29)
        mapping = default_mapping()
        a = rng.normal(size=(17, 6, 3, 3)).astype(np.float32)
        b = rng.normal(size=(17, 6, 3, 3)).astype(np.float32)
        alpha, beta = 0.37, -1.91

        def remap(arr):
            tm = TensorMap([TensorRecord.from_array("w", arr)])
            return remap_head_weights(tm, "w", mapping)["w"].data.astype(np.float64)

        lhs = remap((alpha * a + beta * b).astype(np.float32))
        rhs = alpha * remap(a) + beta * remap(b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_missing_tensor(self):
        with pytest.raises(ValidationError, match="missing tensor"):
            remap_head_weights(TensorMap(), "w", default_mapping())

    def test_wrong_rank(self):
        tm = TensorMap([TensorRecord.from_array("w", np.zeros((17, 3), dtype=np.float32))])
        with pytest.raises(ValidationError, match="rank-4"):
            remap_head_weights(tm, "w", default_mapping())

    def test_wrong_dtype(self):
        tm = TensorMap(
            [TensorRecord.from_array("w", np.zeros((17, 3, 1, 1), dtype=np.float64))]
        )
        with pytest.raises(ValidationError, match="must be f32"):
            remap_head_weights(tm, "w", default_mapping())

    def test_counterpart_out_of_range(self):
        tm = TensorMap(
            [TensorRecord.from_array("w", np.zeros((2, 1, 1, 1), dtype=np.float32))]
        )
        with pytest.raises(ValidationError, match="out of range"):
            remap_head_weights(tm, "w", SchemaMapping("s", "t", ((0,), (2,))))

    def test_generic_over_schema_sizes(self):
        data = np.zeros((3, 2, 1, 1), dtype=np.float32)
        for s in range(3):
            data[s] = float(s)
        tm = TensorMap([TensorRecord.from_array("w", data)])
        out = remap_head_weights(tm, "w", SchemaMapping("s3", "t2", ((0, 2), (1,))))
        assert out["w"].shape == (2, 2, 1, 1)
        assert float(out["w"].data[0, 0, 0, 0]) == 1.0


class TestTensorMap:
    def test_duplicate_names_rejected(self):
        r = TensorRecord("x", "f32", (1,), np.zeros(1, dtype=np.float32))
        with pytest.raises(ValidationError, match="duplicate"):
            TensorMap([r, r])

    def test_records_are_read_only(self):
        r = TensorRecord("x", "f32", (2,), np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError):
            r.data[0] = 1.0

    def test_unsupported_dtype(self):
        with pytest.raises(ValidationError, match="unsupported dtype"):
            TensorRecord("x", "f16", (1,), np.zeros(1, dtype=np.float32))
