import json
import operator
import os
import struct
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from synth import same_tensors

from panopose.errors import ValidationError
from panopose.schema import SchemaMapping, default_mapping, JRDB17
from panopose.weights import (
    _Container,
    load_tensor_map,
    remap_head_weights,
    save_tensor_map,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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
        tensors = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        save_tensor_map(tensors, path)
        loaded = load_tensor_map(path)
        assert tuple(loaded) == ("w",)
        assert loaded["w"].size == 6
        assert same_tensors(loaded, tensors)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        tensors = {f"t{i}": rng.normal(size=(i + 1, 4)).astype(np.float32) for i in range(5)}
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensor_map(tensors, a)
        save_tensor_map(load_tensor_map(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        tm = {"b": np.arange(3, dtype=np.float64), "a": np.arange(2, dtype=np.int64)}
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        save_tensor_map(tm, p1)
        save_tensor_map(tm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_map_is_a_valid_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_tensor_map({}, path)
        assert load_tensor_map(path) == {}

    def test_offsets_contiguous_and_sorted(self, tmp_path):
        path = tmp_path / "t.bin"
        tm = {"z": np.zeros(2, dtype=np.float32), "a": np.zeros(3, dtype=np.uint8)}
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

    @pytest.mark.parametrize("blob", [
        b'{"w":{"dtype":"f32","shape":[1],"begin":0,"end":4},"w":{"dtype":"f32","shape":[1],"begin":0,"end":4}}',
        b'{"w":{"dtype":"f32","dtype":"f32","shape":[1],"begin":0,"end":4}}',
    ], ids=["tensor", "entry"])
    def test_a_key_named_twice_is_refused(self, tmp_path, blob):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 4)
        with pytest.raises(ValidationError, match="^malformed header: duplicate tensor name$"):
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

    @pytest.mark.parametrize("begin, end", [(False, True), (0, True), (False, 1)])
    def test_boolean_offsets(self, tmp_path, begin, end):
        # JSON true and false parse to bool, an int subclass; shape already refuses them.
        path = tmp_path / "bad.bin"
        _write_container(path, {"a": {"dtype": "u8", "shape": [1], "begin": begin, "end": end}}, b"\x00")
        with pytest.raises(ValidationError, match=rf"^tensor 'a': malformed offsets {begin}\.\.{end}$"):
            load_tensor_map(path)

    def test_file_cut_after_the_header_check(self, tmp_path):
        # The header is checked on opening and a tensor is read later, so a
        # file cut in between gives a short read. The tensor is larger than
        # the file buffer, so it is not already in memory.
        path = tmp_path / "t.bin"
        weights = np.arange(2**16, dtype=np.float32)
        save_tensor_map({"w": weights}, path)
        with open(path, "rb") as fh:
            container = _Container(fh)
            os.truncate(path, path.stat().st_size - 4)
            with pytest.raises(ValidationError, match="truncated payload"):
                container.read("w")




class TestRemapHeadWeights:
    def test_constant_channels_average(self):
        tm = {"head.weight": _constant_channel_weight()}
        out = remap_head_weights(tm, "head.weight", default_mapping())
        w = out["head.weight"]
        assert w.shape == (17, 3, 1, 1)
        assert float(w[JRDB17.index("neck"), 0, 0, 0]) == (5 + 6) / 2
        assert float(w[JRDB17.index("head"), 0, 0, 0]) == (1 + 2) / 2
        assert float(w[JRDB17.index("center hip"), 0, 0, 0]) == (11 + 12) / 2

    def test_identity_mapping_is_bit_exact(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(17, 8, 3, 3)).astype(np.float32)
        tm = {"w": data}
        identity = SchemaMapping(JRDB17.id, JRDB17.id, tuple((i,) for i in range(len(JRDB17))))
        out = remap_head_weights(tm, "w", identity)
        assert out["w"].tobytes() == data.tobytes()

    def test_two_constant_counterparts(self):
        data = np.zeros((2, 1, 1, 1), dtype=np.float32)
        data[0], data[1] = 2.0, 4.0
        tm = {"w": data}
        out = remap_head_weights(tm, "w", SchemaMapping("s", "t", ((0, 1),)))
        assert float(out["w"][0, 0, 0, 0]) == 3.0

    def test_single_counterpart_channels_bit_exact(self):
        rng = np.random.default_rng(19)
        data = rng.normal(size=(17, 4, 1, 1)).astype(np.float32)
        tm = {"w": data}
        out = remap_head_weights(tm, "w", default_mapping())
        for t, entry in enumerate(default_mapping().entries):
            if len(entry) == 1:
                assert out["w"][t].tobytes() == data[entry[0]].tobytes()

    def test_single_counterpart_channel_keeps_a_signaling_nan(self):
        # 0x7F800001 is a signaling NaN: widened to float64 and back it would
        # come out quiet, as 0x7FC00001, with a RuntimeWarning.
        weight = np.zeros((2, 3, 1, 1), dtype=np.float32)
        bias = np.zeros(2, dtype=np.float32)
        weight.view(np.uint32)[1, 1] = 0x7F800001
        bias.view(np.uint32)[1] = 0x7F800001
        tm = {"w": weight, "b": bias}
        out = remap_head_weights(tm, "w", SchemaMapping("s", "t", ((1,), (0,))), bias_name="b")
        assert out["w"].view(np.uint32)[0, :, 0, 0].tolist() == [0, 0x7F800001, 0]
        assert out["b"].view(np.uint32).tolist() == [0x7F800001, 0]

    def test_one_value_channels_add_many_sources_in_mapping_order(self):
        # A bias, or a weight of one value per channel, adds its sources in
        # mapping order however many there are, where numpy's mean adds 8 or
        # more pairwise; with 2**60, -2**60, 1 and 3 the order shows in the mean.
        rng = np.random.default_rng(31)
        values = np.array([2.0**60, -(2.0**60), 1.0, 3.0], dtype=np.float32)
        tm = {"w": values.reshape(4, 1, 1, 1), "b": values}
        # Every 1 before the 2**60 counts, and none between it and the -(2**60).
        cut = (2,) * 72 + (0,) + (2,) * 76 + (1,)
        for n in (2, 7, 8, 9, 17, 129, 300):
            entries = (cut,) + tuple(tuple(rng.integers(0, 4, n).tolist()) for _ in range(40))
            out = remap_head_weights(tm, "w", SchemaMapping("s", "t", entries), bias_name="b")
            # Not the built-in sum, which compensates from Python 3.12 on.
            want = np.array([reduce(operator.add, (float(values[s]) for s in e), 0.0) / len(e)
                             for e in entries], dtype=np.float32)
            numpys = np.array([values[list(e)].astype(np.float64).mean() for e in entries],
                              dtype=np.float32)
            assert out["b"].tobytes() == want.tobytes()
            assert out["w"].tobytes() == want.tobytes()
            assert n < 8 or want.tobytes() != numpys.tobytes()

    def test_a_nan_among_the_sources_is_the_first_of_them_in_a_fresh_process(self, tmp_path):
        # Where two NaNs meet, CPython's addition keeps the second until the
        # interpreter specializes the loop and the first after it, so a fresh
        # process and a warm one once wrote different bytes.
        weight = np.zeros((3, 4, 1, 1), dtype=np.float32)
        weight.view(np.uint32)[0] = 0x7FC00001
        weight.view(np.uint32)[1] = 0x7FC00002
        save_tensor_map({"w": weight}, tmp_path / "w.bin")
        probe = (
            "import sys\n"
            "from panopose.schema import SchemaMapping\n"
            "from panopose.weights import load_tensor_map, remap_head_weights\n"
            "mapping = SchemaMapping('s', 't', ((0, 1, 2),) * 3)\n"
            "out = remap_head_weights(load_tensor_map(sys.argv[1]), 'w', mapping)\n"
            "print(out['w'].view('<u4').ravel().tolist())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "w.bin")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{[0x7FC00001] * 12}\n"

    def test_bias_averaged_when_named(self):
        bias = np.arange(17, dtype=np.float32)
        tm = {"w": _constant_channel_weight(), "b": bias}
        out = remap_head_weights(tm, "w", default_mapping(), bias_name="b")
        assert float(out["b"][JRDB17.index("neck")]) == 5.5

    def test_bias_untouched_when_not_named(self):
        bias = np.arange(17, dtype=np.float32)
        tm = {"w": _constant_channel_weight(), "b": bias}
        out = remap_head_weights(tm, "w", default_mapping())
        assert out["b"].tobytes() == bias.tobytes()

    def test_other_tensors_carried_over_byte_identical(self):
        rng = np.random.default_rng(23)
        other = rng.normal(size=(5, 5)).astype(np.float32)
        tm = {"w": _constant_channel_weight(), "backbone": other}
        out = remap_head_weights(tm, "w", default_mapping())
        assert same_tensors({"backbone": out["backbone"]}, {"backbone": other})
        assert out["backbone"].tobytes() == other.tobytes()

    def test_linearity(self):
        rng = np.random.default_rng(29)
        mapping = default_mapping()
        a = rng.normal(size=(17, 6, 3, 3)).astype(np.float32)
        b = rng.normal(size=(17, 6, 3, 3)).astype(np.float32)
        alpha, beta = 0.37, -1.91

        def remap(arr):
            return remap_head_weights({"w": arr}, "w", mapping)["w"].astype(np.float64)

        lhs = remap((alpha * a + beta * b).astype(np.float32))
        rhs = alpha * remap(a) + beta * remap(b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_missing_tensor(self):
        with pytest.raises(ValidationError, match="missing tensor"):
            remap_head_weights({}, "w", default_mapping())

    def test_wrong_rank(self):
        tm = {"w": np.zeros((17, 3), dtype=np.float32)}
        with pytest.raises(ValidationError, match="rank-4"):
            remap_head_weights(tm, "w", default_mapping())

    def test_wrong_dtype(self):
        tm = {"w": np.zeros((17, 3, 1, 1), dtype=np.float64)}
        with pytest.raises(ValidationError, match="^tensor 'w' must be f32, got f64$"):
            remap_head_weights(tm, "w", default_mapping())

    def test_counterpart_out_of_range(self):
        tm = {"w": np.zeros((2, 1, 1, 1), dtype=np.float32)}
        with pytest.raises(ValidationError, match="out of range"):
            remap_head_weights(tm, "w", SchemaMapping("s", "t", ((0,), (2,))))

    def test_mapping_with_no_targets(self):
        tm = {"w": np.zeros((2, 1, 1, 1), dtype=np.float32)}
        with pytest.raises(ValidationError, match="^mapping has no target keypoints$"):
            remap_head_weights(tm, "w", SchemaMapping("s", "t", ()))

    def test_generic_over_schema_sizes(self):
        data = np.zeros((3, 2, 1, 1), dtype=np.float32)
        for s in range(3):
            data[s] = float(s)
        tm = {"w": data}
        out = remap_head_weights(tm, "w", SchemaMapping("s3", "t2", ((0, 2), (1,))))
        assert out["w"].shape == (2, 2, 1, 1)
        assert float(out["w"][0, 0, 0, 0]) == 1.0

    def test_input_is_left_as_it_is(self):
        weight = _constant_channel_weight()
        bias = np.arange(17, dtype=np.float32)
        tm = {"w": weight, "b": bias, "stem": np.ones(3, dtype=np.float32)}
        before = {name: values.copy() for name, values in tm.items()}
        out = remap_head_weights(tm, "w", default_mapping(), bias_name="b")
        assert out is not tm
        assert list(tm) == ["w", "b", "stem"]
        assert tm["w"] is weight and tm["b"] is bias
        assert same_tensors(tm, before)
        assert all(values.flags.writeable for values in tm.values())

    def test_bias_of_the_wrong_shape(self):
        tm = {"w": _constant_channel_weight(), "b": np.zeros(3, dtype=np.float32)}
        with pytest.raises(ValidationError, match=r"^expected bias shape \(17,\), got \(3,\)$"):
            remap_head_weights(tm, "w", default_mapping(), bias_name="b")


class TestTensorMap:
    def test_records_are_read_only(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensor_map({"w": _constant_channel_weight(), "x": np.zeros(2, dtype=np.float32)}, path)
        loaded = load_tensor_map(path)
        remapped = remap_head_weights(
            {"w": _constant_channel_weight(), "x": np.zeros(2, dtype=np.float32)},
            "w", default_mapping(),
        )
        for tensors in (loaded, remapped):
            for values in tensors.values():
                with pytest.raises(ValueError):
                    values[(0,) * values.ndim] = 1.0

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "t.bin"
        with pytest.raises(ValidationError, match="^no container dtype tag for numpy dtype float16$"):
            save_tensor_map({"x": np.zeros(1, dtype=np.float16)}, path)
        assert not path.exists()

    def test_load_returns_sorted_names(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_container(path, {
            "b": {"dtype": "u8", "shape": [1], "begin": 0, "end": 1},
            "a": {"dtype": "u8", "shape": [2], "begin": 1, "end": 3},
        }, b"\x01\x02\x03")
        loaded = load_tensor_map(path)
        assert type(loaded) is dict
        assert list(loaded) == ["a", "b"]
        assert loaded["a"].tolist() == [2, 3]

    def test_zero_dimensional_tensor_round_trips(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensor_map({"s": np.float32(2.5), "z": np.array(7, dtype=np.int64)}, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8 : 8 + hlen])
        assert header["s"] == {"dtype": "f32", "shape": [], "begin": 0, "end": 4}
        assert header["z"] == {"dtype": "i64", "shape": [], "begin": 4, "end": 12}
        loaded = load_tensor_map(path)
        assert loaded["s"].shape == () and float(loaded["s"]) == 2.5
        assert loaded["z"].shape == () and int(loaded["z"]) == 7

    def test_big_endian_array_saves_the_little_endian_bytes(self, tmp_path):
        little = np.arange(12, dtype="<f4").reshape(3, 4)
        big = little.astype(little.dtype.newbyteorder(">"))
        assert big.dtype.byteorder == ">"
        save_tensor_map({"w": little}, tmp_path / "little.bin")
        save_tensor_map({"w": big}, tmp_path / "big.bin")
        assert (tmp_path / "big.bin").read_bytes() == (tmp_path / "little.bin").read_bytes()
        # remap-weights takes a big-endian f32 head as f32.
        out = remap_head_weights({"w": big.reshape(3, 4, 1, 1)}, "w",
                                 SchemaMapping("s", "t", ((0, 1), (2,))))
        assert out["w"].ravel().tolist() == [2.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0, 11.0]

    def test_non_contiguous_array_saves_its_values(self, tmp_path):
        values = np.arange(12, dtype=np.int32).reshape(3, 4)
        save_tensor_map({"t": values.T}, tmp_path / "t.bin")
        loaded = load_tensor_map(tmp_path / "t.bin")
        assert loaded["t"].shape == (4, 3)
        assert loaded["t"].tolist() == values.T.tolist()

    def test_empty_name_is_refused_on_save(self, tmp_path):
        path = tmp_path / "t.bin"
        with pytest.raises(ValidationError, match="^tensor name must be non-empty$"):
            save_tensor_map({"": np.zeros(1, dtype=np.float32)}, path)
        assert not path.exists()

    def test_empty_name_is_refused_on_load(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_container(path, {"": {"dtype": "f32", "shape": [1], "begin": 0, "end": 4}}, b"\x00" * 4)
        with pytest.raises(ValidationError, match="^tensor name must be non-empty$"):
            load_tensor_map(path)

    def test_header_entry_with_a_fifth_key(self, tmp_path):
        path = tmp_path / "t.bin"
        entry = {"dtype": "f32", "shape": [1], "begin": 0, "end": 4, "stride": [4]}
        _write_container(path, {"t": entry}, b"\x00" * 4)
        with pytest.raises(ValidationError, match=r"^malformed header: tensor 't': unexpected field\(s\) \['stride'\]$"):
            load_tensor_map(path)

    def test_shape_beyond_numpy_rank_limit(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_container(path, {"t": {"dtype": "u8", "shape": [1] * 65, "begin": 0, "end": 1}}, b"\x00")
        with pytest.raises(ValidationError, match=r"^tensor 't': unsupported shape \(1, "):
            load_tensor_map(path)

    def test_a_link_retargeted_to_a_regular_file_after_the_open_is_written_at_the_descriptors_position(
            self, tmp_path, retarget_at_fstat):
        # The open decides: a link that named a descriptor when it was opened,
        # and names a regular file before the status of what it opened is
        # read, is written in one pass at the descriptor's position, and the
        # regular file is left.
        tensors = {"w": _constant_channel_weight(), "b": np.arange(3, dtype=np.float32)}
        link, log, other, fresh = (tmp_path / name for name in ("link.bin", "log", "other", "fresh.bin"))
        save_tensor_map(tensors, fresh)
        other.write_bytes(b"OTHER\n")
        with open(log, "wb") as held:
            held.write(b"HEADER\n")
            held.flush()
            link.symlink_to(f"/dev/fd/{held.fileno()}")
            retarget_at_fstat(link, other)
            save_tensor_map(tensors, link)
            assert os.readlink(link) == str(other)
        assert log.read_bytes() == b"HEADER\n" + fresh.read_bytes()
        (tmp_path / "tail.bin").write_bytes(log.read_bytes()[len(b"HEADER\n"):])
        assert same_tensors(load_tensor_map(tmp_path / "tail.bin"), tensors)
        assert other.read_bytes() == b"OTHER\n"
