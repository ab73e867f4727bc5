import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from synth import dataset, person

from panopose.dataio import (
    Dataset,
    _load,
    dataset_to_canonical_json,
    load_ground_truth,
    load_predictions,
    save_dataset,
)
from panopose.errors import ValidationError
from panopose.geometry import PanoramaSpec
from panopose.schema import JRDB17, KeypointSchema, builtin_schema

PANO = PanoramaSpec(2000.0, 600.0)
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _pose17(x0=100.0, y0=200.0):
    return [(x0 + 3 * i, y0 + 2 * i, 2) for i in range(17)]


def _dataset(*frames):
    return dataset("jrdb17", PANO, frames)


def _columns(frame_ids=("f1",), offsets=(0, 1), **changes):
    """Constructor arguments of one person with a box and no pose, with ``changes``."""
    columns = dict(
        schema_id="jrdb17", pano=PANO, frame_ids=frame_ids, offsets=offsets, ids=[None],
        boxes=[[0.0, 0.0, 1.0, 1.0]], has_box=[True], scores=[0.0], has_score=[False],
        keypoints=[None], has_pose=[False],
    )
    return columns | changes


def _doc(persons, frame_id="f1", width=2000):
    return json.dumps(
        {
            "schema": "jrdb17",
            "pano": {"width": width, "height": 600},
            "frames": [{"frame_id": frame_id, "persons": persons}],
        }
    )


class TestTypes:
    def test_keypoint_visibility_range(self):
        with pytest.raises(ValidationError, match="keypoint 0: visibility must be 0, 1 or 2, got 3"):
            Dataset(**_columns(keypoints=[[(0, 0, 3)]], has_pose=[True]))

    def test_keypoint_rejects_non_finite(self):
        with pytest.raises(ValidationError, match=r"keypoint 0: non-finite keypoint coordinate \(nan, 0.0\)"):
            Dataset(**_columns(keypoints=[[(float("nan"), 0.0, 2)]], has_pose=[True]))

    def test_person_needs_box_or_pose(self):
        with pytest.raises(ValidationError, match="^frame 'f1', person 0: person has neither box nor pose$"):
            Dataset(**_columns(has_box=[False], scores=[0.5], has_score=[True]))

    def test_dataset_sorts_frames(self):
        ds = Dataset(**_columns(frame_ids=["b", "a"], offsets=[0, 1, 1], ids=["p"]))
        assert ds.frame_ids == ("a", "b")
        assert ds.offsets.tolist() == [0, 0, 1]
        assert ds.ids.tolist() == ["p"]

    def test_dataset_rejects_duplicate_frame_ids(self):
        with pytest.raises(ValidationError, match="duplicate frame id"):
            Dataset(**_columns(frame_ids=["a", "a"], offsets=[0, 1, 1]))

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"scores": [0.0, 0.0]}, r"^scores must be \[1\], got shape \(2,\)$"),
            ({"ids": []}, r"^ids must be \[1\], got shape \(0,\)$"),
            ({"scores": [[0.5, 0.5]], "has_score": [True]}, r"^scores must be \[1\], got shape \(1, 2\)$"),
            ({"boxes": [[0.0, 0.0, 1.0]]}, r"^boxes must be \[1, 4\], got shape \(1, 3\)$"),
            ({"has_box": [[True, True]]}, r"^has_box must be \[1\], got shape \(1, 2\)$"),
            ({"offsets": [0]}, r"^offsets must be \[2\], got shape \(1,\)$"),
            ({"offsets": [1, 1]}, r"^offsets must rise from 0 over 1 frames$"),
            ({"offsets": [0, 2]}, r"^ids must be \[2\], got shape \(1,\)$"),
            ({"frame_ids": ["a", "b"], "offsets": [0, 2, 1]}, r"^offsets must rise from 0 over 2 frames$"),
            ({"keypoints": [[0.0, 0.0]], "has_pose": [True]}, r"^keypoints must be \[1, K, 3\], got shape \(1, 2\)$"),
            ({"frame_ids": [""]}, r"^frame '': frame id must be a non-empty string"),
            ({"frame_ids": ["\ud800"]}, r"^frame '\\ud800': frame id is not encodable as UTF-8$"),
            ({"ids": [5]}, r"^frame 'f1', person 0: id must be a string$"),
            ({"ids": [b"p"]}, r"^frame 'f1', person 0: id must be a string$"),
            ({"keypoints": np.zeros((1, 0, 3)), "has_pose": [True]},
             r"^keypoints must be \[1, K, 3\] with K >= 1, got shape \(1, 0, 3\)$"),
            ({"schema_id": ""}, r"^schema_id must be non-empty$"),
        ],
        ids=["long-column", "short-column", "scores-shape", "boxes-shape", "has-box-shape", "short-offsets",
             "offsets-from-1", "offsets-past-n", "offsets-fall", "keypoints-shape", "empty-frame-id",
             "surrogate-frame-id", "int-id", "bytes-id", "no-keypoints", "empty-schema-id"],
    )
    def test_constructor_rejects_inconsistent_columns(self, changes, match):
        with pytest.raises(ValidationError, match=match):
            Dataset(**_columns(**changes))

    def test_a_dataset_equals_no_other_type(self):
        ds = Dataset(**_columns())
        assert ds.__eq__(object()) is NotImplemented
        assert ds != "f1"
        assert ds == Dataset(**_columns())

    def test_constructor_zeroes_missing_values(self):
        kps = np.ones((2, 17, 3))
        ds = Dataset(**_columns(offsets=[0, 2], ids=["a", None], boxes=[[0, 0, 1, 1], [7, 7, 7, 7]],
                                has_box=[True, False], scores=[3.0, 0.5], has_score=[False, True],
                                keypoints=kps, has_pose=[False, True]))
        assert ds.boxes.tolist() == [[0, 0, 1, 1], [0, 0, 0, 0]]
        assert ds.scores.tolist() == [0.0, 0.5]
        assert ds.keypoints[0].tolist() == [[0.0] * 3] * 17
        assert ds.keypoints[1].tolist() == kps[1].tolist()
        assert not any(c.flags.writeable for c in (ds.offsets, ds.ids, ds.boxes, ds.keypoints))


class TestLoading:
    def test_minimal_valid_file(self):
        text = _doc([{"box": [1, 2, 3, 4]}])
        ds = _load(text, JRDB17, False)
        assert ds.frame_ids == ("f1",)
        assert ds.boxes.tolist() == [[1, 2, 3, 4]]
        assert ds.has_box.tolist() == [True]

    def test_pose_round_trips(self):
        pose = [[float(i), float(2 * i), i % 3] for i in range(17)]
        ds = _load(_doc([{"pose": pose}]), JRDB17, False)
        assert ds.keypoints[0].tolist() == pose

    def test_wrong_pose_length_names_the_person(self):
        text = _doc([{"pose": [[0, 0, 2]] * 16}])
        with pytest.raises(ValidationError, match=r"frame 'f1', person 0.*16 keypoints"):
            _load(text, JRDB17, False)

    def test_duplicate_frame_id(self):
        doc = json.loads(_doc([{"box": [1, 2, 3, 4]}]))
        doc["frames"].append(doc["frames"][0])
        with pytest.raises(ValidationError, match="duplicate frame id"):
            _load(json.dumps(doc), JRDB17, False)

    def test_non_finite_coordinate(self):
        text = _doc([{"box": [1, 2, 3, float("inf")]}])  # json emits Infinity
        with pytest.raises(ValidationError, match="non-finite"):
            _load(text, JRDB17, False)

    def test_bad_visibility_flag(self):
        pose = [[0.0, 0.0, 2]] * 16 + [[0.0, 0.0, 7]]
        with pytest.raises(ValidationError, match="visibility"):
            _load(_doc([{"pose": pose}]), JRDB17, False)

    def test_unknown_field_rejected(self):
        text = _doc([{"box": [1, 2, 3, 4], "margin": 0.1}])
        with pytest.raises(ValidationError, match="unexpected field"):
            _load(text, JRDB17, False)

    def test_schema_mismatch(self):
        doc = json.loads(_doc([{"box": [1, 2, 3, 4]}]))
        doc["schema"] = "coco17"
        with pytest.raises(ValidationError, match="schema mismatch"):
            _load(json.dumps(doc), JRDB17, False)

    def test_person_needs_box_or_pose(self):
        with pytest.raises(ValidationError, match="neither box nor pose"):
            _load(_doc([{"score": 0.5}]), JRDB17, False)

    def test_score_out_of_range_names_the_person(self):
        text = _doc([{"box": [1, 2, 3, 4], "score": 1.5}])
        with pytest.raises(ValidationError, match=r"frame 'f1', person 0: .*outside \[0, 1\]"):
            _load(text, JRDB17, False)

    def test_degenerate_box_names_the_person(self):
        text = _doc([{"box": [1, 2, 3, 4]}, {"box": [5, 2, 5, 4]}])
        with pytest.raises(ValidationError, match=r"frame 'f1', person 1: degenerate box"):
            _load(text, JRDB17, False)

    def test_earliest_person_value_fault_is_reported(self):
        text = _doc([
            {"box": [1, 2, 3, 4]},
            {"box": [1, 2, 3, 4], "score": 1.5},
            {"box": [1, 2, 3, 4]},
            {"box": [5, 2, 5, 4]},
        ])
        with pytest.raises(
            ValidationError, match=r"^frame 'f1', person 1: person score 1\.5 outside \[0, 1\]$"
        ):
            _load(text, JRDB17, False)

    def test_empty_frame_id_names_the_frame(self):
        text = _doc([{"box": [1, 2, 3, 4]}], frame_id="")
        with pytest.raises(ValidationError, match=r"frame '': frame id must be a non-empty"):
            _load(text, JRDB17, False)

    def test_frame_id_utf8_cannot_encode_names_the_frame(self):
        # json.dumps writes the lone surrogate as the escape \ud800.
        text = _doc([{"box": [1, 2, 3, 4]}], frame_id="\ud800")
        with pytest.raises(ValidationError, match=r"^frame '\\ud800': frame id is not encodable as UTF-8$"):
            _load(text, JRDB17, False)

    @pytest.mark.parametrize(
        "text, match",
        [
            (
                _doc([{"box": [1, 2, 3, 10**400]}]),
                r"frame 'f1', person 0: box: integer too large",
            ),
            (
                _doc([{"pose": [[0, 0, 2]] * 3 + [[10**400, 0, 2]] + [[0, 0, 2]] * 13}]),
                r"frame 'f1', person 0: keypoint 3: integer too large",
            ),
            (_doc([{"box": [1, 2, 3, 4]}], width=10**400), r"pano width: integer too large"),
        ],
        ids=["box", "keypoint", "pano-width"],
    )
    def test_integer_beyond_float_range_is_located(self, text, match):
        with pytest.raises(ValidationError, match=match):
            _load(text, JRDB17, False)

    @pytest.mark.parametrize(
        "row, match",
        [
            (
                [float("nan"), 0.0, 2],  # json emits NaN
                r"^frame 'f1', person 0: keypoint 4: non-finite keypoint coordinate",
            ),
            (
                [0.0, 0.0, 3],
                r"^frame 'f1', person 0: keypoint 4: visibility must be 0, 1 or 2, got 3$",
            ),
        ],
        ids=["nan", "visibility-3"],
    )
    def test_keypoint_value_error_is_located(self, row, match):
        pose = [[0.0, 0.0, 2]] * 4 + [row] + [[0.0, 0.0, 2]] * 12
        with pytest.raises(ValidationError, match=match):
            _load(_doc([{"pose": pose}]), JRDB17, False)

    @pytest.mark.parametrize(
        "person, match",
        [
            ({"pose": [[True, 0, 2]]}, r"keypoint 4: expected a number, got True$"),
            ({"pose": [["1.5", 0, 2]]}, r"keypoint 4: expected a number, got '1\.5'$"),
            ({"pose": [[None, 0, 2]]}, r"keypoint 4: expected a number, got None$"),
            ({"pose": [[0, 0, 2.0]]}, r"keypoint 4 visibility must be an integer, got 2\.0$"),
            ({"pose": [[0, 0, True]]}, r"keypoint 4 visibility must be an integer, got True$"),
            ({"pose": ["abc"]}, r"pose keypoint 4 must be \[x, y, v\]$"),
            ({"pose": [[1, 2]]}, r"pose keypoint 4 must be \[x, y, v\]$"),
            ({"pose": [[1, 2, 3, 4]]}, r"pose keypoint 4 must be \[x, y, v\]$"),
            ({"box": [1, 2, True, 4]}, r"box: expected a number, got True$"),
            ({"id": None, "box": [10, 10, 50, 90], "score": 0.9}, r"id must be a string$"),
        ],
        ids=["x-true", "x-string", "x-null", "v-float", "v-true", "row-string", "row-short",
             "row-long", "box-true", "id-null"],
    )
    def test_value_of_wrong_json_type_is_located(self, person, match):
        # One np.array call over all rows would take each of these silently.
        if "pose" in person:
            person = {"pose": [[0.0, 0.0, 2]] * 4 + person["pose"] + [[0.0, 0.0, 2]] * 12}
        text = _doc([{"pose": [[1.0, 1.0, 2]] * 17}, person])
        with pytest.raises(ValidationError, match=r"^frame 'f1', person 1: " + match):
            _load(text, JRDB17, False)

    @pytest.mark.parametrize("schema", [JRDB17, None], ids=["given", "from-file"])
    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"schema": 5}, r"^schema must be str, got 5$"),
            ({"schema": None}, r"^schema must be str, got None$"),
            ({"frames": {"f1": []}}, r"^frames must be a list$"),
        ],
        ids=["schema-int", "schema-null", "frames-object"],
    )
    def test_a_header_field_of_the_wrong_type_is_named(self, schema, changes, match):
        with pytest.raises(ValidationError, match=match):
            _load(json.dumps(json.loads(_doc([])) | changes), schema, False)

    def test_parse_error(self):
        with pytest.raises(ValidationError, match="parse error"):
            _load("not json", JRDB17, False)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ValidationError, match="parse error"):
            _load("[" * 100_000 + "]" * 100_000, JRDB17, False)

    @pytest.mark.parametrize("load", [load_ground_truth, load_predictions])
    def test_non_utf8_file_is_a_parse_error(self, tmp_path, load):
        # A UTF-16 file with its byte-order mark: files are read as UTF-8 only.
        path = tmp_path / "d.json"
        path.write_bytes(b"\xff\xfe" + _doc([{"box": [1, 2, 3, 4], "score": 0.5}]).encode("utf-16-le"))
        with pytest.raises(ValidationError, match="^parse error: 'utf-8' codec can't decode byte 0xff"):
            load(path, JRDB17)


class TestRepeatedKeys:
    # json.dumps cannot write a key twice, so a first copy is spliced in.
    @pytest.mark.parametrize("key, first", [
        ("schema", '"coco17"'),
        ("width", "1"),
        ("frame_id", '"f0"'),
        ("box", "[5, 6, 7, 8]"),
    ], ids=["document", "pano", "frame", "person"])
    def test_a_key_named_twice_is_refused(self, key, first):
        text = _doc([{"box": [1, 2, 3, 4]}]).replace(f'"{key}": ', f'"{key}": {first}, "{key}": ', 1)
        with pytest.raises(ValidationError, match=f"^parse error: duplicate key '{key}'$"):
            _load(text, JRDB17, False)

    def test_a_repeated_key_comes_before_a_shape_fault(self):
        # The shape fault is in an earlier person than the repeated key.
        text = _doc([{"box": [1, 2, 3]}, {"box": [1, 2, 3, 4]}]).replace(
            '{"box": [1, 2, 3, 4]}', '{"score": 0.5, "score": 0.5, "box": [1, 2, 3, 4]}')
        with pytest.raises(ValidationError, match="^parse error: duplicate key 'score'$"):
            _load(text, JRDB17, False)


class TestPredictions:
    def test_missing_score_rejected(self):
        text = _doc([{"box": [1, 2, 3, 4]}])
        with pytest.raises(ValidationError, match="prediction without score"):
            _load(text, JRDB17, True)

    def test_empty_frames_list_is_valid(self):
        text = json.dumps(
            {"schema": "jrdb17", "pano": {"width": 10, "height": 10}, "frames": []}
        )
        ds = _load(text, JRDB17, True)
        assert ds.frame_ids == ()
        assert len(ds.ids) == 0

    def test_loaders_from_disk(self, tmp_path):
        ds = _dataset(("f1", [person(pose=_pose17(), score=0.5)]))
        path = tmp_path / "d.json"
        save_dataset(ds, path)
        assert load_ground_truth(path, JRDB17) == ds
        assert load_predictions(path, JRDB17) == ds


class TestCanonicalForm:
    def test_save_load_identity(self):
        ds = _dataset(
            ("f2", [person(id="a", box=(0.1, 0.2, 10.3, 20.4), score=0.25),
                    person(pose=_pose17(1 / 3, 2 / 7))]),
            ("f1", []),
        )
        text = dataset_to_canonical_json(ds)
        assert _load(text, JRDB17, False) == ds

    def test_frame_permutations_serialize_identically(self):
        f1 = ("f1", [person(box=(0, 0, 1, 1))])
        f2 = ("f2", [person(pose=_pose17())])
        assert dataset_to_canonical_json(_dataset(f1, f2)) == dataset_to_canonical_json(
            _dataset(f2, f1)
        )

    def test_canonicalization_is_stable(self):
        ds = _dataset(("f1", [person(pose=_pose17(0.1, 1e-17))]))
        once = dataset_to_canonical_json(ds)
        again = dataset_to_canonical_json(_load(once, JRDB17, False))
        assert once == again

    def test_empty_dataset_round_trips(self, tmp_path):
        ds = _dataset()
        path = tmp_path / "empty.json"
        save_dataset(ds, path)
        assert load_ground_truth(path, JRDB17) == ds

    def test_awkward_floats_survive(self):
        values = (0.1, 1 / 3, 1e-17, 123456.789012345, 2.0 ** -40)
        kps = [(v, -v, 2) for v in values] + [(0, 0, 2)] * 12
        ds = _dataset(("f1", [person(pose=kps)]))
        back = _load(dataset_to_canonical_json(ds), JRDB17, False)
        assert back == ds


class TestSaveTarget:
    """``save_dataset`` opens its target as every output that is not staged
    is opened (``errors._direct``): a regular file is emptied and written
    from its start, and a FIFO or a descriptor is written at its position."""

    def _ds(self):
        return _dataset(("f1", [person(pose=_pose17(), score=0.5)]), ("f2", [person(box=(1, 2, 3, 4))]))

    def test_dev_stdout_keeps_what_was_printed_before(self, tmp_path):
        # Opened anew, /dev/stdout redirected to a file would be truncated,
        # and the line printed before would be lost.
        script = ("import sys\n"
                  "from panopose.dataio import _load, save_dataset\n"
                  "from panopose.schema import JRDB17\n"
                  "ds = _load(sys.argv[1], JRDB17, False)\n"
                  "print('HEADER-LINE', flush=True)\n"
                  "save_dataset(ds, '/dev/stdout')\n")
        text = dataset_to_canonical_json(self._ds())
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        captured = tmp_path / "out"
        with open(captured, "wb") as stdout:
            proc = subprocess.run([sys.executable, "-c", script, text], stdout=stdout,
                                  stderr=subprocess.PIPE, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert captured.read_bytes() == b"HEADER-LINE\n" + text.encode("utf-8")

    def test_an_old_longer_file_ends_equal_to_a_fresh_save_and_keeps_its_mode(self, tmp_path):
        fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
        save_dataset(self._ds(), fresh)
        old.write_bytes(b"x" * (3 * fresh.stat().st_size))
        old.chmod(0o604)
        save_dataset(self._ds(), old)
        assert old.read_bytes() == fresh.read_bytes()
        assert stat.S_IMODE(old.stat().st_mode) == 0o604

    def test_a_new_file_follows_the_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            save_dataset(self._ds(), tmp_path / "new.json")
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o640

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_a_fifo_receives_the_canonical_bytes_and_stays_a_fifo(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        save_dataset(self._ds(), fifo)
        reader.join(10)
        assert not reader.is_alive()
        assert received == [dataset_to_canonical_json(self._ds()).encode("utf-8")]
        assert fifo.is_fifo()

    def test_a_link_retargeted_to_a_descriptor_after_the_open_still_has_its_file_emptied(
            self, tmp_path, retarget_at_fstat):
        # The open decides: a link that named a regular file when it was
        # opened, and names a descriptor before the status of what it opened
        # is read, gets that file emptied, and the descriptor's file is left.
        link, old, held_path = tmp_path / "link.json", tmp_path / "old.json", tmp_path / "held"
        longer = _dataset(*[(f"f{n}", [person(pose=_pose17(), score=0.5)]) for n in range(4)])
        save_dataset(longer, old)
        link.symlink_to(old)
        with open(held_path, "wb") as held:
            retarget_at_fstat(link, f"/dev/fd/{held.fileno()}")
            save_dataset(self._ds(), link)
            assert os.readlink(link) == f"/dev/fd/{held.fileno()}"
        assert old.read_bytes() == dataset_to_canonical_json(self._ds()).encode("utf-8")
        assert _load(old.read_text(encoding="utf-8"), JRDB17, False) == self._ds()
        assert held_path.read_bytes() == b""

    def test_a_directory_is_refused_as_the_loaders_refuse_it(self, tmp_path):
        # An OSError, as the loaders raise for a file they cannot read, not
        # a ValidationError.
        with pytest.raises(IsADirectoryError):
            save_dataset(self._ds(), tmp_path)
        with pytest.raises(IsADirectoryError):
            load_ground_truth(tmp_path, JRDB17)


def test_a_saved_dataset_reads_back_in_a_schema_of_its_id_and_keypoint_count(tmp_path):
    # The constructor checks a file's value rules, not the pose length of a
    # built-in schema: a 5-keypoint jrdb17 dataset is saved, read back in a
    # 5-keypoint schema named jrdb17, and refused by the built-in one.
    ds = Dataset("jrdb17", PANO, ["f1"], [0, 1], ids=[None], boxes=[[0.0, 0.0, 0.0, 0.0]], has_box=[False],
                 scores=[0.0], has_score=[False], keypoints=[[[1.0, 2.0, 2]] * 5], has_pose=[True])
    path = tmp_path / "d.json"
    save_dataset(ds, path)
    assert load_ground_truth(path, KeypointSchema("jrdb17", tuple("abcde"))) == ds
    with pytest.raises(ValidationError) as info:
        load_ground_truth(path, builtin_schema("jrdb17"))
    assert str(info.value) == "frame 'f1', person 0: pose has 5 keypoints, schema 'jrdb17' expects 17"
