import json

import numpy as np
import pytest
from synth import dataset, person

from panopose.dataio import (
    Dataset,
    dataset_from_json,
    dataset_to_canonical_json,
    load_ground_truth,
    load_predictions,
    save_dataset,
)
from panopose.errors import ValidationError
from panopose.geometry import PanoramaSpec
from panopose.schema import JRDB17

PANO = PanoramaSpec(2000.0, 600.0)


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
            ({"scores": [0.0, 0.0]}, r"^person columns of unequal lengths \[1, 1, 1, 2, 1, 1, 1\]$"),
            ({"ids": []}, r"^person columns of unequal lengths \[0, 1, 1, 1, 1, 1, 1\]$"),
            ({"offsets": [0]}, r"^offsets must rise from 0 to 1 over 1 frames$"),
            ({"offsets": [1, 1]}, r"^offsets must rise from 0 to 1 over 1 frames$"),
            ({"offsets": [0, 2]}, r"^offsets must rise from 0 to 1 over 1 frames$"),
            ({"frame_ids": ["a", "b"], "offsets": [0, 2, 1]}, r"^offsets must rise from 0 to 1 over 2 frames$"),
            ({"keypoints": [[0.0, 0.0]], "has_pose": [True]}, r"^keypoints must be \[N, K, 3\], got shape \(1, 2\)$"),
            ({"frame_ids": [""]}, r"^frame '': frame id must be a non-empty string"),
            ({"frame_ids": ["\ud800"]}, r"^frame '\\ud800': frame id is not encodable as UTF-8$"),
        ],
        ids=["long-column", "short-column", "short-offsets", "offsets-from-1", "offsets-past-n",
             "offsets-fall", "keypoints-shape", "empty-frame-id", "surrogate-frame-id"],
    )
    def test_constructor_rejects_inconsistent_columns(self, changes, match):
        with pytest.raises(ValidationError, match=match):
            Dataset(**_columns(**changes))

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
        ds = dataset_from_json(text, JRDB17)
        assert ds.frame_ids == ("f1",)
        assert ds.boxes.tolist() == [[1, 2, 3, 4]]
        assert ds.has_box.tolist() == [True]

    def test_pose_round_trips(self):
        pose = [[float(i), float(2 * i), i % 3] for i in range(17)]
        ds = dataset_from_json(_doc([{"pose": pose}]), JRDB17)
        assert ds.keypoints[0].tolist() == pose

    def test_wrong_pose_length_names_the_person(self):
        text = _doc([{"pose": [[0, 0, 2]] * 16}])
        with pytest.raises(ValidationError, match=r"frame 'f1', person 0.*16 keypoints"):
            dataset_from_json(text, JRDB17)

    def test_duplicate_frame_id(self):
        doc = json.loads(_doc([{"box": [1, 2, 3, 4]}]))
        doc["frames"].append(doc["frames"][0])
        with pytest.raises(ValidationError, match="duplicate frame id"):
            dataset_from_json(json.dumps(doc), JRDB17)

    def test_non_finite_coordinate(self):
        text = _doc([{"box": [1, 2, 3, float("inf")]}])  # json emits Infinity
        with pytest.raises(ValidationError, match="non-finite"):
            dataset_from_json(text, JRDB17)

    def test_bad_visibility_flag(self):
        pose = [[0.0, 0.0, 2]] * 16 + [[0.0, 0.0, 7]]
        with pytest.raises(ValidationError, match="visibility"):
            dataset_from_json(_doc([{"pose": pose}]), JRDB17)

    def test_unknown_field_rejected(self):
        text = _doc([{"box": [1, 2, 3, 4], "margin": 0.1}])
        with pytest.raises(ValidationError, match="unexpected field"):
            dataset_from_json(text, JRDB17)

    def test_schema_mismatch(self):
        doc = json.loads(_doc([{"box": [1, 2, 3, 4]}]))
        doc["schema"] = "coco17"
        with pytest.raises(ValidationError, match="schema mismatch"):
            dataset_from_json(json.dumps(doc), JRDB17)

    def test_person_needs_box_or_pose(self):
        with pytest.raises(ValidationError, match="neither box nor pose"):
            dataset_from_json(_doc([{"score": 0.5}]), JRDB17)

    def test_score_out_of_range_names_the_person(self):
        text = _doc([{"box": [1, 2, 3, 4], "score": 1.5}])
        with pytest.raises(ValidationError, match=r"frame 'f1', person 0: .*outside \[0, 1\]"):
            dataset_from_json(text, JRDB17)

    def test_degenerate_box_names_the_person(self):
        text = _doc([{"box": [1, 2, 3, 4]}, {"box": [5, 2, 5, 4]}])
        with pytest.raises(ValidationError, match=r"frame 'f1', person 1: degenerate box"):
            dataset_from_json(text, JRDB17)

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
            dataset_from_json(text, JRDB17)

    def test_empty_frame_id_names_the_frame(self):
        text = _doc([{"box": [1, 2, 3, 4]}], frame_id="")
        with pytest.raises(ValidationError, match=r"frame '': frame id must be a non-empty"):
            dataset_from_json(text, JRDB17)

    def test_frame_id_utf8_cannot_encode_names_the_frame(self):
        # json.dumps writes the lone surrogate as the escape \ud800.
        text = _doc([{"box": [1, 2, 3, 4]}], frame_id="\ud800")
        with pytest.raises(ValidationError, match=r"^frame '\\ud800': frame id is not encodable as UTF-8$"):
            dataset_from_json(text, JRDB17)

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
            dataset_from_json(text, JRDB17)

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
            dataset_from_json(_doc([{"pose": pose}]), JRDB17)

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
            dataset_from_json(text, JRDB17)

    def test_parse_error(self):
        with pytest.raises(ValidationError, match="parse error"):
            dataset_from_json("not json", JRDB17)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ValidationError, match="parse error"):
            dataset_from_json("[" * 100_000 + "]" * 100_000, JRDB17)

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
            dataset_from_json(text, JRDB17)

    def test_a_repeated_key_comes_before_a_shape_fault(self):
        # The shape fault is in an earlier person than the repeated key.
        text = _doc([{"box": [1, 2, 3]}, {"box": [1, 2, 3, 4]}]).replace(
            '{"box": [1, 2, 3, 4]}', '{"score": 0.5, "score": 0.5, "box": [1, 2, 3, 4]}')
        with pytest.raises(ValidationError, match="^parse error: duplicate key 'score'$"):
            dataset_from_json(text, JRDB17)


class TestPredictions:
    def test_missing_score_rejected(self):
        text = _doc([{"box": [1, 2, 3, 4]}])
        with pytest.raises(ValidationError, match="prediction without score"):
            dataset_from_json(text, JRDB17, require_scores=True)

    def test_empty_frames_list_is_valid(self):
        text = json.dumps(
            {"schema": "jrdb17", "pano": {"width": 10, "height": 10}, "frames": []}
        )
        ds = dataset_from_json(text, JRDB17, require_scores=True)
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
        assert dataset_from_json(text, JRDB17) == ds

    def test_frame_permutations_serialize_identically(self):
        f1 = ("f1", [person(box=(0, 0, 1, 1))])
        f2 = ("f2", [person(pose=_pose17())])
        assert dataset_to_canonical_json(_dataset(f1, f2)) == dataset_to_canonical_json(
            _dataset(f2, f1)
        )

    def test_canonicalization_is_stable(self):
        ds = _dataset(("f1", [person(pose=_pose17(0.1, 1e-17))]))
        once = dataset_to_canonical_json(ds)
        again = dataset_to_canonical_json(dataset_from_json(once, JRDB17))
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
        back = dataset_from_json(dataset_to_canonical_json(ds), JRDB17)
        assert back == ds
