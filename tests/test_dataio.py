import json

import pytest

from panopose.dataio import (
    Dataset,
    FrameAnnotations,
    Person,
    Pose,
    dataset_from_json,
    dataset_to_canonical_json,
    load_ground_truth,
    load_predictions,
    save_dataset,
)
from panopose.errors import ValidationError
from panopose.geometry import BoundingBox, PanoramaSpec
from panopose.schema import JRDB17

PANO = PanoramaSpec(2000.0, 600.0)


def _pose17(x0=100.0, y0=200.0):
    return Pose([(x0 + 3 * i, y0 + 2 * i, 2) for i in range(17)])


def _dataset(*frames):
    return Dataset("jrdb17", PANO, frames)


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
        with pytest.raises(ValueError):
            Pose([(0, 0, 3)])

    def test_keypoint_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pose([(float("nan"), 0.0, 2)])

    def test_person_needs_box_or_pose(self):
        with pytest.raises(ValueError):
            Person(id="p", score=0.5)

    def test_dataset_sorts_frames(self):
        f1 = FrameAnnotations("b", (Person(box=BoundingBox(0, 0, 1, 1)),))
        f2 = FrameAnnotations("a", ())
        assert _dataset(f1, f2).frames == (f2, f1)

    def test_dataset_rejects_duplicate_frame_ids(self):
        f = FrameAnnotations("a", ())
        with pytest.raises(ValidationError, match="duplicate frame id"):
            _dataset(f, f)


class TestLoading:
    def test_minimal_valid_file(self):
        text = _doc([{"box": [1, 2, 3, 4]}])
        ds = dataset_from_json(text, JRDB17)
        assert len(ds.frames) == 1
        assert ds.frames[0].persons[0].box == BoundingBox(1, 2, 3, 4)

    def test_pose_round_trips(self):
        pose = [[float(i), float(2 * i), i % 3] for i in range(17)]
        ds = dataset_from_json(_doc([{"pose": pose}]), JRDB17)
        kps = ds.frames[0].persons[0].pose.keypoints
        assert kps.tolist() == pose

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
        ],
        ids=["x-true", "x-string", "x-null", "v-float", "v-true", "row-string", "row-short",
             "row-long", "box-true"],
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
        assert ds.frames == ()

    def test_loaders_from_disk(self, tmp_path):
        ds = _dataset(
            FrameAnnotations("f1", (Person(pose=_pose17(), score=0.5),))
        )
        path = tmp_path / "d.json"
        save_dataset(ds, path)
        assert load_ground_truth(path, JRDB17) == ds
        assert load_predictions(path, JRDB17) == ds


class TestCanonicalForm:
    def test_save_load_identity(self):
        ds = _dataset(
            FrameAnnotations(
                "f2",
                (
                    Person(id="a", box=BoundingBox(0.1, 0.2, 10.3, 20.4), score=0.25),
                    Person(pose=_pose17(1 / 3, 2 / 7)),
                ),
            ),
            FrameAnnotations("f1", ()),
        )
        text = dataset_to_canonical_json(ds)
        assert dataset_from_json(text, JRDB17) == ds

    def test_frame_permutations_serialize_identically(self):
        f1 = FrameAnnotations("f1", (Person(box=BoundingBox(0, 0, 1, 1)),))
        f2 = FrameAnnotations("f2", (Person(pose=_pose17()),))
        assert dataset_to_canonical_json(_dataset(f1, f2)) == dataset_to_canonical_json(
            _dataset(f2, f1)
        )

    def test_canonicalization_is_stable(self):
        ds = _dataset(FrameAnnotations("f1", (Person(pose=_pose17(0.1, 1e-17)),)))
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
        ds = _dataset(FrameAnnotations("f1", (Person(pose=Pose(kps)),)))
        back = dataset_from_json(dataset_to_canonical_json(ds), JRDB17)
        assert back == ds
