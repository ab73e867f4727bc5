import numpy as np
import pytest

from panopose.dataio import Keypoint, Pose
from panopose.errors import ValidationError
from panopose.schema import (
    COCO17,
    JRDB17,
    KeypointSchema,
    SchemaMapping,
    builtin_schema,
    builtin_schemas,
    default_mapping,
    identity_mapping,
    load_mapping,
    remap_pose,
    save_mapping,
    validate_mapping,
)


class TestBuiltins:
    def test_both_schemas_have_17_keypoints(self):
        coco, jrdb = builtin_schemas()
        assert len(coco) == 17
        assert len(jrdb) == 17

    def test_target_schema_rows(self):
        _, jrdb = builtin_schemas()
        assert jrdb.names[0] == "head"
        assert jrdb.names[4] == "neck"

    def test_lookup_by_id(self):
        assert builtin_schema("coco17") is COCO17
        with pytest.raises(ValidationError, match="unknown schema id"):
            builtin_schema("mpii16")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            KeypointSchema("bad", ("a", "a"))


class TestDefaultMapping:
    def test_split_targets(self):
        m = default_mapping()
        assert m.entries[JRDB17.index("head")] == (
            COCO17.index("left eye"),
            COCO17.index("right eye"),
        )
        assert m.entries[JRDB17.index("neck")] == (
            COCO17.index("left shoulder"),
            COCO17.index("right shoulder"),
        )
        assert m.entries[JRDB17.index("center hip")] == (
            COCO17.index("left hip"),
            COCO17.index("right hip"),
        )

    def test_single_counterpart_targets(self):
        m = default_mapping()
        assert m.entries[JRDB17.index("right knee")] == (COCO17.index("right knee"),)
        assert m.entries[JRDB17.index("right foot")] == (COCO17.index("right ankle"),)

    def test_every_entry_non_empty(self):
        assert all(default_mapping().entries)

    def test_corrected_hand_row(self):
        assert default_mapping().entries[9] == (COCO17.index("right wrist"),)

    def test_verbatim_flag_restores_literal_counterpart(self):
        m = default_mapping(verbatim_table1=True)
        assert m.entries[9] == (COCO17.index("left wrist"),)
        assert m.entries[12] == (COCO17.index("left wrist"),)
        # everything else identical to the corrected default
        d = default_mapping()
        assert all(m.entries[t] == d.entries[t] for t in range(17) if t != 9)

    def test_default_mapping_validates(self):
        assert validate_mapping(default_mapping(), COCO17, JRDB17) == []
        assert validate_mapping(default_mapping(True), COCO17, JRDB17) == []


class TestValidateMapping:
    def test_empty_counterpart_list(self):
        m = SchemaMapping("coco17", "jrdb17", tuple([(0,)] * 16 + [()]))
        violations = validate_mapping(m, COCO17, JRDB17)
        assert any("empty counterpart list" in v for v in violations)

    def test_index_out_of_range(self):
        m = SchemaMapping("coco17", "jrdb17", tuple([(0,)] * 16 + [(17,)]))
        violations = validate_mapping(m, COCO17, JRDB17)
        assert any("out of range" in v for v in violations)

    def test_wrong_entry_count(self):
        m = SchemaMapping("coco17", "jrdb17", ((0,),))
        violations = validate_mapping(m, COCO17, JRDB17)
        assert any("1 entries" in v for v in violations)

    def test_schema_id_mismatch(self):
        m = SchemaMapping("other", "jrdb17", tuple((0,) for _ in range(17)))
        violations = validate_mapping(m, COCO17, JRDB17)
        assert any("source schema id" in v for v in violations)


def _mini_pose(*coords, vis=None):
    vis = vis or [2] * len(coords)
    return Pose(tuple(Keypoint(x, y, v) for (x, y), v in zip(coords, vis)))


class TestRemapPose:
    def test_identity_mapping_is_identity(self):
        schema = KeypointSchema("mini3", ("a", "b", "c"))
        pose = _mini_pose((1.5, 2.5), (3.0, 4.0), (5.0, 6.0), vis=[2, 1, 0])
        assert remap_pose(pose, identity_mapping(schema)) == pose

    def test_mean_of_counterparts(self):
        mapping = SchemaMapping("src2", "dst1", ((0, 1),))
        pose = _mini_pose((0.0, 0.0), (2.0, 4.0))
        out = remap_pose(pose, mapping)
        assert (out.keypoints[0].x, out.keypoints[0].y) == (1.0, 2.0)

    def test_merged_visibility_is_the_minimum(self):
        mapping = SchemaMapping("src2", "dst1", ((0, 1),))
        pose = _mini_pose((0.0, 0.0), (2.0, 4.0), vis=[2, 1])
        assert remap_pose(pose, mapping).keypoints[0].visibility == 1

    def test_commutes_with_translation(self):
        # Integer coordinates make the mean arithmetic exact.
        rng = np.random.default_rng(3)
        mapping = default_mapping()
        for _ in range(25):
            coords = rng.integers(-500, 500, size=(17, 2)).astype(float)
            pose = _mini_pose(*[tuple(c) for c in coords])
            dx, dy = (float(v) for v in rng.integers(-100, 100, 2))
            moved = Pose(
                tuple(Keypoint(kp.x + dx, kp.y + dy, kp.visibility) for kp in pose.keypoints)
            )
            lhs = remap_pose(moved, mapping)
            rhs = Pose(
                tuple(
                    Keypoint(kp.x + dx, kp.y + dy, kp.visibility)
                    for kp in remap_pose(pose, mapping).keypoints
                )
            )
            assert lhs == rhs

    def test_counterpart_index_beyond_pose_length(self):
        mapping = SchemaMapping("src2", "dst1", ((0, 5),))
        with pytest.raises(ValidationError, match="out of range"):
            remap_pose(_mini_pose((0, 0), (1, 1)), mapping)


class TestMappingFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mapping.json"
        save_mapping(default_mapping(), path)
        assert load_mapping(path) == default_mapping()

    def test_names_on_disk(self, tmp_path):
        import json

        path = tmp_path / "mapping.json"
        save_mapping(default_mapping(), path)
        doc = json.loads(path.read_text())
        assert doc["entries"]["neck"] == ["left shoulder", "right shoulder"]

    def test_missing_target_name(self, tmp_path):
        import json

        path = tmp_path / "mapping.json"
        save_mapping(default_mapping(), path)
        doc = json.loads(path.read_text())
        del doc["entries"]["neck"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="missing target keypoint"):
            load_mapping(path)

    def test_unknown_source_name(self, tmp_path):
        import json

        path = tmp_path / "mapping.json"
        save_mapping(default_mapping(), path)
        doc = json.loads(path.read_text())
        doc["entries"]["neck"] = ["left shoulderz"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="no keypoint named"):
            load_mapping(path)
