import json
import re

import pytest

from synth import mapping_doc

from panopose.errors import ValidationError
from panopose.schema import (
    COCO17,
    JRDB17,
    KeypointSchema,
    SchemaMapping,
    builtin_schema,
    check_entries,
    default_mapping,
    load_mapping,
)


class TestBuiltins:
    def test_both_schemas_have_17_keypoints(self):
        coco, jrdb = builtin_schema("coco17"), builtin_schema("jrdb17")
        assert len(coco) == 17
        assert len(jrdb) == 17

    def test_target_schema_rows(self):
        jrdb = builtin_schema("jrdb17")
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
        for m in (default_mapping(), default_mapping(True)):
            assert (m.source_schema, m.target_schema) == (COCO17.id, JRDB17.id)
            assert len(m.entries) == len(JRDB17)
            check_entries(m, len(COCO17))


class TestValidateMapping:
    # check_entries is the mapping check of remap_head_weights.
    def test_mapping_with_no_targets(self):
        with pytest.raises(ValidationError, match="^mapping has no target keypoints$"):
            check_entries(SchemaMapping("s", "t", ()), 2)

    def test_empty_counterpart_list(self):
        m = SchemaMapping("coco17", "jrdb17", tuple([(0,)] * 16 + [()]))
        with pytest.raises(ValidationError, match="empty counterpart list"):
            check_entries(m, len(COCO17))

    def test_index_out_of_range(self):
        m = SchemaMapping("coco17", "jrdb17", tuple([(0,)] * 16 + [(17,)]))
        with pytest.raises(ValidationError, match="out of range"):
            check_entries(m, len(COCO17))


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestMappingFiles:
    def test_round_trip(self, tmp_path):
        path = _write(tmp_path / "mapping.json", mapping_doc(default_mapping()))
        assert load_mapping(path) == default_mapping()

    def test_deep_nesting_is_a_parse_error(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValidationError, match="parse error"):
            load_mapping(path)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(mapping_doc(default_mapping())).encode("utf-16-le"))
        with pytest.raises(ValidationError, match="parse error: 'utf-8' codec"):
            load_mapping(path)

    def test_names_on_disk(self, tmp_path):
        doc = mapping_doc(default_mapping())
        assert doc["entries"]["neck"] == ["left shoulder", "right shoulder"]
        mapping = load_mapping(_write(tmp_path / "mapping.json", doc))
        neck = (COCO17.index("left shoulder"), COCO17.index("right shoulder"))
        assert mapping.entries[JRDB17.index("neck")] == neck

    def test_missing_target_name(self, tmp_path):
        doc = mapping_doc(default_mapping())
        del doc["entries"]["neck"]
        with pytest.raises(ValidationError, match=r"^entries: missing field\(s\) \['neck'\]$"):
            load_mapping(_write(tmp_path / "mapping.json", doc))

    def test_unknown_top_level_key(self, tmp_path):
        doc = mapping_doc(default_mapping()) | {"comment": "hand-written"}
        with pytest.raises(ValidationError, match=r"^mapping file: unexpected field\(s\) \['comment'\]$"):
            load_mapping(_write(tmp_path / "mapping.json", doc))

    def test_unknown_source_name(self, tmp_path):
        doc = mapping_doc(default_mapping())
        doc["entries"]["neck"] = ["left shoulderz"]
        with pytest.raises(ValidationError, match="no keypoint named"):
            load_mapping(_write(tmp_path / "mapping.json", doc))

    @pytest.mark.parametrize("key", ["source_schema", "target_schema"])
    @pytest.mark.parametrize("value", [5, None, ["coco17"]], ids=["int", "null", "list"])
    def test_a_schema_field_that_is_not_a_string_is_named(self, tmp_path, key, value):
        doc = mapping_doc(default_mapping()) | {key: value}
        with pytest.raises(ValidationError, match=rf"^{key} must be str, got {re.escape(repr(value))}$"):
            load_mapping(_write(tmp_path / "mapping.json", doc))

    @pytest.mark.parametrize("sources", [[], "left shoulder", None], ids=["empty", "string", "null"])
    def test_an_entry_that_is_not_a_non_empty_list_is_refused(self, tmp_path, sources):
        doc = mapping_doc(default_mapping())
        doc["entries"]["neck"] = sources
        with pytest.raises(ValidationError, match=r"^entry for 'neck' must be a non-empty list of names$"):
            load_mapping(_write(tmp_path / "mapping.json", doc))

    @pytest.mark.parametrize("key, value", [("head", '["nose"]'), ("target_schema", '"jrdb17"')])
    def test_a_key_named_twice_is_refused(self, tmp_path, key, value):
        # json.dumps cannot write a key twice, so a first copy is spliced in.
        doc = json.dumps(mapping_doc(default_mapping()))
        path = tmp_path / "mapping.json"
        path.write_text(doc.replace(f'"{key}": ', f'"{key}": {value}, "{key}": ', 1))
        with pytest.raises(ValidationError, match=f"^parse error: duplicate key '{key}'$"):
            load_mapping(path)
