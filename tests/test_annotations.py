"""Annotation schema, validation and second-to-snippet rescaling."""

import json

import numpy as np
import pytest

from tapgkit.data.annotations import (
    ActionInstance,
    VideoAnnotation,
    load_annotations,
    rescale_action,
    save_annotations,
)
from tapgkit.errors import AnnotationError


def _video(**overrides):
    base = dict(video_id="v0", duration=24.0, fps=8.0, frame_count=192,
                annotations=[ActionInstance(3.0, 7.0, "swing")])
    base.update(overrides)
    return VideoAnnotation(**base)


class TestSchema:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ann.json"
        videos = {"v0": _video(), "v1": _video(video_id="v1", annotations=[])}
        save_annotations(path, videos)
        loaded = load_annotations(path)
        assert set(loaded) == {"v0", "v1"}
        action = loaded["v0"].annotations[0]
        assert (action.start, action.end, action.label) == (3.0, 7.0, "swing")
        assert loaded["v1"].subset == "training"

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(AnnotationError):
            load_annotations(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"v0": {"duration": 5.0, "fps": 8.0}}))
        with pytest.raises(AnnotationError):
            load_annotations(path)

    def test_top_level_must_be_mapping(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(AnnotationError):
            load_annotations(path)

    def test_record_must_be_mapping(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(json.dumps({"v0": [24.0, 8.0, 192]}))
        with pytest.raises(AnnotationError, match="v0"):
            load_annotations(path)

    @pytest.mark.parametrize("field", ["duration", "fps"])
    def test_nan_metadata_rejected(self, tmp_path, field):
        record = {"duration": 24.0, "fps": 8.0, "frame_count": 192, field: float("nan")}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"v0": record}))
        with pytest.raises(AnnotationError, match="v0"):
            load_annotations(path)


class TestLooseFields:
    """Values that Python would coerce without complaint (``float(True)``,
    iterating ``""``, ``str(7)``) are rejected, naming the file and video."""

    RECORD = {"duration": 24.0, "fps": 8.0, "frame_count": 192, "subset": "validation",
              "annotations": [{"segment": [3.0, 7.0], "label": "swing"}]}

    def _load(self, tmp_path, **overrides):
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({"v7": {**self.RECORD, **overrides}}))
        return load_annotations(path)

    def _rejects(self, tmp_path, **overrides):
        with pytest.raises(AnnotationError, match=r"loose\.json: .*'v7'"):
            self._load(tmp_path, **overrides)

    def test_valid_record_loads(self, tmp_path):
        video = self._load(tmp_path)["v7"]
        assert (video.duration, video.fps, video.frame_count) == (24.0, 8.0, 192)
        assert video.subset == "validation"
        assert video.annotations == [ActionInstance(3.0, 7.0, "swing")]
        whole = self._load(tmp_path, duration=24, fps=8, frame_count=192)["v7"]
        assert (whole.duration, whole.fps, whole.frame_count) == (24.0, 8.0, 192)

    @pytest.mark.parametrize("field", ["duration", "fps", "frame_count"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_metadata_rejected(self, tmp_path, field, flag):
        self._rejects(tmp_path, **{field: flag})

    @pytest.mark.parametrize("listed", ["", "swing", {"segment": [3.0, 7.0], "label": "a"}, 0])
    def test_non_list_annotations_rejected(self, tmp_path, listed):
        self._rejects(tmp_path, annotations=listed)

    @pytest.mark.parametrize("label", [7, None, True, ["swing"]])
    def test_non_string_label_rejected(self, tmp_path, label):
        self._rejects(tmp_path, annotations=[{"segment": [3.0, 7.0], "label": label}])

    @pytest.mark.parametrize("subset", [1, None, False, ["training"]])
    def test_non_string_subset_rejected(self, tmp_path, subset):
        self._rejects(tmp_path, subset=subset)

    @pytest.mark.parametrize("field,text", [("duration", "24"), ("fps", "8"),
                                            ("frame_count", "192")])
    def test_numeric_string_metadata_rejected(self, tmp_path, field, text):
        self._rejects(tmp_path, **{field: text})

    @pytest.mark.parametrize("segment", [["3", "7"], [3.0, "7"], "37", [3.0, None]])
    def test_non_number_segment_rejected(self, tmp_path, segment):
        self._rejects(tmp_path, annotations=[{"segment": segment, "label": "swing"}])

    @pytest.mark.parametrize("frame_count", [192.9, 191.5, float("inf")])
    def test_fractional_frame_count_rejected(self, tmp_path, frame_count):
        self._rejects(tmp_path, frame_count=frame_count)

    @pytest.mark.parametrize("field", ["duration", "fps"])
    def test_infinite_metadata_rejected(self, tmp_path, field):
        self._rejects(tmp_path, **{field: float("inf")})

    def test_whole_float_frame_count_loads(self, tmp_path):
        assert self._load(tmp_path, frame_count=192.0)["v7"].frame_count == 192

    @pytest.mark.parametrize("segment", [[0.0, 1.0, 7.0], [3.0], []])
    def test_segment_without_exactly_two_entries_rejected(self, tmp_path, segment):
        self._rejects(tmp_path, annotations=[{"segment": segment, "label": "swing"}])

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        self._rejects(tmp_path, duration=10 ** 400)

    def test_inverted_segment_names_file_and_video(self, tmp_path):
        self._rejects(tmp_path, annotations=[{"segment": [7.0, 3.0], "label": "swing"}])

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_bytes(b'{"v0": "\xff"}')
        with pytest.raises(AnnotationError, match=r"ann\.json"):
            load_annotations(path)


class TestCrashSafety:
    def test_failed_write_keeps_previous_file(self, tmp_path, failing_writes):
        path = tmp_path / "annotations.json"
        save_annotations(path, {"v0": _video()})
        before = path.read_bytes()
        with failing_writes(), pytest.raises(OSError):
            save_annotations(path, {f"v{i}": _video(video_id=f"v{i}") for i in range(50)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["annotations.json"]
        assert list(load_annotations(path)) == ["v0"]


class TestValidation:
    def test_inverted_segment_rejected(self):
        video = _video(annotations=[ActionInstance(7.0, 3.0, "x")])
        with pytest.raises(AnnotationError):
            video.validate()

    def test_segment_beyond_duration_rejected(self):
        video = _video(annotations=[ActionInstance(3.0, 25.0, "x")])
        with pytest.raises(AnnotationError):
            video.validate()

    def test_non_positive_metadata_rejected(self):
        with pytest.raises(AnnotationError):
            _video(fps=0.0).validate()
        with pytest.raises(AnnotationError):
            _video(frame_count=0).validate()

    @pytest.mark.parametrize("field", ["duration", "fps", "frame_count"])
    def test_each_metadata_bound_itself(self, field):
        # 0 is refused, and the least positive value of each kind is accepted
        with pytest.raises(AnnotationError, match="must be positive"):
            _video(annotations=[], **{field: 0}).validate()
        _video(annotations=[], **{field: 1 if field == "frame_count" else 0.5}).validate()

    def test_segment_bounds_themselves(self):
        for start, end in [(0.0, 2.0), (3.0, 24.0), (3.0, 24.0 + 1e-9)]:
            _video(annotations=[ActionInstance(start, end, "x")]).validate()
        for start, end in [(2.0, 2.0), (-1e-9, 2.0), (3.0, 24.0 + 1e-8)]:
            with pytest.raises(AnnotationError):
                _video(annotations=[ActionInstance(start, end, "x")]).validate()


class TestRescale:
    def test_unit_factor_case(self):
        # 160 frames at 16 fps summarized by 10 snippets: one snippet per second
        got = rescale_action(2.0, 5.0, frame_count=160, fps=16.0, num_snippets=10)
        np.testing.assert_allclose(got, (2.0, 5.0))

    def test_stretching_factor_case(self):
        # 100 frames at 16 fps, 10 snippets: 1.6 snippet units per second
        got = rescale_action(2.0, 5.0, frame_count=100, fps=16.0, num_snippets=10)
        np.testing.assert_allclose(got, (3.2, 8.0))

    def test_power_of_two_fps_is_exact(self):
        got = rescale_action(6.0, 14.0, frame_count=512, fps=8.0, num_snippets=32)
        assert got == (3.0, 7.0)

    def test_full_video_maps_to_full_axis(self):
        duration = 512 / 8.0
        got = rescale_action(0.0, duration, frame_count=512, fps=8.0, num_snippets=32)
        assert got == (0.0, 32.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_against_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        frame_count = int(rng.integers(50, 2000))
        fps = float(rng.uniform(5.0, 60.0))
        num_snippets = int(rng.integers(8, 128))
        start = float(rng.uniform(0.0, 10.0))
        end = start + float(rng.uniform(0.1, 20.0))
        got = rescale_action(start, end, frame_count, fps, num_snippets)
        factor = num_snippets * fps / frame_count
        np.testing.assert_allclose(got, (start * factor, end * factor), rtol=1e-12)

    @pytest.mark.parametrize("at", range(3))
    def test_each_extent_bound_itself(self, at):
        # frame_count, fps, num_snippets: 0 is refused, the least positive value works
        extents = [100, 8.0, 10]
        with pytest.raises(AnnotationError, match="must be positive"):
            rescale_action(1.0, 2.0, *extents[:at], 0, *extents[at + 1:])
        least = [1, 0.5, 1][at]
        got = rescale_action(1.0, 2.0, *extents[:at], least, *extents[at + 1:])
        assert got[1] == 2 * got[0] > 0

    def test_empty_action_rejected(self):
        with pytest.raises(AnnotationError, match="start < end"):
            rescale_action(2.0, 2.0, 100, 8.0, 10)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(AnnotationError):
            rescale_action(5.0, 3.0, 100, 8.0, 10)
        with pytest.raises(AnnotationError):
            rescale_action(1.0, 2.0, 0, 8.0, 10)
        with pytest.raises(AnnotationError):
            rescale_action(-1.0, 2.0, 100, 8.0, 10)
