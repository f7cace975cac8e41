"""Feature file format: bit-exact round trips, corruption detection."""

import numpy as np
import pytest

from tapgkit.data.features import (
    MAGIC,
    SnippetBundle,
    VideoFeatureSequence,
    feature_path,
    load_features,
    save_features,
)
from tapgkit.errors import FileFormatError, ShapeError


def _sequence(rng, num_snippets=5, d_e=6, d_a=4, d_o=3, stride=16):
    snippets = []
    for t in range(num_snippets):
        m = int(rng.integers(0, 4))
        k = int(rng.integers(0, 5))
        snippets.append(SnippetBundle(
            environment=rng.standard_normal(d_e).astype(np.float32),
            actors=rng.standard_normal((m, d_a)).astype(np.float32),
            objects=rng.standard_normal((k, d_o)).astype(np.float32),
        ))
    return VideoFeatureSequence("vid", stride, snippets)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        seq = _sequence(rng)
        path = tmp_path / "vid.feat"
        save_features(path, seq)
        loaded = load_features(path)
        assert loaded.video_id == "vid"
        assert loaded.snippet_stride == seq.snippet_stride
        assert loaded.num_snippets == seq.num_snippets
        for a, b in zip(seq.snippets, loaded.snippets):
            np.testing.assert_array_equal(a.environment, b.environment)
            np.testing.assert_array_equal(a.actors, b.actors)
            np.testing.assert_array_equal(a.objects, b.objects)

    def test_zero_actor_and_object_snippets_survive(self, tmp_path):
        seq = VideoFeatureSequence("v", 8, [SnippetBundle(
            np.ones(3, dtype=np.float32),
            np.zeros((0, 4), dtype=np.float32),
            np.zeros((0, 2), dtype=np.float32),
        )])
        path = tmp_path / "v.feat"
        save_features(path, seq)
        loaded = load_features(path)
        assert loaded.snippets[0].actors.shape == (0, 4)
        assert loaded.snippets[0].objects.shape == (0, 2)

    def test_video_id_from_filename(self, tmp_path):
        seq = _sequence(np.random.default_rng(0))
        save_features(feature_path(tmp_path, "clip_07"), seq)
        assert load_features(feature_path(tmp_path, "clip_07"), "clip_07").video_id == "clip_07"


class TestValidation:
    def test_inconsistent_widths_rejected(self):
        seq = VideoFeatureSequence("v", 8, [
            SnippetBundle(np.ones(3, np.float32), np.ones((1, 4), np.float32),
                          np.ones((1, 2), np.float32)),
            SnippetBundle(np.ones(5, np.float32), np.ones((1, 4), np.float32),
                          np.ones((1, 2), np.float32)),
        ])
        with pytest.raises(ShapeError):
            seq.validate()

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeError):
            VideoFeatureSequence("v", 8, []).validate()

    @pytest.mark.parametrize("widths", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_zero_stream_width_rejected_and_not_saved(self, tmp_path, widths):
        # the loader refuses a header of width 0, so such a file must not be written
        d_e, d_a, d_o = widths
        seq = VideoFeatureSequence("clip_3", 8, [SnippetBundle(
            np.ones(d_e, np.float32), np.ones((2, d_a), np.float32),
            np.ones((2, d_o), np.float32))])
        with pytest.raises(ShapeError, match="clip_3.*width 0"):
            seq.validate()
        path = tmp_path / "clip_3.feat"
        with pytest.raises(ShapeError):
            save_features(path, seq)
        assert not path.exists()

    def test_first_snippet_checked_before_its_widths_are_read(self):
        seq = VideoFeatureSequence("v", 8, [SnippetBundle(
            np.ones(3, np.float32), np.ones(4, np.float32), np.ones((1, 2), np.float32))])
        with pytest.raises(ShapeError, match="v snippet 0"):
            seq.validate()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 24)
        with pytest.raises(FileFormatError):
            load_features(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "x.feat"
        save_features(path, _sequence(np.random.default_rng(1)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(FileFormatError):
            load_features(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.feat"
        save_features(path, _sequence(np.random.default_rng(2)))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(FileFormatError):
            load_features(path)

    def test_zero_stream_width_rejected(self, tmp_path):
        # with d_a = d_o = 0, M = K = 2**32 - 1 would load as two (4294967295, 0) matrices
        import struct
        path = tmp_path / "x.feat"
        path.write_bytes(MAGIC + struct.pack("<5I", 1, 4, 0, 0, 16)
                         + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + b"\x00" * 16)
        assert path.stat().st_size == 52
        with pytest.raises(FileFormatError, match="x.feat"):
            load_features(path)
        for widths in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            path.write_bytes(MAGIC + struct.pack("<5I", 1, *widths, 16)
                             + struct.pack("<2I", 0, 0) + b"\x00" * 4 * widths[0])
            with pytest.raises(FileFormatError, match="width 0"):
                load_features(path)

    def test_zero_snippet_header_rejected(self, tmp_path):
        import struct
        path = tmp_path / "x.feat"
        path.write_bytes(MAGIC + struct.pack("<5I", 0, 1, 1, 1, 16))
        with pytest.raises(FileFormatError):
            load_features(path)
