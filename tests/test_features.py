"""Feature file format: bit-exact round trips, corruption detection, and the
packed layout of a video's streams."""

import dataclasses
import struct
import zlib

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
    return VideoFeatureSequence.from_snippets("vid", stride, snippets)


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
        seq = VideoFeatureSequence.from_snippets("v", 8, [SnippetBundle(
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
        with pytest.raises(ShapeError):
            VideoFeatureSequence.from_snippets("v", 8, [
                SnippetBundle(np.ones(3, np.float32), np.ones((1, 4), np.float32),
                              np.ones((1, 2), np.float32)),
                SnippetBundle(np.ones(5, np.float32), np.ones((1, 4), np.float32),
                              np.ones((1, 2), np.float32)),
            ])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeError):
            VideoFeatureSequence.from_snippets("v", 8, [])

    @pytest.mark.parametrize("widths", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_zero_stream_width_rejected_and_not_saved(self, tmp_path, widths):
        # the loader refuses a header of width 0, so such a file must not be written
        d_e, d_a, d_o = widths
        seq = VideoFeatureSequence.from_snippets("clip_3", 8, [SnippetBundle(
            np.ones(d_e, np.float32), np.ones((2, d_a), np.float32),
            np.ones((2, d_o), np.float32))])
        with pytest.raises(ShapeError, match="clip_3.*width 0"):
            seq.validate()
        path = tmp_path / "clip_3.feat"
        with pytest.raises(ShapeError):
            save_features(path, seq)
        assert not path.exists()

    def test_first_snippet_checked_before_its_widths_are_read(self):
        with pytest.raises(ShapeError, match="v snippet 0"):
            VideoFeatureSequence.from_snippets("v", 8, [SnippetBundle(
                np.ones(3, np.float32), np.ones(4, np.float32), np.ones((1, 2), np.float32))])


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
        path = tmp_path / "x.feat"
        path.write_bytes(MAGIC + struct.pack("<5I", 0, 1, 1, 1, 16))
        with pytest.raises(FileFormatError):
            load_features(path)

    def test_zero_stride_header_rejected(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_bytes(MAGIC + struct.pack("<5I", 1, 1, 1, 1, 0)
                         + struct.pack("<2I", 0, 0) + b"\x00" * 4)
        with pytest.raises(FileFormatError, match="x.feat.*zero stride"):
            load_features(path)

    @pytest.mark.parametrize("cut", ["pair", "environment", "actors", "objects"])
    def test_truncation_inside_each_part_names_the_file(self, tmp_path, cut):
        # one snippet: M = 1, K = 1 and widths (2, 3, 4) -> pair 8, then 8 + 12 + 16
        # bytes, then the 4-byte checksum
        path = tmp_path / "x.feat"
        save_features(path, VideoFeatureSequence.from_snippets("x", 4, [SnippetBundle(
            np.ones(2, np.float32), np.ones((1, 3), np.float32), np.ones((1, 4), np.float32))]))
        blob = path.read_bytes()
        assert blob == _v2_bytes((1, 2, 3, 4, 4), [(1, 1)], np.ones(2), np.ones(3), np.ones(4))
        assert len(blob) == 28 + 8 + 8 + 12 + 16 + 4
        keep = {"pair": 32, "environment": 40, "actors": 52, "objects": 64}[cut]
        path.write_bytes(blob[:keep])
        with pytest.raises(FileFormatError, match=r"x\.feat: truncated feature file"):
            load_features(path)

    def test_huge_row_count_is_a_truncation(self, tmp_path):
        # M * d_a far beyond the file must fail on the walk, never allocate
        path = tmp_path / "x.feat"
        path.write_bytes(MAGIC + struct.pack("<5I", 1, 1, 2**32 - 1, 1, 16)
                         + struct.pack("<2I", 2**32 - 1, 0) + b"\x00" * 4)
        with pytest.raises(FileFormatError, match="truncated"):
            load_features(path)


def _v2_bytes(header, pairs, environment, actors, objects):
    """A TAPGFEA2 file written by hand: magic, the five header numbers, the
    (M, K) pairs, the three float blocks, then the CRC of all of them."""
    body = MAGIC + struct.pack("<5I", *header) + b"".join(
        struct.pack("<2I", m, k) for m, k in pairs) + b"".join(
        np.asarray(a, dtype="<f4").tobytes() for a in (environment, actors, objects))
    return body + struct.pack("<I", zlib.crc32(body))


def _oracle_bytes(seq):
    """The file layout, written from the per-snippet views."""
    snippets = seq.snippets
    return _v2_bytes((seq.num_snippets, *seq.dims(), seq.snippet_stride),
                     [(len(s.actors), len(s.objects)) for s in snippets],
                     np.stack([s.environment for s in snippets]),
                     np.concatenate([s.actors for s in snippets]),
                     np.concatenate([s.objects for s in snippets]))


def _random_sequence(rng, edge=False):
    """T in 1..40, widths in 1..8, 0..5 actor and object rows per snippet;
    ``edge`` makes T, every width and the stride 1."""
    top = 2 if edge else (41, 9, 9, 9, 20)
    num_snippets, d_e, d_a, d_o, stride = (int(n) for n in rng.integers(1, top, size=5))
    return VideoFeatureSequence.from_snippets("vid", stride, [
        SnippetBundle(rng.standard_normal(d_e).astype(np.float32),
                      rng.standard_normal((int(rng.integers(0, 6)), d_a)).astype(np.float32),
                      rng.standard_normal((int(rng.integers(0, 6)), d_o)).astype(np.float32))
        for _ in range(num_snippets)])


class TestPackedReader:
    def test_random_sequences_round_trip_through_the_oracle_layout(self, tmp_path):
        rng = np.random.default_rng(27)
        path, again = tmp_path / "vid.feat", tmp_path / "again.feat"
        for i in range(60):
            seq = _random_sequence(rng, edge=i < 6)
            save_features(path, seq)
            assert path.read_bytes() == _oracle_bytes(seq)
            loaded = load_features(path)
            for field in ("environment", "actors", "objects", "actor_counts",
                          "object_counts"):
                want, got = getattr(seq, field), getattr(loaded, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), field
            assert (loaded.video_id, loaded.snippet_stride) == ("vid", seq.snippet_stride)
            save_features(again, loaded)
            assert again.read_bytes() == path.read_bytes()

    def test_loaded_streams_are_float32_and_contiguous(self, tmp_path):
        save_features(tmp_path / "v.feat", _sequence(np.random.default_rng(3)))
        loaded = load_features(tmp_path / "v.feat")
        for a in (loaded.environment, loaded.actors, loaded.objects):
            assert a.dtype == np.float32 and a.flags.c_contiguous and a.flags.writeable


class TestPackedSequence:
    def test_snippets_are_read_only_views_of_the_packed_arrays(self):
        bundles = [SnippetBundle(np.full(2, t, np.float32), np.full((m, 3), t, np.float32),
                                 np.full((k, 1), t, np.float32))
                   for t, (m, k) in enumerate([(2, 0), (0, 1), (1, 3), (0, 0)])]
        seq = VideoFeatureSequence.from_snippets("v", 8, bundles)
        assert seq.actor_counts.tolist() == [2, 0, 1, 0]
        assert seq.object_counts.tolist() == [0, 1, 3, 0]
        assert seq.environment.shape == (4, 2) and seq.dims() == (2, 3, 1)
        views = seq.snippets
        assert isinstance(views, tuple) and len(views) == 4
        for want, got in zip(bundles, views):
            for field in ("environment", "actors", "objects"):
                a, b = getattr(want, field), getattr(got, field)
                assert a.shape == b.shape and np.array_equal(a, b), field
                assert not b.flags.writeable, field
        assert np.shares_memory(views[2].actors, seq.actors)
        assert np.shares_memory(views[2].objects, seq.objects)
        assert np.shares_memory(views[3].environment, seq.environment)
        with pytest.raises(ValueError):
            views[0].environment[0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            views[0].environment = np.zeros(2, np.float32)
        assert seq.actors.flags.writeable

    @pytest.mark.parametrize("stream", ["environment", "actors", "objects"])
    def test_from_snippets_needs_snippet_0s_widths(self, stream):
        bundles = [SnippetBundle(np.ones(2), np.ones((1, 3)), np.ones((1, 4)))
                   for _ in range(3)]
        wider = getattr(bundles[2], stream).shape[:-1] + (9,)
        bundles[2] = dataclasses.replace(bundles[2], **{stream: np.ones(wider)})
        with pytest.raises(ShapeError, match="v snippet 2: stream widths differ"):
            VideoFeatureSequence.from_snippets("v", 8, bundles)

    @pytest.mark.parametrize("stream", ["environment", "actors", "objects"])
    def test_every_stream_must_be_a_matrix(self, stream):
        seq = _sequence(np.random.default_rng(4))
        seq = dataclasses.replace(seq, **{stream: getattr(seq, stream).ravel()})
        with pytest.raises(ShapeError, match="vid: environment, actors and objects"):
            seq.validate()

    def test_no_snippets_rejected(self):
        seq = dataclasses.replace(_sequence(np.random.default_rng(5)),
                                  environment=np.zeros((0, 6), np.float32))
        with pytest.raises(ShapeError, match="no snippets"):
            seq.validate()

    @pytest.mark.parametrize("stride", [0, -8])
    def test_stride_must_be_positive(self, stride):
        seq = dataclasses.replace(_sequence(np.random.default_rng(6)), snippet_stride=stride)
        with pytest.raises(ShapeError, match="snippet_stride must be positive"):
            seq.validate()
        dataclasses.replace(seq, snippet_stride=1).validate()

    @pytest.mark.parametrize("stream", ["actor", "object"])
    @pytest.mark.parametrize("change", ["short", "long", "negative", "sum", "matrix"])
    def test_counts_must_split_the_rows(self, stream, change):
        seq = VideoFeatureSequence.from_snippets("v", 8, [
            SnippetBundle(np.ones(2), np.ones((m, 3)), np.ones((m, 4))) for m in (2, 0, 1)])
        seq.validate()
        counts = getattr(seq, f"{stream}_counts")
        bad = {"short": counts[:2], "long": np.append(counts, 0),
               "negative": np.array([3, -1, 1]), "sum": np.array([2, 0, 2]),
               "matrix": counts[None]}[change]
        with pytest.raises(ShapeError, match=f"v: {stream} counts must be 3 non-negative"):
            dataclasses.replace(seq, **{f"{stream}_counts": bad}).validate()
