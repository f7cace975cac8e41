"""Shared file-reading rules, and seeded mutations of every file the readers load.

A mutated JSON file must either raise a ``TapgkitError`` subclass or load
to exactly the values it holds: a JSON number is an int or a float and not
a bool, and a segment has exactly two entries. A feature file and a
checkpoint are sealed by a checksum, so every mutation of one must raise
``FileFormatError``.
"""

import copy
import json
import math
import struct
import zlib

import numpy as np
import pytest

from tapgkit.autodiff.checkpoint import load_checkpoint, save_checkpoint
from tapgkit.data.annotations import (
    ActionInstance,
    VideoAnnotation,
    load_annotations,
    save_annotations,
)
from tapgkit.data.features import (
    SnippetBundle,
    VideoFeatureSequence,
    load_features,
    save_features,
)
from tapgkit.errors import FileFormatError, TapgkitError
from tapgkit.files import ByteCursor, count, number, pair, seal
from tapgkit.inference import Proposal, load_proposals, save_proposals

MUTATIONS = 400


def _sealed(body: bytes) -> bytes:
    """``body`` and the u32 CRC of it, written without ``seal``."""
    return body + struct.pack("<I", zlib.crc32(body))


class TestByteCursor:
    def _cursor(self, tmp_path, blob, magic=b"MAG"):
        path = tmp_path / "x.bin"
        path.write_bytes(blob)
        return ByteCursor(path, magic, "test file", "write it again")

    def test_reads_in_order_without_copying(self, tmp_path):
        cursor = self._cursor(tmp_path, _sealed(b"MAG\x01\x00\x00\x00abc"))
        assert cursor.unpack("<I") == (1,)
        piece = cursor.take(3)
        assert isinstance(piece, memoryview) and bytes(piece) == b"abc"
        assert cursor.take(0) == b""
        cursor.finish()

    @pytest.mark.parametrize("blob", [b"", b"MA", b"GAM\x00"])
    def test_bad_magic_names_the_file(self, tmp_path, blob):
        with pytest.raises(FileFormatError, match=r"x\.bin: not a test file"):
            self._cursor(tmp_path, blob)

    def test_read_past_the_end_names_the_file(self, tmp_path):
        # two body bytes and the four checksum bytes are left
        cursor = self._cursor(tmp_path, _sealed(b"MAGab"))
        with pytest.raises(FileFormatError, match=r"x\.bin: truncated test file at byte 3"):
            cursor.take(7)

    def test_trailing_bytes_name_the_file(self, tmp_path):
        cursor = self._cursor(tmp_path, _sealed(b"MAGab") + b"!")
        cursor.take(2)
        with pytest.raises(FileFormatError, match=r"x\.bin: 1 trailing bytes"):
            cursor.finish()

    def test_seal_appends_the_crc_of_the_joined_parts(self):
        assert seal([b"MAG", b"", memoryview(b"ab")]) == _sealed(b"MAGab")

    def test_checksum_mismatch_names_the_file_and_byte(self, tmp_path):
        blob = bytearray(_sealed(b"MAGab"))
        blob[3] ^= 0x10
        cursor = self._cursor(tmp_path, bytes(blob))
        cursor.take(2)
        with pytest.raises(FileFormatError,
                           match=r"x\.bin: checksum at byte 5 does not match the test file"):
            cursor.finish()

    def test_missing_checksum_is_a_truncation(self, tmp_path):
        cursor = self._cursor(tmp_path, b"MAGab")
        cursor.take(2)
        with pytest.raises(FileFormatError, match=r"x\.bin: truncated test file at byte 5"):
            cursor.finish()

    @pytest.mark.parametrize("version", [b"0", b"1", b"2"])
    def test_older_version_names_it_and_the_remedy(self, tmp_path, version):
        with pytest.raises(FileFormatError, match=rf"x\.bin: test file version "
                                                  rf"{version.decode()} is no longer read; "
                                                  rf"write it again"):
            self._cursor(tmp_path, _sealed(b"TESTFIL" + version), magic=b"TESTFIL3")

    @pytest.mark.parametrize("head", [b"TESTFIL4", b"TESTFIL9", b"TESTFILa", b"TESTFIM1",
                                      b"TESTFIL"])
    def test_newer_or_foreign_version_is_a_bad_magic(self, tmp_path, head):
        with pytest.raises(FileFormatError, match=r"x\.bin: not a test file \(bad magic\)"):
            self._cursor(tmp_path, head + bytes(4), magic=b"TESTFIL3")

    def test_array_is_a_writeable_copy(self, tmp_path):
        values = np.arange(6.0)
        cursor = self._cursor(tmp_path, _sealed(b"MAG" + values.astype("<f8").tobytes()))
        got = cursor.array((np.uint32(2), np.int64(3)), "<f8")
        assert got.shape == (2, 3) and got.flags.writeable and got.flags.c_contiguous
        np.testing.assert_array_equal(got, values.reshape(2, 3))
        got[0, 0] = 7.0
        cursor.finish()

    def test_array_byte_count_cannot_wrap(self, tmp_path):
        # 2**61 * 4 items of 8 bytes is 2**66 bytes: 0 in int64, a truncation here
        cursor = self._cursor(tmp_path, _sealed(b"MAG"))
        with pytest.raises(FileFormatError, match=r"x\.bin: truncated test file at byte 3"):
            cursor.array(np.array([2 ** 61, 4], dtype=np.int64), "<f8")


class TestJsonFields:
    @pytest.mark.parametrize("value", [0, 7, -2.5, 1e300])
    def test_number_reads_finite_json_numbers(self, value):
        assert number(value) == value and type(number(value)) is float

    @pytest.mark.parametrize("value", [True, False, None, "1", [1.0], {}, math.nan,
                                       math.inf, -math.inf, 10 ** 400])
    def test_number_rejects_everything_else(self, value):
        with pytest.raises(TypeError):
            number(value)

    def test_count_reads_whole_numbers(self):
        assert count(192) == 192 and count(192.0) == 192 and type(count(192.0)) is int

    @pytest.mark.parametrize("value", [191.5, True, "192", math.inf])
    def test_count_rejects_fractions_and_non_numbers(self, value):
        with pytest.raises(TypeError):
            count(value)

    def test_pair_reads_two_numbers(self):
        assert pair([0, 1.5]) == (0.0, 1.5)

    @pytest.mark.parametrize("value", [[0.0], [0.0, 1.0, 7.0], [], (0.0, 1.0), "01",
                                       ["0", True], [0.0, None], {"0": 1.0}])
    def test_pair_rejects_everything_else(self, value):
        with pytest.raises(TypeError):
            pair(value)


# ---------------------------------------------------------------------------
# seeded mutations
# ---------------------------------------------------------------------------

def _nodes(node, where=()):
    yield where
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, where + (key,))


def _mutated_json(rng, tree) -> bytes:
    """One structural change to a parsed JSON tree, or one byte-level change."""
    tree = copy.deepcopy(tree)
    nodes = list(_nodes(tree))[1:]
    where = nodes[rng.integers(len(nodes))]
    parent = tree
    for key in where[:-1]:
        parent = parent[key]
    key, value = where[-1], parent[where[-1]]
    op = rng.integers(4)
    if op == 0:
        choices = [str(value), True, False, None, [], {}, [value], math.nan, math.inf,
                   -1, 0, 0.5, 10 ** 400, 1e300, "", [0.0, 1.0, 7.0]]
        parent[key] = choices[rng.integers(len(choices))]
    elif op == 1:
        del parent[key]
    elif op == 2 and isinstance(value, list):
        value.append(value[0] if value and rng.integers(2) else 7.0)
    elif op == 2:
        parent[key] = {"extra": value}
    blob = bytearray(json.dumps(tree).encode())
    if op == 3 and blob:
        at = int(rng.integers(len(blob)))
        kind = rng.integers(4)
        if kind == 0:
            blob[at] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            del blob[at]
        elif kind == 2:
            blob.insert(at, int(rng.integers(256)))
        else:
            del blob[at:]
    return bytes(blob)


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _holds_segment(segment, start, end) -> bool:
    return (type(segment) is list and len(segment) == 2
            and all(_is_number(x) for x in segment) and segment == [start, end])


def _mutate_and_load(rng, tmp_path, tree, load, holds):
    """Write MUTATIONS mutated copies of ``tree``; each must fail typed or load exactly."""
    path = tmp_path / "mutated.json"
    for _ in range(MUTATIONS):
        blob = _mutated_json(rng, tree)
        path.write_bytes(blob)
        try:
            loaded = load(path)
        except TapgkitError:
            continue
        raw = json.loads(blob)
        assert list(loaded) == list(raw), blob
        for vid in raw:
            assert holds(raw[vid], loaded[vid]), blob


def _holds_video(rec, video: VideoAnnotation) -> bool:
    listed = rec.get("annotations", [])
    return (all(_is_number(rec[k]) for k in ("duration", "fps", "frame_count"))
            and (video.duration, video.fps, video.frame_count)
            == (rec["duration"], rec["fps"], rec["frame_count"])
            and video.subset == rec.get("subset", "training")
            and len(video.annotations) == len(listed)
            and all(_holds_segment(a["segment"], action.start, action.end)
                    and action.label == a["label"]
                    for a, action in zip(listed, video.annotations)))


def _holds_proposals(records, proposals: list[Proposal]) -> bool:
    return len(records) == len(proposals) and all(
        _holds_segment(r["segment"], p.start, p.end)
        and _is_number(r["score"]) and r["score"] == p.score
        for r, p in zip(records, proposals))


class TestMutations:
    def test_annotations(self, tmp_path):
        videos = {f"v{i}": VideoAnnotation(f"v{i}", 24.0, 8.0, 192,
                                           [ActionInstance(3.0, 7.0, "swing"),
                                            ActionInstance(10.0, 12.5, "lift")],
                                           subset="validation")
                  for i in range(3)}
        save_annotations(tmp_path / "ann.json", videos)
        tree = json.loads((tmp_path / "ann.json").read_text())
        _mutate_and_load(np.random.default_rng(16), tmp_path, tree, load_annotations,
                         _holds_video)

    def test_proposals(self, tmp_path):
        table = {f"v{i}": [Proposal(0.0, 2.5, 0.9), Proposal(3.0, 8.0, 0.4)]
                 for i in range(3)}
        save_proposals(tmp_path / "proposals.json", table)
        tree = json.loads((tmp_path / "proposals.json").read_text())
        _mutate_and_load(np.random.default_rng(17), tmp_path, tree, load_proposals,
                         _holds_proposals)

    def test_checkpoint(self, tmp_path):
        # a v2 checkpoint is sealed like a feature file, so no mutation may
        # load: every one raises FileFormatError naming the file
        rng = np.random.default_rng(18)
        save_checkpoint(tmp_path / "model.tapg", {
            "trunk.weight": rng.standard_normal((3, 2, 2)),
            "trunk.bias": rng.standard_normal(3),
            "scale": np.array(0.5),
        })
        mutated = tmp_path / "mutated.tapg"
        for blob in _mutations(rng, (tmp_path / "model.tapg").read_bytes()):
            mutated.write_bytes(blob)
            with pytest.raises(FileFormatError, match=r"mutated\.tapg"):
                load_checkpoint(mutated)

    def test_features(self, tmp_path):
        # a v2 feature file ends in a CRC of every byte before it, so no
        # mutation may load: every one raises FileFormatError naming the file
        original = _feature_file(tmp_path / "vid.feat").read_bytes()
        mutated = tmp_path / "mutated.feat"
        for blob in _mutations(np.random.default_rng(19), original):
            mutated.write_bytes(blob)
            with pytest.raises(FileFormatError, match=r"mutated\.feat"):
                load_features(mutated)


def _feature_file(path):
    """Three snippets with (M, K) = (1, 2), (0, 1), (2, 0) and widths (3, 2, 4)."""
    rng = np.random.default_rng(19)
    f32 = np.float32
    save_features(path, VideoFeatureSequence.from_snippets("vid", 8, [
        SnippetBundle(rng.standard_normal(3).astype(f32),
                      rng.standard_normal((m, 2)).astype(f32),
                      rng.standard_normal((k, 4)).astype(f32))
        for m, k in [(1, 2), (0, 1), (2, 0)]]))
    return path


# the byte ranges of ``_feature_file``'s parts: 8 magic, 20 header, 3 (M, K)
# pairs, 3 x 3 environment, 3 x 2 actor and 3 x 4 object floats, 4 checksum
_FEATURE_PARTS = {"header": (8, 28), "counts": (28, 52), "environment": (52, 88),
                  "actors": (88, 112), "objects": (112, 160), "checksum": (160, 164)}


class TestFeatureFileChecks:
    @pytest.mark.parametrize("part", list(_FEATURE_PARTS))
    def test_one_bit_flip_in_each_part_names_the_file(self, tmp_path, part):
        path = _feature_file(tmp_path / "vid.feat")
        blob = bytearray(path.read_bytes())
        assert len(blob) == _FEATURE_PARTS["checksum"][1]
        rng = np.random.default_rng(list(_FEATURE_PARTS).index(part))
        for _ in range(8):
            flipped = bytearray(blob)
            flipped[int(rng.integers(*_FEATURE_PARTS[part]))] ^= 1 << int(rng.integers(8))
            path.write_bytes(flipped)
            with pytest.raises(FileFormatError, match=r"vid\.feat: "):
                load_features(path)

    def test_payload_flip_fails_on_the_checksum(self, tmp_path):
        path = _feature_file(tmp_path / "vid.feat")
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0x01
        path.write_bytes(blob)
        with pytest.raises(FileFormatError, match=r"vid\.feat: checksum at byte 160"):
            load_features(path)

    def test_version_1_file_says_to_regenerate(self, tmp_path):
        path = _feature_file(tmp_path / "vid.feat")
        path.write_bytes(b"TAPGFEA1" + path.read_bytes()[8:])
        with pytest.raises(FileFormatError,
                           match=r"vid\.feat: feature file version 1 .*tapgkit synth"):
            load_features(path)

    @pytest.mark.parametrize("magic", [b"TAPGFEA3", b"TAPGFEB2", b"tapgfea2"])
    def test_other_magic_is_not_a_feature_file(self, tmp_path, magic):
        path = _feature_file(tmp_path / "vid.feat")
        path.write_bytes(magic + path.read_bytes()[8:])
        with pytest.raises(FileFormatError, match=r"vid\.feat: not a feature file"):
            load_features(path)


def _mutations(rng, original):
    """MUTATIONS seeded byte-level changes of ``original``; the ones that
    leave it as it was (a word overwritten with itself) are dropped."""
    for _ in range(MUTATIONS):
        blob = bytearray(original)
        at = int(rng.integers(len(blob)))
        kind = rng.integers(5)
        if kind == 0:
            blob[at] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            word = [0, 1, 2, 3, 0x7FFFFFFF, 0xFFFFFFFF, int(rng.integers(2 ** 32))]
            blob[at: at + 4] = int(word[rng.integers(len(word))]).to_bytes(4, "little")
        elif kind == 2:
            del blob[at: at + int(rng.integers(1, 9))]
        elif kind == 3:
            blob[at:at] = rng.integers(256, size=int(rng.integers(1, 9))).astype(np.uint8).tobytes()
        else:
            del blob[at:]
        if blob != original:
            yield bytes(blob)

