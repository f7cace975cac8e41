"""Shared file-reading rules, and seeded mutations of every file the readers load.

A mutated file must either raise a ``TapgkitError`` subclass or load to
exactly the values it holds: a JSON number is an int or a float and not a
bool, a segment has exactly two entries, and a binary file saves back to the
same bytes.
"""

import copy
import json
import math

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
from tapgkit.files import ByteCursor, count, number, pair
from tapgkit.inference import Proposal, load_proposals, save_proposals

MUTATIONS = 400


class TestByteCursor:
    def _cursor(self, tmp_path, blob):
        path = tmp_path / "x.bin"
        path.write_bytes(blob)
        return ByteCursor(path, b"MAG", "test file")

    def test_reads_in_order_without_copying(self, tmp_path):
        cursor = self._cursor(tmp_path, b"MAG\x01\x00\x00\x00abc")
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
        cursor = self._cursor(tmp_path, b"MAGab")
        with pytest.raises(FileFormatError, match=r"x\.bin: truncated test file at byte 3"):
            cursor.take(3)

    def test_trailing_bytes_name_the_file(self, tmp_path):
        cursor = self._cursor(tmp_path, b"MAGab")
        cursor.take(1)
        with pytest.raises(FileFormatError, match=r"x\.bin: 1 trailing bytes"):
            cursor.finish()


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
        rng = np.random.default_rng(18)
        save_checkpoint(tmp_path / "model.tapg", {
            "trunk.weight": rng.standard_normal((3, 2, 2)),
            "trunk.bias": rng.standard_normal(3),
            "scale": np.array(0.5),
        })

        def resaved(path):
            save_checkpoint(tmp_path / "resaved.tapg", load_checkpoint(path))
            return (tmp_path / "resaved.tapg").read_bytes()

        _mutate_binary(rng, tmp_path / "model.tapg", resaved)

    def test_features(self, tmp_path):
        rng = np.random.default_rng(19)
        f32 = np.float32
        save_features(tmp_path / "vid.feat", VideoFeatureSequence("vid", 8, [
            SnippetBundle(rng.standard_normal(3).astype(f32),
                          rng.standard_normal((m, 2)).astype(f32),
                          rng.standard_normal((k, 4)).astype(f32))
            for m, k in [(1, 2), (0, 1), (2, 0)]]))

        def resaved(path):
            save_features(tmp_path / "resaved.feat", load_features(path))
            return (tmp_path / "resaved.feat").read_bytes()

        _mutate_binary(rng, tmp_path / "vid.feat", resaved)


def _mutate_binary(rng, path, resaved):
    """Byte-level mutations; an accepted file must save back to the same bytes."""
    original = path.read_bytes()
    mutated = path.with_name("mutated" + path.suffix)
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
        mutated.write_bytes(blob)
        try:
            assert resaved(mutated) == bytes(blob)
        except TapgkitError:
            pass
