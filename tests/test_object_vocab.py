"""Vocabulary selector: cosine scores, deterministic ties, the written file."""

import json

import numpy as np
import pytest

from tapgkit.errors import DegenerateInputError, EmptyInputError, ShapeError
from tapgkit.object_vocab import EmbeddedFrame, EmbeddedVocabulary, save_vocabulary


def _vocab(rng, n=8, d=5):
    return EmbeddedVocabulary([f"w{i}" for i in range(n)],
                              rng.standard_normal((n, d)))


class TestCosine:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        vocab = _vocab(rng)
        q = rng.standard_normal(5)
        got = vocab.cosine_scores(q)
        want = [
            float(v @ q / (np.linalg.norm(v) * np.linalg.norm(q)))
            for v in vocab.vectors
        ]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        vocab = _vocab(rng)
        q = rng.standard_normal(5)
        np.testing.assert_allclose(vocab.cosine_scores(q),
                                   vocab.cosine_scores(10.0 * q), rtol=1e-12)

    def test_zero_norm_query_rejected(self):
        vocab = _vocab(np.random.default_rng(0))
        with pytest.raises(DegenerateInputError):
            vocab.cosine_scores(np.zeros(5))

    def test_zero_norm_entry_rejected_at_construction(self):
        vectors = np.ones((3, 4))
        vectors[1] = 0.0
        with pytest.raises(DegenerateInputError):
            EmbeddedVocabulary(["a", "b", "c"], vectors)


class TestTopK:
    def test_descending_selection(self):
        vocab = EmbeddedVocabulary(["a", "b", "c", "d"], np.eye(4))
        scores = np.array([0.1, 0.9, 0.4, 0.7])
        np.testing.assert_array_equal(vocab.top_k(scores, 3), [1, 3, 2])

    def test_exact_ties_break_by_lower_index(self):
        vocab = EmbeddedVocabulary(["a", "b", "c", "d"], np.eye(4))
        scores = np.array([0.5, 0.9, 0.5, 0.9])
        np.testing.assert_array_equal(vocab.top_k(scores, 4), [1, 3, 0, 2])

    def test_k_larger_than_vocab_returns_everything(self):
        vocab = EmbeddedVocabulary(["a", "b"], np.eye(2))
        assert len(vocab.top_k(np.array([0.2, 0.1]), 10)) == 2

    def test_invalid_k_rejected(self):
        vocab = EmbeddedVocabulary(["a"], np.ones((1, 2)))
        with pytest.raises(ShapeError):
            vocab.top_k(np.array([1.0]), 0)


class TestSelectObjects:
    def test_mean_over_frames(self):
        vocab = EmbeddedVocabulary(["x", "y"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        frames = [
            EmbeddedFrame(0, np.array([1.0, 0.1])),
            EmbeddedFrame(1, np.array([1.0, -0.1])),
        ]
        vectors, names = vocab.select_objects(frames, 1)
        assert names == ["x"]
        np.testing.assert_array_equal(vectors, [[1.0, 0.0]])

    def test_no_frames_rejected(self):
        vocab = _vocab(np.random.default_rng(1))
        with pytest.raises(EmptyInputError):
            vocab.select_objects([], 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_selected_rows_are_vocabulary_vectors(self, seed):
        rng = np.random.default_rng(seed)
        vocab = _vocab(rng)
        frames = [EmbeddedFrame(i, rng.standard_normal(5)) for i in range(3)]
        vectors, names = vocab.select_objects(frames, 4)
        assert vectors.shape == (4, 5)
        for vec, name in zip(vectors, names):
            idx = vocab.names.index(name)
            np.testing.assert_array_equal(vec, vocab.vectors[idx])


class TestFileFormat:
    def test_written_file_holds_dim_names_and_vectors(self, tmp_path):
        vocab = _vocab(np.random.default_rng(2))
        path = tmp_path / "vocab.json"
        save_vocabulary(path, vocab)
        payload = json.loads(path.read_text())
        assert payload["dim"] == 5 and type(payload["dim"]) is int
        assert [e["name"] for e in payload["entries"]] == vocab.names
        vectors = [e["vector"] for e in payload["entries"]]
        assert all(type(x) is float for row in vectors for x in row)
        np.testing.assert_array_equal(np.array(vectors), vocab.vectors)

    def test_failed_write_keeps_previous_file(self, tmp_path, failing_writes):
        path = tmp_path / "vocab.json"
        save_vocabulary(path, _vocab(np.random.default_rng(3), n=2))
        before = path.read_bytes()
        with failing_writes(), pytest.raises(OSError):
            save_vocabulary(path, _vocab(np.random.default_rng(4), n=200))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.json"]

    def test_empty_vocab_rejected(self):
        with pytest.raises(EmptyInputError):
            EmbeddedVocabulary([], np.zeros((0, 3)))
