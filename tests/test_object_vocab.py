"""Vocabulary selector: mean-cosine ranking, deterministic ties, the written file."""

import json

import numpy as np
import pytest

from tapgkit.errors import DegenerateInputError, EmptyInputError, ShapeError
from tapgkit.object_vocab import EmbeddedVocabulary, save_vocabulary


def _vocab(rng, n=8, d=5):
    return EmbeddedVocabulary([f"w{i}" for i in range(n)],
                              rng.standard_normal((n, d)))


def _oracle(vocab, frames, k):
    """Loop reference: mean cosine per entry, sorted best first, ties to lower index."""
    picked = []
    for snippet in frames:
        scores = [
            np.mean([v @ f / (np.linalg.norm(v) * np.linalg.norm(f)) for f in snippet])
            for v in vocab.vectors
        ]
        ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        picked.append(ranked[:k])
    return np.array(picked)


class TestCosine:
    """Scoring: each entry's mean cosine over a snippet's frames."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        vocab = _vocab(rng)
        s, f = rng.integers(1, 5, size=2)
        frames = rng.standard_normal((s, f, 5))
        k = int(rng.integers(1, 9))
        got = vocab.select(frames, k)
        assert got.shape == (s, k)
        np.testing.assert_array_equal(got, _oracle(vocab, frames, k))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        vocab = _vocab(rng)
        frames = rng.standard_normal((4, 3, 5))
        scale = rng.uniform(0.1, 10.0, size=(4, 3, 1))
        np.testing.assert_array_equal(vocab.select(frames, 8),
                                      vocab.select(scale * frames, 8))

    def test_zero_norm_query_rejected(self):
        vocab = _vocab(np.random.default_rng(0))
        frames = np.ones((2, 3, 5))
        frames[1, 2] = 0.0
        with pytest.raises(DegenerateInputError):
            vocab.select(frames, 2)

    def test_zero_norm_entry_rejected_at_construction(self):
        vectors = np.ones((3, 4))
        vectors[1] = 0.0
        with pytest.raises(DegenerateInputError):
            EmbeddedVocabulary(["a", "b", "c"], vectors)

    def test_zero_norm_entry_is_named(self):
        vectors = np.ones((3, 4))
        vectors[1] = 0.0
        with pytest.raises(DegenerateInputError, match=r"zero-norm vocabulary vectors: \['b'\]$"):
            EmbeddedVocabulary(["a", "b", "c"], vectors)

    def test_name_count_must_match_the_vectors(self):
        with pytest.raises(ShapeError, match="^2 names for 3 vectors$"):
            EmbeddedVocabulary(["a", "b"], np.ones((3, 4)))


class TestTopK:
    """Ranking: best first, ties to the lower index, at most the whole vocabulary."""

    def test_descending_selection(self):
        vocab = EmbeddedVocabulary(["a", "b", "c", "d"], np.eye(4))
        frames = np.array([[[0.1, 0.9, 0.4, 0.7]]])
        np.testing.assert_array_equal(vocab.select(frames, 3), [[1, 3, 2]])

    def test_exact_ties_break_by_lower_index(self):
        vocab = EmbeddedVocabulary(["a", "b", "c", "d"], np.eye(4))
        frames = np.array([[[0.5, 0.9, 0.5, 0.9]], [[1.0, 1.0, 1.0, 1.0]]])
        np.testing.assert_array_equal(vocab.select(frames, 4),
                                      [[1, 3, 0, 2], [0, 1, 2, 3]])

    def test_k_larger_than_vocab_returns_everything(self):
        vocab = EmbeddedVocabulary(["a", "b"], np.eye(2))
        frames = np.array([[[0.2, 0.1]], [[0.1, 0.2]]])
        for k in (2, 10):
            np.testing.assert_array_equal(vocab.select(frames, k), [[0, 1], [1, 0]])

    def test_invalid_k_rejected(self):
        vocab = EmbeddedVocabulary(["a"], np.ones((1, 2)))
        for k in (0, -1):
            with pytest.raises(ShapeError):
                vocab.select(np.ones((1, 1, 2)), k)


class TestSelectObjects:
    def test_mean_over_frames(self):
        vocab = EmbeddedVocabulary(["x", "y"], np.eye(2))
        frames = np.array([[[1.0, 0.1], [1.0, -0.1]], [[0.1, 1.0], [-0.1, 1.0]]])
        np.testing.assert_array_equal(vocab.select(frames, 1), [[0], [1]])

    def test_no_frames_rejected(self):
        vocab = _vocab(np.random.default_rng(1))
        with pytest.raises(EmptyInputError):
            vocab.select(np.zeros((2, 0, 5)), 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_selected_rows_are_vocabulary_vectors(self, seed):
        rng = np.random.default_rng(seed)
        vocab = _vocab(rng)
        picked = vocab.select(rng.standard_normal((3, 2, 5)), 4)
        assert picked.shape == (3, 4)
        for row in picked:
            assert len(set(row.tolist())) == 4
            assert all(0 <= i < len(vocab.names) for i in row)

    def test_batch_equals_each_snippet_alone(self):
        rng = np.random.default_rng(11)
        vocab = _vocab(rng)
        frames = rng.standard_normal((6, 3, 5))
        alone = [vocab.select(frames[i:i + 1], 4)[0] for i in range(6)]
        np.testing.assert_array_equal(vocab.select(frames, 4), alone)

    @pytest.mark.parametrize("shape", [(5,), (3, 5), (1, 2, 4), (1, 2, 6), (1, 1, 1, 5)])
    def test_bad_frames_shape_rejected(self, shape):
        vocab = _vocab(np.random.default_rng(2))
        with pytest.raises(ShapeError):
            vocab.select(np.ones(shape), 2)


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
