"""Synthetic corpus: determinism, alignment guarantees, planted signal."""

import dataclasses

import numpy as np
import pytest

from tapgkit.data import synthetic
from tapgkit.data.annotations import rescale_action
from tapgkit.data.synthetic import SyntheticConfig, generate_corpus, write_corpus
from tapgkit.data.features import SnippetBundle, VideoFeatureSequence, load_features
from tapgkit.data.annotations import load_annotations
from tapgkit.errors import ConfigError


def _small(seed=0, **overrides):
    base = dict(num_videos=6, num_snippets=16, snippet_stride=8, seed=seed,
                env_dim=8, actor_dim=8, object_dim=8, max_action_len=6)
    base.update(overrides)
    return SyntheticConfig(**base)


def _reference_corpus(cfg):
    """``generate_corpus`` restated snippet by snippet from the same random
    draws: the vocabulary, each video's (start, end, class) actions, and its
    streams packed from one bundle per snippet."""
    master = np.random.default_rng(cfg.seed)

    def unit(dim):
        v = master.standard_normal(dim)
        return v / np.linalg.norm(v)

    env_dirs, actor_dirs, object_dirs = (
        np.stack([unit(dim) for _ in range(cfg.num_classes)])
        for dim in (cfg.env_dim, cfg.actor_dim, cfg.object_dim))
    names, vectors = [], []
    for c in range(cfg.num_classes):
        for j in range(2):
            v = object_dirs[c] + 0.15 * master.standard_normal(cfg.object_dim)
            names.append(f"{synthetic.CLASS_WORDS[c]}_obj{j}")
            vectors.append(v / np.linalg.norm(v))
    for j in range(max(4, cfg.num_classes)):
        names.append(f"misc{j}")
        vectors.append(unit(cfg.object_dim))
    vocab = synthetic.EmbeddedVocabulary(names, np.array(vectors))

    actions, features = {}, {}
    for v in range(cfg.num_videos):
        rng = np.random.default_rng(master.integers(2**63))
        spans = []
        for _ in range(int(rng.integers(1, cfg.max_actions_per_video + 1))):
            for _attempt in range(200):
                length = int(rng.integers(cfg.min_action_len, cfg.max_action_len + 1))
                start = int(rng.integers(1, cfg.num_snippets - length))
                # at least one background snippet between two actions
                if all(start + length < s or start > e for s, e in spans):
                    spans.append((start, start + length))
                    break
        spans.sort()
        classes = [int(rng.integers(cfg.num_classes)) for _ in spans]
        actions[f"synth_{v:04d}"] = [(s, e, c) for (s, e), c in zip(spans, classes)]
        covering = {t: c for (s, e), c in zip(spans, classes) for t in range(s, e)}
        env_spans = []
        for (s, e), c in zip(spans, classes):
            lo = s - int(rng.integers(0, synthetic.ENV_OVERHANG + 1))
            hi = e + int(rng.integers(0, synthetic.ENV_OVERHANG + 1))
            env_spans.append((max(lo, 0), min(hi, cfg.num_snippets), c))
        streams, queries = [], []
        for t in range(cfg.num_snippets):
            cls = covering.get(t)
            env = cfg.noise * rng.standard_normal(cfg.env_dim)
            for lo, hi, c in env_spans:
                if lo <= t < hi:
                    env = env + cfg.signal * env_dirs[c]
            m = int(rng.integers(0 if cls is None else 1, cfg.max_actors + 1))
            actors = cfg.noise * rng.standard_normal((m, cfg.actor_dim))
            if cls is not None:
                actors[0] = actors[0] + cfg.signal * actor_dirs[cls]
                query = cfg.signal * object_dirs[cls] + cfg.noise * rng.standard_normal(
                    cfg.object_dim)
            else:
                query = rng.standard_normal(cfg.object_dim)
            streams.append((env, actors))
            queries.append(query)
        picked = vocab.select(np.array(queries)[:, None, :], cfg.objects_per_snippet)
        features[f"synth_{v:04d}"] = VideoFeatureSequence.from_snippets(
            f"synth_{v:04d}", cfg.snippet_stride, [
                SnippetBundle(env.astype(np.float32), actors.astype(np.float32),
                              vocab.vectors[rows].astype(np.float32))
                for (env, actors), rows in zip(streams, picked)])
    return vocab, actions, features


PINNED_DRAWS = {
    "synth_0000": ([(6.0, 14.0, "throw"), (16.0, 20.0, "throw")],
                   [2, 1, 1, 1, 3, 1, 1, 3, 1, 2, 1, 0]),
    "synth_0001": ([(8.0, 18.0, "swing")], [3, 0, 1, 2, 2, 2, 2, 1, 1, 2, 0, 2]),
}


class TestPackedGeneration:
    @pytest.mark.parametrize("cfg", [
        SyntheticConfig(num_videos=4, seed=3),
        SyntheticConfig(num_videos=3, num_snippets=12, snippet_stride=4, env_dim=5,
                        actor_dim=3, object_dim=7, max_actors=5, objects_per_snippet=12,
                        num_classes=2, max_action_len=10, max_actions_per_video=3,
                        signal=2.0, noise=0.5, seed=8),
        # actions one background snippet apart are common here
        SyntheticConfig(num_videos=8, num_snippets=10, min_action_len=2, max_action_len=3,
                        max_actions_per_video=3, seed=5),
        # a second action never fits, so every placement makes all 200 attempts
        SyntheticConfig(num_videos=2, num_snippets=10, min_action_len=8, max_action_len=8,
                        seed=6),
    ], ids=["desk", "odd", "crowded", "full"])
    def test_corpus_equals_the_snippet_by_snippet_reference(self, cfg):
        corpus = generate_corpus(cfg)
        vocab, actions, reference = _reference_corpus(cfg)
        assert corpus.vocabulary.names == vocab.names
        assert np.array_equal(corpus.vocabulary.vectors, vocab.vectors)
        spacing = cfg.snippet_stride / cfg.fps
        assert {vid: [(a.start, a.end, a.label) for a in ann.annotations]
                for vid, ann in corpus.annotations.items()} == {
            vid: [(s * spacing, e * spacing, synthetic.CLASS_WORDS[c]) for s, e, c in spans]
            for vid, spans in actions.items()}
        assert list(corpus.features) == list(reference)
        for vid, want in reference.items():
            got = corpus.features[vid]
            assert (got.video_id, got.snippet_stride) == (vid, cfg.snippet_stride)
            for field in ("environment", "actors", "objects", "actor_counts",
                          "object_counts"):
                a, b = getattr(want, field), getattr(got, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (vid, field)

    def test_draws_are_pinned(self):
        # integer draws only, so the same on every platform: the planted
        # actions and each snippet's actor count fix the order of the draws
        corpus = generate_corpus(SyntheticConfig(num_videos=2, num_snippets=12,
                                                 max_action_len=6, seed=9))
        got = {vid: ([(a.start, a.end, a.label) for a in ann.annotations],
                     corpus.features[vid].actor_counts.tolist())
               for vid, ann in corpus.annotations.items()}
        assert got == PINNED_DRAWS

    def test_defaults(self):
        assert dataclasses.asdict(SyntheticConfig()) == dict(
            num_videos=20, num_snippets=32, snippet_stride=16, fps=8.0, env_dim=16,
            actor_dim=16, object_dim=16, max_actors=3, objects_per_snippet=3,
            num_classes=3, min_action_len=2, max_action_len=8, max_actions_per_video=2,
            signal=3.0, noise=0.25, seed=0)
        assert synthetic.ENV_OVERHANG == 1


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate_corpus(_small(seed=11))
        b = generate_corpus(_small(seed=11))
        assert list(a.annotations) == list(b.annotations)
        for vid in a.annotations:
            for x, y in zip(a.annotations[vid].annotations,
                            b.annotations[vid].annotations):
                assert (x.start, x.end, x.label) == (y.start, y.end, y.label)
            for sa, sb in zip(a.features[vid].snippets, b.features[vid].snippets):
                np.testing.assert_array_equal(sa.environment, sb.environment)
                np.testing.assert_array_equal(sa.actors, sb.actors)
                np.testing.assert_array_equal(sa.objects, sb.objects)

    def test_different_seed_differs(self):
        a = generate_corpus(_small(seed=1))
        b = generate_corpus(_small(seed=2))
        env_a = a.features["synth_0000"].snippets[0].environment
        env_b = b.features["synth_0000"].snippets[0].environment
        assert not np.array_equal(env_a, env_b)


class TestAlignment:
    def test_frame_count_is_snippets_times_stride(self):
        corpus = generate_corpus(_small())
        for ann in corpus.annotations.values():
            assert ann.frame_count == 16 * 8
            assert ann.duration == ann.frame_count / ann.fps

    @pytest.mark.parametrize("seed", range(6))
    def test_actions_rescale_to_exact_snippet_integers(self, seed):
        cfg = _small(seed=seed)
        corpus = generate_corpus(cfg)
        for ann in corpus.annotations.values():
            for action in ann.annotations:
                s, e = rescale_action(action.start, action.end, ann.frame_count,
                                      ann.fps, cfg.num_snippets)
                assert s == int(s) and e == int(e)
                assert 0 < e - s <= cfg.max_action_len
                assert 1 <= s and e <= cfg.num_snippets - 1

    def test_every_video_has_at_least_one_action(self):
        corpus = generate_corpus(_small())
        for ann in corpus.annotations.values():
            assert 1 <= len(ann.annotations) <= 2

    def test_actions_do_not_overlap(self):
        corpus = generate_corpus(_small(seed=3))
        for ann in corpus.annotations.values():
            spans = sorted((a.start, a.end) for a in ann.annotations)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 < s2


class TestSignal:
    def test_action_snippets_carry_larger_environment_energy(self):
        cfg = _small(seed=5)
        corpus = generate_corpus(cfg)
        action_norms, background_norms = [], []
        for vid, ann in corpus.annotations.items():
            covered = set()
            for action in ann.annotations:
                s, e = rescale_action(action.start, action.end, ann.frame_count,
                                      ann.fps, cfg.num_snippets)
                covered.update(range(int(s), int(e)))
            for t, snip in enumerate(corpus.features[vid].snippets):
                norm = float(np.linalg.norm(snip.environment))
                (action_norms if t in covered else background_norms).append(norm)
        assert np.mean(action_norms) > 2.0 * np.mean(background_norms)

    def test_action_snippets_always_have_an_actor(self):
        cfg = _small(seed=6)
        corpus = generate_corpus(cfg)
        saw_empty_background = False
        for vid, ann in corpus.annotations.items():
            covered = set()
            for action in ann.annotations:
                s, e = rescale_action(action.start, action.end, ann.frame_count,
                                      ann.fps, cfg.num_snippets)
                covered.update(range(int(s), int(e)))
            for t, snip in enumerate(corpus.features[vid].snippets):
                if t in covered:
                    assert snip.actors.shape[0] >= 1
                elif snip.actors.shape[0] == 0:
                    saw_empty_background = True
        assert saw_empty_background, "corpus should exercise the zero-actor path"

    def test_object_rows_come_from_vocabulary(self):
        corpus = generate_corpus(_small(seed=7))
        vocab_rows = {tuple(np.round(v, 5)) for v in corpus.vocabulary.vectors}
        snip = corpus.features["synth_0000"].snippets[0]
        for row in snip.objects:
            assert tuple(np.round(row.astype(np.float64), 5)) in vocab_rows


class TestWriteCorpus:
    def test_on_disk_layout_and_reload(self, tmp_path):
        cfg = _small(seed=9, num_videos=3)
        corpus = write_corpus(cfg, tmp_path)
        annotations = load_annotations(tmp_path / "annotations.json")
        assert set(annotations) == set(corpus.annotations)
        assert (tmp_path / "vocabulary.json").exists()
        for vid in annotations:
            seq = load_features(tmp_path / "features" / f"{vid}.feat", vid)
            assert seq.num_snippets == cfg.num_snippets
            ref = corpus.features[vid].snippets[0]
            np.testing.assert_array_equal(seq.snippets[0].environment,
                                          ref.environment)


class TestConfigValidation:
    def test_action_length_bounds(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_snippets=8, max_action_len=7).validate()

    def test_class_count_bounds(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_classes=0).validate()
        with pytest.raises(ConfigError):
            SyntheticConfig(num_classes=99).validate()

    @pytest.mark.parametrize("change, message", [
        (dict(num_videos=0), "num_videos, num_snippets, snippet_stride must be positive"),
        (dict(num_snippets=0), "num_videos, num_snippets, snippet_stride must be positive"),
        (dict(snippet_stride=0), "num_videos, num_snippets, snippet_stride must be positive"),
        (dict(fps=0.0), "fps must be positive"),
        (dict(min_action_len=0), "need 1 <= min_action_len"),
        (dict(min_action_len=5, max_action_len=4), "need 1 <= min_action_len"),
        (dict(num_snippets=9, max_action_len=8), "leave a background snippet"),
        (dict(num_snippets=1, min_action_len=1, max_action_len=1), "leave a background snippet"),
        (dict(max_actions_per_video=0), "max_actions_per_video must be at least 1"),
        (dict(num_classes=0), "num_classes must be in"),
        (dict(num_classes=9), "num_classes must be in"),
        (dict(max_actors=0), "max_actors and objects_per_snippet"),
        (dict(objects_per_snippet=0), "max_actors and objects_per_snippet"),
        (dict(signal=0.0), "signal must be positive"),
        (dict(noise=-0.25), "noise non-negative"),
        (dict(seed=-1), "seed must be non-negative, got -1"),
    ])
    def test_each_rule_names_itself(self, change, message):
        with pytest.raises(ConfigError, match=message):
            SyntheticConfig(**change).validate()

    @pytest.mark.parametrize("change", [
        dict(num_videos=1), dict(snippet_stride=1), dict(fps=0.5),
        dict(min_action_len=1), dict(min_action_len=8, max_action_len=8),
        dict(num_snippets=10, max_action_len=8), dict(max_actions_per_video=1),
        dict(num_classes=1), dict(num_classes=8), dict(max_actors=1),
        dict(objects_per_snippet=1), dict(signal=0.5), dict(noise=0.0), dict(seed=0),
    ])
    def test_each_bound_itself_accepted(self, change):
        SyntheticConfig(**change).validate()
