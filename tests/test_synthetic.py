"""Synthetic corpus: determinism, alignment guarantees, planted signal."""

import numpy as np
import pytest

from tapgkit.data.annotations import rescale_action
from tapgkit.data.synthetic import SyntheticConfig, generate_corpus, write_corpus
from tapgkit.data.features import load_features
from tapgkit.data.annotations import load_annotations
from tapgkit.errors import ConfigError


def _small(seed=0, **overrides):
    base = dict(num_videos=6, num_snippets=16, snippet_stride=8, seed=seed,
                env_dim=8, actor_dim=8, object_dim=8, max_action_len=6)
    base.update(overrides)
    return SyntheticConfig(**base)


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
