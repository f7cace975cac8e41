"""Deterministic synthetic corpus with planted, learnable actions.

Every generated video is T snippets long with frame_count = T * stride, and
fps is a power of two, so second <-> snippet conversion is exact in binary
floating point. Planted actions start and end exactly on snippet boundaries,
which means the proposal grid contains a cell with overlap 1.0 for each one.

Class signal is planted in all three streams, but only two of them are
boundary-exact: the first actor row is boosted on exactly the action
snippets, and so is the query embedding from which each snippet's objects
are chosen. The queries stand in for one frame embedding per snippet; after
a video's snippets are drawn, one ``EmbeddedVocabulary.select`` call over
all of them picks each snippet's object rows from a small embedded
vocabulary. The environment bump overshoots the action by a random
0..ENV_OVERHANG snippets on each side, so the environment stream alone cannot
localize boundaries precisely; resolving the overhang requires the other
streams.
Background snippets are pure noise and may have zero actors.

Each video is drawn snippet after snippet, in a fixed order of random
draws, and packed once: the noise goes straight into the video's arrays,
the signal is added to whole arrays afterwards, and the video becomes one
``VideoFeatureSequence`` with no per-snippet object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tapgkit.data.annotations import (
    ActionInstance,
    VideoAnnotation,
    check_corpus,
    load_annotations,
    save_annotations,
)
from tapgkit.data.features import (
    VideoFeatureSequence,
    feature_path,
    load_features,
    save_features,
)
from tapgkit.errors import ConfigError, check_whole
from tapgkit.object_vocab import EmbeddedVocabulary, save_vocabulary

CLASS_WORDS = ("swing", "lift", "throw", "kick", "spin", "fold", "pour", "wave")
ENV_OVERHANG = 1


@dataclass
class SyntheticConfig:
    num_videos: int = 20
    num_snippets: int = 32
    snippet_stride: int = 16
    fps: float = 8.0
    env_dim: int = 16
    actor_dim: int = 16
    object_dim: int = 16
    max_actors: int = 3
    objects_per_snippet: int = 3
    num_classes: int = 3
    min_action_len: int = 2
    max_action_len: int = 8
    max_actions_per_video: int = 2
    signal: float = 3.0
    noise: float = 0.25
    seed: int = 0

    def validate(self) -> None:
        check_whole(self)
        if self.num_videos <= 0 or self.num_snippets <= 0 or self.snippet_stride <= 0:
            raise ConfigError("num_videos, num_snippets, snippet_stride must be positive")
        if min(self.env_dim, self.actor_dim, self.object_dim) <= 0:
            raise ConfigError("env_dim, actor_dim and object_dim must be positive")
        # NaN fails every comparison; the duration, frames / fps, must be finite
        frames = self.num_snippets * self.snippet_stride
        if not 0 < self.fps < math.inf or math.isinf(frames / self.fps):
            raise ConfigError(f"fps must be positive with frames / fps finite, not {self.fps}")
        if not (1 <= self.min_action_len <= self.max_action_len):
            raise ConfigError("need 1 <= min_action_len <= max_action_len")
        if self.max_action_len > self.num_snippets - 2:
            raise ConfigError("max_action_len must leave a background snippet at each edge")
        if self.max_actions_per_video < 1:
            raise ConfigError("max_actions_per_video must be at least 1")
        if self.num_classes < 1 or self.num_classes > len(CLASS_WORDS):
            raise ConfigError(f"num_classes must be in [1, {len(CLASS_WORDS)}]")
        if self.max_actors < 1 or self.objects_per_snippet < 1:
            raise ConfigError("max_actors and objects_per_snippet must be at least 1")
        # at most 1e6, so a scale times a unit or normal draw stays far inside float32
        if not (0 < self.signal <= 1e6 and 0 <= self.noise <= 1e6):
            raise ConfigError(f"signal must be positive and noise non-negative, each at "
                              f"most 1e6, not {self.signal} and {self.noise}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SyntheticCorpus:
    annotations: dict[str, VideoAnnotation]
    features: dict[str, VideoFeatureSequence]
    vocabulary: EmbeddedVocabulary
    class_names: list[str] = field(default_factory=list)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _build_vocabulary(rng: np.random.Generator, cfg: SyntheticConfig,
                      object_dirs: np.ndarray) -> EmbeddedVocabulary:
    names, vectors = [], []
    for c in range(cfg.num_classes):
        for j in range(2):
            jitter = 0.15 * rng.standard_normal(cfg.object_dim)
            v = object_dirs[c] + jitter
            names.append(f"{CLASS_WORDS[c]}_obj{j}")
            vectors.append(v / np.linalg.norm(v))
    for j in range(max(4, cfg.num_classes)):
        names.append(f"misc{j}")
        vectors.append(_unit(rng, cfg.object_dim))
    return EmbeddedVocabulary(names, np.array(vectors))


def _place_actions(rng: np.random.Generator, cfg: SyntheticConfig) -> list[tuple[int, int]]:
    count = int(rng.integers(1, cfg.max_actions_per_video + 1))
    placed: list[tuple[int, int]] = []
    for _ in range(count):
        for _attempt in range(200):
            length = int(rng.integers(cfg.min_action_len, cfg.max_action_len + 1))
            start = int(rng.integers(1, cfg.num_snippets - length))
            end = start + length
            # keep one clean background snippet between planted actions
            if all(end + 1 <= s or start >= e + 1 for s, e in placed):
                placed.append((start, end))
                break
    placed.sort()
    return placed


def generate_corpus(cfg: SyntheticConfig) -> SyntheticCorpus:
    cfg.validate()
    master = np.random.default_rng(cfg.seed)
    env_dirs = np.stack([_unit(master, cfg.env_dim) for _ in range(cfg.num_classes)])
    actor_dirs = np.stack([_unit(master, cfg.actor_dim) for _ in range(cfg.num_classes)])
    object_dirs = np.stack([_unit(master, cfg.object_dim) for _ in range(cfg.num_classes)])
    vocab = _build_vocabulary(master, cfg, object_dirs)
    class_names = [CLASS_WORDS[c] for c in range(cfg.num_classes)]

    frame_count = cfg.num_snippets * cfg.snippet_stride
    duration = frame_count / cfg.fps
    seconds_per_snippet = cfg.snippet_stride / cfg.fps

    annotations: dict[str, VideoAnnotation] = {}
    features: dict[str, VideoFeatureSequence] = {}
    for v in range(cfg.num_videos):
        rng = np.random.default_rng(master.integers(2**63))
        video_id = f"synth_{v:04d}"
        spans = _place_actions(rng, cfg)
        classes = [int(rng.integers(cfg.num_classes)) for _ in spans]

        actions = [
            ActionInstance(s * seconds_per_snippet, e * seconds_per_snippet, class_names[c])
            for (s, e), c in zip(spans, classes)
        ]
        video = VideoAnnotation(video_id, duration, cfg.fps, frame_count, actions)
        video.validate()

        # each snippet's planted class, -1 for background
        covering = np.full(cfg.num_snippets, -1)
        for (s, e), c in zip(spans, classes):
            covering[s:e] = c

        # the environment bump overshoots each action by a random amount, so
        # its edges do not betray the exact boundaries
        env_spans = []
        for (s, e), c in zip(spans, classes):
            lo = s - int(rng.integers(0, ENV_OVERHANG + 1))
            hi = e + int(rng.integers(0, ENV_OVERHANG + 1))
            env_spans.append((max(lo, 0), min(hi, cfg.num_snippets), c))

        # the draws, snippet after snippet: environment noise, the actor
        # count (at least one on an action) and actor noise, then the noise
        # of the query; the signal is added to whole arrays afterwards
        environment = np.empty((cfg.num_snippets, cfg.env_dim))
        queries = np.empty((cfg.num_snippets, cfg.object_dim))
        actor_sets = []
        for t, cls in enumerate(covering.tolist()):
            rng.standard_normal(out=environment[t])
            m = int(rng.integers(1 if cls >= 0 else 0, cfg.max_actors + 1))
            actor_sets.append(rng.standard_normal((m, cfg.actor_dim)))
            rng.standard_normal(out=queries[t])
        action = covering >= 0
        environment *= cfg.noise
        for lo, hi, c in env_spans:
            environment[lo:hi] += cfg.signal * env_dirs[c]
        actor_counts = np.array([len(a) for a in actor_sets], dtype=np.int64)
        actors = cfg.noise * np.concatenate(actor_sets)
        # an action snippet's first actor row carries its class
        first = np.cumsum(actor_counts) - actor_counts
        actors[first[action]] += cfg.signal * actor_dirs[covering[action]]
        queries[action] = (cfg.signal * object_dirs[covering[action]]
                           + cfg.noise * queries[action])

        # each snippet's query stands in for its one frame embedding
        picked = vocab.select(queries[:, None, :], cfg.objects_per_snippet)
        seq = VideoFeatureSequence(
            video_id, cfg.snippet_stride, environment.astype(np.float32),
            actors.astype(np.float32),
            vocab.vectors[picked.ravel()].astype(np.float32), actor_counts,
            np.full(cfg.num_snippets, picked.shape[1], dtype=np.int64))
        seq.validate()

        annotations[video_id] = video
        features[video_id] = seq
    return SyntheticCorpus(annotations, features, vocab, class_names)


def _layout(root) -> tuple[Path, Path]:
    """A corpus directory's annotation file and feature directory."""
    return Path(root) / "annotations.json", Path(root) / "features"


def write_corpus(cfg: SyntheticConfig, out_dir) -> SyntheticCorpus:
    """Generate and lay the corpus out on disk.

    Produces ``annotations.json``, ``vocabulary.json`` and one feature file
    per video under ``features/``.
    """
    corpus = generate_corpus(cfg)
    annotation_file, feat_dir = _layout(out_dir)
    feat_dir.mkdir(parents=True, exist_ok=True)
    save_annotations(annotation_file, corpus.annotations)
    save_vocabulary(Path(out_dir) / "vocabulary.json", corpus.vocabulary)
    for video_id, seq in corpus.features.items():
        save_features(feature_path(feat_dir, video_id), seq)
    return corpus


def load_corpus(root) -> tuple[dict[str, VideoAnnotation], dict[str, VideoFeatureSequence]]:
    """Read a corpus laid out as ``write_corpus`` writes it: the annotated
    videos and their feature sequences, which must pass ``check_corpus``."""
    annotation_file, feat_dir = _layout(root)
    annotations = load_annotations(annotation_file)
    if not annotations:
        raise ConfigError(f"{root}: annotation file lists no videos")
    features = {}
    for vid in sorted(annotations):
        path = feature_path(feat_dir, vid)
        if not path.exists():
            raise ConfigError(f"missing feature file for video {vid}: {path}")
        features[vid] = load_features(path, vid)
    check_corpus(annotations, features)
    return annotations, features
