"""Per-snippet fusion of environment, actor and object streams.

Each snippet contributes up to three modality vectors: the environment vector
as-is, a fused actor vector chosen by context-adaptive attention over the
actor rows, and a fused object vector chosen the same way over the object
rows. Every present modality is linearly projected to a common width, the
projected rows talk through one self-attention encoder, and mean pooling
yields the snippet representation. A video becomes a (feature_dim, T) matrix
with one column per snippet.

A video is encoded in one pass, not snippet by snippet: each attention
stream gets the video's rows packed as one (R, d) constant with per-snippet
row counts and returns a (T, d) fused matrix (see ``attention``), the
projected streams form one (T, streams, feature_dim) batch for the
interaction encoder, and the mean over streams gives the (T, feature_dim)
result. A single snippet (``snippet_with_info``) is the T = 1 case; its
per-stream ``SelectionInfo`` then describes that snippet alone.

Streams can be disabled independently for ablations. Adaptive and hard
attention need the environment vector as scoring context, so disabling the
environment stream forces the soft attention baseline (scored against a zero
context).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tapgkit.attention import MODES, AdaptiveAttention, SelectionInfo
from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.layers import Linear, Module, SelfAttentionEncoder
from tapgkit.autodiff.tensor import Tensor
from tapgkit.data.features import SnippetBundle, VideoFeatureSequence
from tapgkit.errors import ConfigError


@dataclass
class RepresentationConfig:
    env_dim: int = 16
    actor_dim: int = 16
    object_dim: int = 16
    feature_dim: int = 32
    attention_hidden: int = 64
    attention_mode: str = "adaptive"
    use_environment: bool = True
    use_actors: bool = True
    use_objects: bool = True

    def validate(self) -> None:
        if min(self.env_dim, self.actor_dim, self.object_dim, self.feature_dim,
               self.attention_hidden) <= 0:
            raise ConfigError("all representation widths must be positive")
        if self.attention_mode not in MODES:
            raise ConfigError(f"attention_mode must be one of {MODES}")
        if not (self.use_environment or self.use_actors or self.use_objects):
            raise ConfigError("at least one input stream must stay enabled")

    def effective_attention_mode(self) -> str:
        return self.attention_mode if self.use_environment else "soft"


class SnippetRepresentation(Module):
    def __init__(self, rng: np.random.Generator, cfg: RepresentationConfig):
        cfg.validate()
        self.cfg = cfg
        mode = cfg.effective_attention_mode()
        d_f = cfg.feature_dim
        self.actor_attention = (
            AdaptiveAttention(rng, cfg.actor_dim, cfg.env_dim, cfg.attention_hidden, mode)
            if cfg.use_actors else None
        )
        self.object_attention = (
            AdaptiveAttention(rng, cfg.object_dim, cfg.env_dim, cfg.attention_hidden, mode)
            if cfg.use_objects else None
        )
        self.actor_proj = Linear(rng, cfg.actor_dim, d_f) if cfg.use_actors else None
        self.object_proj = Linear(rng, cfg.object_dim, d_f) if cfg.use_objects else None
        self.env_proj = Linear(rng, cfg.env_dim, d_f) if cfg.use_environment else None
        self.interaction = SelfAttentionEncoder(rng, d_f)

    def _encode(self, environment: np.ndarray, actors: list[np.ndarray],
                objects: list[np.ndarray]) -> tuple[Tensor, dict[str, SelectionInfo]]:
        """(T, feature_dim) representations of T snippets given as stream arrays."""
        cfg = self.cfg
        env = T.constant(environment)
        context = env if cfg.use_environment else T.constant(np.zeros_like(environment))
        streams: list[Tensor] = []
        info: dict[str, SelectionInfo] = {}
        for name, attention, proj, sets in (
                ("actors", self.actor_attention, self.actor_proj, actors),
                ("objects", self.object_attention, self.object_proj, objects)):
            if attention is not None:
                rows = T.constant(np.concatenate(sets, axis=0))
                fused, info[name] = attention(rows, context, [len(s) for s in sets])
                streams.append(proj(fused))
        if self.env_proj is not None:
            streams.append(self.env_proj(env))
        stacked = T.stack(streams, axis=1)                        # (T, streams, d_f)
        return T.mean(self.interaction(stacked), axis=1), info

    def snippet_with_info(self, bundle: SnippetBundle) -> tuple[Tensor, dict[str, SelectionInfo]]:
        """One snippet's (feature_dim,) vector and its per-stream selections."""
        fused, info = self._encode(bundle.environment[None, :], [bundle.actors],
                                   [bundle.objects])
        return T.reshape(fused, (-1,)), info

    def snippet(self, bundle: SnippetBundle) -> Tensor:
        return self.snippet_with_info(bundle)[0]

    def video(self, seq: VideoFeatureSequence) -> Tensor:
        """Representation matrix (feature_dim, T), one column per snippet."""
        snippets = seq.snippets
        fused, _ = self._encode(np.stack([b.environment for b in snippets]),
                                [b.actors for b in snippets], [b.objects for b in snippets])
        return T.transpose(fused)
