"""Per-snippet fusion of environment, actor and object streams.

Each snippet contributes up to three modality vectors: the environment vector
as-is, a fused actor vector chosen by context-adaptive attention over the
actor rows, and a fused object vector chosen the same way over the object
rows. Every present modality is linearly projected to a common width, the
projected rows talk through one self-attention encoder, and mean pooling
yields the snippet representation. A video becomes a (feature_dim, T) matrix
with one column per snippet.

A video is encoded in one pass, not snippet by snippet, by one route in two
steps. ``prepare(seq)`` wraps the streams the sequence holds packed (see
``data.features``) as constants, with no copy when they are already in the
default precision, and makes each attention stream's
``AdaptiveAttention.select`` over the video's (R, d) rows and per-snippet row
counts: all of it depends only on the video and the fixed state.
``forward(prepared)`` fuses each selection into a (T, d) matrix (see
``attention``), stacks the projected streams into one (T, streams,
feature_dim) batch for the interaction encoder, and takes the mean over
streams. ``video(seq)`` is ``forward(prepare(seq))``, so infer and training
compute the same matrix; training prepares each video once per call and runs
only ``forward`` at every step (see ``training.train``). A single snippet
(``snippet_with_info``) is the T = 1 case; its per-stream ``SelectionInfo``
then describes that snippet alone.

Streams can be disabled independently for ablations. Adaptive and hard
attention need the environment vector as scoring context, so disabling the
environment stream forces the soft attention baseline (scored against a zero
context).

An ablation keeps as fixed state what no loss can reach in it, on top of the
attention modes' own rule; names and init draws do not change:

- without the environment, each attention's ``context_embed`` sees only the
  zero context through zero-init biases, so its output and its gradient are
  exactly zero;
- with one stream, the interaction encoder's softmax runs over a single row
  and is exactly 1, so its ``query`` and ``key`` never matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tapgkit.attention import MODES, AdaptiveAttention, Selection, SelectionInfo
from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.layers import Linear, Module, SelfAttentionEncoder
from tapgkit.autodiff.tensor import Tensor
from tapgkit.data.features import SnippetBundle, VideoFeatureSequence
from tapgkit.errors import ConfigError, check_whole


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
        check_whole(self)
        if min(self.env_dim, self.actor_dim, self.object_dim, self.feature_dim,
               self.attention_hidden) <= 0:
            raise ConfigError("all representation widths must be positive")
        if self.attention_mode not in MODES:
            raise ConfigError(f"attention_mode must be one of {MODES}")
        if not (self.use_environment or self.use_actors or self.use_objects):
            raise ConfigError("at least one input stream must stay enabled")

    def effective_attention_mode(self) -> str:
        return self.attention_mode if self.use_environment else "soft"


@dataclass
class PreparedVideo:
    """A video's constant inputs with each attention stream's rows selected."""
    environment: Tensor                 # (T, env_dim)
    selections: dict[str, Selection]    # one per enabled attention stream


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
        if not cfg.use_environment:
            for attention in (self.actor_attention, self.object_attention):
                if attention is not None:
                    attention.context_embed.freeze()
        if cfg.use_environment + cfg.use_actors + cfg.use_objects == 1:
            self.interaction.query.freeze()
            self.interaction.key.freeze()

    def _attentions(self) -> list[tuple[str, AdaptiveAttention, Linear]]:
        """Each enabled attention stream: its name, attention and projection."""
        return [(name, attention, proj) for name, attention, proj in (
            ("actors", self.actor_attention, self.actor_proj),
            ("objects", self.object_attention, self.object_proj)) if attention is not None]

    def prepare(self, seq: VideoFeatureSequence) -> PreparedVideo:
        """The video's environment rows and each attention stream's selection,
        made from ``seq``'s packed arrays wrapped as constants."""
        env = T.constant(seq.environment)
        context = env if self.cfg.use_environment else T.constant(np.zeros_like(env.data))
        packed = {"actors": (seq.actors, seq.actor_counts),
                  "objects": (seq.objects, seq.object_counts)}
        return PreparedVideo(env, {
            name: attention.select(T.constant(packed[name][0]), context, packed[name][1])
            for name, attention, _ in self._attentions()})

    def _encode(self, prepared: PreparedVideo) -> tuple[Tensor, dict[str, SelectionInfo]]:
        """(T, feature_dim) representations of a prepared video's T snippets,
        and each stream's selections."""
        streams: list[Tensor] = []
        info: dict[str, SelectionInfo] = {}
        for name, attention, proj in self._attentions():
            fused, info[name] = attention.fuse(prepared.selections[name])
            streams.append(proj(fused))
        if self.env_proj is not None:
            streams.append(self.env_proj(prepared.environment))
        stacked = T.stack(streams, axis=1)                        # (T, streams, d_f)
        return T.mean(self.interaction(stacked), axis=1), info

    def forward(self, prepared: PreparedVideo) -> Tensor:
        """Representation matrix (feature_dim, T) of a prepared video."""
        return T.transpose(self._encode(prepared)[0])

    def video(self, seq: VideoFeatureSequence) -> Tensor:
        """Representation matrix (feature_dim, T), one column per snippet."""
        return self.forward(self.prepare(seq))

    def snippet_with_info(self, bundle: SnippetBundle) -> tuple[Tensor, dict[str, SelectionInfo]]:
        """One snippet's (feature_dim,) vector and its per-stream selections."""
        fused, info = self._encode(self.prepare(
            VideoFeatureSequence.from_snippets("snippet", 1, [bundle])))
        return T.reshape(fused, (-1,)), info
