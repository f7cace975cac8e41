"""End-to-end model: snippet fusion feeding the boundary/proposal network.

``model(seq)`` checks the video against the model and runs both halves, the
representation by its one route (see ``representation``). ``forward(prepare(seq))``
is the same pass split in two: ``prepare`` does the checks and every part that
depends only on the video and the fixed state, ``forward`` the rest.
"""

from __future__ import annotations

import numpy as np

from tapgkit.autodiff.layers import Module
from tapgkit.boundary_net import BoundaryNet, BoundaryNetConfig, BoundaryNetOutput
from tapgkit.data.features import VideoFeatureSequence
from tapgkit.errors import ConfigError, ShapeError
from tapgkit.representation import PreparedVideo, RepresentationConfig, SnippetRepresentation


class ProposalModel(Module):
    def __init__(self, rng: np.random.Generator, rep_cfg: RepresentationConfig,
                 net_cfg: BoundaryNetConfig):
        if rep_cfg.feature_dim != net_cfg.feature_dim:
            raise ConfigError(
                f"representation width {rep_cfg.feature_dim} != "
                f"boundary net input width {net_cfg.feature_dim}"
            )
        self.representation = SnippetRepresentation(rng, rep_cfg)
        self.boundary_net = BoundaryNet(rng, net_cfg)

    def _check(self, seq: VideoFeatureSequence) -> None:
        expected = self.boundary_net.cfg.num_snippets
        if seq.num_snippets != expected:
            raise ShapeError(
                f"{seq.video_id}: model expects {expected} snippets, got {seq.num_snippets}"
            )
        rep = self.representation.cfg
        # the environment is always read: it is the attention's scoring context
        for stream, width, got, read in zip(
                ("environment", "actor", "object"), (rep.env_dim, rep.actor_dim, rep.object_dim),
                seq.dims(), (True, rep.use_actors, rep.use_objects)):
            if read and width != got:
                raise ShapeError(f"{seq.video_id}: model reads {stream} width {width}, "
                                 f"the video has {got}")

    def __call__(self, seq: VideoFeatureSequence) -> BoundaryNetOutput:
        self._check(seq)
        return self.boundary_net(self.representation.video(seq))

    def prepare(self, seq: VideoFeatureSequence) -> PreparedVideo:
        """What ``forward`` needs of ``seq``, made once: valid while the fixed state stays."""
        self._check(seq)
        return self.representation.prepare(seq)

    def forward(self, prepared: PreparedVideo) -> BoundaryNetOutput:
        """``model(seq)`` from ``prepare(seq)``."""
        return self.boundary_net(self.representation.forward(prepared))
