"""End-to-end model: the representation and the proposal grid must agree."""

import dataclasses

import numpy as np
import pytest

from tapgkit.config import RunConfig, build_model
from tapgkit.data.synthetic import generate_corpus
from tapgkit.errors import ConfigError, ShapeError
from tapgkit.model import ProposalModel


def _configs(num_snippets=8):
    run = RunConfig()
    syn = dataclasses.replace(run.synthetic, num_videos=1, num_snippets=num_snippets,
                              max_action_len=4)
    model = build_model(run, generate_corpus(syn).features)
    return syn, model.representation.cfg, model.boundary_net.cfg


def test_width_mismatch_rejected():
    _, rep, net = _configs()
    with pytest.raises(ConfigError, match="width"):
        ProposalModel(np.random.default_rng(0), rep,
                      dataclasses.replace(net, feature_dim=rep.feature_dim + 1))


def test_snippet_count_mismatch_rejected():
    syn, rep, net = _configs(num_snippets=8)
    model = ProposalModel(np.random.default_rng(0), rep, net)
    seq = next(iter(generate_corpus(dataclasses.replace(syn, num_snippets=10))
                    .features.values()))
    with pytest.raises(ShapeError, match=f"{seq.video_id}: model expects 8 snippets, got 10"):
        model(seq)
