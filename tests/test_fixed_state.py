"""Parameters versus fixed state: only tensors a loss can reach are trained."""

import dataclasses
import itertools

import numpy as np
import pytest

from tapgkit.attention import MODES, AdaptiveAttention
from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.tensor import Tape
from tapgkit.config import RunConfig, build_model
from tapgkit.data.features import VideoFeatureSequence
from tapgkit.data.synthetic import generate_corpus
from tapgkit.training import TrainConfig, total_loss, train, video_labels

_ENCODER = ["query.weight", "key.weight", "value.weight", "ffn_in.weight", "ffn_in.bias",
            "ffn_out.weight", "ffn_out.bias"]
_SCORER = [f"{mlp}.layers.{i}.{w}" for mlp in ("candidate_embed", "context_embed")
           for i in (0, 1) for w in ("weight", "bias")]

# the default model's checkpoint entries, in order
DEFAULT_STATE_NAMES = (
    [f"representation.{stream}_attention.{name}" for stream in ("actor", "object")
     for name in _SCORER + [f"encoder.{e}" for e in _ENCODER] + ["default_output"]]
    + [f"representation.{stream}_proj.{w}" for stream in ("actor", "object", "env")
       for w in ("weight", "bias")]
    + [f"representation.interaction.{e}" for e in _ENCODER]
    + [f"boundary_net.{layer}.{w}"
       for layer in ("trunk1", "trunk2", "boundary1", "boundary2", "sample_collapse",
                     "grid1", "grid2", "grid3")
       for w in ("weight", "bias")]
)

TRAINED_IN = {
    "adaptive": [f"encoder.{e}" for e in _ENCODER] + ["default_output"],
    "soft": _SCORER + ["default_output"],
    "hard": ["default_output"],
}


# (use_environment, use_actors, use_objects): every non-empty stream subset
STREAMS = [s for s in itertools.product((True, False), repeat=3) if any(s)]


def _default_model(num_videos=1, **representation):
    run = RunConfig()
    run.representation = dataclasses.replace(run.representation, **representation)
    corpus = generate_corpus(dataclasses.replace(run.synthetic, num_videos=num_videos))
    return corpus, build_model(run, corpus.features, 0)


@pytest.mark.parametrize("mode", MODES)
def test_attention_mode_splits_parameters_from_fixed_state(mode):
    module = AdaptiveAttention(np.random.default_rng(0), 6, 5, hidden_dim=8, mode=mode)
    state = dict(module.named_state())
    assert list(state) == _SCORER + [f"encoder.{e}" for e in _ENCODER] + ["default_output"]
    assert [n for n, _ in module.named_parameters()] == TRAINED_IN[mode]
    for name, t in state.items():
        if name not in TRAINED_IN[mode]:
            assert not t.requires_grad and t.grad is None, name


@pytest.mark.parametrize("mode", ["adaptive", "hard"])
def test_fixed_scorer_records_nothing(mode):
    module = AdaptiveAttention(np.random.default_rng(1), 6, 5, hidden_dim=8, mode=mode)
    rng = np.random.default_rng(2)
    with Tape() as tape:
        module(T.constant(rng.standard_normal((4, 6))), T.constant(rng.standard_normal(5)))
    read = {id(t) for rec in tape._records for t in rec.inputs}
    assert not read & {id(t) for _, t in module.named_state() if not t.requires_grad}
    # hard mode picks one constant row; adaptive records the fusion encoder alone
    assert (len(tape) == 0) == (mode == "hard")


def test_default_model_state_names_and_counts():
    _, model = _default_model()
    assert len(DEFAULT_STATE_NAMES) == 61
    assert list(model.state_dict()) == DEFAULT_STATE_NAMES
    fixed = [n for n, t in model.named_state() if not t.requires_grad]
    assert fixed == [f"representation.{s}_attention.{n}" for s in ("actor", "object")
                     for n in _SCORER]
    assert sum(p.size for p in model.parameters()) == 107_523
    assert sum(t.size for _, t in model.named_state()) == 128_515


def test_fixed_state_survives_training_and_loading():
    corpus, model = _default_model(num_videos=2)
    fixed = {n: t.data.copy() for n, t in model.named_state() if not t.requires_grad}
    trunk = model.boundary_net.trunk1.weight.data.copy()
    train(model, corpus.features, corpus.annotations, TrainConfig(epochs=1, seed=0))
    assert not np.array_equal(model.boundary_net.trunk1.weight.data, trunk)
    for name, t in model.named_state():
        if name in fixed:
            assert np.array_equal(t.data, fixed[name]) and t.grad is None, name

    _, fresh = _default_model()
    for _, t in fresh.named_state():
        t.data = t.data + 1.0
    fresh.load_state_dict(model.state_dict())
    for (name, a), (_, b) in zip(model.named_state(), fresh.named_state()):
        assert np.array_equal(a.data, b.data), name
        assert a.requires_grad == b.requires_grad, name
        assert b.grad is None if name in fixed else not np.any(b.grad), name


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("streams", STREAMS, ids=lambda s: "+".join(
    name for name, on in zip(("env", "actors", "objects"), s) if on))
def test_every_parameter_gets_a_gradient_and_fixed_state_stays(streams, mode):
    env, actors, objects = streams
    corpus, model = _default_model(attention_mode=mode, use_environment=env,
                                   use_actors=actors, use_objects=objects)
    seq = next(iter(corpus.features.values()))
    snippets = list(seq.snippets)
    assert any(len(b.actors) == 0 for b in snippets)
    snippets[1] = dataclasses.replace(snippets[1], objects=snippets[1].objects[:0])
    seq = VideoFeatureSequence(seq.video_id, seq.snippet_stride, snippets)
    net = model.boundary_net.cfg
    labels = video_labels(corpus.annotations[seq.video_id], net.num_snippets,
                          net.resolved_max_duration())
    with Tape() as tape:
        loss, _ = total_loss(model(seq), labels, RunConfig().training.mse_weight)
        tape.backward(loss, model.parameters())
    for name, p in model.named_parameters():
        assert np.any(p.grad != 0.0), name

    fixed = {n: t.data.copy() for n, t in model.named_state() if not t.requires_grad}
    train(model, {seq.video_id: seq}, corpus.annotations, TrainConfig(epochs=1, seed=0))
    for name, t in model.named_state():
        if name in fixed:
            assert np.array_equal(t.data, fixed[name]) and t.grad is None, name
