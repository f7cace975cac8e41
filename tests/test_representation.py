"""Snippet fusion: shapes, stream ablations, gradient flow into projections,
and the one-pass video encoding against a snippet-by-snippet loop oracle."""

import dataclasses
import itertools

import numpy as np
import pytest

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.tensor import Tape
from tapgkit.data.features import SnippetBundle, VideoFeatureSequence
from tapgkit.errors import ConfigError
from tapgkit.representation import RepresentationConfig, SnippetRepresentation

from gradcheck import scalarize


def _bundle(rng, d_e=8, d_a=6, d_o=5, m=3, k=2):
    return SnippetBundle(
        environment=rng.standard_normal(d_e).astype(np.float32),
        actors=rng.standard_normal((m, d_a)).astype(np.float32),
        objects=rng.standard_normal((k, d_o)).astype(np.float32),
    )


def _cfg(**overrides):
    base = dict(env_dim=8, actor_dim=6, object_dim=5, feature_dim=10,
                attention_hidden=12)
    base.update(overrides)
    return RepresentationConfig(**base)


class TestShapes:
    def test_snippet_vector_width(self):
        rng = np.random.default_rng(0)
        model = SnippetRepresentation(rng, _cfg())
        out = model.snippet(_bundle(rng))
        assert out.data.shape == (10,)

    def test_video_matrix_is_feature_by_time(self):
        rng = np.random.default_rng(1)
        model = SnippetRepresentation(rng, _cfg())
        seq = VideoFeatureSequence("v", 16, [_bundle(rng) for _ in range(7)])
        assert model.video(seq).data.shape == (10, 7)

    def test_zero_actor_snippet_uses_default_vector(self):
        rng = np.random.default_rng(2)
        model = SnippetRepresentation(rng, _cfg())
        bundle = _bundle(rng, m=0)
        out, info = model.snippet_with_info(bundle)
        assert info["actors"].used_default
        assert out.data.shape == (10,)


class TestAblations:
    def test_all_streams_disabled_rejected(self):
        with pytest.raises(ConfigError):
            SnippetRepresentation(np.random.default_rng(0), _cfg(
                use_environment=False, use_actors=False, use_objects=False))

    def test_environment_only_has_no_attention_parameters(self):
        model = SnippetRepresentation(np.random.default_rng(3), _cfg(
            use_actors=False, use_objects=False))
        names = {name for name, _ in model.named_parameters()}
        assert all(not n.startswith(("actor_", "object_")) for n in names)
        rng = np.random.default_rng(4)
        assert model.snippet(_bundle(rng)).data.shape == (10,)

    def test_disabling_environment_forces_soft_attention(self):
        cfg = _cfg(use_environment=False, attention_mode="adaptive")
        assert cfg.effective_attention_mode() == "soft"
        model = SnippetRepresentation(np.random.default_rng(5), cfg)
        assert model.actor_attention.mode == "soft"
        assert model.env_proj is None
        rng = np.random.default_rng(6)
        out, info = model.snippet_with_info(_bundle(rng))
        assert out.data.shape == (10,)
        assert info["actors"].selected.size == 3  # soft keeps every row

    def test_stream_subsets_change_output(self):
        rng = np.random.default_rng(7)
        bundle = _bundle(rng)
        full = SnippetRepresentation(np.random.default_rng(8), _cfg())
        env_only = SnippetRepresentation(np.random.default_rng(8), _cfg(
            use_actors=False, use_objects=False))
        assert not np.allclose(full.snippet(bundle).data,
                               env_only.snippet(bundle).data)


class TestGradients:
    def test_every_enabled_projection_trains(self):
        rng = np.random.default_rng(9)
        model = SnippetRepresentation(rng, _cfg())
        bundle = _bundle(rng)
        with Tape() as tape:
            out = model.snippet(bundle)
            tape.backward(scalarize(out))
        for name in ("actor_proj", "object_proj", "env_proj", "interaction"):
            total = sum(np.abs(p.grad).sum()
                        for n, p in model.named_parameters() if n.startswith(name))
            assert total > 0.0, f"{name} received no gradient"

    def test_scoring_mlps_stay_frozen_in_adaptive_mode(self):
        rng = np.random.default_rng(10)
        model = SnippetRepresentation(rng, _cfg())
        bundle = _bundle(rng)
        with Tape() as tape:
            out = model.snippet(bundle)
            tape.backward(scalarize(out))
        for name, p in model.named_parameters():
            if ".candidate_embed" in name or ".context_embed" in name:
                assert np.abs(p.grad).sum() == 0.0, name


# -- loop oracle: the per-snippet composition, restated with 2-D ops ----------

def _attention_oracle(att, rows, context):
    """One snippet's fused vector, scored and selected on its own rows alone."""
    m = rows.data.shape[0]
    if m == 0:
        return att.default_output
    embedded = att.candidate_embed(rows)
    ctx = att.context_embed(T.reshape(context, (1, -1)))
    relevance = T.l2_norm(T.concat([embedded, T.concat([ctx] * m, axis=0)], axis=1),
                          axis=1)
    scores = T.softmax(relevance, axis=0)
    best = int(np.argmax(scores.data))
    if att.mode == "soft":
        return T.reshape(T.matmul(T.reshape(scores, (1, m)), rows), (-1,))
    if att.mode == "hard":
        return T.reshape(T.gather_rows(rows, [best]), (-1,))
    selected = np.flatnonzero(scores.data >= 1.0 / m)
    if selected.size == 0:
        selected = np.array([best])
    return T.mean(att.encoder(T.gather_rows(rows, selected)), axis=0)


def _snippet_oracle(model, bundle):
    cfg = model.cfg
    env = T.constant(bundle.environment)
    context = env if cfg.use_environment else T.constant(np.zeros(cfg.env_dim))
    rows = []
    for att, proj, cands in ((model.actor_attention, model.actor_proj, bundle.actors),
                             (model.object_attention, model.object_proj, bundle.objects)):
        if att is not None:
            fused = _attention_oracle(att, T.constant(cands), context)
            rows.append(proj(T.reshape(fused, (1, -1))))
    if model.env_proj is not None:
        rows.append(model.env_proj(T.reshape(env, (1, -1))))
    stacked = rows[0] if len(rows) == 1 else T.concat(rows, axis=0)
    return T.mean(model.interaction(stacked), axis=0)


def _video_oracle(model, seq):
    return T.transpose(T.stack([_snippet_oracle(model, b) for b in seq.snippets], axis=0))


def _uneven_video(seed):
    """Nine snippets with 0-5 actors and 0-3 objects, including empty ones."""
    rng = np.random.default_rng(seed)
    actors = [0, 3, 1, 5, 0, 2, 4, 0, 1]
    objects = [2, 0, 3, 1, 0, 1, 0, 2, 3]
    return VideoFeatureSequence("v", 16, [
        _bundle(rng, m=m, k=k) for m, k in zip(actors, objects)])


STREAMS = [s for s in itertools.product((True, False), repeat=3) if any(s)]


class TestVideoMatchesLoopOracle:
    @pytest.mark.parametrize("mode", ["adaptive", "soft", "hard"])
    @pytest.mark.parametrize("streams", STREAMS,
                             ids=lambda s: "-".join(n for n, on in zip(
                                 ("env", "actors", "objects"), s) if on))
    def test_columns_and_gradients(self, mode, streams):
        use_env, use_actors, use_objects = streams
        with T.default_dtype(np.float64):
            model = SnippetRepresentation(np.random.default_rng(11), _cfg(
                attention_mode=mode, use_environment=use_env,
                use_actors=use_actors, use_objects=use_objects))
            seq = _uneven_video(12)
            grads = []
            for forward in (model.video, lambda s: _video_oracle(model, s)):
                with Tape() as tape:
                    out = forward(seq)
                    tape.backward(scalarize(out))
                grads.append((out.data.copy(),
                              {n: p.grad.copy() for n, p in model.named_parameters()}))
            (got, got_grads), (want, want_grads) = grads
            assert got.shape == (10, 9)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            for name in want_grads:
                np.testing.assert_allclose(got_grads[name], want_grads[name],
                                           rtol=1e-9, atol=1e-12, err_msg=name)
