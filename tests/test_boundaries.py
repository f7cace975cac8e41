"""Every config dataclass's ``validate`` against hostile values.

Each field in turn gets NaN, +-inf, +-1e308, 1e-320, 0, negatives, fractions
and the bools (a tuple field gets them as one of its entries). Each case
either raises a ``TapgkitError`` subclass at ``validate``, or its consumer
runs on a one-video desk input with no error but a typed one (a Soft-NMS
distance weight of 1e308 is refused by ``suppress``, which sees the rows);
a RuntimeWarning fails under the suite's filter.
"""

import dataclasses
import math

import numpy as np
import pytest

from tapgkit.boundary_net import BoundaryNetConfig
from tapgkit.config import BoundaryNetSettings, RunConfig, build_model
from tapgkit.data.synthetic import SyntheticConfig, generate_corpus
from tapgkit.errors import TapgkitError
from tapgkit.evaluation import EvalConfig, ground_truth, recall_curve
from tapgkit.inference import (
    HardSuppressionConfig,
    SoftSuppressionConfig,
    decode_corpus,
    suppression_preset,
)
from tapgkit.model import ProposalModel
from tapgkit.representation import RepresentationConfig
from tapgkit.training import TrainConfig, train


def _hostile_values():
    rng = np.random.default_rng(30)
    return [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, 0, 0.0, -1,
            -float(rng.uniform(0.0, 1e3)), 2.5, float(rng.integers(1, 64)) + 0.5,
            True, False]


HOSTILE = _hostile_values()


@pytest.fixture(scope="module")
def desk():
    """One desk video, a desk model over it, and its decoded proposals."""
    corpus = generate_corpus(SyntheticConfig(num_videos=1))
    model = build_model(RunConfig(), corpus.features)
    proposals, _ = decode_corpus(model, corpus.features, corpus.annotations,
                                 suppression_preset("anet-tapg-snms"))
    return corpus, model, proposals


def _model(rep_cfg=None, net_cfg=None):
    return ProposalModel(np.random.default_rng(0), rep_cfg or RepresentationConfig(),
                         net_cfg or RunConfig().boundary.build(32, 32))


def _run_synthetic(cfg, desk):
    generate_corpus(cfg)


def _run_representation(cfg, desk):
    (seq,) = desk[0].features.values()
    _model(rep_cfg=cfg)(seq)


def _run_boundary_net(cfg, desk):
    (seq,) = desk[0].features.values()
    _model(net_cfg=cfg)(seq)


def _run_settings(cfg, desk):
    corpus = desk[0]
    (seq,) = corpus.features.values()
    build_model(RunConfig(boundary=cfg), corpus.features)(seq)


def _run_training(cfg, desk):
    corpus = desk[0]
    train(build_model(RunConfig(), corpus.features), corpus.features,
          corpus.annotations, cfg)


def _run_suppression(cfg, desk):
    corpus, model, _ = desk
    decode_corpus(model, corpus.features, corpus.annotations, cfg)


def _run_evaluation(cfg, desk):
    corpus, _, proposals = desk
    curve = recall_curve(proposals, ground_truth(corpus.annotations), cfg)
    [curve[b - 1] for b in cfg.report_budgets]


# (a valid config, how it is validated, its consumer)
CONFIGS = {
    "synthetic": (SyntheticConfig(num_videos=1), SyntheticConfig.validate, _run_synthetic),
    "representation": (RepresentationConfig(), RepresentationConfig.validate,
                       _run_representation),
    "boundary_net": (RunConfig().boundary.build(32, 32), BoundaryNetConfig.validate,
                     _run_boundary_net),
    "boundary_settings": (BoundaryNetSettings(), lambda s: s.build(32, 32), _run_settings),
    "training": (TrainConfig(epochs=1), TrainConfig.validate, _run_training),
    "soft_suppression": (suppression_preset("anet-tapg-snms"), SoftSuppressionConfig.validate,
                         _run_suppression),
    "hard_suppression": (suppression_preset("thumos-tad-nms"), HardSuppressionConfig.validate,
                         _run_suppression),
    "evaluation": (EvalConfig(max_budget=10, report_budgets=(1, 5, 10)), EvalConfig.validate,
                   _run_evaluation),
}


def _cases(base):
    for field in dataclasses.fields(base):
        value = getattr(base, field.name)
        for bad in HOSTILE:
            yield field.name, (*value[:-1], bad) if isinstance(value, tuple) else bad


@pytest.mark.parametrize("name", list(CONFIGS))
def test_hostile_values_fail_typed_at_validate_or_run(name, desk):
    base, validate, run = CONFIGS[name]
    run(base, desk)
    failures = []
    for field, bad in _cases(base):
        cfg = dataclasses.replace(base, **{field: bad})
        try:
            validate(cfg)
        except TapgkitError:
            continue
        try:
            run(cfg, desk)
        except TapgkitError:
            continue
        except Exception as err:      # noqa: BLE001 - collected and reported below
            failures.append(f"{field}={bad!r}: {type(err).__name__}: {err}")
    assert not failures, "\n".join(failures)
