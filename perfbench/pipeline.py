"""Workload definitions and the measured train -> infer -> eval cycle.

Every call into tapgkit goes through a module attribute (``training.train``,
``inference.generate_proposals``, ...), the same public calls the
``tapgkit`` command line makes, so the tracer in ``tracer.py`` sees them when
it replaces those attributes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import traceback
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tapgkit import evaluation, inference, model as model_mod, training
from tapgkit.autodiff.optim import Adam
from tapgkit.config import RunConfig, load_run_config
from tapgkit.data import annotations as annotations_io
from tapgkit.data import features as features_io
from tapgkit.data import synthetic


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_videos: int
    num_snippets: int
    min_action_len: int
    max_action_len: int
    num_samples: int
    preset: str
    train_epochs: int
    decode_trained: bool   # False: infer decodes the untrained initial checkpoint
    eval_repeats: int

    def run_config(self, seed: int) -> RunConfig:
        cfg = load_run_config()
        cfg.synthetic = dataclasses.replace(
            cfg.synthetic, num_videos=self.num_videos, num_snippets=self.num_snippets,
            min_action_len=self.min_action_len, max_action_len=self.max_action_len,
            seed=seed)
        cfg.boundary = dataclasses.replace(cfg.boundary, num_samples=self.num_samples)
        max_keep = cfg.suppression.max_keep
        cfg.suppression = inference.suppression_preset(self.preset)
        cfg.suppression.max_keep = max_keep
        cfg.training.epochs = self.train_epochs
        return cfg


# Each workload puts a different layer on top; see reference.json for the
# layer-to-metric predictions. Sizes other than the ones named are the
# default configuration (desk widths, T = D = 32 grid, N = 16 samples).
# paper-grid runs by hand but is not listed in BENCHMARK.json. Its per-video
# hard-NMS time and its eval time vary with the corpus seed (quartile spreads
# of 0.21 for the median video and 0.50 for eval over ten seeds), and a run
# long enough to average that out at T=100 does not fit the benchmark's time
# budget beside the other two workloads.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk",
            why="Default desk config (T=32, 20 videos, Soft-NMS), short training: "
                "representation, attention and the tape dominate; light decode, "
                "heaviest eval.",
            num_videos=20, num_snippets=32, min_action_len=2, max_action_len=8,
            num_samples=16, preset="anet-tapg-snms", train_epochs=2,
            decode_trained=True, eval_repeats=3),
        Workload(
            name="paper-grid",
            why="Paper grid T=D=100, N=32 at desk widths, hard NMS: the dense "
                "matching constant dominates set-up, steps and memory; decode "
                "pairs 4,950 candidates a video.",
            num_videos=10, num_snippets=100, min_action_len=6, max_action_len=25,
            num_samples=32, preset="thumos-tad-nms", train_epochs=1,
            decode_trained=False, eval_repeats=15),
        Workload(
            name="decode-flat",
            why="Untrained desk-shaped model decoded with Soft-NMS: 496 candidates a "
                "video, so per-pair pairing and soft suppression are nearly all "
                "the time.",
            num_videos=10, num_snippets=32, min_action_len=2, max_action_len=8,
            num_samples=16, preset="anet-tapg-snms", train_epochs=1,
            decode_trained=False, eval_repeats=4),
    )
}


# ---------------------------------------------------------------------------
# timing at a reference host speed
# ---------------------------------------------------------------------------

# Identical work on a shared host runs at speeds up to about 1.5x apart, in
# spells from a fraction of a second to minutes. A short calibration loop,
# timed right before and after every sample, measures the host's speed at
# that moment; each sample is scaled to the speed at which the loop takes
# CALIBRATION_MS. The calibration runs outside every timed region.
#
# The loop mixes the three kinds of work the workloads do: interpreter
# bytecode, numpy calls on tiny arrays (as in per-pair suppression) and small
# matrix products. It calls nothing in tapgkit, so no change to the program
# moves it.
CALIBRATION_MS = 2.0
_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((48, 48)) / 48.0
_CALIBRATION_PAIR = np.array([1.0, 3.0])


def calibration_ms() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    pair = _CALIBRATION_PAIR
    for _ in range(100):
        total += float(np.where(pair > 0.0, np.minimum(pair, 2.0) - np.maximum(pair, 0.5),
                                0.0).sum())
    m = _CALIBRATION_MATRIX
    for _ in range(30):
        m = np.tanh(m @ _CALIBRATION_MATRIX)
    return 1000.0 * (time.perf_counter() - start)


class Stopwatch:
    """Samples in seconds, raw and scaled to the reference host speed.

    The calibration taken on construction is the one before the first sample.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.calibrations = [calibration_ms()]
        self.overhead = 0.0   # wall time spent calibrating after the first

    def _calibrate(self) -> float:
        start = time.perf_counter()
        self.calibrations.append(calibration_ms())
        self.overhead += time.perf_counter() - start
        return self.calibrations[-1]

    def record(self, seconds: float) -> None:
        before = self.calibrations[-1]
        after = self._calibrate()
        self.raw.append(seconds)
        self.scaled.append(seconds * 2.0 * CALIBRATION_MS / (before + after))


# ---------------------------------------------------------------------------
# set-up: synthesize, write, load back, build the model
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    cfg: RunConfig
    annotations: dict
    features: dict
    model: model_mod.ProposalModel
    setup: Stopwatch


def prepare(workload: Workload, seed: int, corpus_dir: Path) -> Prepared:
    """What ``tapgkit synth`` and the set-up half of ``tapgkit train`` do."""
    setup = Stopwatch()
    start = time.perf_counter()
    cfg = workload.run_config(seed)
    synthetic.write_corpus(cfg.synthetic, corpus_dir)
    annotations = annotations_io.load_annotations(corpus_dir / "annotations.json")
    features = {}
    for vid in sorted(annotations):
        seq = features_io.load_features(corpus_dir / "features" / f"{vid}.feat", vid)
        seq.validate()
        features[vid] = seq
    first = features[min(features)]
    d_e, d_a, d_o = first.dims()
    rep_cfg = dataclasses.replace(cfg.representation, env_dim=d_e, actor_dim=d_a,
                                  object_dim=d_o)
    net_cfg = cfg.boundary.build(rep_cfg.feature_dim, first.num_snippets)
    model = model_mod.ProposalModel(np.random.default_rng(cfg.training.seed),
                                    rep_cfg, net_cfg)
    setup.record(time.perf_counter() - start)
    return Prepared(cfg, annotations, features, model, setup)


# ---------------------------------------------------------------------------
# one cycle: train from the initial weights, infer, evaluate
# ---------------------------------------------------------------------------

class StepClock(Adam):
    """Adam that stamps the end of every step.

    A step's wall time runs from the previous mark to the end of its own
    optimizer update. Marks are the start of ``train`` (so the first step
    also carries label building), the end of every step and the end of every
    epoch's checkpoint write.
    """

    def __init__(self, params, lr: float):
        super().__init__(params, lr=lr)
        self.watch = Stopwatch()
        self._mark = time.perf_counter()

    def mark(self) -> None:
        self._mark = time.perf_counter()

    def step(self) -> None:
        super().step()
        self.watch.record(time.perf_counter() - self._mark)
        self.mark()


@dataclass
class Cycle:
    step: Stopwatch = field(default_factory=Stopwatch)
    steps: int = 0
    train_s: float = 0.0   # phase wall time, calibration excluded
    video: Stopwatch = field(default_factory=Stopwatch)
    videos: int = 0
    infer_s: float = 0.0
    evaluation: Stopwatch = field(default_factory=Stopwatch)
    ar_at_10: float = math.nan
    ar_auc: float = math.nan
    epochs_jsonl: str = ""
    checkpoint: bytes = b""
    proposals_json: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)

    def outputs(self) -> tuple:
        """Everything a seeded cycle must reproduce bit for bit."""
        return (self.epochs_jsonl, self.checkpoint, self.proposals_json, self.ar_at_10)


def _report_failure(cycle: Cycle, ops: int, phase: str) -> None:
    traceback.print_exc(file=sys.stderr)
    cycle.fail(ops, f"{phase} raised {sys.exc_info()[1]!r}")


def run_cycle(prep: Prepared, workload: Workload, init_state: dict,
              initial_checkpoint: Path, run_dir: Path) -> Cycle:
    cycle = Cycle()
    cfg = prep.cfg
    model = prep.model
    n_videos = len(prep.features)
    run_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = run_dir / "checkpoint.tapg"
    log_path = run_dir / "epochs.jsonl"
    proposals_path = run_dir / "proposals.json"

    planned_steps = workload.train_epochs * n_videos
    cycle.attempted += planned_steps
    model.load_state_dict(init_state)
    clock = StepClock(model.parameters(), lr=cfg.training.learning_rate)

    def checkpoint_epoch(trained, report):
        training.save_training_state(checkpoint, trained, report.epoch + 1)
        clock.mark()

    start = time.perf_counter()
    clock.mark()
    try:
        with open(log_path, "w") as stream:
            reports = training.train(model, prep.features, prep.annotations, cfg.training,
                                     log_stream=stream, optimizer=clock,
                                     on_epoch=checkpoint_epoch)
    except Exception:
        _report_failure(cycle, planned_steps, "train")
        return cycle
    cycle.train_s = time.perf_counter() - start - clock.watch.overhead
    cycle.steps = planned_steps
    cycle.step = clock.watch
    cycle.epochs_jsonl = log_path.read_text()
    cycle.checkpoint = checkpoint.read_bytes()
    check_losses(cycle, cycle.epochs_jsonl, len(reports), workload.train_epochs, n_videos)

    source = checkpoint if workload.decode_trained else initial_checkpoint
    cycle.attempted += n_videos
    proposals = {}
    watch = cycle.video = Stopwatch()
    start = time.perf_counter()
    try:
        training.load_training_state(source, model)
        for vid in sorted(prep.features):
            seq = prep.features[vid]
            t0 = time.perf_counter()
            output = model(seq)
            proposals[vid] = inference.generate_proposals(
                output, seq.snippet_stride, prep.annotations[vid].fps, cfg.suppression)
            watch.record(time.perf_counter() - t0)
        inference.save_proposals(proposals_path, proposals)
    except Exception:
        _report_failure(cycle, n_videos - len(proposals) or 1, "infer")
        return cycle
    cycle.infer_s = time.perf_counter() - start - watch.overhead
    cycle.videos = n_videos
    cycle.proposals_json = proposals_path.read_text()
    max_keep = cfg.suppression.max_keep
    for vid, props in proposals.items():
        bad = proposal_problems(props, prep.annotations[vid].duration, max_keep)
        if bad:
            cycle.fail(1, f"{vid}: {bad[0]}")

    cycle.evaluation = Stopwatch()
    for _ in range(workload.eval_repeats):
        cycle.attempted += 1
        try:
            report, seconds = evaluate(proposals_path, prep.annotations, cfg)
        except Exception:
            _report_failure(cycle, 1, "eval")
            continue
        cycle.evaluation.record(seconds)
        loaded, curve, area, budgets = report
        cycle.ar_at_10 = budgets[10]
        cycle.ar_auc = area
        bad = roundtrip_problems(proposals, loaded) + recall_problems(curve, budgets)
        if bad:
            cycle.fail(1, f"eval: {bad[0]}")
    return cycle


def evaluate(proposals_path: Path, annotations: dict, cfg: RunConfig):
    """What ``tapgkit eval`` computes; returns its outputs and wall time."""
    start = time.perf_counter()
    loaded = inference.load_proposals(proposals_path)
    gt = {
        vid: np.array([[a.start, a.end] for a in ann.annotations],
                      dtype=np.float64).reshape(-1, 2)
        for vid, ann in annotations.items()
    }
    curve = evaluation.recall_curve(loaded, gt, cfg.evaluation)
    area = evaluation.curve_area(curve)
    budgets = {
        b: float(evaluation.recall_at_budget(loaded, gt, b, cfg.evaluation.tious).mean())
        for b in cfg.evaluation.report_budgets
    }
    return (loaded, curve, area, budgets), time.perf_counter() - start


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_losses(cycle: Cycle, jsonl: str, n_reports: int, epochs: int,
                 n_videos: int) -> None:
    lines = [json.loads(line) for line in jsonl.splitlines() if line.strip()]
    if n_reports != epochs or len(lines) != epochs:
        cycle.fail(n_videos * epochs, f"expected {epochs} epoch reports, got "
                                      f"{n_reports} returned and {len(lines)} logged")
        return
    for line in lines:
        losses = [v for k, v in line.items() if k.startswith("mean_")]
        if not all(math.isfinite(v) for v in losses):
            cycle.fail(n_videos, f"epoch {line['epoch']}: non-finite loss {line}")


def proposal_problems(props: list, duration: float, max_keep: int) -> list[str]:
    problems = []
    if len(props) > max_keep:
        problems.append(f"{len(props)} proposals exceed max_keep {max_keep}")
    for p in props:
        if not (0.0 <= p.start < p.end <= duration):
            problems.append(f"segment [{p.start}, {p.end}] outside [0, {duration}]")
        if not math.isfinite(p.score):
            problems.append(f"non-finite score {p.score}")
    scores = [p.score for p in props]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("scores not in descending order")
    return problems


def roundtrip_problems(saved: dict, loaded: dict) -> list[str]:
    def flat(props_by_video):
        return {vid: [(p.start, p.end, p.score) for p in props]
                for vid, props in props_by_video.items()}
    return [] if flat(saved) == flat(loaded) else ["proposals.json does not round-trip"]


def recall_problems(curve: np.ndarray, budgets: dict) -> list[str]:
    values = np.concatenate([np.asarray(curve, dtype=np.float64),
                             np.array(list(budgets.values()), dtype=np.float64)])
    if not np.all((values >= 0.0) & (values <= 1.0)):
        return [f"recall outside [0, 1]: {values.min()} .. {values.max()}"]
    return []
