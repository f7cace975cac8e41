"""Training labels, losses and the epoch loop.

Labels live on the model's snippet axis. Boundary labels mark the snippets
whose +-1 window overlaps enough of a region around an action start (or end);
grid labels mark, for each action, the valid duration x start cell(s) whose
interval overlaps it best. Both are binary.

The boundary and grid probability losses share one form: binary cross
entropy with the positive and negative sets each normalized by their own
count, so sparse positives are not drowned out. The grid adds a
lambda-weighted mean squared error term. The per-video loss is the plain sum
of the start, end and grid terms.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.checkpoint import load_checkpoint, save_checkpoint
from tapgkit.autodiff.optim import Adam
from tapgkit.autodiff.tensor import Tape, Tensor
from tapgkit.boundary_net import valid_cells
from tapgkit.data.annotations import VideoAnnotation, check_corpus, rescale_action
from tapgkit.data.features import VideoFeatureSequence
from tapgkit.errors import (
    ConfigError,
    DegenerateInputError,
    EmptyInputError,
    FileFormatError,
    ShapeError,
)
from tapgkit.evaluation import interval_iou
from tapgkit.model import ProposalModel

log = logging.getLogger("tapgkit.training")

PROBABILITY_FLOOR = 1e-7
GRID_TIE_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def boundary_labels(points: list[float], num_snippets: int) -> np.ndarray:
    """Binary snippet labels around boundary points (starts or ends).

    Each point owns the region [p - 1.5, p + 1.5]; snippet t owns the window
    [t - 1, t + 1]. The label is 1 when the window captures at least half of
    its own width worth of region, summed over all points. Neither interval
    is clipped to the sequence.
    """
    t = np.arange(num_snippets, dtype=np.float64)
    covered = np.zeros(num_snippets)
    for p in points:
        overlap = np.minimum(t + 1.0, p + 1.5) - np.maximum(t - 1.0, p - 1.5)
        covered += np.maximum(0.0, overlap) / 3.0
    return (covered >= 0.5).astype(np.float64)


def grid_labels(segments: list[tuple[float, float]], num_snippets: int,
                max_duration: int) -> np.ndarray:
    """Binary (max_duration, T) labels: each action's best-overlap valid cell(s).

    Cell (r, t) covers [t, t + r + 1]. For every action the valid cells whose
    overlap is within a small tolerance of that action's maximum are set.
    """
    valid = valid_cells(num_snippets, max_duration)
    r = np.arange(max_duration, dtype=np.float64)[:, None]
    t = np.arange(num_snippets, dtype=np.float64)[None, :]
    starts = np.broadcast_to(t, (max_duration, num_snippets))
    ends = t + r + 1.0
    cells = np.stack([starts, ends], axis=-1)
    labels = np.zeros((max_duration, num_snippets))
    for s, e in segments:
        if not (s < e):
            raise DegenerateInputError(f"action segment [{s}, {e}] is empty")
        iou = interval_iou(cells, np.array([s, e]))
        iou = np.where(valid, iou, -1.0)
        best = iou.max()
        labels[iou >= best - GRID_TIE_TOLERANCE] = 1.0
    return labels


@dataclass
class VideoLabels:
    start: np.ndarray   # (T,)
    end: np.ndarray     # (T,)
    grid: np.ndarray    # (max_duration, T)


def video_labels(annotation: VideoAnnotation, num_snippets: int,
                 max_duration: int) -> VideoLabels:
    """Rescale a video's actions to the snippet axis and build all labels."""
    segments = [
        rescale_action(a.start, a.end, annotation.frame_count, annotation.fps, num_snippets)
        for a in annotation.annotations
    ]
    return VideoLabels(
        start=boundary_labels([s for s, _ in segments], num_snippets),
        end=boundary_labels([e for _, e in segments], num_snippets),
        grid=grid_labels(segments, num_snippets, max_duration),
    )


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def weighted_binary_loss(pred: Tensor, labels: np.ndarray) -> tuple[Tensor, bool]:
    """Count-balanced binary cross entropy, one ``T.binary_cross_entropy`` op.

    Positives and negatives are each averaged over their own population, on
    the prediction clipped to ``[PROBABILITY_FLOOR, 1 - PROBABILITY_FLOOR]``;
    an entry at or beyond either bound passes no gradient back. When one
    population is empty its term is dropped; the returned flag reports that
    degenerate case.
    """
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if labels.size == 0:
        raise EmptyInputError("loss over zero entries")
    if pred.data.size != labels.size:
        raise ShapeError(f"{pred.data.size} predictions for {labels.size} labels")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    degenerate = not (n_pos and n_neg)
    if degenerate:
        log.warning("one-sided labels (%d positive / %d negative): term dropped",
                    n_pos, n_neg)
    loss = T.binary_cross_entropy(
        pred, labels / n_pos if n_pos else None, (1.0 - labels) / n_neg if n_neg else None,
        PROBABILITY_FLOOR, 1.0 - PROBABILITY_FLOOR)
    return loss, degenerate


def proposal_grid_loss(pred: Tensor, labels: np.ndarray, valid: np.ndarray,
                       mse_weight: float) -> tuple[Tensor, Tensor, Tensor, bool]:
    """Grid loss over valid cells: balanced cross entropy + weighted MSE.

    ``pred`` holds one probability per valid cell of the ``valid`` grid, in
    row-major order, as ``BoundaryNet`` outputs it; ``labels`` is the whole
    grid, of which the valid cells are read. Both terms read the prediction
    clipped to ``[PROBABILITY_FLOOR, 1 - PROBABILITY_FLOOR]``, so a cell with
    p < 1e-7 or p > 1 - 1e-7 adds the MSE of the clipped value and passes no
    gradient back. Unclipped, the MSE gradient of a saturated sigmoid turns
    subnormal in float32 on its way back and slows every matrix product it
    reaches. Each term is one op (``T.binary_cross_entropy``,
    ``T.clipped_mse``) with an analytic backward.

    Returns (combined, cross_entropy_part, mse_part, degenerate_flag).
    """
    if labels.shape != valid.shape:
        raise ShapeError("label and validity grids must share a shape")
    cells = int(np.count_nonzero(valid))
    if cells == 0:
        raise EmptyInputError("no valid grid cells")
    if pred.data.size != cells:
        raise ShapeError(f"{pred.data.size} predictions for {cells} valid cells")
    flat_labels = labels[valid]
    wb, degenerate = weighted_binary_loss(pred, flat_labels)
    mse = T.clipped_mse(pred, flat_labels, PROBABILITY_FLOOR, 1.0 - PROBABILITY_FLOOR)
    return T.add(wb, T.scale(mse, mse_weight)), wb, mse, degenerate


@dataclass
class LossReport:
    total: float
    start: float
    end: float
    grid_ce: float
    grid_mse: float
    degenerate_terms: int


def total_loss(output, labels: VideoLabels, mse_weight: float) -> tuple[Tensor, LossReport]:
    """Sum of start, end and grid losses for one video."""
    loss_start, deg_s = weighted_binary_loss(output.start, labels.start)
    loss_end, deg_e = weighted_binary_loss(output.end, labels.end)
    loss_grid, grid_ce, grid_mse, deg_g = proposal_grid_loss(
        output.actionness, labels.grid, output.valid, mse_weight)
    total = T.add(T.add(loss_start, loss_end), loss_grid)
    report = LossReport(
        total=total.item(), start=loss_start.item(), end=loss_end.item(),
        grid_ce=grid_ce.item(), grid_mse=grid_mse.item(),
        degenerate_terms=int(deg_s) + int(deg_e) + int(deg_g),
    )
    return total, report


# ---------------------------------------------------------------------------
# epoch loop
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-3
    mse_weight: float = 10.0
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.mse_weight < 0:
            raise ConfigError("mse_weight must be non-negative")


@dataclass
class EpochReport:
    epoch: int
    mean_total: float
    mean_start: float
    mean_end: float
    mean_grid_ce: float
    mean_grid_mse: float
    degenerate_terms: int = 0

    def json_line(self) -> str:
        return json.dumps(asdict(self))


def train(model: ProposalModel, features: dict[str, VideoFeatureSequence],
          annotations: dict[str, VideoAnnotation], cfg: TrainConfig,
          log_stream=None, optimizer: Adam | None = None,
          start_epoch: int = 0, on_epoch=None) -> list[EpochReport]:
    """Run the epoch loop; one optimizer step per video.

    Video order is reshuffled every epoch from (seed, epoch), so a resumed
    run revisits the same order it would have seen uninterrupted. The corpus
    must pass ``check_corpus`` before the first step. Aborts on a non-finite
    loss. ``on_epoch(model, report)`` fires after every epoch.
    """
    cfg.validate()
    check_corpus(annotations, features)
    ids = sorted(features)

    net_cfg = model.boundary_net.cfg
    labels = {
        vid: video_labels(annotations[vid], net_cfg.num_snippets,
                          net_cfg.resolved_max_duration())
        for vid in ids
    }
    params = model.parameters()
    opt = optimizer or Adam(params, lr=cfg.learning_rate)

    reports: list[EpochReport] = []
    for epoch in range(start_epoch, cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(ids))
        batch: list[LossReport] = []
        for i in order:
            vid = ids[int(i)]
            with Tape() as tape:
                output = model(features[vid])
                loss, report = total_loss(output, labels[vid], cfg.mse_weight)
                if not np.isfinite(report.total):
                    raise DegenerateInputError(
                        f"non-finite loss on {vid} at epoch {epoch}: {report.total}")
                tape.backward(loss, params)
            opt.step()
            batch.append(report)
        epoch_report = EpochReport(
            epoch=epoch,
            mean_total=float(np.mean([r.total for r in batch])),
            mean_start=float(np.mean([r.start for r in batch])),
            mean_end=float(np.mean([r.end for r in batch])),
            mean_grid_ce=float(np.mean([r.grid_ce for r in batch])),
            mean_grid_mse=float(np.mean([r.grid_mse for r in batch])),
            degenerate_terms=sum(r.degenerate_terms for r in batch),
        )
        reports.append(epoch_report)
        log.info("epoch %d mean loss %.5f", epoch, epoch_report.mean_total)
        if log_stream is not None:
            log_stream.write(epoch_report.json_line() + "\n")
            log_stream.flush()
        if on_epoch is not None:
            on_epoch(model, epoch_report)
    return reports


# ---------------------------------------------------------------------------
# checkpointing with progress metadata
# ---------------------------------------------------------------------------

EPOCH_KEY = "meta.epochs_completed"


def _progress_count(path, name: str, value: np.ndarray) -> int:
    """A progress entry's value: one finite whole number >= 0, or FileFormatError."""
    if value.size != 1 or not float(value.item()).is_integer() or value.item() < 0:
        got = value.item() if value.size == 1 else f"shape {value.shape}"
        raise FileFormatError(f"{path}: entry {name!r} must be one whole number >= 0, got {got}")
    return int(value.item())


def save_training_state(path, model: ProposalModel, epochs_completed: int,
                        optimizer: Adam | None = None) -> None:
    """Write the parameters, the epoch count and, if given, Adam's step and moments."""
    state = model.state_dict()
    state[EPOCH_KEY] = np.array(float(epochs_completed))
    if optimizer is not None:
        state.update(optimizer.state_dict())
    save_checkpoint(path, state)


def load_training_state(path, model: ProposalModel, optimizer: Adam | None = None) -> int:
    """Restore parameters and, when the caller passes an optimizer, Adam's
    state, which the file must then hold for exactly this model; returns the
    number of completed epochs (0 if absent)."""
    state = load_checkpoint(path)
    epochs = _progress_count(path, EPOCH_KEY, state.pop(EPOCH_KEY)) if EPOCH_KEY in state else 0
    saved = {name: state.pop(name) for name in [n for n in state if n.startswith("optim.")]}
    model.load_state_dict(state)
    if optimizer is not None:
        if "optim.t" in saved:
            _progress_count(path, "optim.t", saved["optim.t"])
        try:
            optimizer.load_state_dict(saved)
        except ShapeError as err:
            raise FileFormatError(f"{path}: optimizer state does not match the model") from err
    return epochs
