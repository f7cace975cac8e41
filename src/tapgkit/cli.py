"""Command line interface.

Subcommands cover the full loop: ``config`` writes a starter configuration,
``synth`` generates a corpus, ``train`` fits a model, ``infer`` decodes
proposals, ``eval`` scores them, and ``sweep`` reruns short trainings over a
list of grid-loss MSE weights.

Every data-producing command prints a one-line JSON manifest of its resolved
configuration to stdout, so runs are reproducible from captured logs alone.
Failures exit nonzero with a one-line JSON error on stderr. Set TAPGKIT_LOG
(DEBUG, INFO, WARNING, ERROR) to control log verbosity.

Result files (the configuration written by ``config --out``, checkpoints,
proposals, manifest.json, report.json, the AR curve files and sweep results)
are replaced in one step by ``files.write_atomic``, so an interrupted command
leaves the previous file intact; ``epochs.jsonl`` is an append log. A
checkpoint holds the optimizer state too, so ``train --resume`` continues
exactly where the interrupted run stopped.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from tapgkit.autodiff.optim import Adam
from tapgkit.config import (
    RunConfig,
    build_model,
    describe,
    load_run_config,
    render,
    write_default_config,
)
from tapgkit.data.annotations import load_annotations
from tapgkit.data.synthetic import load_corpus, write_corpus
from tapgkit.errors import ConfigError, TapgkitError
from tapgkit.evaluation import (
    average_recall,
    curve_area,
    ground_truth,
    recall_at_budget,
    recall_curve,
)
from tapgkit.files import write_atomic
from tapgkit.inference import (
    decode_corpus,
    load_proposals,
    save_proposals,
    suppression_preset,
)
from tapgkit.training import (
    load_training_state,
    save_training_state,
    train,
)

log = logging.getLogger("tapgkit.cli")


def _init_logging() -> None:
    level_name = os.environ.get("TAPGKIT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _print_manifest(command: str, cfg: RunConfig, extra: dict | None = None) -> None:
    payload = {"command": command, "config": describe(cfg)}
    if extra:
        payload.update(extra)
    print(json.dumps(payload, sort_keys=True))


def _environment() -> dict:
    """What a seeded run's bits depend on besides the seed and the config:
    the numpy build, its BLAS library and the BLAS thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):    # numpy before 2.0 has no dict mode
        library = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {
        "numpy": np.__version__,
        "blas": library,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_affinity": affinity,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_config(args) -> int:
    if args.out:
        write_default_config(args.out)
        print(json.dumps({"command": "config", "written": str(args.out)}))
    else:
        sys.stdout.write(render(RunConfig()))
    return 0


def _cmd_synth(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.synthetic.seed = args.seed
    out_dir = Path(args.out) if args.out else cfg.data_root
    corpus = write_corpus(cfg.synthetic, out_dir)
    _print_manifest("synth", cfg, {
        "out": str(out_dir),
        "videos": len(corpus.annotations),
        "classes": corpus.class_names,
    })
    return 0


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.training.seed = args.seed
    if args.epochs is not None:
        cfg.training.epochs = args.epochs
    data_root = Path(args.data) if args.data else cfg.data_root
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    annotations, features = load_corpus(data_root)
    model = build_model(cfg, features, cfg.training.seed)
    optimizer = Adam(model.parameters(), lr=cfg.training.learning_rate)
    start_epoch = 0
    if args.resume:
        start_epoch = load_training_state(args.resume, model, optimizer)
        log.info("resumed from %s at epoch %d", args.resume, start_epoch)
    if start_epoch >= cfg.training.epochs:
        raise ConfigError(f"nothing to do: checkpoint already at epoch {start_epoch} "
                          f"of {cfg.training.epochs}")

    _print_manifest("train", cfg, {"data": str(data_root), "out": str(out_dir),
                                   "start_epoch": start_epoch})
    checkpoint_path = out_dir / "checkpoint.tapg"

    def checkpoint_epoch(trained_model, report):
        save_training_state(checkpoint_path, trained_model, report.epoch + 1, optimizer)

    with open(out_dir / "epochs.jsonl", "a" if args.resume else "w") as stream:
        reports = train(model, features, annotations, cfg.training,
                        log_stream=stream, optimizer=optimizer, start_epoch=start_epoch,
                        on_epoch=checkpoint_epoch)
    final = reports[-1].mean_total if reports else float("nan")
    trainable = sum(p.size for p in model.parameters())
    manifest = describe(cfg)
    manifest["run"] = {
        "data": str(data_root),
        "videos": len(features),
        "epochs_completed": start_epoch + len(reports),
        "final_mean_loss": final,
        "trainable_parameters": trainable,
        "fixed_parameters": sum(t.size for _, t in model.named_state()) - trainable,
    }
    manifest["environment"] = _environment()
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2))
    print(json.dumps({"command": "train", "epochs": len(reports),
                      "final_mean_loss": final,
                      "checkpoint": str(checkpoint_path)}))
    return 0


def _cmd_infer(args) -> int:
    cfg = load_run_config(args.config)
    if args.preset:
        cfg.suppression = suppression_preset(args.preset)
    data_root = Path(args.data) if args.data else cfg.data_root
    annotations, features = load_corpus(data_root)
    model = build_model(cfg, features, cfg.training.seed)
    load_training_state(args.checkpoint, model)
    proposals, decode = decode_corpus(model, features, annotations, cfg.suppression)
    save_proposals(args.out, proposals)
    _print_manifest("infer", cfg, {
        "checkpoint": str(args.checkpoint),
        "out": str(args.out),
        "videos": len(proposals),
        "proposals": sum(len(v) for v in proposals.values()),
        "decode": decode,
    })
    return 0


def _cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    proposals = load_proposals(args.proposals)
    annotations = load_annotations(args.annotations)
    gt = ground_truth(annotations)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    curve = recall_curve(proposals, gt, cfg.evaluation)
    area = curve_area(curve)
    budget_recalls = {
        str(b): float(recall_at_budget(proposals, gt, b, cfg.evaluation.tious, warn=False).mean())
        for b in cfg.evaluation.report_budgets
    }
    report = {
        "num_videos": len(gt),
        "tious": list(cfg.evaluation.tious),
        "area_under_recall_curve": area,
        "average_recall_at_budget": budget_recalls,
    }
    write_atomic(out_dir / "report.json", json.dumps(report, indent=2))
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(["budget", "average_recall"])
    for i, r in enumerate(curve, start=1):
        writer.writerow([i, f"{r:.6f}"])
    write_atomic(out_dir / "ar_curve.csv", table.getvalue())
    write_atomic(out_dir / "ar_curve.svg", _curve_svg(curve))
    _print_manifest("eval", cfg, {"out": str(out_dir), **report})
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_run_config(args.config)
    if args.epochs is not None:
        cfg.training.epochs = args.epochs
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values must be a comma list of numbers: {args.values!r}")
    if not values:
        raise ConfigError("--values lists no weights")
    data_root = Path(args.data) if args.data else cfg.data_root
    annotations, features = load_corpus(data_root)
    gt = ground_truth(annotations)

    results = []
    for weight in values:
        run_cfg = dataclasses.replace(cfg.training, mse_weight=weight)
        model = build_model(cfg, features, run_cfg.seed)
        reports = train(model, features, annotations, run_cfg)
        proposals, _ = decode_corpus(model, features, annotations, cfg.suppression)
        ar10 = average_recall(proposals, gt, 10, cfg.evaluation.tious)
        results.append({
            "mse_weight": weight,
            "final_mean_loss": reports[-1].mean_total,
            "average_recall_at_10": ar10,
        })
        log.info("sweep weight %.3g: loss %.5f, AR@10 %.4f",
                 weight, reports[-1].mean_total, ar10)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, json.dumps(results, indent=2))
    _print_manifest("sweep", cfg, {"out": str(out), "results": results})
    return 0


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

def _curve_svg(recalls: np.ndarray) -> str:
    """Recall-vs-budget line chart as a standalone SVG document."""
    width, height = 640, 400
    left, right, top, bottom = 60, 20, 20, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    n = len(recalls)

    def x(budget: float) -> float:
        return left + (budget - 1) / max(n - 1, 1) * plot_w

    def y(recall: float) -> float:
        return top + (1.0 - recall) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        gy = y(frac)
        parts.append(f'<line x1="{left}" y1="{gy:.1f}" x2="{width - right}" '
                     f'y2="{gy:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{left - 8}" y="{gy + 4:.1f}" font-size="12" '
                     f'text-anchor="end" fill="#444">{frac:.1f}</text>')
    ticks = sorted({1, max(1, n // 4), max(1, n // 2), max(1, 3 * n // 4), n})
    for b in ticks:
        bx = x(b)
        parts.append(f'<line x1="{bx:.1f}" y1="{top + plot_h}" x2="{bx:.1f}" '
                     f'y2="{top + plot_h + 5}" stroke="#444"/>')
        parts.append(f'<text x="{bx:.1f}" y="{top + plot_h + 20}" font-size="12" '
                     f'text-anchor="middle" fill="#444">{b}</text>')
    parts.append(f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="#444"/>')
    points = " ".join(f"{x(i + 1):.1f},{y(r):.1f}" for i, r in enumerate(recalls))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="2"/>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle" fill="#222">proposals per video</text>')
    parts.append(f'<text x="16" y="{top + plot_h / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" fill="#222" '
                 f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">average recall</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapgkit",
        description="temporal action proposal toolkit: generate, train, decode, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="write or print the default configuration")
    p.add_argument("--out", help="destination INI path (stdout when omitted)")
    p.set_defaults(func=_cmd_config)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--out", help="corpus directory (default: [data] root)")
    p.add_argument("--seed", type=int, help="override the generator seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--data", help="corpus directory (default: [data] root)")
    p.add_argument("--out", required=True, help="run directory for checkpoint and logs")
    p.add_argument("--epochs", type=int, help="override the epoch count")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="decode proposals with a trained model")
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--data", help="corpus directory (default: [data] root)")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--out", required=True, help="output proposal JSON path")
    p.add_argument("--preset", help="suppression preset name override")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="score proposals against annotations")
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--proposals", required=True, help="proposal JSON path")
    p.add_argument("--annotations", required=True, help="annotation JSON path")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="rerun training over several grid MSE weights")
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--data", help="corpus directory (default: [data] root)")
    p.add_argument("--values", required=True,
                   help="comma list of MSE weights, e.g. 1,5,10,15,20,30")
    p.add_argument("--epochs", type=int, help="override the epoch count per run")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    _init_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TapgkitError as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
        return 2
    except OSError as err:
        print(json.dumps({"error": "OSError", "message": str(err)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
