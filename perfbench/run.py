"""tapgkit benchmark: set-up, training, infer and eval, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run plus the tracing overhead. The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The lines before it are a readable table and a ``machine:`` JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
SETUP_REPEATS = 5
WORK_DIR = ROOT / "perfbench" / ".work"


def _import_program():
    """Import tapgkit from this checkout's ``src``; anything else is an error.

    BLAS threads are fixed first, before numpy loads its BLAS: one process,
    at most one thread per core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tapgkit
    except ImportError as err:
        sys.exit(f"perfbench: cannot import tapgkit from {ROOT / 'src'}: {err}")
    found = Path(tapgkit.__file__).resolve()
    if (ROOT / "src") not in found.parents:
        sys.exit(f"perfbench: tapgkit imported from {found}, not from {ROOT / 'src'}")


def machine_info(workload: str, seed: int, trace: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu,
        "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it. Below 20 samples that percentile would not exceed the median,
    so the maximum is reported, as percentile 100."""
    import numpy as np
    n = len(samples)
    if n == 0:
        return math.nan, math.nan
    if n < 20:
        return float(max(samples)), 100.0
    pct = 100.0 * (1.0 - 10.0 / n)
    return float(np.percentile(samples, pct)), pct


def _median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def setup_in_child(workload: str, seed: int, corpus_dir: Path) -> tuple[float, float]:
    """One cold set-up in a fresh interpreter, as a command-line user pays it:
    (seconds, seconds at the reference host speed)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe", str(corpus_dir)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["raw"], result["scaled"]


def run_cycles(prep, workload, init_state, initial_checkpoint, run_dir, seconds):
    """Whole cycles until another one would overrun ``seconds``; at least one."""
    import pipeline
    cycles = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        cycles.append(pipeline.run_cycle(prep, workload, init_state,
                                         initial_checkpoint, run_dir))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return cycles


def check_repeats(cycles, reference) -> None:
    for k, cycle in enumerate(cycles):
        if cycle.outputs() != reference.outputs():
            cycle.fail(1, f"cycle {k} outputs differ from the first run's on the same seed")


# The end-to-end metrics that gate a change. Their timings are scaled to the
# reference host speed (see pipeline.Stopwatch); the raw wall times and the
# throughputs are printed beside them but move with the host's speed spells.
GATED = ("setup_s", "train_step_ms_p50", "infer_video_ms_p50", "eval_s",
         "peak_rss_mib")


def end_to_end(cycles, setup_raw, setup_scaled, rss_mib) -> dict:
    """Every end-to-end value as name -> (value, unit), sample details included."""
    steps = [1000.0 * x for c in cycles for x in c.step.scaled]
    videos = [1000.0 * x for c in cycles for x in c.video.scaled]
    evals = [x for c in cycles for x in c.evaluation.scaled]
    calibrations = [x for c in cycles for w in (c.step, c.video, c.evaluation)
                    for x in w.calibrations]
    train_s = sum(c.train_s for c in cycles)
    infer_s = sum(c.infer_s for c in cycles)
    step_tail, step_pct = tail(steps)
    video_tail, video_pct = tail(videos)
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    return {
        "setup_s": (_median(setup_scaled), "s"),
        "train_step_ms_p50": (_median(steps), "ms"),
        "infer_video_ms_p50": (_median(videos), "ms"),
        "eval_s": (_median(evals), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "train_step_ms_tail": (step_tail, "ms"),
        "infer_video_ms_tail": (video_tail, "ms"),
        "setup_s_raw": (_median(setup_raw), "s"),
        "train_step_ms_p50_raw": (_median([1000.0 * x for c in cycles
                                           for x in c.step.raw]), "ms"),
        "infer_video_ms_p50_raw": (_median([1000.0 * x for c in cycles
                                            for x in c.video.raw]), "ms"),
        "eval_s_raw": (_median([x for c in cycles for x in c.evaluation.raw]), "s"),
        "train_videos_per_s": (sum(c.steps for c in cycles) / train_s
                               if train_s else math.nan, "videos/s"),
        "infer_videos_per_s": (sum(c.videos for c in cycles) / infer_s
                               if infer_s else math.nan, "videos/s"),
        "calibration_ms_p50": (_median(calibrations), "ms"),
        "failed_ops_share": (failed / attempted if attempted else math.nan, "ratio"),
        "ar_at_10": (cycles[0].ar_at_10, "ratio"),
        "ar_auc": (cycles[0].ar_auc, "%"),
        "cycles": (len(cycles), "count"),
        "setup_samples": (len(setup_scaled), "count"),
        "train_step_samples": (len(steps), "count"),
        "train_step_tail_percentile": (step_pct, "pct"),
        "infer_video_samples": (len(videos), "count"),
        "infer_video_tail_percentile": (video_pct, "pct"),
        "eval_samples": (len(evals), "count"),
    }


def peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
              work: Path) -> tuple[dict, dict, list]:
    import pipeline
    import tracer as tracing
    from tapgkit import training

    workload = pipeline.WORKLOADS[workload_name]
    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    try:
        prep = pipeline.prepare(workload, seed, work / "corpus")
    finally:
        tracer.remove()
    init_state = prep.model.state_dict()
    initial_checkpoint = work / "initial.tapg"
    training.save_training_state(initial_checkpoint, prep.model, 0)

    if not trace:
        children = [setup_in_child(workload_name, seed, work / f"setup{i}")
                    for i in range(1, SETUP_REPEATS)]
        setup_raw = prep.setup.raw + [raw for raw, _ in children]
        setup_scaled = prep.setup.scaled + [scaled for _, scaled in children]
        cycles = run_cycles(prep, workload, init_state, initial_checkpoint,
                            work / "run", seconds)
        check_repeats(cycles, cycles[0])
        values = end_to_end(cycles, setup_raw, setup_scaled, peak_rss_mib())
        metrics = {name: values.pop(name) for name in GATED}
        return metrics, values, cycles

    setup_spans = list(tracer.spans)
    tracer.spans.clear()
    plain = run_cycles(prep, workload, init_state, initial_checkpoint,
                       work / "run", seconds / 2)
    tracer.install()
    try:
        traced = run_cycles(prep, workload, init_state, initial_checkpoint,
                            work / "run", seconds / 2)
    finally:
        tracer.remove()
    cycles = plain + traced
    check_repeats(cycles, plain[0])
    leftovers = tracer.leftovers()
    if leftovers:
        traced[-1].fail(1, f"tracer left wrapped attributes behind: {leftovers}")

    plain_e2e = end_to_end(plain, prep.setup.raw, prep.setup.scaled, 0.0)
    traced_e2e = end_to_end(traced, prep.setup.raw, prep.setup.scaled, 0.0)
    metrics = {name: (value, tracing.unit_of(name))
               for name, value in tracing.layer_metrics(setup_spans, tracer.spans,
                                                         len(traced)).items()}
    for key, name in (("train_step_ms_p50", "tracing.train_step_overhead"),
                      ("infer_video_ms_p50", "tracing.infer_video_overhead")):
        metrics[name] = (traced_e2e[key][0] / plain_e2e[key][0] - 1.0, "ratio")
    metrics["evaluation.ar_at_10"] = (traced[0].ar_at_10, "ratio")
    metrics["evaluation.ar_auc"] = (traced[0].ar_auc, "%")
    notes = {"untraced_cycles": (len(plain), "count"),
             "traced_cycles": (len(traced), "count")}
    return metrics, notes, cycles


def _number(value) -> float:
    return float(value) if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="internal: time one set-up into DIR and exit")
    args = parser.parse_args(argv)

    _import_program()
    import pipeline
    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(pipeline.WORKLOADS)}")
    if args.setup_probe:
        prep = pipeline.prepare(pipeline.WORKLOADS[args.workload], args.seed,
                                Path(args.setup_probe))
        print(json.dumps({"raw": prep.setup.raw[0], "scaled": prep.setup.scaled[0]}))
        return 0

    print(f"machine: {json.dumps(machine_info(args.workload, args.seed, args.trace))}")
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, notes, cycles = benchmark(args.workload, args.seed, args.seconds,
                                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while not empty
            WORK_DIR.rmdir()

    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    problems = [p for c in cycles for p in c.problems]
    for problem in problems:
        print(f"  check failed: {problem}")
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": not problems and finite,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
