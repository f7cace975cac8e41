"""Time ``inference.suppress`` per preset in two checkouts, alternated.

The candidate rows are built once, from the change checkout:

- ``decode-flat``: every start/end pair of an untrained desk model (T = 32,
  496 rows a video), in seconds, on ``--videos`` synthetic videos;
- ``paper-grid``: flat T = D = 100 outputs that make every one of the 4,950
  pairs a candidate, one per video.

Each of ``--rounds`` rounds runs one subprocess per checkout, parent first in
even rounds and change first in odd ones. A subprocess imports tapgkit from
its checkout's ``src``, runs one untimed pass, then times ``--passes`` passes
of ``suppress`` over every video of a set under each preset, and reports the
median pass in ms per video. The table gives, per set and preset, the median
over rounds of each side, the rounds in which the change was lower, and how
the outputs compare: byte-identical, or the same kept rows in the same order
with the largest relative score difference, or different rows.

    python3 tools/suppress_timing.py --parent ../parent-checkout --out table.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PRESETS = ("anet-tapg-snms", "thumos-tapg-snms", "anet-tad-snms", "thumos-tad-nms")


def _import_tapgkit(root: Path):
    sys.path.insert(0, str(root / "src"))
    import tapgkit
    found = Path(tapgkit.__file__).resolve()
    if (root / "src").resolve() not in found.parents:
        sys.exit(f"suppress_timing: tapgkit imported from {found}, not from {root / 'src'}")


def build_sets(videos: int, seed: int) -> dict:
    """Candidate rows per set, one (n, 3) array per video."""
    import numpy as np
    from tapgkit.autodiff import tensor as T
    from tapgkit.boundary_net import BoundaryNetOutput, valid_cells
    from tapgkit.config import RunConfig, build_model
    from tapgkit.data.synthetic import generate_corpus
    from tapgkit.inference import pair_candidates

    run = RunConfig()
    run.synthetic = dataclasses.replace(run.synthetic, num_videos=videos,
                                        min_action_len=2, max_action_len=8, seed=seed)
    corpus = generate_corpus(run.synthetic)
    model = build_model(run, corpus.features)
    seconds = run.synthetic.snippet_stride / run.synthetic.fps
    flat = [pair_candidates(model(corpus.features[vid])) * [seconds, seconds, 1.0]
            for vid in sorted(corpus.features)]
    rng = np.random.default_rng(seed)
    valid = valid_cells(100, 100)
    grid = []
    for _ in range(videos):
        out = BoundaryNetOutput(
            start=T.constant(rng.uniform(0.5, 1.0, 100)),
            end=T.constant(rng.uniform(0.5, 1.0, 100)),
            actionness=T.constant(rng.uniform(0.05, 0.95, int(valid.sum()))),
            valid=valid)
        grid.append(pair_candidates(out) * [2.0, 2.0, 1.0])
    return {"decode-flat": flat, "paper-grid": grid}


def worker(sets_path: Path, out_path: Path, passes: int) -> None:
    """Time every preset on every set; write the timings and the outputs."""
    import numpy as np
    from tapgkit.inference import suppress, suppression_preset

    data = np.load(sets_path)
    sets: dict[str, list] = {}
    for key in sorted(data.files, key=lambda k: (k.split("/")[0], int(k.split("/")[1]))):
        sets.setdefault(key.split("/")[0], []).append(data[key])
    timings, outputs = {}, {}
    for name, videos in sets.items():
        for preset in PRESETS:
            cfg = suppression_preset(preset)
            for i, rows in enumerate(videos):          # untimed pass; keep its outputs
                outputs[f"{name}/{preset}/{i}"] = suppress(rows, cfg)
            samples = []
            for _ in range(passes):
                start = time.perf_counter()
                for rows in videos:
                    suppress(rows, cfg)
                samples.append((time.perf_counter() - start) * 1e3 / len(videos))
            timings[f"{name}/{preset}"] = statistics.median(samples)
    np.savez(out_path, **outputs)
    print(json.dumps(timings))


def _compare(parent_npz: Path, change_npz: Path) -> dict[str, str]:
    """Per set and preset: how the change's outputs compare with the parent's."""
    import numpy as np
    a, b = np.load(parent_npz), np.load(change_npz)
    verdicts: dict[str, list] = {}
    for key in a.files:
        group = key.rsplit("/", 1)[0]
        x, y = a[key], b[key]
        if x.tobytes() == y.tobytes():
            verdicts.setdefault(group, []).append(0.0)
        elif x.shape != y.shape or x[:, :2].tobytes() != y[:, :2].tobytes():
            verdicts.setdefault(group, []).append(None)
        else:
            verdicts.setdefault(group, []).append(
                float(np.max(np.abs(x[:, 2] - y[:, 2]) / np.abs(x[:, 2]))))
    out = {}
    for group, diffs in verdicts.items():
        if any(d is None for d in diffs):
            out[group] = "different kept rows"
        elif max(diffs) == 0.0:
            out[group] = "byte-identical"
        else:
            changed = sum(d > 0.0 for d in diffs)
            out[group] = (f"same rows and order; {changed}/{len(diffs)} videos differ in "
                          f"bits, max relative score difference {max(diffs):.3g}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, default=REPO,
                        help="root of the change checkout (default: this one)")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--passes", type=int, default=30)
    parser.add_argument("--videos", type=int, default=6)
    parser.add_argument("--seed", type=int, default=2411)
    parser.add_argument("--out", type=Path, help="write the table here as JSON")
    parser.add_argument("--worker", nargs=2, type=Path, metavar=("SETS", "OUT"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1 or args.videos < 1:
        parser.error("--rounds, --passes and --videos must be at least 1")
    if args.worker:
        _import_tapgkit(args.root)
        worker(*args.worker, args.passes)
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    _import_tapgkit(roots["change"])
    import numpy as np
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sets = build_sets(args.videos, args.seed)
        np.savez(tmp / "sets.npz", **{f"{name}/{i}": rows for name, videos in sets.items()
                                      for i, rows in enumerate(videos)})
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                done = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--root", str(roots[side]),
                     "--passes", str(args.passes),
                     "--worker", str(tmp / "sets.npz"), str(tmp / f"{side}.npz")],
                    capture_output=True, text=True, check=True)
                runs[side].append(json.loads(done.stdout.splitlines()[-1]))
            print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
        outputs = _compare(tmp / "parent.npz", tmp / "change.npz")

    table = {}
    for key in runs["parent"][0]:
        parent = [run[key] for run in runs["parent"]]
        change = [run[key] for run in runs["change"]]
        lower = sum(c < p for p, c in zip(parent, change))
        table[key] = {"parent_ms": round(statistics.median(parent), 3),
                      "change_ms": round(statistics.median(change), 3),
                      "change_lower_rounds": f"{lower}/{args.rounds}",
                      "outputs": outputs[key]}
    rows_per_video = {name: [len(rows) for rows in videos] for name, videos in sets.items()}
    result = {
        "method": (f"{args.rounds} rounds, one subprocess per checkout, parent first in "
                   f"even rounds; each reports the median of {args.passes} timed passes "
                   "in ms per video after one untimed pass; medians over rounds"),
        "seed": args.seed, "videos": args.videos, "rows_per_video": rows_per_video,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "table": table,
    }
    width = max(map(len, table))
    print(f"{'set/preset':<{width}}  parent ms  change ms  lower  outputs")
    for key, row in table.items():
        print(f"{key:<{width}}  {row['parent_ms']:9.3f}  {row['change_ms']:9.3f}  "
              f"{row['change_lower_rounds']:>5}  {row['outputs']}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
