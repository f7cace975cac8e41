"""The suppression timing tool in tools/suppress_timing.py, on tiny sets."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from tapgkit.inference import suppress, suppression_preset

_spec = importlib.util.spec_from_file_location(
    "tools_suppress_timing",
    Path(__file__).resolve().parent.parent / "tools" / "suppress_timing.py")
timing = sys.modules["tools_suppress_timing"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(timing)


def _sets(tmp_path):
    rng = np.random.default_rng(0)
    starts = rng.uniform(0.0, 10.0, (2, 30))
    rows = [np.column_stack([s, s + rng.uniform(0.5, 4.0, 30), rng.uniform(0.1, 1.0, 30)])
            for s in starts]
    path = tmp_path / "sets.npz"
    np.savez(path, **{"decode-flat/0": rows[0], "decode-flat/1": rows[1],
                      "paper-grid/0": rows[1]})
    return path, rows


def test_worker_times_every_preset_and_keeps_its_outputs(tmp_path, capsys):
    path, rows = _sets(tmp_path)
    timing.worker(path, tmp_path / "out.npz", passes=2)
    timings = json.loads(capsys.readouterr().out)
    assert sorted(timings) == sorted(f"{name}/{preset}" for name in ("decode-flat", "paper-grid")
                                     for preset in timing.PRESETS)
    assert all(ms > 0.0 for ms in timings.values())
    outputs = np.load(tmp_path / "out.npz")
    for preset in timing.PRESETS:
        for i, r in enumerate(rows):
            want = suppress(r, suppression_preset(preset))
            assert outputs[f"decode-flat/{preset}/{i}"].tobytes() == want.tobytes()


def test_compare_names_bits_rows_and_identity(tmp_path):
    kept = np.array([[0.0, 1.0, 0.9], [2.0, 3.0, 0.5]])
    bits = kept.copy()
    bits[1, 2] = np.nextafter(0.5, 1.0)
    np.savez(tmp_path / "parent.npz", **{"s/a/0": kept, "s/b/0": kept, "s/b/1": kept,
                                         "s/c/0": kept})
    np.savez(tmp_path / "change.npz", **{"s/a/0": kept, "s/b/0": bits, "s/b/1": kept,
                                         "s/c/0": kept[:1]})
    verdicts = timing._compare(tmp_path / "parent.npz", tmp_path / "change.npz")
    assert verdicts["s/a"] == "byte-identical"
    assert verdicts["s/b"].startswith("same rows and order; 1/2 videos differ in bits, "
                                      "max relative score difference 2.22e-16")
    assert verdicts["s/c"] == "different kept rows"
