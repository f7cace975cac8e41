"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench/tests``."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import pipeline
import run
import tracer as tracing
from tapgkit import training
from tapgkit.autodiff import layers, tensor

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# the same code paths as the real workloads at toy sizes
MINIATURES = {
    "desk": dict(num_videos=2, num_snippets=10, max_action_len=4, train_epochs=1),
    "paper-grid": dict(num_videos=2, num_snippets=14, min_action_len=2,
                       max_action_len=6, num_samples=6, train_epochs=1, eval_repeats=1),
    "decode-flat": dict(num_videos=2, num_snippets=10, max_action_len=4),
}


@pytest.fixture
def miniature(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for name, sizes in MINIATURES.items():
        monkeypatch.setitem(pipeline.WORKLOADS, name,
                            dataclasses.replace(pipeline.WORKLOADS[name], **sizes))


def test_spec_workloads_are_defined_here():
    for entry in SPEC["workloads"]:
        assert pipeline.WORKLOADS[entry["name"]].why == entry["why"]


def _span(start, end, parent=None):
    return tracing.Span("s", parent, start, end)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0.0, 10.0)
    # overlapping children count once; a child running past the end is clipped
    children = [_span(1.0, 3.0, parent), _span(2.0, 5.0, parent), _span(8.0, 12.0, parent)]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert tracing.self_time(parent, []) == pytest.approx(10.0)


def test_span_table_self_time_uses_direct_children():
    root = _span(0.0, 10.0)
    child = tracing.Span("child", root, 2.0, 6.0)
    grandchild = tracing.Span("grandchild", child, 3.0, 4.0)
    table = tracing.SpanTable([root, child, grandchild])
    assert table.self_ms("s") == pytest.approx(6000.0)
    assert table.self_ms("child") == pytest.approx(3000.0)
    assert table.ms("child") == pytest.approx(4000.0)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0, 5.0, 2.0]) == (5.0, 100.0)
    value, pct = run.tail(list(range(100)))
    assert pct == pytest.approx(90.0)
    assert value == pytest.approx(np.percentile(range(100), 90.0))


def test_tracer_records_and_then_removes_every_wrapper(tmp_path, miniature):
    originals = (training.train, tensor.matmul, tensor.Tape.backward,
                 layers.Conv1d.__call__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert training.train is not originals[0]
        assert "__call__" in vars(layers.Conv1d)
        prep = pipeline.prepare(pipeline.WORKLOADS["desk"], 3, tmp_path / "corpus")
        prep.model(prep.features[min(prep.features)])
    finally:
        tracer.remove()
    assert tracer.leftovers() == []
    assert (training.train, tensor.matmul, tensor.Tape.backward,
            layers.Conv1d.__call__) == originals
    assert "__call__" not in vars(layers.Conv1d)
    names = {s.name for s in tracer.spans}
    assert {"data.features", "attention", "boundary_net", "boundary_net.matching",
            "boundary_net.conv1d"} <= names


@pytest.mark.parametrize("workload", sorted(MINIATURES))
@pytest.mark.parametrize("trace", [False, True])
def test_miniature_emits_every_metric(tmp_path, miniature, workload, trace):
    metrics, _notes, cycles = run.benchmark(workload, 5, 0.0, trace, tmp_path)
    assert {name: unit for name, (_value, unit) in metrics.items()} == \
        (PER_LAYER if trace else END_TO_END)
    assert all(math.isfinite(value) for value, _unit in metrics.values())
    assert [p for c in cycles for p in c.problems] == []


def test_exact_counts_repeat_on_one_seed(tmp_path, miniature):
    exact = ("autodiff.tape_records_per_step", "inference.candidates_per_video",
             "evaluation.ar_at_10")
    first, _, _ = run.benchmark("desk", 7, 0.0, True, tmp_path / "a")
    second, _, _ = run.benchmark("desk", 7, 0.0, True, tmp_path / "b")
    assert [first[k] for k in exact] == [second[k] for k in exact]
    assert first["autodiff.tape_records_per_step"][0] > 0


def test_failed_checks_are_reported():
    good = [pipeline.inference.Proposal(1.0, 2.0, 0.9),
            pipeline.inference.Proposal(0.5, 3.0, 0.4)]
    assert pipeline.proposal_problems(good, 4.0, 100) == []
    assert pipeline.proposal_problems(good, 2.5, 100)            # end beyond duration
    assert pipeline.proposal_problems(good[::-1], 4.0, 100)      # ascending scores
    assert pipeline.proposal_problems(good, 4.0, 1)              # over max_keep
    nan = [pipeline.inference.Proposal(1.0, 2.0, math.nan)]
    assert pipeline.proposal_problems(nan, 4.0, 100)
    assert pipeline.recall_problems(np.array([0.2, 1.2]), {10: 0.5})
    assert pipeline.roundtrip_problems({"v": good}, {"v": good[:1]})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
