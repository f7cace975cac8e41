"""Command-line entry points, exercised end to end in a temp directory."""

import json
import logging
import os
import shutil

import numpy as np
import pytest

from tapgkit.autodiff.checkpoint import load_checkpoint, save_checkpoint
from tapgkit.cli import main
from tapgkit.data.features import load_features, save_features


@pytest.fixture(scope="module")
def small_ini(tmp_path_factory):
    """A corpus and training profile small enough for fast CLI runs."""
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_text("""
[synthetic]
num_videos = 4
num_snippets = 16
snippet_stride = 8
env_dim = 8
actor_dim = 8
object_dim = 8
max_action_len = 6

[representation]
feature_dim = 12
attention_hidden = 16

[boundary_net]
num_samples = 8
trunk_hidden = 16
trunk_out = 12
boundary_hidden = 16
proposal_conv3d_out = 24
proposal_conv2d_hidden = 12

[training]
epochs = 2
""")
    return path


@pytest.fixture(scope="module")
def corpus_dir(small_ini, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--config", str(small_ini), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(small_ini, corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--config", str(small_ini),
                 "--data", str(corpus_dir), "--out", str(out)])
    assert code == 0
    return out


class TestConfigCommand:
    def test_writes_default_ini(self, tmp_path, capsys):
        out = tmp_path / "default.ini"
        assert main(["config", "--out", str(out)]) == 0
        assert "[training]" in out.read_text()

    def test_prints_to_stdout(self, capsys):
        assert main(["config"]) == 0
        assert "[synthetic]" in capsys.readouterr().out


class TestSynthCommand:
    def test_corpus_layout(self, corpus_dir):
        assert (corpus_dir / "annotations.json").exists()
        assert (corpus_dir / "vocabulary.json").exists()
        feats = sorted((corpus_dir / "features").glob("*.feat"))
        assert len(feats) == 4

    def test_manifest_line(self, small_ini, tmp_path, capsys):
        assert main(["synth", "--config", str(small_ini),
                     "--out", str(tmp_path / "c")]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        manifest = json.loads(line)
        assert manifest["videos"] == 4

    def test_seed_override_changes_data(self, small_ini, tmp_path):
        main(["synth", "--config", str(small_ini), "--out",
              str(tmp_path / "a"), "--seed", "1"])
        main(["synth", "--config", str(small_ini), "--out",
              str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "annotations.json").read_text()
        b = (tmp_path / "b" / "annotations.json").read_text()
        assert a != b


class TestTrainCommand:
    def test_artifacts(self, run_dir):
        assert (run_dir / "checkpoint.tapg").exists()
        assert (run_dir / "manifest.json").exists()
        lines = (run_dir / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["epoch"] == 0 and "mean_total" in first

    def test_manifest_contents(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["run"]["epochs_completed"] == 2
        assert manifest["run"]["videos"] == 4
        assert manifest["training"]["epochs"] == 2

    def test_manifest_counts_trainable_and_fixed_entries(self, run_dir):
        run = json.loads((run_dir / "manifest.json").read_text())["run"]
        state = load_checkpoint(run_dir / "checkpoint.tapg")
        model = sum(v.size for k, v in state.items() if not k.startswith(("optim.", "meta.")))
        moments = sum(v.size for k, v in state.items() if k.startswith("optim.m."))
        # the adaptive scorers: per stream, two [8, 16, 16] MLPs with biases
        assert run["fixed_parameters"] == 2 * 2 * (8 * 16 + 16 + 16 * 16 + 16)
        assert run["trainable_parameters"] == moments == model - run["fixed_parameters"]

    def test_manifest_records_numpy_and_blas_threads(self, run_dir):
        env = json.loads((run_dir / "manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"], str) and env["blas"]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            assert env[var] == os.environ.get(var)
        assert isinstance(env["cpu_affinity"], int) and env["cpu_affinity"] >= 1

    def test_resume_continues(self, small_ini, corpus_dir, run_dir, tmp_path):
        out = tmp_path / "resumed"
        code = main(["train", "--config", str(small_ini),
                     "--data", str(corpus_dir), "--out", str(out),
                     "--resume", str(run_dir / "checkpoint.tapg"),
                     "--epochs", "3"])
        assert code == 0
        lines = [json.loads(l) for l in
                 (out / "epochs.jsonl").read_text().splitlines()]
        assert [l["epoch"] for l in lines] == [2]

    def test_resume_matches_uninterrupted_run(self, small_ini, corpus_dir, run_dir, tmp_path):
        out = tmp_path / "split"
        args = ["train", "--config", str(small_ini), "--data", str(corpus_dir),
                "--out", str(out)]
        assert main(args + ["--epochs", "1"]) == 0
        assert main(args + ["--resume", str(out / "checkpoint.tapg")]) == 0
        for name in ("checkpoint.tapg", "epochs.jsonl"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_epoch_override(self, small_ini, corpus_dir, tmp_path):
        out = tmp_path / "short"
        assert main(["train", "--config", str(small_ini),
                     "--data", str(corpus_dir), "--out", str(out),
                     "--epochs", "1"]) == 0
        assert len((out / "epochs.jsonl").read_text().splitlines()) == 1

    def test_fresh_run_replaces_epoch_log(self, small_ini, corpus_dir, tmp_path):
        out = tmp_path / "twice"
        for _ in range(2):
            assert main(["train", "--config", str(small_ini),
                         "--data", str(corpus_dir), "--out", str(out)]) == 0
        assert len((out / "epochs.jsonl").read_text().splitlines()) == 2


class TestInferCommand:
    def test_proposals_file(self, small_ini, corpus_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "proposals.json"
        code = main(["infer", "--config", str(small_ini),
                     "--data", str(corpus_dir),
                     "--checkpoint", str(run_dir / "checkpoint.tapg"),
                     "--out", str(out)])
        assert code == 0
        table = json.loads(out.read_text())
        assert len(table) == 4
        assert all(isinstance(v, list) for v in table.values())
        manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert manifest["videos"] == 4
        decode = manifest["decode"]
        kept = [len(v) for v in table.values()]
        assert decode["kept_per_video"] == {"mean": np.mean(kept), "max": max(kept)}
        before = decode["candidates_per_video"]
        assert before["max"] >= before["mean"] >= decode["kept_per_video"]["mean"]
        assert before["max"] >= max(kept) and before["max"] <= 16 * 15 // 2
        assert decode["seconds"] > 0.0

    def test_preset_override(self, small_ini, corpus_dir, run_dir, tmp_path):
        out = tmp_path / "proposals.json"
        assert main(["infer", "--config", str(small_ini),
                     "--data", str(corpus_dir),
                     "--checkpoint", str(run_dir / "checkpoint.tapg"),
                     "--out", str(out), "--preset", "thumos-tad-nms"]) == 0
        assert out.exists()


@pytest.fixture(scope="module")
def report_dir(small_ini, corpus_dir, run_dir, tmp_path_factory):
    proposals = tmp_path_factory.mktemp("inf") / "proposals.json"
    main(["infer", "--config", str(small_ini), "--data", str(corpus_dir),
          "--checkpoint", str(run_dir / "checkpoint.tapg"),
          "--out", str(proposals)])
    out = tmp_path_factory.mktemp("report")
    code = main(["eval", "--config", str(small_ini),
                 "--proposals", str(proposals),
                 "--annotations", str(corpus_dir / "annotations.json"),
                 "--out", str(out)])
    assert code == 0
    return out


class TestEvalCommand:
    def test_report_artifacts(self, report_dir):
        report = json.loads((report_dir / "report.json").read_text())
        assert "area_under_recall_curve" in report
        assert set(report["average_recall_at_budget"]) == {"1", "5", "10", "100"}
        assert (report_dir / "ar_curve.csv").exists()
        assert "<svg" in (report_dir / "ar_curve.svg").read_text()

    def test_curve_csv_shape(self, report_dir):
        lines = (report_dir / "ar_curve.csv").read_text().splitlines()
        assert lines[0] == "budget,average_recall"
        assert len(lines) == 101

    def test_one_warning_per_video_without_ground_truth(self, corpus_dir, tmp_path, caplog):
        annotations = json.loads((corpus_dir / "annotations.json").read_text())
        bare = sorted(annotations)[1]
        annotations[bare]["annotations"] = []
        (tmp_path / "annotations.json").write_text(json.dumps(annotations))
        (tmp_path / "proposals.json").write_text("{}")
        with caplog.at_level(logging.WARNING, logger="tapgkit.evaluation"):
            code = main(["eval", "--proposals", str(tmp_path / "proposals.json"),
                         "--annotations", str(tmp_path / "annotations.json"),
                         "--out", str(tmp_path / "report")])
        assert code == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"video {bare} has no ground truth, excluded from recall"]


class TestSweepCommand:
    def test_sweep_results(self, small_ini, corpus_dir, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(small_ini),
                     "--data", str(corpus_dir), "--values", "1,10",
                     "--epochs", "1", "--out", str(out)])
        assert code == 0
        results = json.loads(out.read_text())
        assert [r["mse_weight"] for r in results] == [1.0, 10.0]
        assert all("average_recall_at_10" in r and "final_mean_loss" in r
                   for r in results)


class TestFailureModes:
    def test_bad_config_path(self, capsys):
        code = main(["train", "--config", "/nonexistent.ini",
                     "--data", "/nowhere", "--out", "/tmp/x"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]

    def test_config_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[synthetic]\nnum_videos = 4\xff\n")
        code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "corpus")])
        assert code == 2
        assert str(bad) in _config_error(capsys)

    def test_resume_from_a_bad_epoch_count(self, small_ini, corpus_dir, run_dir, tmp_path,
                                           capsys):
        state = load_checkpoint(run_dir / "checkpoint.tapg")
        state["meta.epochs_completed"] = np.array(-3.0)
        bad = tmp_path / "bad.tapg"
        save_checkpoint(bad, state)
        code = main(["train", "--config", str(small_ini), "--data", str(corpus_dir),
                     "--out", str(tmp_path / "more"), "--resume", str(bad), "--epochs", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "FileFormatError"
        assert "meta.epochs_completed" in payload["message"]

    def test_missing_corpus(self, small_ini, tmp_path, capsys):
        code = main(["train", "--config", str(small_ini),
                     "--data", str(tmp_path / "void"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]

    def test_bad_checkpoint(self, small_ini, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.tapg"
        bad.write_bytes(b"not a checkpoint")
        code = main(["infer", "--config", str(small_ini),
                     "--data", str(corpus_dir), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]

    def test_frame_count_off_the_snippet_axis(self, small_ini, corpus_dir, run_dir,
                                              tmp_path, capsys):
        data = tmp_path / "corpus"
        shutil.copytree(corpus_dir, data)
        path = data / "annotations.json"
        raw = json.loads(path.read_text())
        vid = sorted(raw)[1]
        raw[vid]["frame_count"] += 8
        raw[vid]["duration"] = raw[vid]["frame_count"] / raw[vid]["fps"]
        path.write_text(json.dumps(raw))
        for command in (["train", "--out", str(tmp_path / "run")],
                        ["infer", "--checkpoint", str(run_dir / "checkpoint.tapg"),
                         "--out", str(tmp_path / "p.json")]):
            code = main([command[0], "--config", str(small_ini), "--data", str(data),
                         *command[1:]])
            assert code == 2
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ConfigError" and vid in err["message"]

    def test_unknown_preset(self, small_ini, corpus_dir, run_dir, tmp_path, capsys):
        code = main(["infer", "--config", str(small_ini),
                     "--data", str(corpus_dir),
                     "--checkpoint", str(run_dir / "checkpoint.tapg"),
                     "--out", str(tmp_path / "p.json"),
                     "--preset", "bogus"])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]


def _config_error(capsys) -> str:
    """The message of the one-line JSON ConfigError a failed command printed."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    return payload["message"]


class TestCorpusRejections:
    """Every corpus ``load_corpus`` refuses, through its own file checks or
    ``check_corpus``, stops ``train`` with a ConfigError."""

    def _train(self, small_ini, data, tmp_path):
        return main(["train", "--config", str(small_ini), "--data", str(data),
                     "--out", str(tmp_path / "run")])

    def _copy(self, corpus_dir, tmp_path):
        data = tmp_path / "corpus"
        shutil.copytree(corpus_dir, data)
        return data, sorted(p.stem for p in (data / "features").iterdir())

    def test_annotation_file_without_videos(self, small_ini, corpus_dir, tmp_path, capsys):
        data, _ = self._copy(corpus_dir, tmp_path)
        (data / "annotations.json").write_text("{}")
        assert self._train(small_ini, data, tmp_path) == 2
        assert "lists no videos" in _config_error(capsys)

    def test_missing_feature_file(self, small_ini, corpus_dir, tmp_path, capsys):
        data, vids = self._copy(corpus_dir, tmp_path)
        (data / "features" / f"{vids[2]}.feat").unlink()
        assert self._train(small_ini, data, tmp_path) == 2
        assert vids[2] in _config_error(capsys)

    @pytest.mark.parametrize("change", ["snippet_count", "stream_width", "stride"])
    def test_video_unlike_the_rest(self, small_ini, corpus_dir, tmp_path, capsys, change):
        data, vids = self._copy(corpus_dir, tmp_path)
        path = data / "features" / f"{vids[1]}.feat"
        seq = load_features(path, vids[1])
        if change == "snippet_count":
            seq.snippets.pop()
        elif change == "stream_width":
            for s in seq.snippets:
                s.environment = s.environment[:-1]
        else:
            seq.snippet_stride *= 2
        save_features(path, seq)
        assert self._train(small_ini, data, tmp_path) == 2
        message = _config_error(capsys)
        assert vids[1] in message
        assert ("stride" in message) == (change == "stride")

    def test_resume_at_final_epoch(self, small_ini, corpus_dir, run_dir, tmp_path, capsys):
        code = main(["train", "--config", str(small_ini), "--data", str(corpus_dir),
                     "--out", str(tmp_path / "more"),
                     "--resume", str(run_dir / "checkpoint.tapg")])
        assert code == 2
        assert "nothing to do" in _config_error(capsys)
        assert not (tmp_path / "more" / "checkpoint.tapg").exists()

    @pytest.mark.parametrize("values", ["1,ten", "0x1", "", " , ,"])
    def test_sweep_values_not_a_number_list(self, small_ini, corpus_dir, tmp_path,
                                            capsys, values):
        code = main(["sweep", "--config", str(small_ini), "--data", str(corpus_dir),
                     "--values", values, "--out", str(tmp_path / "sweep.json")])
        assert code == 2
        assert "--values" in _config_error(capsys)
        assert not (tmp_path / "sweep.json").exists()
